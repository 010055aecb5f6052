import hashlib
import os
import re
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from graphforest import (SbmConfig, edge_preservation_ratio, ensemble_digest,
                         induced_subgraph, load_ensemble, load_report, overfit_gap,
                         save_ensemble, save_report)
from graphforest.cli import (THREADS_ENV, ExperimentConfig, _train, assemble_config,
                             build_parser, cmd_train, main, resolve_dataset)

SBM_TINY = ("sbm:num_nodes=60,num_classes=2,p_in=0.3,p_out=0.03,feature_dim=10,"
            "signal=1.0,noise_sd=0.8,train_fraction=0.3,seed=11")


CONFIG_TYPES = get_type_hints(ExperimentConfig)
SBM_TYPES = get_type_hints(SbmConfig)
MALFORMED = {int: "2.5", float: "abc"}
GOOD = {int: "7", float: "0.25", str: "some/where"}


def run(*argv):
    return main(list(argv))


@pytest.fixture
def no_training(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("trained before the config was rejected")

    monkeypatch.setattr("graphforest.cli._train", fail)


def digest_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def write_config(tmp_path, **extra):
    lines = [f"dataset={SBM_TINY}", "num_models=3", "node_fraction=0.7",
             "feature_fraction=0.5", "hidden_dim=8", "epochs=15",
             "master_seed=4"]
    lines += [f"{k}={v}" for k, v in extra.items()]
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def pre_change_train_outputs(cfg, out):
    """cmd_train as it was written before it serialized once: save the
    ensemble, digest a second serialization, and log each model's edge
    keep ratio from a second induced subgraph."""
    g = resolve_dataset(cfg)
    ensemble = _train(cfg, g)
    os.makedirs(out)
    save_ensemble(ensemble, os.path.join(out, "ensemble.gfe"))
    lines = ["graphforest train"]
    lines += [f"{key}={value}" for key, value in cfg.echo().items()]
    for m in ensemble.models:
        sub = induced_subgraph(g, m.spec.node_subset)
        keep = edge_preservation_ratio(g, sub)
        lines.append(
            f"model {m.spec.model_index}: seed={m.spec.seed} "
            f"nodes={m.spec.node_subset.size} dims={m.spec.feature_subset.size} "
            f"train_f1={m.train_f1:.6f} edge_keep_ratio={keep:.6f}")
    lines.append(f"ensemble_digest=sha256:{ensemble_digest(ensemble)}")
    with open(os.path.join(out, "train_log.txt"), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


class TestTrain:
    @pytest.mark.parametrize("node_fraction", [0.3, 0.7, 1.0])
    def test_outputs_match_pre_change_procedure(self, tmp_path, node_fraction):
        cfg = ExperimentConfig(dataset=SBM_TINY, num_models=3, node_fraction=node_fraction,
                               feature_fraction=0.5, hidden_dim=8, epochs=15,
                               master_seed=4, output_dir=str(tmp_path / "new"))
        assert cmd_train(cfg) == 0
        pre_change_train_outputs(cfg, str(tmp_path / "old"))
        assert digest_dir(tmp_path / "new") == digest_dir(tmp_path / "old")

    def test_edgeless_graph_keep_ratio_is_one(self, tmp_path):
        cfg = ExperimentConfig(dataset=SBM_TINY.replace("p_in=0.3,p_out=0.03",
                                                        "p_in=0.0,p_out=0.0"),
                               num_models=2, node_fraction=0.7, feature_fraction=0.5,
                               hidden_dim=4, epochs=3, master_seed=4,
                               output_dir=str(tmp_path / "new"))
        assert cmd_train(cfg) == 0
        pre_change_train_outputs(cfg, str(tmp_path / "old"))
        assert digest_dir(tmp_path / "new") == digest_dir(tmp_path / "old")
        assert "edge_keep_ratio=1.000000" in (tmp_path / "new" / "train_log.txt").read_text()

    def test_baseline_single_model(self, tmp_path):
        cfg = write_config(tmp_path, num_models=1, node_fraction=1.0,
                           feature_fraction=1.0)
        out = tmp_path / "run"
        assert run("train", "--config", cfg, "--out", str(out)) == 0
        e = load_ensemble(out / "ensemble.gfe")
        assert e.num_models == 1
        log = (out / "train_log.txt").read_text()
        assert "train_f1=" in log and "edge_keep_ratio=" in log
        assert "ensemble_digest=sha256:" in log

    def test_invalid_fraction_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("train", "--config", cfg, "--set", "node_fraction=0",
                   "--out", str(tmp_path / "x")) == 1

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("train", "--config", cfg, "--set", "bogus=1",
                   "--out", str(tmp_path / "x")) == 1

    def test_missing_dataset_is_usage_error(self, tmp_path):
        assert run("train", "--out", str(tmp_path / "x")) == 1

    def test_rerun_identical_digest(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", cfg, "--out", str(out_a)) == 0
        assert run("train", "--config", cfg, "--out", str(out_b)) == 0
        assert digest_dir(out_a) == digest_dir(out_b)

    def test_parallelism_does_not_change_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "p1", tmp_path / "p4"
        assert run("train", "--config", cfg, "--out", str(out_a),
                   "--parallelism", "1") == 0
        assert run("train", "--config", cfg, "--out", str(out_b),
                   "--parallelism", "4") == 0
        assert digest_dir(out_a) == digest_dir(out_b)

    def test_env_threads_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "envrun", tmp_path / "flagrun"
        monkeypatch.setenv("GRAPH_FOREST_THREADS", "2")
        assert run("train", "--config", cfg, "--out", str(out_a),
                   "--parallelism", "1") == 0
        monkeypatch.delenv("GRAPH_FOREST_THREADS")
        assert run("train", "--config", cfg, "--out", str(out_b)) == 0
        assert digest_dir(out_a) == digest_dir(out_b)

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, num_models=2)
        out = tmp_path / "ovr"
        assert run("train", "--config", cfg, "--set", "num_models=4",
                   "--out", str(out)) == 0
        assert load_ensemble(out / "ensemble.gfe").num_models == 4

    def test_seed_flag_wins(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "seeded"
        assert run("train", "--config", cfg, "--seed", "77",
                   "--out", str(out)) == 0
        assert load_ensemble(out / "ensemble.gfe").master_seed == 77


class TestSweep:
    def test_single_cell_has_baseline_row(self, tmp_path):
        cfg = write_config(tmp_path, epochs=8)
        out = tmp_path / "sweep"
        assert run("sweep", "--config", cfg, "--out", str(out),
                   "--node-fractions", "0.7", "--feature-fractions", "0.5") == 0
        rows = load_report(out / "sweep.csv")
        assert len(rows) == 2
        assert rows[0]["setting"] == "baseline"
        assert rows[1]["setting"] == "ensemble"
        for row in rows:
            for key in ("num_models", "node_fraction", "feature_fraction",
                        "master_seed", "test_f1", "test_f1_soft", "test_f1_hard"):
                assert key in row
        assert (out / "sweep.md").exists()

    def test_grid_row_count(self, tmp_path):
        cfg = write_config(tmp_path, num_models=2, epochs=4, hidden_dim=4)
        out = tmp_path / "grid"
        assert run("sweep", "--config", cfg, "--out", str(out),
                   "--node-fractions", "0.3,0.7,1.0",
                   "--feature-fractions", "0.1,0.3,0.5,0.7,1.0") == 0
        rows = load_report(out / "sweep.csv")
        assert len(rows) == 1 + 3 * 5
        grid = (out / "sweep_grid.md").read_text().splitlines()
        assert grid[0].startswith("| node_fraction | baseline | feature_fraction=0.1 |")
        assert len(grid) == 2 + 3  # header, separator, one row per node fraction

    def test_markdown_matches_report_verb(self, tmp_path):
        cfg = write_config(tmp_path, epochs=5)
        out = tmp_path / "rv"
        assert run("sweep", "--config", cfg, "--out", str(out),
                   "--node-fractions", "1.0", "--feature-fractions", "1.0") == 0
        rendered = tmp_path / "again.md"
        assert run("report", "--input", str(out / "sweep.csv"),
                   "--format", "markdown", "--out-file", str(rendered)) == 0
        assert rendered.read_text() == (out / "sweep.md").read_text()

    def test_bad_cell_is_usage_error_before_training(self, tmp_path, no_training):
        out = tmp_path / "bad"
        assert run("sweep", "--config", write_config(tmp_path), "--out", str(out),
                   "--node-fractions", "0.5,1.0,1.5", "--feature-fractions", "0.5") == 1
        assert not out.exists()


class TestOverfit:
    def test_rows_and_gap_column(self, tmp_path):
        cfg = write_config(tmp_path, epochs=10)
        out = tmp_path / "overfit"
        assert run("overfit", "--config", cfg, "--out", str(out),
                   "--hidden-widths", "4,8") == 0
        rows = load_report(out / "overfit.csv")
        assert len(rows) == 4  # {baseline, ensemble} x {4, 8}
        for row in rows:
            gap = overfit_gap(float(row["train_f1"]), float(row["test_f1"]))
            assert float(row["gap"]) == pytest.approx(gap, abs=1e-12)

    def test_reverse_flag_swaps_splits(self, tmp_path):
        from graphforest.cli import _swap_train_test, resolve_dataset, ExperimentConfig
        cfg = ExperimentConfig(dataset=SBM_TINY)
        g = resolve_dataset(cfg)
        swapped = _swap_train_test(g)
        assert np.array_equal(swapped.train_nodes, g.test_nodes)
        assert np.array_equal(swapped.test_nodes, g.train_nodes)
        assert _swap_train_test(swapped).equals(g)

    def test_reverse_cli_runs(self, tmp_path):
        cfg = write_config(tmp_path, epochs=6, num_models=2, hidden_dim=4)
        out = tmp_path / "rev"
        assert run("overfit", "--config", cfg, "--out", str(out), "--reverse",
                   "--hidden-widths", "4") == 0
        rows = load_report(out / "overfit.csv")
        assert all(row["reverse"] == "True" for row in rows)

    def test_bad_width_is_usage_error_before_training(self, tmp_path, no_training):
        out = tmp_path / "bad"
        assert run("overfit", "--config", write_config(tmp_path), "--out", str(out),
                   "--hidden-widths", "8,16,0") == 1
        assert not out.exists()


class TestAttack:
    def test_zero_budget_zero_drop(self, tmp_path):
        cfg = write_config(tmp_path, epochs=10)
        out = tmp_path / "att0"
        assert run("attack", "--config", cfg, "--out", str(out),
                   "--attack", "random", "--budget", "0") == 0
        rows = load_report(out / "attack.csv")
        assert len(rows) == 2
        for row in rows:
            assert float(row["drop"]) == 0.0
            assert row["f1_clean"] == row["f1_attacked"]

    def test_random_attack_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, epochs=8)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        for out in (out_a, out_b):
            assert run("attack", "--config", cfg, "--out", str(out),
                       "--attack", "random", "--budget", "0.1") == 0
        assert digest_dir(out_a) == digest_dir(out_b)

    def test_greedy_attack_runs(self, tmp_path):
        cfg = write_config(tmp_path, epochs=8, attack_targets=5, greedy_pool=4)
        out = tmp_path / "greedy"
        assert run("attack", "--config", cfg, "--out", str(out),
                   "--attack", "greedy", "--budget", "0.02") == 0
        rows = load_report(out / "attack.csv")
        assert {row["setting"] for row in rows} == {"baseline", "ensemble"}
        assert all(row["eval"] == "targets" for row in rows)

    @pytest.mark.parametrize("key", ["attack_targets", "greedy_pool"])
    def test_non_positive_greedy_setting_is_usage_error(self, tmp_path, no_training, key):
        # rejected while the config is read, before any model is trained
        cfg = write_config(tmp_path, epochs=8)
        out = tmp_path / "bad"
        for value in ("0", "-3"):
            assert run("attack", "--config", cfg, "--set", f"{key}={value}",
                       "--out", str(out), "--attack", "greedy", "--budget", "0.02") == 1
        assert not out.exists()


class TestConfigKeys:
    @pytest.mark.parametrize("key,value", [("hidden_dim", "0"), ("num_layers", "0"),
                                           ("epochs", "-1"), ("neighbor_cap", "-1"),
                                           ("batch_size", "-1"), ("learning_rate", "0"),
                                           ("weight_decay", "-1"), ("learning_rate", "nan"),
                                           ("learning_rate", "inf"), ("weight_decay", "nan"),
                                           ("weight_decay", "inf")])
    def test_bad_hyperparameter_is_usage_error_before_training(self, tmp_path, no_training,
                                                               key, value):
        out = tmp_path / "bad"
        assert run("train", "--config", write_config(tmp_path), "--set", f"{key}={value}",
                   "--out", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", [k for k, t in CONFIG_TYPES.items() if t in MALFORMED])
    def test_malformed_value_names_key(self, tmp_path, capsys, no_training, key):
        bad = MALFORMED[CONFIG_TYPES[key]]
        assert run("train", "--config", write_config(tmp_path), "--set", f"{key}={bad}",
                   "--out", str(tmp_path / "x")) == 1
        assert f"config key {key} needs" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
    def test_good_value_has_field_type(self, monkeypatch, key):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        kind = CONFIG_TYPES[key]
        raw = "weighted" if key == "voting" else GOOD[kind]
        args = build_parser().parse_args(["train", "--set", "dataset=somewhere",
                                          "--set", f"{key}={raw}"])
        value = getattr(assemble_config(args), key)
        assert type(value) is kind and value == kind(raw)

    SBM_BASE = {"num_nodes": "30", "num_classes": "2", "p_in": "0.2", "p_out": "0.05",
                "feature_dim": "4"}

    def sbm_spec(self, key, raw):
        params = dict(self.SBM_BASE, **{key: raw})
        return "sbm:" + ",".join(f"{k}={v}" for k, v in params.items())

    @pytest.mark.parametrize("key", [f.name for f in fields(SbmConfig)])
    def test_malformed_sbm_value_names_key(self, tmp_path, capsys, no_training, key):
        spec = self.sbm_spec(key, MALFORMED[SBM_TYPES[key]])
        assert run("train", "--set", f"dataset={spec}", "--out", str(tmp_path / "x")) == 1
        assert f"sbm parameter {key} needs" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [f.name for f in fields(SbmConfig)])
    def test_good_sbm_value_has_field_type(self, monkeypatch, key):
        monkeypatch.setattr("graphforest.cli.generate_sbm", lambda sbm: sbm)
        kind = SBM_TYPES[key]
        sbm = resolve_dataset(ExperimentConfig(dataset=self.sbm_spec(key, GOOD[kind])))
        value = getattr(sbm, key)
        assert type(value) is kind and value == kind(GOOD[kind])

    def test_readme_names_every_key_with_its_default(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        sentence = text.split("Config keys and defaults:", 1)[1].split("\n\n", 1)[0]
        documented = dict(item.split("=", 1)
                          for item in re.findall(r"`(\w+=[^`]*)`", sentence))
        defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.name != "dataset"}
        assert documented.keys() == defaults.keys()
        for key, raw in documented.items():
            assert CONFIG_TYPES[key](raw) == defaults[key], key


class TestReportVerb:
    def test_csv_to_markdown(self, tmp_path):
        src = tmp_path / "in.csv"
        save_report([{"a": 1, "b": 2.5}], src, "csv")
        dst = tmp_path / "out.md"
        assert run("report", "--input", str(src), "--format", "markdown",
                   "--out-file", str(dst)) == 0
        want = tmp_path / "want.md"
        save_report([{"a": "1", "b": "2.5"}], want, "markdown")
        assert dst.read_text() == want.read_text()

    def test_bad_command_usage(self):
        assert run("frobnicate") == 1
