"""Command-line front end: train, sweep, overfit, attack, report.

Configuration comes from a flat key=value file plus repeatable
``--set key=value`` overrides (flags win), so an experiment is fully
described by its config echo. Every command is deterministic given its
config: output files contain no timestamps and the training parallelism
never leaks into results, so reruns produce identical digests.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .attacks import budget_for, greedy_confidence_attack, random_flip_attack, robustness_eval
from .datasets import SbmConfig, generate_sbm, load_graph_dir, load_report, save_report
from .ensemble import (VOTING_RULES, EnsembleModel, decide_hard, decide_soft,
                       ensemble_decide, ensemble_posteriors, serialize_ensemble,
                       train_ensemble)
from .errors import GraphForestError
from .graph import Graph
from .metrics import micro_f1, overfit_gap
from .model import HyperParams, predict_posterior
from .sampling import derive_seed

EXIT_OK, EXIT_USAGE, EXIT_RUNTIME = 0, 1, 2

THREADS_ENV = "GRAPH_FOREST_THREADS"


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    num_models: int = 10
    node_fraction: float = 0.7
    feature_fraction: float = 0.5
    voting: str = "soft"
    num_layers: int = 3
    hidden_dim: int = 64
    epochs: int = 200
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    neighbor_cap: int = 0
    batch_size: int = 0
    init_seed: int = 0
    master_seed: int = 0
    parallelism: int = 1
    output_dir: str = "."
    attack_targets: int = 30
    greedy_pool: int = 32

    def validate(self) -> None:
        if not self.dataset:
            raise UsageError("no dataset configured (key 'dataset')")
        if self.num_models < 1:
            raise UsageError("num_models must be >= 1")
        for name in ("node_fraction", "feature_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise UsageError(f"{name} must lie in (0, 1], got {v}")
        if self.voting not in VOTING_RULES:
            raise UsageError(f"unknown voting rule {self.voting!r}")
        if self.parallelism < 1:
            raise UsageError("parallelism must be >= 1")
        if self.attack_targets < 1:
            raise UsageError("attack_targets must be >= 1")
        if self.greedy_pool < 1:
            raise UsageError("greedy_pool must be >= 1")
        self.hyperparams()

    def hyperparams(self) -> HyperParams:
        try:
            return HyperParams(
                num_layers=self.num_layers, hidden_dim=self.hidden_dim,
                neighbor_cap=self.neighbor_cap, batch_size=self.batch_size,
                epochs=self.epochs, learning_rate=self.learning_rate,
                weight_decay=self.weight_decay, init_seed=self.init_seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def echo(self) -> dict:
        """Provenance columns stamped into every emitted table."""
        return {
            "dataset": self.dataset,
            "num_models": self.num_models,
            "node_fraction": self.node_fraction,
            "feature_fraction": self.feature_fraction,
            "voting": self.voting,
            "master_seed": self.master_seed,
            "init_seed": self.init_seed,
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
            "epochs": self.epochs,
        }


_KIND_NAMES = {int: "an integer", float: "a number"}


def _parse_fields(cls, pairs: dict[str, str], what: str) -> dict:
    """Convert each raw value to the type of the ``cls`` field it names."""
    types = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    out = {}
    for key, raw in pairs.items():
        if key not in names:
            raise UsageError(f"unknown {what} {key!r}")
        kind = types[key]
        try:
            out[key] = kind(raw)
        except ValueError:
            raise UsageError(f"{what} {key} needs {_KIND_NAMES[kind]}, got {raw!r}") from None
    return out


def read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, value = text.partition("=")
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return pairs


def assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        pairs = read_config_file(args.config)
        cfg = replace(cfg, **_parse_fields(ExperimentConfig, pairs, "config key"))
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if overrides:
        cfg = replace(cfg, **_parse_fields(ExperimentConfig, overrides, "config key"))
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.parallelism is not None:
        cfg = replace(cfg, parallelism=args.parallelism)
    env_threads = os.environ.get(THREADS_ENV)
    if env_threads:
        try:
            cfg = replace(cfg, parallelism=int(env_threads))
        except ValueError:
            raise UsageError(f"{THREADS_ENV} must be an integer, got {env_threads!r}") from None
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    cfg.validate()
    return cfg


def resolve_dataset(cfg: ExperimentConfig) -> Graph:
    spec = cfg.dataset
    if spec.startswith("sbm:"):
        params: dict[str, str] = {}
        body = spec[len("sbm:"):]
        for part in body.split(","):
            if not part:
                continue
            if "=" not in part:
                raise UsageError(f"bad sbm parameter {part!r}")
            key, _, value = part.partition("=")
            params[key.strip()] = value.strip()
        kwargs = _parse_fields(SbmConfig, params, "sbm parameter")
        try:
            return generate_sbm(SbmConfig(**kwargs))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad sbm dataset spec: {exc}") from None
    if os.path.isdir(spec):
        return load_graph_dir(spec)
    raise UsageError(f"dataset {spec!r} is neither 'sbm:...' nor a directory")


def _baseline_config(cfg: ExperimentConfig) -> ExperimentConfig:
    return replace(cfg, num_models=1, node_fraction=1.0, feature_fraction=1.0,
                   voting="soft")


def _train(cfg: ExperimentConfig, g: Graph) -> EnsembleModel:
    return train_ensemble(g, cfg.num_models, cfg.node_fraction, cfg.feature_fraction,
                          cfg.hyperparams(), cfg.master_seed,
                          parallelism=cfg.parallelism, voting=cfg.voting)


def _require_test_split(g: Graph) -> np.ndarray:
    if g.test_nodes.size == 0:
        raise GraphForestError("dataset has no test split")
    return g.test_nodes


def _swap_train_test(g: Graph) -> Graph:
    return replace(g, train_nodes=g.test_nodes, test_nodes=g.train_nodes)


def _edge_keep_ratio(g: Graph, nodes: np.ndarray) -> float:
    """Share of g's edges with both ends in ``nodes``: the edge count of
    their induced subgraph, counted on a node mask. 1.0 for an edgeless
    graph."""
    if g.num_edges == 0:
        return 1.0
    inside = np.zeros(g.num_nodes, dtype=bool)
    inside[nodes] = True
    rows = np.repeat(np.arange(g.num_nodes), g.degrees)
    kept = np.count_nonzero(inside[rows] & inside[g.indices]) // 2
    return kept / g.num_edges


def cmd_train(cfg: ExperimentConfig) -> int:
    g = resolve_dataset(cfg)
    ensemble = _train(cfg, g)
    os.makedirs(cfg.output_dir, exist_ok=True)
    model_path = os.path.join(cfg.output_dir, "ensemble.gfe")
    blob = serialize_ensemble(ensemble)
    with open(model_path, "wb") as fh:
        fh.write(blob)

    lines = ["graphforest train"]
    lines += [f"{key}={value}" for key, value in cfg.echo().items()]
    for m in ensemble.models:
        keep = _edge_keep_ratio(g, m.spec.node_subset)
        lines.append(
            f"model {m.spec.model_index}: seed={m.spec.seed} "
            f"nodes={m.spec.node_subset.size} dims={m.spec.feature_subset.size} "
            f"train_f1={m.train_f1:.6f} edge_keep_ratio={keep:.6f}")
    lines.append(f"ensemble_digest=sha256:{hashlib.sha256(blob).hexdigest()}")
    with open(os.path.join(cfg.output_dir, "train_log.txt"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"trained {cfg.num_models} models -> {model_path}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, node_fractions, feature_fractions) -> int:
    if not node_fractions or not feature_fractions:
        raise UsageError("sweep needs non-empty fraction lists")
    cell_cfgs = [replace(cfg, node_fraction=nf, feature_fraction=ff)
                 for nf in node_fractions for ff in feature_fractions]
    for cell_cfg in cell_cfgs:
        cell_cfg.validate()
    g = resolve_dataset(cfg)
    test_nodes = _require_test_split(g)
    truth = g.labels[test_nodes]

    def evaluate(e: EnsembleModel) -> dict:
        # hard-vs-soft difference is logged alongside the selected rule
        stack = ensemble_posteriors(e, g, test_nodes)
        f1_soft = micro_f1(decide_soft(stack, e.weights), truth)
        f1_hard = micro_f1(decide_hard(stack), truth)
        selected = f1_hard if e.voting == "hard" else f1_soft
        return {"test_f1": selected, "test_f1_soft": f1_soft, "test_f1_hard": f1_hard}

    rows = []
    base_cfg = _baseline_config(cfg)
    base = _train(base_cfg, g)
    base_eval = evaluate(base)
    rows.append({"setting": "baseline", **base_cfg.echo(), **base_eval})
    cells = {}
    for cell_cfg in cell_cfgs:
        cell_eval = evaluate(_train(cell_cfg, g))
        cells[(cell_cfg.node_fraction, cell_cfg.feature_fraction)] = cell_eval["test_f1"]
        rows.append({"setting": "ensemble", **cell_cfg.echo(), **cell_eval})

    os.makedirs(cfg.output_dir, exist_ok=True)
    save_report(rows, os.path.join(cfg.output_dir, "sweep.csv"), "csv")
    save_report(rows, os.path.join(cfg.output_dir, "sweep.md"), "markdown")
    # grid view: one row per node fraction, feature fractions as columns,
    # single-model full-graph baseline alongside
    grid_rows = [{"node_fraction": nf, "baseline": base_eval["test_f1"],
                  **{f"feature_fraction={ff}": cells[(nf, ff)]
                     for ff in feature_fractions}}
                 for nf in node_fractions]
    save_report(grid_rows, os.path.join(cfg.output_dir, "sweep_grid.md"), "markdown")
    print(f"sweep: {len(rows)} rows -> {cfg.output_dir}/sweep.csv")
    return EXIT_OK


def cmd_overfit(cfg: ExperimentConfig, reverse: bool, hidden_widths) -> int:
    if not hidden_widths:
        raise UsageError("overfit needs a non-empty hidden width list")
    runs = [(setting, replace(setting_cfg, hidden_dim=int(hidden)))
            for hidden in hidden_widths
            for setting, setting_cfg in (("baseline", _baseline_config(cfg)),
                                         ("ensemble", cfg))]
    for _, run_cfg in runs:
        run_cfg.validate()
    g = resolve_dataset(cfg)
    if g.train_nodes.size == 0 or g.test_nodes.size == 0:
        raise GraphForestError("overfit experiment needs both train and test splits")
    if reverse:
        g = _swap_train_test(g)

    rows = []
    for setting, run_cfg in runs:
        e = _train(run_cfg, g)
        train_pred = ensemble_decide(e, g, g.train_nodes)
        test_pred = ensemble_decide(e, g, g.test_nodes)
        train_f1 = micro_f1(train_pred, g.labels[g.train_nodes])
        test_f1 = micro_f1(test_pred, g.labels[g.test_nodes])
        rows.append({"setting": setting, "reverse": reverse,
                     "train_f1": train_f1, "test_f1": test_f1,
                     "gap": overfit_gap(train_f1, test_f1), **run_cfg.echo()})

    os.makedirs(cfg.output_dir, exist_ok=True)
    save_report(rows, os.path.join(cfg.output_dir, "overfit.csv"), "csv")
    save_report(rows, os.path.join(cfg.output_dir, "overfit.md"), "markdown")
    print(f"overfit: {len(rows)} rows -> {cfg.output_dir}/overfit.csv")
    return EXIT_OK


def cmd_attack(cfg: ExperimentConfig, attack: str, budget_fraction: float) -> int:
    if attack not in ("random", "greedy"):
        raise UsageError(f"unknown attack {attack!r}")
    if not 0.0 <= budget_fraction <= 1.0:
        raise UsageError("budget fraction must lie in [0, 1]")
    g = resolve_dataset(cfg)
    test_nodes = _require_test_split(g)

    baseline = _train(_baseline_config(cfg), g)
    ensemble = _train(cfg, g)
    budget = budget_for(g, budget_fraction)

    if attack == "random":
        attacked = random_flip_attack(g, budget, seed=derive_seed(cfg.master_seed, 9001))
        eval_nodes = test_nodes
        eval_kind = "test_set"
    else:
        rng = np.random.default_rng(derive_seed(cfg.master_seed, 9002))
        count = min(cfg.attack_targets, test_nodes.size)
        targets = np.sort(rng.choice(test_nodes, size=count, replace=False))
        victim_model = baseline.models[0]
        attacked = greedy_confidence_attack(
            g, lambda gg: predict_posterior(victim_model, gg, targets), targets,
            budget, cfg.greedy_pool, seed=derive_seed(cfg.master_seed, 9003))
        eval_nodes = targets
        eval_kind = "targets"

    truth = g.labels[eval_nodes]
    rows = []
    for setting, model in (("baseline", baseline), ("ensemble", ensemble)):
        f1_clean, f1_attacked, drop = robustness_eval(
            lambda gg, nn, _m=model: ensemble_decide(_m, gg, nn),
            g, attacked, eval_nodes, truth)
        rows.append({"setting": setting, "attack": attack,
                     "budget_fraction": budget_fraction,
                     "resolved_edges": budget.resolved_edges, "eval": eval_kind,
                     "f1_clean": f1_clean, "f1_attacked": f1_attacked,
                     "drop": drop, **cfg.echo()})

    os.makedirs(cfg.output_dir, exist_ok=True)
    save_report(rows, os.path.join(cfg.output_dir, "attack.csv"), "csv")
    save_report(rows, os.path.join(cfg.output_dir, "attack.md"), "markdown")
    print(f"attack: {len(rows)} rows -> {cfg.output_dir}/attack.csv")
    return EXIT_OK


def cmd_report(input_path: str, fmt: str, output_path: str) -> int:
    rows = load_report(input_path)
    save_report(rows, output_path, fmt)
    print(f"report: {input_path} -> {output_path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the CLI contract reserves 2 for
    # runtime failures, so route everything through exit code 1.
    def error(self, message):
        raise UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"expected a comma-separated number list, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphforest",
                     description="Bagged message-passing node classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable; flags win)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--parallelism", type=int, help="training worker count")
        p.add_argument("--out", help="output directory")

    add_common(sub.add_parser("train", help="train and serialize an ensemble"))

    p_sweep = sub.add_parser("sweep", help="micro-F1 grid over sampling fractions")
    add_common(p_sweep)
    p_sweep.add_argument("--node-fractions", default="0.3,0.7,1.0")
    p_sweep.add_argument("--feature-fractions", default="0.1,0.3,0.5,0.7,1.0")

    p_over = sub.add_parser("overfit", help="train/test gap for baseline vs ensemble")
    add_common(p_over)
    p_over.add_argument("--reverse", action="store_true",
                        help="swap train and test node sets before training")
    p_over.add_argument("--hidden-widths", default="64,256")

    p_att = sub.add_parser("attack", help="edge-flip attack on baseline vs ensemble")
    add_common(p_att)
    p_att.add_argument("--attack", choices=("random", "greedy"), default="random")
    p_att.add_argument("--budget", type=float, default=0.1,
                       help="edge budget as a fraction of the clean edge count")

    p_rep = sub.add_parser("report", help="re-render a CSV report")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p_rep.add_argument("--out-file", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return cmd_report(args.input, args.format, args.out_file)
        cfg = assemble_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, _float_list(args.node_fractions),
                             _float_list(args.feature_fractions))
        if args.command == "overfit":
            return cmd_overfit(cfg, args.reverse, _int_list(args.hidden_widths))
        if args.command == "attack":
            return cmd_attack(cfg, args.attack, args.budget)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphForestError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
