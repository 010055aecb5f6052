import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from graphforest import (DegenerateSubspaceError, EnsembleModel, GraphValidationError,
                         HyperParams, SbmConfig,
                         build_graph, decide_hard, decide_soft,
                         deserialize_ensemble, ensemble_decide,
                         ensemble_digest, ensemble_posteriors, generate_sbm,
                         load_ensemble, micro_f1, predict_posterior,
                         save_ensemble, save_graph_dir,
                         serialize_ensemble, train_base_model, train_ensemble)
from graphforest import model as model_module
from graphforest.ensemble import PosteriorStack
from graphforest.model import BaseModel, GnnParams, _posteriors, init_params
from graphforest.sampling import SubspaceSpec, sample_subspace
from conftest import random_graph
from oracles import (adjacency_dense, dense_forward, dense_softmax, per_model_posteriors,
                     reference_hard_vote, reference_soft_vote, simplex_grid)


def stack_from(probs):
    arr = np.asarray(probs, dtype=np.float64)
    return PosteriorStack(probs=arr, nodes=np.arange(arr.shape[1]))


HP_FAST = HyperParams(hidden_dim=8, epochs=25)


def random_ensemble(rng, g, layer_counts, hidden=5, feature_fraction=0.5):
    """Untrained ensemble with random weights and random sorted feature masks."""
    d, s = g.num_features, g.num_classes
    width = max(1, int(round(feature_fraction * d)))
    models = []
    for j, num_layers in enumerate(layer_counts):
        fs = np.sort(rng.choice(d, size=width, replace=False))
        dims = [width] + [hidden] * (num_layers - 1) + [s]
        params = GnnParams([rng.uniform(-0.8, 0.8, size=(o, i)) for i, o in zip(dims, dims[1:])],
                           [rng.uniform(-0.8, 0.8, size=(o, i)) for i, o in zip(dims, dims[1:])])
        spec = SubspaceSpec(model_index=j, node_subset=np.arange(g.num_nodes),
                            feature_subset=fs, node_fraction=1.0,
                            feature_fraction=feature_fraction, seed=j)
        models.append(BaseModel(params=params, spec=spec, train_f1=1.0))
    k = len(models)
    return EnsembleModel(models=tuple(models), num_models=k, node_fraction=1.0,
                         feature_fraction=feature_fraction, master_seed=0,
                         voting="soft", weights=np.full(k, 1.0 / k))


def weighted_ensemble(monkeypatch, g, train_f1s):
    """train_ensemble(voting='weighted') over fixed random models that carry
    the given train F1 scores."""
    fixed = random_ensemble(np.random.default_rng(len(train_f1s)), g,
                            [2] * len(train_f1s)).models

    def fake_train(g, spec, hp):
        m = fixed[spec.model_index]
        return BaseModel(params=m.params, spec=m.spec, train_f1=train_f1s[spec.model_index])

    monkeypatch.setattr("graphforest.ensemble.train_base_model", fake_train)
    return train_ensemble(g, len(train_f1s), 1.0, 1.0, HP_FAST, master_seed=0,
                          voting="weighted")


class TestTrainEnsemble:
    def test_single_model_identity(self, sbm_small):
        e = train_ensemble(sbm_small, 1, 1.0, 1.0, HP_FAST, master_seed=5)
        spec = sample_subspace(sbm_small, 1.0, 1.0, 0, 5)
        solo = train_base_model(sbm_small, spec, HP_FAST)
        assert all(np.array_equal(a, b) for a, b in
                   zip(e.models[0].params.arrays(), solo.params.arrays()))
        assert e.models[0].train_f1 == solo.train_f1

    def test_parallelism_bitwise_identical(self, sbm_small):
        serial = train_ensemble(sbm_small, 4, 0.7, 0.5, HP_FAST, master_seed=9,
                                parallelism=1)
        pooled = train_ensemble(sbm_small, 4, 0.7, 0.5, HP_FAST, master_seed=9,
                                parallelism=4)
        assert serialize_ensemble(serial) == serialize_ensemble(pooled)

    def test_degenerate_subspace_reports_index(self):
        g = build_graph([], np.zeros((10, 2)), labels=[0] * 10,
                        splits={"train": range(10)})
        with pytest.raises(DegenerateSubspaceError) as err:
            train_ensemble(g, 3, 0.5, 1.0, HP_FAST, master_seed=1)
        assert err.value.model_index == 0

    def test_weighted_voting_weights(self, sbm_small):
        e = train_ensemble(sbm_small, 3, 0.7, 0.5, HP_FAST, master_seed=2,
                           voting="weighted")
        scores = np.array([m.train_f1 for m in e.models])
        assert np.allclose(e.weights, scores / scores.sum())
        assert e.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_voting_rejected_before_training(self, sbm_small, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampled or trained before the voting rule was rejected")

        monkeypatch.setattr("graphforest.ensemble.sample_subspace", never)
        monkeypatch.setattr("graphforest.ensemble.train_base_model", never)
        with pytest.raises(ValueError, match="unknown voting rule 'majority'"):
            train_ensemble(sbm_small, 6, 0.7, 0.5, HP_FAST, master_seed=0,
                           voting="majority")


class TestPosteriorStack:
    def test_k1_equals_model_posterior(self, sbm_small):
        e = train_ensemble(sbm_small, 1, 1.0, 0.5, HP_FAST, master_seed=3)
        nodes = sbm_small.test_nodes[:5]
        stack = ensemble_posteriors(e, sbm_small, nodes)
        want = predict_posterior(e.models[0], sbm_small, nodes)
        assert np.array_equal(stack.probs[0], want)

    def test_rows_stochastic(self, sbm_small):
        e = train_ensemble(sbm_small, 3, 0.7, 0.5, HP_FAST, master_seed=3)
        stack = ensemble_posteriors(e, sbm_small, sbm_small.test_nodes)
        assert np.max(np.abs(stack.probs.sum(axis=2) - 1.0)) <= 1e-9

    def test_matches_per_model_oracle_trained(self, sbm_small):
        # one shared aggregator and one shared P @ X change no bit
        e = train_ensemble(sbm_small, 4, 0.7, 0.5, HP_FAST, master_seed=6)
        nodes = np.arange(sbm_small.num_nodes)
        stack = ensemble_posteriors(e, sbm_small, nodes)
        assert np.array_equal(stack.probs, per_model_posteriors(e.models, sbm_small, nodes))

    def test_matches_per_model_oracle_random(self):
        # sparse random graphs (isolated nodes included), mixed depths,
        # repeated and unsorted query nodes
        rng = np.random.default_rng(70)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            g = random_graph(rng, n, d=9, edge_prob=float(rng.uniform(0.02, 0.4)))
            e = random_ensemble(rng, g, [1, 2, 3, 2])
            nodes = rng.integers(0, n, size=2 * n)
            stack = ensemble_posteriors(e, g, nodes)
            assert np.array_equal(stack.probs, per_model_posteriors(e.models, g, nodes))

    def test_equals_stacked_predict_posterior(self):
        rng = np.random.default_rng(72)
        for _ in range(5):
            n = int(rng.integers(5, 30))
            g = random_graph(rng, n, d=8, edge_prob=0.2)
            e = random_ensemble(rng, g, [1, 3, 2])
            nodes = rng.integers(0, n, size=n)
            want = np.stack([predict_posterior(m, g, nodes) for m in e.models])
            assert np.array_equal(ensemble_posteriors(e, g, nodes).probs, want)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            g = random_graph(rng, n, d=6)
            e = random_ensemble(rng, g, [1, 2, 3])
            nodes = np.arange(n)
            probs = ensemble_posteriors(e, g, nodes).probs
            adj = adjacency_dense(g)
            for j, m in enumerate(e.models):
                fs = m.spec.feature_subset
                want = dense_softmax(dense_forward(m.params.agg_weights, m.params.self_weights,
                                                   adj, g.features[:, fs]))
                assert np.max(np.abs(probs[j] - want)) <= 1e-12

    def test_invalid_inputs_raise(self):
        rng = np.random.default_rng(71)
        g = random_graph(rng, 12, d=9)
        e = random_ensemble(rng, g, [2, 2])
        narrow = build_graph(g.edge_pairs(), g.features[:, :3])
        with pytest.raises(GraphValidationError):
            ensemble_posteriors(e, narrow, [0])
        for nodes in ([-1], [12], [0, 12]):
            with pytest.raises(GraphValidationError):
                ensemble_posteriors(e, g, nodes)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            stack_from([[[0.9, 0.3]]])


def glorot_ensemble(g, k, hidden, feature_fraction=0.5):
    """Untrained ensemble with Glorot-initialized 3-layer models, so that
    the posteriors stay away from one-hot saturation."""
    rng = np.random.default_rng(0)
    d = g.num_features
    width = max(1, int(round(feature_fraction * d)))
    hp = HyperParams(num_layers=3, hidden_dim=hidden)
    models = []
    for j in range(k):
        spec = SubspaceSpec(model_index=j, node_subset=np.arange(g.num_nodes),
                            feature_subset=np.sort(rng.choice(d, size=width, replace=False)),
                            node_fraction=1.0, feature_fraction=feature_fraction, seed=j)
        params = init_params(hp, width, g.num_classes, seed=j)
        models.append(BaseModel(params=params, spec=spec, train_f1=1.0))
    return EnsembleModel(models=tuple(models), num_models=k, node_fraction=1.0,
                         feature_fraction=feature_fraction, master_seed=0,
                         voting="soft", weights=np.full(k, 1.0 / k))


@pytest.fixture
def openblas():
    """numpy's OpenBLAS thread-count getter, with the count set to 2 for
    the test and put back afterwards."""
    api = model_module._openblas()
    if api is None:
        pytest.skip("numpy ships no OpenBLAS with a thread-count API here")
    get, set_ = api
    old = get()
    set_(2)
    yield get
    set_(old)


HASH_POSTERIORS = """
import hashlib, sys
import numpy as np
import graphforest as gf
g = gf.load_graph_dir(sys.argv[1])
e = gf.load_ensemble(sys.argv[2])
probs = gf.ensemble_posteriors(e, g, np.arange(g.num_nodes)).probs
print(hashlib.sha256(probs.tobytes()).hexdigest())
"""


class TestInferenceThreads:
    """Inference runs the models' forwards on one thread per usable core,
    with BLAS held at one thread; none of that may change a byte."""

    @pytest.mark.parametrize("cores", [1, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 25])
    def test_matches_per_model_oracle(self, monkeypatch, cores, k):
        monkeypatch.setattr(model_module, "_usable_cores", lambda: cores)
        rng = np.random.default_rng(80 + k)
        g = random_graph(rng, 50, d=10, edge_prob=0.1)
        e = random_ensemble(rng, g, [1 + j % 3 for j in range(k)])
        nodes = rng.integers(0, g.num_nodes, size=70)
        probs = ensemble_posteriors(e, g, nodes).probs
        assert probs.shape == (k, nodes.size, g.num_classes)
        assert np.array_equal(probs, per_model_posteriors(e.models, g, nodes))

    @pytest.mark.parametrize("mask, message", [
        (np.array([0, 3, 12, 5]), "graph has 9 feature dims, model's mask needs >= 13"),
        (np.array([-1, 2, 4, 6]), "feature dim id -1 out of range [0, 9)"),
        (np.array([1, 2, 4]), "feature mask width does not match model input"),
    ])
    @pytest.mark.parametrize("bad", [1, 3])
    def test_bad_mask_at_later_model_raises(self, monkeypatch, mask, message, bad):
        monkeypatch.setattr(model_module, "_usable_cores", lambda: 4)
        rng = np.random.default_rng(81)
        g = random_graph(rng, 20, d=9)
        e = random_ensemble(rng, g, [2, 2, 2, 2], feature_fraction=0.45)
        broken = replace(e.models[bad].spec, feature_subset=mask)
        models = list(e.models)
        models[bad] = BaseModel(params=models[bad].params, spec=broken, train_f1=1.0)
        with pytest.raises(GraphValidationError) as fanned:
            _posteriors(models, g, [0, 1])
        with pytest.raises(GraphValidationError) as alone:
            predict_posterior(models[bad], g, [0, 1])
        assert str(fanned.value) == str(alone.value) == message

    def test_blas_pinned_inside_and_restored_after(self, monkeypatch, openblas):
        monkeypatch.setattr(model_module, "_usable_cores", lambda: 2)
        seen = []
        real = model_module._forward_with

        def spy(*args, **kwargs):
            seen.append(openblas())
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "_forward_with", spy)
        rng = np.random.default_rng(82)
        g = random_graph(rng, 30, d=8)
        for layers in ([2], [2, 3, 1]):
            e = random_ensemble(rng, g, layers)
            ensemble_posteriors(e, g, np.arange(g.num_nodes))
            assert openblas() == 2
        assert seen == [1] * 4

    def test_blas_restored_after_raise(self, monkeypatch, openblas):
        monkeypatch.setattr(model_module, "_usable_cores", lambda: 2)
        real = model_module._forward_with
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("forward failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "_forward_with", fail_second)
        rng = np.random.default_rng(83)
        g = random_graph(rng, 30, d=8)
        e = random_ensemble(rng, g, [2, 2, 2])
        with pytest.raises(RuntimeError, match="forward failed"):
            ensemble_posteriors(e, g, np.arange(g.num_nodes))
        assert openblas() == 2

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # one saved ensemble at the width of criterion 4's large model,
        # scored in fresh processes under 1 and 2 BLAS threads
        g = generate_sbm(SbmConfig(num_nodes=600, num_classes=3, p_in=0.1, p_out=0.01,
                                   feature_dim=60, signal=0.6, noise_sd=1.0,
                                   train_fraction=0.1, seed=3))
        save_graph_dir(g, tmp_path / "graph")
        save_ensemble(glorot_ensemble(g, 3, hidden=256), tmp_path / "e.gfe")
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", HASH_POSTERIORS,
                                   str(tmp_path / "graph"), str(tmp_path / "e.gfe")],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-4000:]
            digests.add(proc.stdout.strip())
        assert len(digests) == 1 and len(digests.pop()) == 64


class TestDiscriminant:
    """The weighted posterior average whose argmax ``decide_soft`` returns."""

    def test_two_model_average(self):
        stack = stack_from([[[0.6, 0.4]], [[0.2, 0.8]]])
        assert decide_soft(stack, [0.5, 0.5]).tolist() == [1]   # [0.4, 0.6]
        assert decide_soft(stack, [0.8, 0.2]).tolist() == [0]   # [0.52, 0.48]

    def test_single_model_identity(self):
        stack = stack_from([[[0.3, 0.7], [0.6, 0.4]]])
        assert decide_soft(stack, [1.0]).tolist() == [1, 0]

    def test_one_hot_weights_select_slice(self):
        stack = stack_from([[[0.6, 0.4]], [[0.2, 0.8]], [[0.5, 0.5]]])
        assert decide_soft(stack, [1.0, 0.0, 0.0]).tolist() == [0]
        assert decide_soft(stack, [0.0, 1.0, 0.0]).tolist() == [1]

    def test_weight_length_mismatch(self):
        stack = stack_from([[[0.6, 0.4]]])
        with pytest.raises(ValueError):
            decide_soft(stack, [0.5, 0.5])

    def test_random_weights_match_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k, n, s = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(s), size=(k, n))
            weights = rng.dirichlet(np.ones(k))
            assert (decide_soft(stack_from(probs), weights).tolist()
                    == reference_soft_vote(probs.tolist(), weights.tolist()))


class TestDecisionRules:
    def test_soft_basic(self):
        assert decide_soft(stack_from([[[0.4, 0.6]]])).tolist() == [1]

    def test_soft_tie_smallest_id(self):
        assert decide_soft(stack_from([[[0.5, 0.5]]])).tolist() == [0]

    def test_hard_majority(self):
        stack = stack_from([[[0.9, 0.1]], [[0.8, 0.2]], [[0.1, 0.9]]])
        assert decide_hard(stack).tolist() == [0]

    def test_hard_confidence_tiebreak(self):
        # 1-1 vote tie; voter confidences 0.9 (class 0) vs 0.6 (class 1)
        stack = stack_from([[[0.9, 0.1]], [[0.4, 0.6]]])
        assert decide_hard(stack).tolist() == [0]

    def test_hard_residual_tie_smallest_id(self):
        stack = stack_from([[[0.7, 0.3]], [[0.3, 0.7]]])
        assert decide_hard(stack).tolist() == [0]

    def test_single_model_all_rules_agree(self):
        stack = stack_from([[[0.2, 0.5, 0.3], [0.7, 0.2, 0.1]]])
        want = [1, 0]
        assert decide_soft(stack).tolist() == want
        assert decide_hard(stack).tolist() == want
        assert decide_soft(stack, [1.0]).tolist() == want

    # the weighted rule: decide_soft over train_ensemble's normalized train F1s

    def test_weighted_equal_accuracies_match_soft(self, sbm_small, monkeypatch):
        e = weighted_ensemble(monkeypatch, sbm_small, [0.5] * 4)
        assert e.weights.tolist() == [0.25] * 4
        nodes = np.arange(sbm_small.num_nodes)
        assert np.array_equal(ensemble_decide(e, sbm_small, nodes),
                              decide_soft(ensemble_posteriors(e, sbm_small, nodes)))

    def test_weighted_scaling_invariance(self, sbm_small, monkeypatch):
        acc = np.random.default_rng(1).uniform(0.2, 1.0, size=5)
        a = weighted_ensemble(monkeypatch, sbm_small, acc.tolist())
        b = weighted_ensemble(monkeypatch, sbm_small, (0.5 * acc).tolist())
        assert np.array_equal(a.weights, b.weights)
        nodes = np.arange(sbm_small.num_nodes)
        assert np.array_equal(ensemble_decide(a, sbm_small, nodes),
                              ensemble_decide(b, sbm_small, nodes))

    def test_weighted_single_model_weight_one(self, sbm_small, monkeypatch):
        e = weighted_ensemble(monkeypatch, sbm_small, [0.0, 1.0])
        assert e.weights.tolist() == [0.0, 1.0]
        nodes = np.arange(sbm_small.num_nodes)
        stack = ensemble_posteriors(e, sbm_small, nodes)
        assert np.array_equal(ensemble_decide(e, sbm_small, nodes),
                              stack.probs[1].argmax(axis=1))

    def test_weighted_all_zero_rejected(self, sbm_small, monkeypatch):
        with pytest.raises(ValueError, match="train F1 > 0"):
            weighted_ensemble(monkeypatch, sbm_small, [0.0, 0.0])

    def test_soft_permutation_invariance(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(4), size=(6, 7))
        weights = rng.dirichlet(np.ones(6))
        perm = rng.permutation(6)
        a = decide_soft(stack_from(probs), weights)
        b = decide_soft(stack_from(probs[perm]), weights[perm])
        assert np.array_equal(a, b)

    def test_identical_models_match_single(self):
        rng = np.random.default_rng(3)
        row = rng.dirichlet(np.ones(3), size=5)
        single = stack_from(row[None])
        triple = stack_from(np.repeat(row[None], 3, axis=0))
        want = decide_soft(single)
        assert np.array_equal(decide_soft(triple), want)
        assert np.array_equal(decide_hard(triple), want)

    @pytest.mark.parametrize("k,s", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
    def test_grid_matches_reference(self, k, s):
        # exhaustive over per-node simplex grids (step 1/4); decisions are
        # per-node, so single-node stacks cover every multi-node case
        grid = simplex_grid(s, steps=4)
        for combo in itertools.product(grid, repeat=k):
            probs = [[list(row)] for row in combo]
            stack = stack_from(probs)
            assert decide_soft(stack).tolist() == reference_soft_vote(probs)
            assert decide_hard(stack).tolist() == reference_hard_vote(probs)

    def test_hard_many_ties_match_reference(self):
        # 6 voters over 3 classes: 2-way and 3-way vote ties at most nodes,
        # voter confidences from a small set so tie-break means also tie
        rng = np.random.default_rng(5)
        patterns = [[0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2], [2, 2, 2, 0, 1, 1],
                    [1, 1, 1, 2, 2, 2], [0, 0, 1, 1, 1, 2]]
        k, n, s = 6, 500, 3
        probs = np.empty((k, n, s))
        for i in range(n):
            pattern = patterns[int(rng.integers(len(patterns)))]
            for j, c in enumerate(rng.permutation(pattern)):
                q = float(rng.choice([0.5, 0.6, 0.75, 0.9]))
                probs[j, i] = (1.0 - q) / 2
                probs[j, i, c] = q
        counts = np.stack([np.bincount(col, minlength=s)
                           for col in probs.argmax(axis=2).T])
        tie_width = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1)
        assert np.sum(tie_width == 2) >= 100 and np.sum(tie_width == 3) >= 50
        assert decide_hard(stack_from(probs)).tolist() == reference_hard_vote(probs.tolist())

    def test_multi_node_grid_matches_reference(self):
        rng = np.random.default_rng(4)
        grid = np.array(simplex_grid(3, steps=4))
        for _ in range(200):
            probs = grid[rng.integers(0, len(grid), size=(3, 4))]
            stack = stack_from(probs)
            assert decide_soft(stack).tolist() == reference_soft_vote(probs.tolist())
            assert decide_hard(stack).tolist() == reference_hard_vote(probs.tolist())


class TestSerialization:
    def test_ensemble_roundtrip_bitwise(self, sbm_small, tmp_path):
        e = train_ensemble(sbm_small, 3, 0.7, 0.5, HP_FAST, master_seed=8,
                           voting="weighted")
        path = tmp_path / "e.gfe"
        save_ensemble(e, path)
        back = load_ensemble(path)
        assert serialize_ensemble(back) == serialize_ensemble(e)
        assert back.voting == "weighted"
        for a, b in zip(e.models, back.models):
            assert np.array_equal(a.spec.node_subset, b.spec.node_subset)
            assert np.array_equal(a.spec.feature_subset, b.spec.feature_subset)
            assert a.train_f1 == b.train_f1
            assert all(np.array_equal(x, y)
                       for x, y in zip(a.params.arrays(), b.params.arrays()))

    def test_digest_stable_across_reruns(self, sbm_small):
        a = train_ensemble(sbm_small, 2, 0.7, 0.5, HP_FAST, master_seed=8)
        b = train_ensemble(sbm_small, 2, 0.7, 0.5, HP_FAST, master_seed=8)
        assert ensemble_digest(a) == ensemble_digest(b)

    @staticmethod
    def repack(blob: bytes, **changes) -> bytes:
        """``blob`` with its JSON header fields replaced by ``changes``."""
        magic = b"GFOREST1\n"
        start = len(magic) + 8
        end = start + int.from_bytes(blob[len(magic):start], "little")
        header = json.loads(blob[start:end])
        header.update(changes)
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return magic + len(text).to_bytes(8, "little") + text + blob[end:]

    def test_reject_wrong_kind(self, sbm_small):
        e = train_ensemble(sbm_small, 1, 1.0, 1.0, HP_FAST, master_seed=1)
        blob = serialize_ensemble(e)
        assert self.repack(blob) == blob
        with pytest.raises(ValueError, match="does not hold an ensemble"):
            deserialize_ensemble(self.repack(blob, kind="model"))
        with pytest.raises(ValueError):
            deserialize_ensemble(b"junk" + blob)


class TestVarianceContraction:
    def test_ensemble_f1_spread_not_wider(self):
        # across-seed std of test F1 for k=25 <= that of k=1 (+0.005 slack)
        cfg = SbmConfig(num_nodes=150, num_classes=3, p_in=0.12, p_out=0.02,
                        feature_dim=18, signal=0.7, noise_sd=1.2,
                        train_fraction=0.15, seed=404)
        g = generate_sbm(cfg)
        hp = HyperParams(hidden_dim=16, epochs=60)
        truth = g.labels[g.test_nodes]
        singles, bagged = [], []
        for seed in range(10):
            e1 = train_ensemble(g, 1, 1.0, 1.0, hp, master_seed=seed)
            ek = train_ensemble(g, 25, 0.7, 0.5, hp, master_seed=seed)
            singles.append(micro_f1(ensemble_decide(e1, g, g.test_nodes), truth))
            bagged.append(micro_f1(ensemble_decide(ek, g, g.test_nodes), truth))
        assert np.std(bagged) <= np.std(singles) + 0.005
