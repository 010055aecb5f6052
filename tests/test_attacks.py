import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from graphforest import (AttackBudget, HyperParams, budget_for, build_graph,
                         check_invariants, derive_seed, generate_sbm,
                         greedy_confidence_attack, predict_posterior,
                         random_flip_attack, robustness_eval, train_ensemble,
                         SbmConfig)
from conftest import random_graph
from graphforest import attacks as attacks_module
from graphforest.attacks import _two_hop_pool
from oracles import reference_random_flip_csr, reference_two_hop_pool
from test_acceptance import FIXTURE, SEEDS


def edge_set(g):
    return {(int(u), int(v)) for u, v in g.edge_pairs()}


def edit_distance(a, b):
    return len(edge_set(a) ^ edge_set(b))


@pytest.fixture(scope="module")
def attack_fixture():
    g = generate_sbm(SbmConfig(num_nodes=80, num_classes=2, p_in=0.25, p_out=0.03,
                               feature_dim=10, signal=1.0, noise_sd=0.8,
                               train_fraction=0.3, seed=50))
    e = train_ensemble(g, 1, 1.0, 1.0, HyperParams(hidden_dim=16, epochs=80),
                       master_seed=1)
    return g, e.models[0]


@pytest.fixture(scope="module")
def acceptance_graph():
    return generate_sbm(FIXTURE)


class TestBudget:
    def test_floor_arithmetic(self):
        g = random_graph(np.random.default_rng(0), 30, edge_prob=0.25)
        b = budget_for(g, 0.1)
        assert b.resolved_edges == int(0.1 * g.num_edges + 1e-9)

    def test_exact_products_do_not_floor_low(self):
        # 0.3 of 10 edges is exactly 3 flips despite 0.3*10 = 2.999...
        g = build_graph([(i, i + 1) for i in range(10)], np.zeros((11, 1)))
        assert budget_for(g, 0.3).resolved_edges == 3

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            AttackBudget(fraction=1.5, resolved_edges=1)


class TestRandomFlip:
    def test_zero_budget_unchanged(self):
        g = random_graph(np.random.default_rng(1), 12)
        out = random_flip_attack(g, AttackBudget(0.0, 0), seed=3)
        assert out.equals(g)

    def test_exact_flip_count(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 25, edge_prob=0.35)
        m = g.num_edges
        budget = AttackBudget(0.1, 10)
        out = random_flip_attack(g, budget, seed=9)
        assert edit_distance(g, out) == 10
        assert abs(out.num_edges - m) <= 10

    def test_deterministic(self):
        g = random_graph(np.random.default_rng(3), 20, edge_prob=0.3)
        b = budget_for(g, 0.2)
        a = random_flip_attack(g, b, seed=11)
        c = random_flip_attack(g, b, seed=11)
        assert a.equals(c)

    def test_invariants_and_payload_untouched(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 30, edge_prob=0.2)
        out = random_flip_attack(g, budget_for(g, 0.25), seed=5)
        check_invariants(out)
        assert np.array_equal(out.features, g.features)
        assert np.array_equal(out.labels, g.labels)
        assert np.array_equal(out.train_nodes, g.train_nodes)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_resorting_loop_on_acceptance_seeds(self, acceptance_graph, seed):
        # the acceptance fixture, budget and seeds of criterion 5
        g = acceptance_graph
        budget = budget_for(g, 0.10)
        out = random_flip_attack(g, budget, seed=derive_seed(seed, 9001))
        indptr, indices = reference_random_flip_csr(g, budget.resolved_edges,
                                                    derive_seed(seed, 9001))
        assert np.array_equal(out.indptr, indptr)
        assert np.array_equal(out.indices, indices)

    def test_matches_resorting_loop_dense_graph(self):
        # on a complete graph every addition attempt fails and falls back
        # to a deletion
        g = random_graph(np.random.default_rng(6), 5, edge_prob=1.0)
        budget = AttackBudget(1.0, 4)
        out = random_flip_attack(g, budget, seed=4)
        indptr, indices = reference_random_flip_csr(g, budget.resolved_edges, 4)
        assert np.array_equal(out.indptr, indptr)
        assert np.array_equal(out.indices, indices)

    def test_edgeless_graph_only_adds(self):
        g = build_graph([], np.zeros((6, 1)))
        out = random_flip_attack(g, AttackBudget(1.0, 3), seed=1)
        assert out.num_edges == 3
        check_invariants(out)


class TestTwoHopPool:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_loop_on_acceptance_seeds(self, acceptance_graph, seed):
        # criterion 5's targets, on the clean graph and on a randomly
        # attacked one
        g = acceptance_graph
        rng = np.random.default_rng(derive_seed(seed, 9002))
        targets = np.sort(rng.choice(g.test_nodes, size=30, replace=False))
        attacked = random_flip_attack(g, budget_for(g, 0.10), seed=derive_seed(seed, 9001))
        for graph in (g, attacked):
            got = _two_hop_pool(graph, targets)
            want = reference_two_hop_pool(graph, targets)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    def test_matches_loop_on_random_graphs(self):
        # isolated nodes, repeated targets and an empty target list
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            g = random_graph(rng, n, edge_prob=float(rng.uniform(0.0, 0.3)))
            targets = rng.integers(0, n, size=int(rng.integers(0, 6)))
            got = _two_hop_pool(g, targets)
            want = reference_two_hop_pool(g, targets)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)


class TestGreedy:
    def test_zero_budget_unchanged(self, attack_fixture):
        g, model = attack_fixture
        targets = g.test_nodes[:5]
        out = greedy_confidence_attack(
            g, lambda gg: predict_posterior(model, gg, targets), targets,
            AttackBudget(0.0, 0), candidate_pool_size=4, seed=2)
        assert out.equals(g)

    def test_constant_oracle_spends_budget_on_first_candidates(self, monkeypatch,
                                                               attack_fixture):
        # on one core the oracle is queried in sampled order
        monkeypatch.setattr(attacks_module, "_usable_cores", lambda: 1)
        g, _ = attack_fixture
        targets = g.test_nodes[:4]
        queried = []

        def constant_oracle(gg):
            queried.append(gg)
            return np.full((targets.size, g.num_classes), 1.0 / g.num_classes)

        out = greedy_confidence_attack(g, constant_oracle, targets,
                                       AttackBudget(0.0, 3),
                                       candidate_pool_size=5, seed=7)
        assert edit_distance(g, out) == 3
        # ties resolve to the first sampled candidate: step 1's accepted
        # flip is exactly the first queried graph
        assert edit_distance(queried[0], out) == 2

    def test_constant_oracle_ties_match_serial_when_threaded(self, monkeypatch,
                                                             attack_fixture):
        # every score ties, so each step must keep its first sampled
        # candidate whichever thread finishes first
        g, _ = attack_fixture
        targets = g.test_nodes[:4]

        def constant_oracle(gg):
            return np.full((targets.size, g.num_classes), 1.0 / g.num_classes)

        outs = []
        for cores in (1, 4):
            monkeypatch.setattr(attacks_module, "_usable_cores", lambda: cores)
            outs.append(greedy_confidence_attack(g, constant_oracle, targets,
                                                 AttackBudget(0.0, 3),
                                                 candidate_pool_size=5, seed=7))
        assert np.array_equal(outs[0].indptr, outs[1].indptr)
        assert np.array_equal(outs[0].indices, outs[1].indices)

    def test_confidence_monotone_over_steps(self, attack_fixture):
        # same seed + growing budget reproduces the step prefix, so the
        # victim's mean true-class confidence must be non-increasing
        g, model = attack_fixture
        targets = g.test_nodes[:6]
        truth = g.labels[targets]
        rows = np.arange(targets.size)

        def oracle(gg):
            return predict_posterior(model, gg, targets)

        scores = [float(oracle(g)[rows, truth].mean())]
        for flips in range(1, 6):
            adv = greedy_confidence_attack(g, oracle, targets,
                                           AttackBudget(1.0, flips),
                                           candidate_pool_size=8, seed=21)
            scores.append(float(oracle(adv)[rows, truth].mean()))
        assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))
        assert scores[-1] < scores[0]

    def test_invariants_and_payload_untouched(self, attack_fixture):
        g, model = attack_fixture
        targets = g.test_nodes[:5]
        adv = greedy_confidence_attack(
            g, lambda gg: predict_posterior(model, gg, targets), targets,
            AttackBudget(1.0, 8), candidate_pool_size=6, seed=3)
        check_invariants(adv)
        assert edit_distance(g, adv) == 8
        assert np.array_equal(adv.features, g.features)
        assert np.array_equal(adv.labels, g.labels)

    def test_unlabeled_targets_rejected(self, attack_fixture):
        g, model = attack_fixture
        bare = build_graph(g.edge_pairs(), g.features)
        with pytest.raises(ValueError):
            greedy_confidence_attack(
                bare, lambda gg: np.zeros((1, 2)), [0], AttackBudget(0.0, 1),
                candidate_pool_size=2, seed=0)

    def test_deterministic(self, attack_fixture):
        g, model = attack_fixture
        targets = g.test_nodes[:4]

        def oracle(gg):
            return predict_posterior(model, gg, targets)

        a = greedy_confidence_attack(g, oracle, targets, AttackBudget(1.0, 4),
                                     candidate_pool_size=6, seed=13)
        b = greedy_confidence_attack(g, oracle, targets, AttackBudget(1.0, 4),
                                     candidate_pool_size=6, seed=13)
        assert a.equals(b)


GREEDY_DIGESTS = """
import hashlib, json, sys
import numpy as np
from graphforest import (HyperParams, SbmConfig, budget_for, derive_seed, generate_sbm,
                         greedy_confidence_attack, predict_posterior, train_ensemble)

g = generate_sbm(SbmConfig(**json.loads(sys.argv[1])))
budget = budget_for(g, 0.004)
for seed in json.loads(sys.argv[2]):
    victim = train_ensemble(g, 1, 1.0, 1.0, HyperParams(hidden_dim=64, epochs=50),
                            master_seed=seed).models[0]
    rng = np.random.default_rng(derive_seed(seed, 9002))
    targets = np.sort(rng.choice(g.test_nodes, size=30, replace=False))
    adv = greedy_confidence_attack(
        g, lambda gg: predict_posterior(victim, gg, targets), targets, budget,
        candidate_pool_size=32, seed=derive_seed(seed, 9003))
    print(hashlib.sha256(adv.edge_pairs().astype(np.int64).tobytes()).hexdigest())
"""

# SHA-256 of the greedy attacked edge sets of criterion 5's victims, targets
# and seeds at budget 0.004 (29 flips), recorded under one BLAS thread
# before the candidates were scored on threads
ACCEPTANCE_GREEDY_DIGESTS = [
    "391897ef3c61cba97984378ad19ca1e84780a6c1a91f414b2dffc7274136811e",
    "34b19582c947b5ff0a984f79a65d516c8032f59c75f3c47e95a2f812f58304d6",
    "2aeae8fd4a6a99dc308e0614190bd6b3f90f50a25104968c75b3f0e251dad385",
    "a6485550d463639f1447091ad6692fdb35a63190a716d6e1a666f669f1c64944",
    "4edfac58b96bc2b4c1908ae76f09ee929b38066b751ab7def511774a0c514506",
]


class TestGreedyThreads:
    """Each greedy step scores its candidates on up to one thread per
    usable core; the attacked graph may not depend on that."""

    def test_acceptance_digests_unchanged(self):
        # victims are trained in the subprocess, so BLAS is pinned there
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", GREEDY_DIGESTS,
                               json.dumps(dataclasses.asdict(FIXTURE)), json.dumps(list(SEEDS))],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-4000:]
        assert proc.stdout.split() == ACCEPTANCE_GREEDY_DIGESTS

    def test_same_graph_at_any_core_count(self, monkeypatch, acceptance_graph):
        g = acceptance_graph
        victim = train_ensemble(g, 1, 1.0, 1.0, HyperParams(hidden_dim=64, epochs=50),
                                master_seed=0).models[0]
        rng = np.random.default_rng(derive_seed(0, 9002))
        targets = np.sort(rng.choice(g.test_nodes, size=30, replace=False))
        outs = []
        for cores in (1, 2, 4):
            monkeypatch.setattr(attacks_module, "_usable_cores", lambda: cores)
            outs.append(greedy_confidence_attack(
                g, lambda gg: predict_posterior(victim, gg, targets), targets,
                budget_for(g, 0.004), candidate_pool_size=32, seed=derive_seed(0, 9003)))
        for out in outs[1:]:
            assert np.array_equal(out.indptr, outs[0].indptr)
            assert np.array_equal(out.indices, outs[0].indices)

    @pytest.mark.parametrize("cores", [1, 4])
    def test_one_query_per_candidate(self, monkeypatch, attack_fixture, cores):
        monkeypatch.setattr(attacks_module, "_usable_cores", lambda: cores)
        g, model = attack_fixture
        targets = g.test_nodes[:5]
        lock = threading.Lock()
        calls = [0]

        def counted_oracle(gg):
            with lock:
                calls[0] += 1
            return predict_posterior(model, gg, targets)

        greedy_confidence_attack(g, counted_oracle, targets, AttackBudget(1.0, 5),
                                 candidate_pool_size=6, seed=4)
        assert calls[0] == 5 * 6

    def test_failing_victim_raises_and_leaves_no_thread(self, monkeypatch, attack_fixture):
        monkeypatch.setattr(attacks_module, "_usable_cores", lambda: 4)
        g, model = attack_fixture
        targets = g.test_nodes[:5]
        lock = threading.Lock()
        calls = [0]

        def failing_oracle(gg):
            with lock:
                calls[0] += 1
                fail = calls[0] == 5
            if fail:
                raise RuntimeError("victim failed")
            return predict_posterior(model, gg, targets)

        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="victim failed"):
            greedy_confidence_attack(g, failing_oracle, targets, AttackBudget(1.0, 5),
                                     candidate_pool_size=6, seed=4)
        assert set(threading.enumerate()) == before


class TestRobustnessEval:
    def test_identical_graphs_zero_drop(self, attack_fixture):
        g, model = attack_fixture
        nodes = g.test_nodes
        truth = g.labels[nodes]

        def decider(gg, nn):
            return predict_posterior(model, gg, nn).argmax(axis=1)

        f1_clean, f1_attacked, drop = robustness_eval(decider, g, g, nodes, truth)
        assert f1_clean == f1_attacked and drop == 0.0

    def test_ground_truth_decider_zero_drop(self, attack_fixture):
        g, _ = attack_fixture
        nodes = g.test_nodes
        truth = g.labels[nodes]
        attacked = random_flip_attack(g, budget_for(g, 0.1), seed=1)

        def oracle_decider(gg, nn):
            return g.labels[np.asarray(nn)]

        f1_clean, f1_attacked, drop = robustness_eval(oracle_decider, g, attacked,
                                                      nodes, truth)
        assert f1_clean == 1.0 and f1_attacked == 1.0 and drop == 0.0
