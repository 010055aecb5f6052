import numpy as np
import pytest

from graphforest import cost_estimate, micro_f1, overfit_gap
from oracles import brute_force_micro_f1


class TestMicroF1:
    def test_perfect(self):
        assert micro_f1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_three_of_four(self):
        # frozen via the brute-force confusion oracle: tp=3, fp=1, fn=1
        pred, truth = [0, 1, 1, 2], [0, 1, 2, 2]
        assert brute_force_micro_f1(pred, truth) == 0.75
        assert micro_f1(pred, truth) == pytest.approx(0.75, abs=1e-15)

    def test_all_wrong(self):
        assert micro_f1([1, 2, 0], [0, 1, 2]) == 0.0

    def test_confusion_counts(self):
        # tp = #(pred == truth) and fp = fn = n - tp give bit for bit the
        # score of explicit per-class confusion counts
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            s = int(rng.integers(2, 6))
            pred = rng.integers(0, s, size=n)
            truth = rng.integers(0, s, size=n)
            assert micro_f1(pred, truth) == brute_force_micro_f1(pred, truth)

    def test_equals_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            s = int(rng.integers(2, 6))
            pred = rng.integers(0, s, size=n)
            truth = rng.integers(0, s, size=n)
            accuracy = float(np.mean(pred == truth))
            assert micro_f1(pred, truth) == pytest.approx(accuracy, abs=1e-12)
            assert micro_f1(pred, truth) == pytest.approx(
                brute_force_micro_f1(pred, truth), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 3, size=30)
        truth = rng.integers(0, 3, size=30)
        perm = rng.permutation(30)
        assert micro_f1(pred, truth) == micro_f1(pred[perm], truth[perm])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            micro_f1([0, 1], [0])

    def test_empty(self):
        with pytest.raises(ValueError):
            micro_f1([], [])


class TestOverfitGap:
    def test_vanilla_256_baseline_row(self):
        assert overfit_gap(0.9766, 0.953) == pytest.approx(0.0236, abs=1e-12)

    def test_identity_zero(self):
        assert overfit_gap(0.5, 0.5) == 0.0

    def test_negative_gap(self):
        assert overfit_gap(0.9648, 0.965) == pytest.approx(-0.0002, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            overfit_gap(1.2, 0.5)


def random_tuple(rng):
    return dict(num_layers=int(rng.integers(1, 5)),
                num_nodes=int(rng.integers(10, 10_000)),
                num_edges=int(rng.integers(10, 100_000)),
                feature_dim=int(rng.integers(4, 2000)),
                batch_size=int(rng.integers(1, 512)),
                neighbor_cap=int(rng.integers(1, 30)))


class TestCostEstimate:
    def test_graphsage_baseline_reduction(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            t = random_tuple(rng)
            c = cost_estimate("graphsage", t["num_layers"], 1, t["num_nodes"],
                              t["num_edges"], 1.0, 1.0, t["feature_dim"], 1.0,
                              t["batch_size"], t["neighbor_cap"])
            r, l, n, d, b = (t["neighbor_cap"], t["num_layers"], t["num_nodes"],
                             t["feature_dim"], t["batch_size"])
            assert c.time_units == float(r) ** l * n * float(d) ** 2
            assert c.space_units == b * float(r) ** l * d + l * float(d) ** 2

    def test_fastgcn_baseline_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = random_tuple(rng)
            c = cost_estimate("fastgcn", t["num_layers"], 1, t["num_nodes"],
                              t["num_edges"], 1.0, 1.0, t["feature_dim"], 1.0,
                              t["batch_size"], t["neighbor_cap"])
            r, l, n, d, b = (t["neighbor_cap"], t["num_layers"], t["num_nodes"],
                             t["feature_dim"], t["batch_size"])
            assert c.time_units == r * l * n * float(d) ** 2
            assert c.space_units == b * r * l * d + l * float(d) ** 2

    def test_clustergcn_baseline_reduction(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            t = random_tuple(rng)
            c = cost_estimate("clustergcn", t["num_layers"], 1, t["num_nodes"],
                              t["num_edges"], 1.0, 1.0, t["feature_dim"], 1.0,
                              t["batch_size"], t["neighbor_cap"])
            l, n, m, d, b = (t["num_layers"], t["num_nodes"], t["num_edges"],
                             t["feature_dim"], t["batch_size"])
            assert c.time_units == l * m * d + l * n * float(d) ** 2
            assert c.space_units == b * l * d + l * float(d) ** 2

    def test_linear_in_ensemble_size(self):
        for kind in ("graphsage", "fastgcn", "clustergcn"):
            one = cost_estimate(kind, 3, 1, 500, 2000, 0.7, 0.5, 64, 0.5, 32, 10)
            hundred = cost_estimate(kind, 3, 100, 500, 2000, 0.7, 0.5, 64, 0.5, 32, 10)
            assert hundred.time_units == 100.0 * one.time_units
            assert hundred.space_units == 100.0 * one.space_units

    def test_halving_feature_fraction_quarters_dominant_term(self):
        full = cost_estimate("graphsage", 2, 1, 100, 500, 1.0, 1.0, 64, 1.0, 16, 5)
        half = cost_estimate("graphsage", 2, 1, 100, 500, 1.0, 1.0, 64, 0.5, 16, 5)
        assert half.time_units == full.time_units / 4.0

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(13)
        base = dict(num_layers=2, num_models=4, num_nodes=100, num_edges=400,
                    node_fraction=0.5, edge_keep_ratio=0.5, feature_dim=32,
                    feature_fraction=0.5, batch_size=16, neighbor_cap=5)
        bumps = dict(num_models=8, num_nodes=200, num_edges=800, feature_dim=64,
                     batch_size=32, neighbor_cap=9, node_fraction=0.9,
                     feature_fraction=0.9)
        for kind in ("graphsage", "fastgcn", "clustergcn"):
            ref = cost_estimate(kind, **base)
            for key, value in bumps.items():
                bumped = dict(base, **{key: value})
                c = cost_estimate(kind, **bumped)
                assert c.time_units >= ref.time_units, (kind, key)
                assert c.space_units >= ref.space_units, (kind, key)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cost_estimate("gat", 2, 1, 10, 10, 1.0, 1.0, 4, 1.0, 1, 1)
