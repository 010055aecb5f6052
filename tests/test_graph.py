import numpy as np
import pytest

from graphforest import (GraphValidationError, build_graph, check_invariants,
                         edge_preservation_ratio, induced_subgraph,
                         restrict_features)
from conftest import random_graph
from oracles import brute_force_induced_edges


class TestBuildGraph:
    def test_dedupe_symmetrize_selfloop(self):
        g = build_graph([(0, 1), (1, 0), (1, 1)], np.zeros((2, 2)))
        assert g.num_edges == 1
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [0]

    def test_empty_edges(self):
        g = build_graph([], np.zeros((3, 2)))
        assert g.num_edges == 0
        for v in range(3):
            assert g.neighbors(v).size == 0

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphValidationError):
            build_graph([(0, 5)], np.zeros((3, 2)))

    def test_non_finite_feature(self):
        feats = np.zeros((2, 2))
        feats[1, 0] = np.nan
        with pytest.raises(GraphValidationError):
            build_graph([(0, 1)], feats)

    def test_label_out_of_range(self):
        with pytest.raises(GraphValidationError):
            build_graph([(0, 1)], np.zeros((2, 2)), labels=[0, 3], num_classes=2)

    def test_unlabeled_marker_allowed(self):
        g = build_graph([(0, 1)], np.zeros((2, 2)), labels=[-1, 1])
        assert g.labels[0] == -1 and g.num_classes == 2

    def test_overlapping_splits(self):
        with pytest.raises(GraphValidationError):
            build_graph([(0, 1)], np.zeros((3, 2)),
                        splits={"train": [0, 1], "test": [1, 2]})

    def test_arrays_frozen(self):
        g = build_graph([(0, 1)], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.indices[0] = 9
        with pytest.raises(ValueError):
            g.features[0, 0] = 1.0

    def test_invariants_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            check_invariants(random_graph(rng, int(rng.integers(2, 15))))


class TestInducedSubgraph:
    def test_triangle_keep_two(self, triangle):
        sub = induced_subgraph(triangle, [0, 1])
        assert sub.num_edges == 1
        assert np.array_equal(sub.features, triangle.features[[0, 1]])

    def test_keep_all_is_identity(self, triangle):
        sub = induced_subgraph(triangle, range(3))
        assert sub.equals(triangle)

    def test_path_endpoints_only(self, path3):
        sub = induced_subgraph(path3, [0, 2])
        assert sub.num_edges == 0

    def test_empty_node_set(self, triangle):
        with pytest.raises(GraphValidationError):
            induced_subgraph(triangle, [])

    def test_mapping_roundtrip(self, triangle):
        # subgraph id i is sorted(set(nodes))[i], whatever the input order
        sub = induced_subgraph(triangle, [2, 0, 2])
        assert np.array_equal(sub.features, triangle.features[[0, 2]])
        assert sub.edge_pairs().tolist() == [[0, 1]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(3, 21))
            g = random_graph(rng, n)
            take = int(rng.integers(1, n + 1))
            nodes = rng.choice(n, size=take, replace=False)
            sub = induced_subgraph(g, nodes)
            ids = np.sort(nodes)
            got = {tuple(ids[[u, v]]) for u, v in sub.edge_pairs()}
            got = {(min(u, v), max(u, v)) for u, v in got}
            assert got == brute_force_induced_edges(g.edge_pairs(), nodes)
            check_invariants(sub)

    def test_splits_and_labels_reindexed(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)], np.eye(4), labels=[0, 1, 0, 1],
                        splits={"train": [0, 3], "test": [1]})
        sub = induced_subgraph(g, [0, 1, 3])
        assert sub.labels.tolist() == [0, 1, 1]
        assert sub.train_nodes.tolist() == [0, 2]
        assert sub.test_nodes.tolist() == [1]


class TestRestrictFeatures:
    def test_identity(self, triangle):
        assert restrict_features(triangle, range(3)).equals(triangle)

    def test_column_order(self):
        g = build_graph([(0, 1)], np.array([[0.0, 1.0, 2.0, 3.0],
                                            [4.0, 5.0, 6.0, 7.0]]))
        r = restrict_features(g, {3, 1})
        assert r.features.tolist() == [[1.0, 3.0], [5.0, 7.0]]

    def test_out_of_range(self):
        g = build_graph([(0, 1)], np.zeros((2, 4)))
        with pytest.raises(GraphValidationError):
            restrict_features(g, [9])

    def test_empty(self, triangle):
        with pytest.raises(GraphValidationError):
            restrict_features(triangle, [])

    def test_commutes_with_induce(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, 12, d=6)
            nodes = rng.choice(12, size=7, replace=False)
            dims = rng.choice(6, size=3, replace=False)
            a = restrict_features(induced_subgraph(g, nodes), dims)
            b = induced_subgraph(restrict_features(g, dims), nodes)
            assert a.equals(b)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 15, d=5)
        round_tripped = restrict_features(
            induced_subgraph(g, range(15)), range(5))
        assert round_tripped.equals(g)


class TestNeighbors:
    def test_star(self, star4):
        assert star4.neighbors(0).tolist() == [1, 2, 3]
        assert star4.neighbors(1).tolist() == [0]

    def test_isolated(self):
        g = build_graph([(0, 1)], np.zeros((3, 1)))
        assert g.neighbors(2).size == 0

    def test_out_of_range(self, star4):
        with pytest.raises(GraphValidationError):
            star4.neighbors(7)


class TestEdgePreservation:
    def test_k4_keep_three(self):
        k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)],
                         np.zeros((4, 1)))
        sub = induced_subgraph(k4, [0, 1, 2])
        assert edge_preservation_ratio(k4, sub) == pytest.approx(0.5)

    def test_keep_all(self, triangle):
        sub = induced_subgraph(triangle, range(3))
        assert edge_preservation_ratio(triangle, sub) == 1.0

    def test_path_keep_ends(self, path3):
        sub = induced_subgraph(path3, [0, 2])
        assert edge_preservation_ratio(path3, sub) == 0.0

    def test_edgeless_full_graph(self):
        g = build_graph([], np.zeros((3, 1)))
        sub = induced_subgraph(g, [0, 1])
        assert edge_preservation_ratio(g, sub) == 1.0
