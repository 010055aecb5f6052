import numpy as np
import pytest
from scipy import sparse

from graphforest import (GraphValidationError, HyperParams, build_graph,
                         forward, init_params, loss_and_grad, predict_posterior,
                         restrict_features, sample_subspace, softmax,
                         train_base_model)
from graphforest.model import BaseModel, GnnParams, MeanAggregator, _forward_with
from graphforest.sampling import SubspaceSpec
from conftest import random_graph
from oracles import (adjacency_dense, dense_forward, dense_softmax,
                     finite_difference_grads)


def random_params(rng, dims):
    agg, own = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        agg.append(rng.uniform(-0.8, 0.8, size=(fan_out, fan_in)))
        own.append(rng.uniform(-0.8, 0.8, size=(fan_out, fan_in)))
    return GnnParams(agg, own)


def zero_params(dims):
    agg = [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])]
    own = [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])]
    return GnnParams(agg, own)


def full_spec(g, seed=0):
    return SubspaceSpec(model_index=0,
                        node_subset=np.arange(g.num_nodes),
                        feature_subset=np.arange(g.num_features),
                        node_fraction=1.0, feature_fraction=1.0, seed=seed)


class TestInitParams:
    def test_deterministic(self):
        hp = HyperParams(num_layers=2, hidden_dim=5)
        a = init_params(hp, 4, 3, seed=11)
        b = init_params(hp, 4, 3, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))

    def test_glorot_range(self):
        hp = HyperParams(num_layers=3, hidden_dim=8)
        p = init_params(hp, 6, 4, seed=0)
        dims = [6, 8, 8, 4]
        for l in range(3):
            limit = np.sqrt(6.0 / (dims[l] + dims[l + 1]))
            assert np.abs(p.agg_weights[l]).max() <= limit
            assert np.abs(p.self_weights[l]).max() <= limit

    def test_one_by_one_layer(self):
        hp = HyperParams(num_layers=1, hidden_dim=1)
        for seed in range(20):
            p = init_params(hp, 1, 1, seed=seed)
            assert abs(p.agg_weights[0][0, 0]) <= np.sqrt(3.0)
            assert abs(p.self_weights[0][0, 0]) <= np.sqrt(3.0)


class TestMeanAggregator:
    def test_full_transpose_is_explicit_transpose(self):
        # the full aggregator serves as its own transpose: the adjacency is
        # symmetric with sorted rows, so the product equals the one through
        # an explicitly transposed CSR matrix bit for bit
        rng = np.random.default_rng(60)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            g = random_graph(rng, n, d=3, edge_prob=float(rng.uniform(0.02, 0.6)))
            x = rng.normal(size=(n, int(rng.integers(1, 6))))
            adj = sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                                    shape=(n, n))
            deg = np.diff(g.indptr).astype(np.float64)
            inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
            want = adj.T.tocsr() @ (x * inv[:, None])
            assert np.array_equal(MeanAggregator.full(g).apply_transpose(x), want)

    def test_capped_transpose_matches_dense(self):
        rng = np.random.default_rng(61)
        g = random_graph(rng, 15, d=2, edge_prob=0.5)
        agg = MeanAggregator.capped(g, 2, np.random.default_rng(3))
        p = np.zeros((15, 15))
        for v in range(15):
            kept = agg.cols[agg.indptr[v]:agg.indptr[v + 1]]
            p[v, kept] = 1.0 / kept.size if kept.size else 0.0
        x = rng.normal(size=(15, 4))
        assert np.max(np.abs(agg.apply(x) - p @ x)) <= 1e-12
        assert np.max(np.abs(agg.apply_transpose(x) - p.T @ x)) <= 1e-12


class TestForward:
    def test_zero_params_uniform_softmax(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 5, d=3)
        logits, _ = forward(zero_params([3, 4, 3]), g)
        assert np.array_equal(logits, np.zeros((5, 3)))
        assert np.allclose(softmax(logits), 1.0 / 3.0)

    def test_isolated_node_single_layer(self):
        g = build_graph([(0, 1)], np.array([[1.0, 2.0], [0.5, 0.5], [3.0, -1.0]]))
        rng = np.random.default_rng(1)
        p = random_params(rng, [2, 2])
        logits, _ = forward(p, g)
        expected = p.self_weights[0] @ g.features[2]
        assert np.allclose(logits[2], expected, atol=0, rtol=0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, d=4)
            p = random_params(rng, [4, 6, 6, 3])
            logits, _ = forward(p, g)
            want = dense_forward(p.agg_weights, p.self_weights,
                                 adjacency_dense(g), g.features)
            assert np.max(np.abs(logits - want)) <= 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 4, d=3)
        with pytest.raises(GraphValidationError):
            forward(random_params(rng, [5, 2]), g)

    def test_permutation_equivariance_exact_integer_lattice(self):
        # integer-valued features and dyadic weights sum exactly in any
        # order, so a single layer is bit-equal under node relabeling
        rng = np.random.default_rng(3)
        n = 10
        feats = rng.integers(-4, 5, size=(n, 3)).astype(float)
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < 0.4
        edges = np.column_stack([iu[mask], ju[mask]])
        g = build_graph(edges, feats)
        p = GnnParams([np.round(rng.uniform(-2, 2, (2, 3)) * 4) / 4],
                      [np.round(rng.uniform(-2, 2, (2, 3)) * 4) / 4])
        perm = rng.permutation(n)
        g_perm = build_graph([(perm[u], perm[v]) for u, v in edges], feats[np.argsort(perm)])
        logits, _ = forward(p, g)
        logits_perm, _ = forward(p, g_perm)
        assert np.array_equal(logits_perm[perm], logits)

    def test_permutation_equivariance_general(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 12, d=4)
        p = random_params(rng, [4, 5, 3])
        perm = rng.permutation(12)
        inv = np.argsort(perm)
        g_perm = build_graph([(perm[u], perm[v]) for u, v in g.edge_pairs()],
                             g.features[inv])
        logits, _ = forward(p, g)
        logits_perm, _ = forward(p, g_perm)
        assert np.max(np.abs(logits_perm[perm] - logits)) <= 1e-12

    def test_neighbor_cap_uses_subset(self):
        g = build_graph([(0, i) for i in range(1, 6)], np.eye(6))
        p = GnnParams([np.ones((1, 6))], [np.zeros((1, 6))])
        rng = np.random.default_rng(5)
        logits, cache = forward(p, g, neighbor_cap=2, rng=rng)
        agg = cache["aggregators"][0]
        assert agg.indptr[1] - agg.indptr[0] == 2  # center capped at 2 of 5


class TestLossAndGrad:
    def test_uniform_loss_is_log_classes(self):
        g = build_graph([(0, 1)], np.ones((4, 2)), labels=[0, 1, 2, 0])
        logits, cache = forward(zero_params([2, 3]), g)
        loss, _ = loss_and_grad(zero_params([2, 3]), g, [0, 1, 2, 3], cache)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_empty_labeled_set(self):
        g = build_graph([(0, 1)], np.ones((2, 2)), labels=[0, 1])
        p = zero_params([2, 2])
        _, cache = forward(p, g)
        with pytest.raises(ValueError):
            loss_and_grad(p, g, [], cache)

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_grad_matches_finite_differences(self, num_layers):
        rng = np.random.default_rng(10 + num_layers)
        g = random_graph(rng, 6, d=3, num_classes=3)
        dims = [3] + [4] * (num_layers - 1) + [3]
        p = random_params(rng, dims)
        labeled = np.array([0, 2, 3, 5])
        wd = 0.02
        _, cache = forward(p, g)
        _, grads = loss_and_grad(p, g, labeled, cache, weight_decay=wd)

        def loss_fn():
            _, c = forward(p, g)
            return loss_and_grad(p, g, labeled, c, weight_decay=wd)[0]

        fd = finite_difference_grads(loss_fn, p, h=1e-5)
        worst = 0.0
        for got, want in zip(grads.arrays(), fd):
            rel = np.abs(got - want) / np.maximum(np.abs(got) + np.abs(want), 1e-3)
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-4

    def test_grad_with_neighbor_cap(self):
        # gradient of the sampled aggregation operator, checked against
        # finite differences with the exact same (frozen) operator
        rng = np.random.default_rng(20)
        g = random_graph(rng, 8, d=3, num_classes=2, edge_prob=0.6)
        p = random_params(rng, [3, 4, 2])
        aggs = [MeanAggregator.capped(g, 2, np.random.default_rng(77))
                for _ in range(2)]
        labeled = np.array([0, 1, 4])
        _, cache = _forward_with(p, g.features, aggs)
        _, grads = loss_and_grad(p, g, labeled, cache, weight_decay=0.01)

        def loss_fn():
            _, c = _forward_with(p, g.features, aggs)
            return loss_and_grad(p, g, labeled, c, weight_decay=0.01)[0]

        fd = finite_difference_grads(loss_fn, p, h=1e-5)
        for got, want in zip(grads.arrays(), fd):
            rel = np.abs(got - want) / np.maximum(np.abs(got) + np.abs(want), 1e-3)
            assert rel.max() <= 1e-4

    def test_weight_decay_gradient_linearity(self):
        # zero features kill the data gradient exactly, so the whole
        # gradient is the regularization term and doubling weight decay
        # doubles it bit-for-bit
        rng = np.random.default_rng(30)
        g = build_graph([(0, 1), (1, 2), (2, 3)], np.zeros((4, 3)),
                        labels=[0, 1, 2, 0])
        p = random_params(rng, [3, 4, 3])
        labeled = np.arange(4)
        _, cache = forward(p, g)
        _, g_half = loss_and_grad(p, g, labeled, cache, weight_decay=0.5)
        _, g_full = loss_and_grad(p, g, labeled, cache, weight_decay=1.0)
        for a, b, w in zip(g_half.arrays(), g_full.arrays(), p.arrays()):
            assert np.array_equal(a, 0.5 * w)
            assert np.array_equal(b, 2.0 * a)


class TestTrainBaseModel:
    def test_separable_sbm_reaches_high_train_f1(self, sbm_small):
        spec = full_spec(sbm_small)
        hp = HyperParams(hidden_dim=32, epochs=200)
        model = train_base_model(sbm_small, spec, hp)
        assert model.train_f1 >= 0.95

    def test_zero_epochs_keeps_init(self, sbm_small):
        spec = full_spec(sbm_small, seed=5)
        hp = HyperParams(hidden_dim=8, epochs=0, init_seed=3)
        model = train_base_model(sbm_small, spec, hp)
        from graphforest.sampling import derive_seed, mix64
        stream = mix64(spec.seed ^ mix64(hp.init_seed))
        want = init_params(hp, sbm_small.num_features, sbm_small.num_classes,
                           seed=derive_seed(stream, 0))
        assert all(np.array_equal(a, b)
                   for a, b in zip(model.params.arrays(), want.arrays()))

    def test_bitwise_deterministic(self, sbm_small):
        spec = full_spec(sbm_small, seed=5)
        hp = HyperParams(hidden_dim=8, epochs=30)
        a = train_base_model(sbm_small, spec, hp)
        b = train_base_model(sbm_small, spec, hp)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.params.arrays(), b.params.arrays()))
        assert a.train_f1 == b.train_f1

    def test_minibatch_path_runs(self, sbm_small):
        spec = full_spec(sbm_small)
        hp = HyperParams(hidden_dim=8, epochs=10, batch_size=5)
        model = train_base_model(sbm_small, spec, hp)
        assert np.isfinite(model.train_f1)

    def test_loss_mostly_decreasing(self, sbm_small):
        spec = full_spec(sbm_small)
        hp = HyperParams(hidden_dim=16, epochs=150, learning_rate=0.01)
        history = []
        train_base_model(sbm_small, spec, hp, loss_history=history)
        diffs = np.diff(history)
        upticks = int(np.sum(diffs > 0))
        assert upticks <= 0.05 * len(history)
        assert history[-1] < history[0]


class TestPredictPosterior:
    def test_rows_stochastic(self, sbm_small):
        spec = sample_subspace(sbm_small, 0.7, 0.5, 0, 3)
        hp = HyperParams(hidden_dim=8, epochs=20)
        model = train_base_model(sbm_small, spec, hp)
        probs = predict_posterior(model, sbm_small, np.arange(sbm_small.num_nodes))
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12

    def test_zero_weight_model_uniform(self, sbm_small):
        spec = full_spec(sbm_small)
        dims = [sbm_small.num_features, sbm_small.num_classes]
        model = BaseModel(params=zero_params(dims), spec=spec, train_f1=0.0)
        probs = predict_posterior(model, sbm_small, [0, 1, 2])
        assert np.allclose(probs, 0.5)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(40)
        g = random_graph(rng, 6, d=5, num_classes=3)
        dims_keep = np.array([0, 2, 4])
        p = random_params(rng, [3, 4, 3])
        spec = SubspaceSpec(model_index=0, node_subset=np.arange(6),
                            feature_subset=dims_keep, node_fraction=1.0,
                            feature_fraction=0.6, seed=0)
        model = BaseModel(params=p, spec=spec, train_f1=1.0)
        got = predict_posterior(model, g, np.arange(6))
        masked = restrict_features(g, dims_keep)
        want = dense_softmax(dense_forward(p.agg_weights, p.self_weights,
                                           adjacency_dense(g), masked.features))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_feature_mask_locality(self):
        # zeroing an unselected column never changes the posterior
        rng = np.random.default_rng(41)
        g = random_graph(rng, 8, d=5, num_classes=2)
        spec = SubspaceSpec(model_index=0, node_subset=np.arange(8),
                            feature_subset=np.array([1, 3]), node_fraction=1.0,
                            feature_fraction=0.4, seed=0)
        model = BaseModel(params=random_params(rng, [2, 3, 2]), spec=spec,
                          train_f1=1.0)
        base = predict_posterior(model, g, np.arange(8))
        feats = g.features.copy()
        feats[:, 0] = 0.0
        feats[:, 4] = 0.0
        g_zeroed = build_graph(g.edge_pairs(), feats, labels=g.labels,
                               num_classes=g.num_classes)
        assert np.array_equal(predict_posterior(model, g_zeroed, np.arange(8)), base)

    def test_feature_dim_mismatch(self, sbm_small):
        spec = full_spec(sbm_small)
        dims = [sbm_small.num_features, sbm_small.num_classes]
        model = BaseModel(params=zero_params(dims), spec=spec, train_f1=0.0)
        tiny = build_graph([(0, 1)], np.zeros((2, 2)))
        with pytest.raises(GraphValidationError):
            predict_posterior(model, tiny, [0])

    def test_mask_narrower_than_model_input(self, sbm_small):
        spec = SubspaceSpec(model_index=0, node_subset=np.arange(sbm_small.num_nodes),
                            feature_subset=np.array([0, 1]), node_fraction=1.0,
                            feature_fraction=0.2, seed=0)
        model = BaseModel(params=zero_params([3, sbm_small.num_classes]), spec=spec,
                          train_f1=0.0)
        with pytest.raises(GraphValidationError):
            predict_posterior(model, sbm_small, [0])

    @pytest.mark.parametrize("nodes", [[-1], [0, 60], [60]])
    def test_node_id_out_of_range(self, sbm_small, nodes):
        spec = full_spec(sbm_small)
        dims = [sbm_small.num_features, sbm_small.num_classes]
        model = BaseModel(params=zero_params(dims), spec=spec, train_f1=0.0)
        with pytest.raises(GraphValidationError):
            predict_posterior(model, sbm_small, nodes)
