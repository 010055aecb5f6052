"""The base learner: a mean-aggregating message-passing node classifier.

Each layer applies two dense transforms, one to the mean of the
neighbor embeddings and one to the node's own embedding, sums them and
applies ReLU; the output layer skips the ReLU and its width is the class
count. A node with no neighbors aggregates the zero vector, so isolated
nodes are still classified from their own features.

The output layer takes the mean after its transform, P @ (H @ Wa.T), so
its neighbor aggregation (forward and backward) runs at class width
rather than at hidden width. Inference shares one aggregator and one
P @ X over all feature columns between the models of an ensemble pass,
and runs the models' forwards on one thread per usable core with
numpy's OpenBLAS held at one thread. Each forward is computed whole by
one thread, so inference bytes depend neither on the core count nor on
the BLAS thread count. Training still runs under the caller's BLAS
setting, and its bytes can depend on the BLAS thread count.

Everything runs in float64 with exact analytic gradients, tight enough
to verify against central finite differences. Training is full-batch (or
minibatch) Adam on softmax cross-entropy with L2 weight decay.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import DegenerateSubspaceError, GraphValidationError
from .graph import Graph, _check_ids_in_range, induced_subgraph, restrict_features
from .metrics import micro_f1
from .sampling import SubspaceSpec, derive_seed, mix64, sample_neighbors


@dataclass(frozen=True)
class HyperParams:
    """Architecture and optimizer settings for one base model."""

    num_layers: int = 3
    hidden_dim: int = 256
    neighbor_cap: int = 0      # 0 = aggregate full neighborhoods
    batch_size: int = 0        # 0 = full batch
    epochs: int = 200
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    init_seed: int = 0

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("need at least one layer")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.epochs < 0 or self.neighbor_cap < 0 or self.batch_size < 0:
            raise ValueError("epochs, neighbor_cap and batch_size must be non-negative")


@dataclass(eq=False)
class GnnParams:
    """Per-layer weights: ``agg_weights[l]`` multiplies the neighbor mean,
    ``self_weights[l]`` the node's own embedding. Both are (out, in)."""

    agg_weights: list[np.ndarray]
    self_weights: list[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.agg_weights)

    @property
    def input_dim(self) -> int:
        return self.agg_weights[0].shape[1]

    def arrays(self):
        for w, s in zip(self.agg_weights, self.self_weights):
            yield w
            yield s


@dataclass(eq=False)
class BaseModel:
    """A trained parameter set bound to the subspace it was trained in."""

    params: GnnParams
    spec: SubspaceSpec
    train_f1: float


def init_params(hp: HyperParams, input_dim: int, num_classes: int, seed: int) -> GnnParams:
    """Glorot-uniform init, entries in +-sqrt(6 / (fan_in + fan_out))."""
    if input_dim < 1 or num_classes < 1:
        raise ValueError("input_dim and num_classes must be positive")
    dims = [input_dim] + [hp.hidden_dim] * (hp.num_layers - 1) + [num_classes]
    rng = np.random.default_rng(seed)
    agg, own = [], []
    for l in range(hp.num_layers):
        fan_in, fan_out = dims[l], dims[l + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        agg.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        own.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
    return GnnParams(agg, own)


class MeanAggregator:
    """Mean over (possibly subsampled) neighborhoods.

    Acts like a row-stochastic matrix P with P[v, u] = 1/|nbr(v)| for
    each kept neighbor u; rows of isolated nodes are zero. ``apply``
    computes P @ H for the forward pass, ``apply_transpose`` P.T @ X for
    gradient propagation through the aggregation. Both products run on
    scipy's CSR kernels, which accumulate sequentially per row and are
    therefore bit-reproducible.

    The 0/1 matrix of a full aggregator is the graph's symmetric, sorted
    CSR adjacency, so it is its own transpose; only a capped aggregator,
    whose kept neighbor lists are not symmetric, builds a transposed copy.
    """

    def __init__(self, indptr: np.ndarray, cols: np.ndarray, num_nodes: int,
                 symmetric: bool = False):
        self.indptr = indptr
        self.cols = cols
        deg = np.diff(indptr).astype(np.float64)
        self._inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        # keep the matrix 0/1 and scale after the sum: neighbor sums of
        # integer-valued embeddings stay exact in every summation order
        ones = np.ones(cols.size)
        self._adj = sparse.csr_matrix((ones, cols, indptr),
                                      shape=(num_nodes, num_nodes))
        self._adj_t = self._adj if symmetric else self._adj.T.tocsr()

    @classmethod
    def full(cls, g: Graph) -> "MeanAggregator":
        return cls(g.indptr, g.indices, g.num_nodes, symmetric=True)

    @classmethod
    def capped(cls, g: Graph, cap: int, rng: np.random.Generator) -> "MeanAggregator":
        parts = []
        counts = np.empty(g.num_nodes, dtype=np.int64)
        for v in range(g.num_nodes):
            kept = sample_neighbors(g.neighbors(v), cap, rng)
            parts.append(kept)
            counts[v] = kept.size
        cols = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        indptr = np.zeros(g.num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(counts)
        return cls(indptr, cols, g.num_nodes)

    def apply(self, h: np.ndarray) -> np.ndarray:
        return self._inv_deg[:, None] * (self._adj @ h)

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        return self._adj_t @ (x * self._inv_deg[:, None])


def forward(params: GnnParams, g: Graph, neighbor_cap: int = 0,
            rng: np.random.Generator | None = None):
    """Run the message-passing network over all nodes of ``g``.

    Returns (logits, cache); the cache holds everything loss_and_grad
    needs, including the exact aggregation operators used (fresh
    neighbor subsamples are drawn per layer when neighbor_cap > 0).
    """
    if g.num_features != params.input_dim:
        raise GraphValidationError(
            f"graph has {g.num_features} feature dims, model expects {params.input_dim}")
    if neighbor_cap > 0:
        if rng is None:
            raise ValueError("neighbor capping needs an rng")
        aggregators = [MeanAggregator.capped(g, neighbor_cap, rng)
                       for _ in range(params.num_layers)]
    else:
        shared = MeanAggregator.full(g)
        aggregators = [shared] * params.num_layers
    return _forward_with(params, g.features, aggregators)


def _forward_with(params: GnnParams, x: np.ndarray, aggregators, first_aggregate=None):
    """Forward pass over the feature matrix ``x`` with fixed aggregation
    operators.

    Hidden layers aggregate first, (P @ H) @ Wa.T; the output layer
    transforms first, P @ (H @ Wa.T), so its aggregation runs at class
    width. ``first_aggregate``, when given, is aggregators[0].apply(x),
    computed once by a caller that runs many passes over the same inputs;
    it is used when layer 0 is a hidden layer.
    """
    h = x
    inputs, aggregates, preacts = [], [], []
    last = params.num_layers - 1
    for l in range(params.num_layers):
        wa, ws = params.agg_weights[l], params.self_weights[l]
        if l == last:
            m_agg = None
            z = aggregators[l].apply(h @ wa.T) + h @ ws.T
        else:
            m_agg = (first_aggregate if l == 0 and first_aggregate is not None
                     else aggregators[l].apply(h))
            z = m_agg @ wa.T + h @ ws.T
        inputs.append(h)
        aggregates.append(m_agg)
        preacts.append(z)
        h = np.maximum(z, 0.0) if l < last else z
    cache = {
        "inputs": inputs,
        "aggregates": aggregates,
        "preacts": preacts,
        "aggregators": aggregators,
        "logits": h,
    }
    return h, cache


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(params: GnnParams, g: Graph, labeled_nodes, cache,
                  weight_decay: float = 0.0):
    """Mean cross-entropy over ``labeled_nodes`` plus L2 penalty, with
    exact analytic gradients (GnnParams-shaped)."""
    nodes = np.asarray(labeled_nodes, dtype=np.int64).reshape(-1)
    if nodes.size == 0:
        raise ValueError("labeled node set is empty")
    y = g.labels[nodes]
    if np.any(y < 0):
        raise ValueError("labeled_nodes contains an unlabeled node")

    logits = cache["logits"]
    rows = logits[nodes]
    shifted = rows - rows.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    data_loss = -log_probs[np.arange(nodes.size), y].mean()
    reg = 0.0
    if weight_decay:
        reg = 0.5 * weight_decay * sum(float((a * a).sum()) for a in params.arrays())
    loss = data_loss + reg

    grad_z = np.zeros_like(logits)
    probs = exp / total
    probs[np.arange(nodes.size), y] -= 1.0
    grad_z[nodes] = probs / nodes.size

    num_layers = params.num_layers
    grads_agg: list[np.ndarray | None] = [None] * num_layers
    grads_self: list[np.ndarray | None] = [None] * num_layers
    aggregators = cache["aggregators"]
    last = num_layers - 1
    for l in range(last, -1, -1):
        h, wa, ws = cache["inputs"][l], params.agg_weights[l], params.self_weights[l]
        if l == last:
            # z = P @ (H @ Wa.T) + ...: one P.T product at class width serves
            # both grad Wa = (P.T @ grad_z).T @ H and the gradient into H
            pt_grad = aggregators[l].apply_transpose(grad_z)
            grads_agg[l] = pt_grad.T @ h
        else:
            grads_agg[l] = grad_z.T @ cache["aggregates"][l]
        grads_self[l] = grad_z.T @ h
        if weight_decay:
            grads_agg[l] += weight_decay * wa
            grads_self[l] += weight_decay * ws
        if l > 0:
            via_agg = (pt_grad @ wa if l == last
                       else aggregators[l].apply_transpose(grad_z @ wa))
            grad_h = via_agg + grad_z @ ws
            grad_z = grad_h * (cache["preacts"][l - 1] > 0.0)
    return loss, GnnParams(grads_agg, grads_self)


class _Adam:
    """Adam with bias correction; state per parameter array."""

    def __init__(self, params: GnnParams, hp: HyperParams):
        self.hp = hp
        self.m = [np.zeros_like(a) for a in params.arrays()]
        self.v = [np.zeros_like(a) for a in params.arrays()]
        self.t = 0

    def step(self, params: GnnParams, grads: GnnParams) -> None:
        hp = self.hp
        self.t += 1
        b1t = 1.0 - hp.adam_beta1 ** self.t
        b2t = 1.0 - hp.adam_beta2 ** self.t
        for i, (p, grad) in enumerate(zip(params.arrays(), grads.arrays())):
            self.m[i] = hp.adam_beta1 * self.m[i] + (1.0 - hp.adam_beta1) * grad
            self.v[i] = hp.adam_beta2 * self.v[i] + (1.0 - hp.adam_beta2) * grad * grad
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p -= hp.learning_rate * m_hat / (np.sqrt(v_hat) + hp.adam_eps)


def train_base_model(g: Graph, spec: SubspaceSpec, hp: HyperParams,
                     loss_history: list | None = None) -> BaseModel:
    """Train one base model inside its subspace.

    Builds the induced subgraph on spec.node_subset, restricts features
    to spec.feature_subset, and runs ``hp.epochs`` Adam steps on the
    training-node loss (full batch when batch_size == 0). Deterministic
    in (spec.seed, hp.init_seed).
    """
    sub = induced_subgraph(g, spec.node_subset)
    sub = restrict_features(sub, spec.feature_subset)
    train_nodes = sub.train_nodes
    train_labels = sub.labels[train_nodes]
    labeled = train_nodes[train_labels >= 0]
    if labeled.size == 0 or np.unique(sub.labels[labeled]).size < 2:
        raise DegenerateSubspaceError(
            f"model {spec.model_index}: induced training subgraph has < 2 classes",
            model_index=spec.model_index)

    stream = mix64(spec.seed ^ mix64(hp.init_seed))
    params = init_params(hp, sub.num_features, g.num_classes, seed=derive_seed(stream, 0))
    train_rng = np.random.default_rng(derive_seed(stream, 1))
    adam = _Adam(params, hp)

    # the uncapped aggregation operator and P @ X_sub are static; capped
    # neighborhoods are resampled every forward pass
    full_aggs = [MeanAggregator.full(sub)] * hp.num_layers
    first_aggregate = full_aggs[0].apply(sub.features)

    for _ in range(hp.epochs):
        if hp.batch_size > 0:
            order = train_rng.permutation(labeled)
            batches = [order[i:i + hp.batch_size]
                       for i in range(0, order.size, hp.batch_size)]
        else:
            batches = [labeled]
        epoch_losses = []
        for batch in batches:
            if hp.neighbor_cap > 0:
                _, cache = forward(params, sub, hp.neighbor_cap, train_rng)
            else:
                _, cache = _forward_with(params, sub.features, full_aggs, first_aggregate)
            loss, grads = loss_and_grad(params, sub, batch, cache,
                                        weight_decay=hp.weight_decay)
            adam.step(params, grads)
            epoch_losses.append(loss)
        if loss_history is not None:
            loss_history.append(float(np.mean(epoch_losses)))

    logits, _ = _forward_with(params, sub.features, full_aggs, first_aggregate)
    pred = logits[labeled].argmax(axis=1)
    train_f1 = micro_f1(pred, sub.labels[labeled])
    return BaseModel(params=params, spec=spec, train_f1=train_f1)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None where numpy ships no such library."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            dll = ctypes.CDLL(str(lib))
            get = dll.scipy_openblas_get_num_threads64_
            set_ = dll.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# the BLAS thread count is process-wide, so one caller at a time may pin it
_BLAS_PIN_LOCK = threading.Lock()


@contextmanager
def _blas_single_thread():
    """Hold numpy's OpenBLAS at one thread, restoring the old count on exit;
    a no-op where the library is absent.

    Scoped, not global: serial training runs faster with BLAS threads.
    """
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _BLAS_PIN_LOCK:
        old = get()
        set_(1)
        try:
            yield
        finally:
            set_(old)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _posteriors(models, g: Graph, nodes) -> np.ndarray:
    """Softmax posteriors of every model in ``models`` for ``nodes`` of
    ``g``, stacked as (models, nodes, classes).

    One aggregator and one P @ X over all feature columns serve every
    model: a model's layer-0 aggregate is the column slice (P @ X)[:, fs],
    which equals P @ X[:, fs] bit for bit because the CSR kernel sums
    every column independently, in row order.

    The forwards run on one thread per usable core (scipy's SpMM and
    numpy release the GIL), with BLAS held at one thread so that the
    threads do not oversubscribe the cores. Workers call only private
    code; softmax runs on the caller's thread, in model-index order.
    """
    node_arr = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if node_arr.size and (node_arr.min() < 0 or node_arr.max() >= g.num_nodes):
        raise GraphValidationError("prediction node id out of range")
    masks = []
    for m in models:
        fs = m.spec.feature_subset
        if g.num_features <= int(fs.max()):
            raise GraphValidationError(
                f"graph has {g.num_features} feature dims, model's mask needs "
                f">= {int(fs.max()) + 1}")
        cols = np.unique(fs)
        _check_ids_in_range(cols, g.num_features, "feature dim")
        if cols.size != m.params.input_dim:
            raise GraphValidationError("feature mask width does not match model input")
        masks.append(cols)

    with _blas_single_thread():
        agg = MeanAggregator.full(g)
        ax = agg.apply(g.features)

        def logits(m: BaseModel, cols: np.ndarray) -> np.ndarray:
            z, _ = _forward_with(m.params, g.features[:, cols],
                                 [agg] * m.params.num_layers, ax[:, cols])
            return z[node_arr]

        workers = min(len(models), _usable_cores())
        if workers <= 1:  # a thread per call would only add start-up cost
            return np.stack([softmax(z) for z in map(logits, models, masks)])
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.stack([softmax(z) for z in pool.map(logits, models, masks)])


def predict_posterior(model: BaseModel, g: Graph, nodes) -> np.ndarray:
    """Softmax posteriors of ``model`` for ``nodes`` of ``g``.

    Only the model's feature mask is applied; message passing runs over
    the full supplied graph structure, so every model is defined on
    every node even if that node was absent from its training subgraph.
    """
    return _posteriors([model], g, nodes)[0]
