"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against raw arrays with naive
loops or dense linear algebra, sharing no code with the package paths it
checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import sparse


def adjacency_dense(g) -> np.ndarray:
    a = np.zeros((g.num_nodes, g.num_nodes))
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    a[rows, g.indices] = 1.0
    return a


def dense_forward(agg_weights, self_weights, adj: np.ndarray,
                  feats: np.ndarray) -> np.ndarray:
    """Dense-matrix forward: per layer  P @ H @ Wa.T + H @ Ws.T  with
    P the row-normalized adjacency (zero rows for isolated nodes)."""
    deg = adj.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    p = adj * inv[:, None]
    h = feats
    last = len(agg_weights) - 1
    for l, (wa, ws) in enumerate(zip(agg_weights, self_weights)):
        z = p @ h @ wa.T + h @ ws.T
        h = np.maximum(z, 0.0) if l < last else z
    return h


def per_model_posteriors(models, g, nodes) -> np.ndarray:
    """Each model's posteriors computed on its own, stacked by model.

    Every model builds its own 0/1 CSR adjacency and computes P @ X[:, fs]
    over its own feature columns, the way inference worked before the
    aggregate was shared between models. Hidden layers compute
    (P @ H) @ Wa.T + H @ Ws.T, the output layer P @ (H @ Wa.T) + H @ Ws.T.
    """
    n = g.num_nodes
    out = []
    for m in models:
        adj = sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                                shape=(n, n))
        deg = np.diff(g.indptr).astype(np.float64)
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        h = g.features[:, np.unique(m.spec.feature_subset)]
        last = m.params.num_layers - 1
        for l, (wa, ws) in enumerate(zip(m.params.agg_weights, m.params.self_weights)):
            if l < last:
                h = np.maximum((inv[:, None] * (adj @ h)) @ wa.T + h @ ws.T, 0.0)
            else:
                h = inv[:, None] * (adj @ (h @ wa.T)) + h @ ws.T
        out.append(dense_softmax(h[np.asarray(nodes, dtype=np.int64)]))
    return np.stack(out)


def dense_softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def finite_difference_grads(loss_fn, params, h: float = 1e-5):
    """Central differences of ``loss_fn()`` w.r.t. every entry of every
    array yielded by ``params.arrays()`` (perturbed in place)."""
    grads = []
    for arr in params.arrays():
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_fn()
            arr[idx] = orig - h
            down = loss_fn()
            arr[idx] = orig
            grad[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(grad)
    return grads


def brute_force_micro_f1(pred, truth) -> float:
    """Pure-python micro-averaged F1 over explicit per-class counts."""
    pred = [int(x) for x in pred]
    truth = [int(x) for x in truth]
    assert len(pred) == len(truth) and pred
    classes = sorted(set(pred) | set(truth))
    tp = fp = fn = 0
    for c in classes:
        for p, t in zip(pred, truth):
            if p == c and t == c:
                tp += 1
            elif p == c and t != c:
                fp += 1
            elif p != c and t == c:
                fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def reference_soft_vote(stack_probs, weights=None):
    """Loop-based weighted posterior average, argmax with smallest-id ties."""
    k = len(stack_probs)
    n = len(stack_probs[0])
    s = len(stack_probs[0][0])
    if weights is None:
        weights = [1.0 / k] * k
    out = []
    for i in range(n):
        scores = [sum(weights[j] * stack_probs[j][i][c] for j in range(k))
                  for c in range(s)]
        best = 0
        for c in range(1, s):
            if scores[c] > scores[best]:
                best = c
        out.append(best)
    return out


def reference_hard_vote(stack_probs):
    """Loop-based majority vote with the mean-confidence tie-break."""
    k = len(stack_probs)
    n = len(stack_probs[0])
    s = len(stack_probs[0][0])
    out = []
    for i in range(n):
        votes = []
        for j in range(k):
            row = stack_probs[j][i]
            best = 0
            for c in range(1, s):
                if row[c] > row[best]:
                    best = c
            votes.append(best)
        counts = [votes.count(c) for c in range(s)]
        top = max(counts)
        tied = [c for c in range(s) if counts[c] == top]
        if len(tied) == 1:
            out.append(tied[0])
            continue
        winner, winner_conf = tied[0], -1.0
        for c in tied:
            voters = [j for j in range(k) if votes[j] == c]
            conf = sum(stack_probs[j][i][c] for j in voters) / len(voters)
            if conf > winner_conf:
                winner, winner_conf = c, conf
        out.append(winner)
    return out


def simplex_grid(num_classes: int, steps: int):
    """All probability vectors over ``num_classes`` with entries i/steps."""
    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], steps, num_classes)
    return [[float(Fraction(i, steps)) for i in p] for p in points]


def brute_force_induced_edges(edge_pairs, node_set):
    """Edges with both endpoints sampled, as a set of (u, v) u < v pairs."""
    keep = set()
    nodes = set(int(x) for x in node_set)
    for u, v in edge_pairs:
        u, v = int(u), int(v)
        if u in nodes and v in nodes:
            keep.add((min(u, v), max(u, v)))
    return keep


def reference_random_flip_csr(g, num_flips: int, seed: int):
    """The random edge-flip loop that re-sorts the unspent clean edges on
    every flip, replayed on an edge set; returns the attacked (indptr,
    indices) in canonical sorted CSR form."""
    n = g.num_nodes
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    edges = {(int(u), int(v)) for u, v in zip(rows, g.indices) if u < v}
    rng = np.random.default_rng(seed)
    used = set()

    def random_nonedge():
        for _ in range(100_000):
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            if pair not in edges and pair not in used:
                return pair
        return None

    for _ in range(num_flips):
        deletable = sorted(edges - used)
        if rng.random() < 0.5 and deletable:
            pair = deletable[int(rng.integers(len(deletable)))]
        else:
            pair = random_nonedge()
            if pair is None and deletable:
                pair = deletable[int(rng.integers(len(deletable)))]
        assert pair is not None
        if pair in edges:
            edges.remove(pair)
        else:
            edges.add(pair)
        used.add(pair)

    both = sorted(edges | {(v, u) for u, v in edges})
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, _ in both:
        indptr[u + 1] += 1
    return np.cumsum(indptr), np.array([v for _, v in both], dtype=np.int64)


def reference_two_hop_pool(g, targets) -> np.ndarray:
    """The per-node loop that collected the greedy attack's candidate
    endpoints: the targets and every node within two hops, sorted."""
    pool = set(int(t) for t in targets)
    for t in targets:
        for u in g.neighbors(int(t)):
            pool.add(int(u))
            pool.update(int(w) for w in g.neighbors(int(u)))
    return np.array(sorted(pool), dtype=np.int64)
