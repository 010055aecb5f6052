"""Reference computations the benchmark checks the program against.

Written against raw numpy arrays with dense linear algebra and Python
loops. Nothing here imports graphforest, so a fault in the package
cannot hide in the check that is meant to catch it.
"""

from __future__ import annotations

import numpy as np

# Two scores closer than this are a tie: summation order alone can move
# them by a few ulps, so either decision is accepted.
TIE_TOL = 1e-12


def dense_adjacency(indptr, indices, num_nodes: int) -> np.ndarray:
    """0/1 matrix with a[v, u] = 1 for every u in CSR row v."""
    a = np.zeros((num_nodes, num_nodes))
    for v in range(num_nodes):
        a[v, indices[indptr[v]:indptr[v + 1]]] = 1.0
    return a


def dense_logits(agg_weights, self_weights, adj: np.ndarray,
                 feats: np.ndarray) -> np.ndarray:
    """Mean-aggregator forward: per layer (D^-1 A H) Wa^T + H Ws^T, ReLU
    between layers, none after the last; isolated nodes aggregate zero."""
    deg = adj.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    h = feats
    last = len(agg_weights) - 1
    for l, (wa, ws) in enumerate(zip(agg_weights, self_weights)):
        z = (inv[:, None] * (adj @ h)) @ wa.T + h @ ws.T
        h = np.maximum(z, 0.0) if l < last else z
    return h


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def accuracy(pred, truth) -> float:
    return float(np.mean(np.asarray(pred) == np.asarray(truth)))


def _argmax(row) -> int:
    best = 0
    for c in range(1, len(row)):
        if row[c] > row[best]:
            best = c
    return best


def soft_scores(probs, weights) -> list[list[float]]:
    """Weighted posterior average per node; ``probs`` is (models, nodes, classes)."""
    k, n, s = np.shape(probs)
    p, w = np.asarray(probs).tolist(), [float(x) for x in weights]
    return [[sum(w[j] * p[j][i][c] for j in range(k)) for c in range(s)]
            for i in range(n)]


def soft_vote(probs, weights) -> list[int]:
    return [_argmax(row) for row in soft_scores(probs, weights)]


def soft_vote_faults(probs, weights, decided) -> list[int]:
    """Nodes whose decision differs from the weighted-average argmax.

    A decision is accepted when its averaged score ties the reference
    winner's within TIE_TOL.
    """
    bad = []
    for i, scores in enumerate(soft_scores(probs, weights)):
        want, got = _argmax(scores), int(decided[i])
        if got != want and not (0 <= got < len(scores)
                                and scores[want] - scores[got] <= TIE_TOL):
            bad.append(i)
    return bad


def hard_vote_faults(probs, decided) -> list[int]:
    """Nodes whose decision differs from the majority of per-model argmaxes.

    Vote ties go to the class whose voters have the higher mean
    confidence, then to the smaller class id; mean confidences within
    TIE_TOL of each other count as tied.
    """
    k, n, s = np.shape(probs)
    p = np.asarray(probs).tolist()
    bad = []
    for i in range(n):
        votes = [_argmax(p[j][i]) for j in range(k)]
        counts = [votes.count(c) for c in range(s)]
        conf = [sum(p[j][i][c] for j in range(k) if votes[j] == c)
                / counts[c] if counts[c] else -1.0 for c in range(s)]
        top = max(counts)
        tied = [c for c in range(s) if counts[c] == top]
        want = tied[0]
        for c in tied[1:]:
            if conf[c] > conf[want]:
                want = c
        got = int(decided[i])
        if got == want:
            continue
        if not (got in tied and conf[want] - conf[got] <= TIE_TOL):
            bad.append(i)
    return bad


def csr_faults(indptr, indices, num_nodes: int) -> list[str]:
    """Structural faults of an undirected CSR adjacency, as messages."""
    faults = []
    if len(indptr) != num_nodes + 1 or indptr[0] != 0 or indptr[-1] != len(indices):
        return ["indptr does not frame indices"]
    pairs = set()
    for v in range(num_nodes):
        row = [int(u) for u in indices[indptr[v]:indptr[v + 1]]]
        if any(b <= a for a, b in zip(row, row[1:])):
            faults.append(f"row {v} is not strictly increasing")
        if v in row:
            faults.append(f"self-loop at {v}")
        pairs.update((v, u) for u in row)
    missing = sum(1 for v, u in pairs if (u, v) not in pairs)
    if missing:
        faults.append(f"{missing} directed entries lack their reverse")
    return faults


def edge_set(indptr, indices) -> set[tuple[int, int]]:
    """Undirected edges as (u, v) pairs with u < v."""
    out = set()
    for v in range(len(indptr) - 1):
        for u in indices[indptr[v]:indptr[v + 1]]:
            if v < u:
                out.add((v, int(u)))
    return out
