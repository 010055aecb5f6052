"""Immutable attributed graphs stored as symmetric CSR adjacency.

The graph is the shared read-only input of every other component:
samplers draw node/feature subsets from it, base models train on induced
subgraphs, attacks produce edited copies. Arrays are int64/float64 and
frozen after construction so a graph can be shared across workers
without copies or locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import GraphValidationError

SPLIT_NAMES = ("train", "val", "test")

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_IDS.flags.writeable = False


def _as_id_array(values) -> np.ndarray:
    """Normalize an id collection to a sorted, duplicate-free int64 array."""
    if values is None:
        return _EMPTY_IDS
    if isinstance(values, (set, frozenset)):
        values = sorted(values)
    arr = np.asarray(values, dtype=np.int64).reshape(-1)
    if arr.size == 0:
        return _EMPTY_IDS
    return np.unique(arr)


def _check_ids_in_range(ids: np.ndarray, upper: int, what: str) -> None:
    if ids.size and (ids[0] < 0 or ids[-1] >= upper):
        bad = int(ids[0]) if ids[0] < 0 else int(ids[-1])
        raise GraphValidationError(f"{what} id {bad} out of range [0, {upper})")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected, unweighted attributed graph.

    Adjacency is a symmetric CSR: ``indices[indptr[v]:indptr[v+1]]`` holds
    the sorted neighbors of ``v``, with no self-loops and no duplicates.
    ``labels`` stores -1 for unlabeled nodes. Split membership lives in
    three sorted, pairwise-disjoint id arrays.
    """

    num_nodes: int
    num_edges: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_nodes: np.ndarray
    val_nodes: np.ndarray
    test_nodes: np.ndarray

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.features, self.labels,
                    self.train_nodes, self.val_nodes, self.test_nodes):
            arr.flags.writeable = False

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a view of the CSR row)."""
        if not 0 <= v < self.num_nodes:
            raise GraphValidationError(f"node id {v} out of range [0, {self.num_nodes})")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return pos < row.size and row[pos] == v

    def edge_pairs(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees)
        mask = rows < self.indices
        return np.column_stack([rows[mask], self.indices[mask]])

    def equals(self, other: "Graph") -> bool:
        return (
            self.num_nodes == other.num_nodes
            and self.num_edges == other.num_edges
            and self.num_classes == other.num_classes
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.train_nodes, other.train_nodes)
            and np.array_equal(self.val_nodes, other.val_nodes)
            and np.array_equal(self.test_nodes, other.test_nodes)
        )


def build_graph(
    edges,
    features,
    labels=None,
    num_classes: int | None = None,
    splits: Mapping[str, Iterable[int]] | None = None,
) -> Graph:
    """Construct a validated Graph from raw parts.

    Edges are deduplicated and symmetrized; self-loops are dropped. The
    node count is the number of feature rows. Raises
    GraphValidationError on out-of-range ids, non-finite features,
    labels outside [0, num_classes) or overlapping splits.
    """
    feats = np.array(features, dtype=np.float64, copy=True)
    if feats.ndim != 2:
        raise GraphValidationError("features must be a 2-d matrix (one row per node)")
    n = feats.shape[0]
    if n < 1:
        raise GraphValidationError("graph needs at least one node")
    if not np.isfinite(feats).all():
        raise GraphValidationError("features contain a non-finite value")

    edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                          dtype=np.int64)
    edge_arr = edge_arr.reshape(-1, 2) if edge_arr.size else np.empty((0, 2), dtype=np.int64)
    if edge_arr.size:
        lo, hi = int(edge_arr.min()), int(edge_arr.max())
        if lo < 0 or hi >= n:
            bad = lo if lo < 0 else hi
            raise GraphValidationError(f"edge endpoint {bad} out of range [0, {n})")
        edge_arr = edge_arr[edge_arr[:, 0] != edge_arr[:, 1]]

    if edge_arr.size:
        both = np.concatenate([edge_arr, edge_arr[:, ::-1]], axis=0)
        keys = np.unique(both[:, 0] * n + both[:, 1])
        rows = keys // n
        indices = keys % n
    else:
        rows = np.empty(0, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    num_edges = indices.size // 2

    if labels is None:
        lab = np.full(n, -1, dtype=np.int64)
    else:
        lab = np.array(labels, dtype=np.int64, copy=True).reshape(-1)
        if lab.shape[0] != n:
            raise GraphValidationError(f"labels length {lab.shape[0]} != node count {n}")
        if np.any(lab < -1):
            raise GraphValidationError("labels must be class ids >= 0, or -1 for unlabeled")
    present = lab >= 0
    if num_classes is None:
        num_classes = int(lab.max()) + 1 if present.any() else 0
    if present.any() and int(lab[present].max()) >= num_classes:
        raise GraphValidationError(
            f"label {int(lab[present].max())} outside [0, {num_classes})")

    split_arrays = {}
    splits = splits or {}
    for name in splits:
        if name not in SPLIT_NAMES:
            raise GraphValidationError(f"unknown split name {name!r}")
    for name in SPLIT_NAMES:
        ids = _as_id_array(splits.get(name))
        _check_ids_in_range(ids, n, f"{name} split")
        split_arrays[name] = ids
    for a, b in (("train", "test"), ("train", "val"), ("val", "test")):
        overlap = np.intersect1d(split_arrays[a], split_arrays[b])
        if overlap.size:
            raise GraphValidationError(
                f"splits {a} and {b} overlap at node {int(overlap[0])}")

    return Graph(
        num_nodes=n,
        num_edges=num_edges,
        indptr=indptr,
        indices=indices,
        features=feats,
        labels=lab,
        num_classes=num_classes,
        train_nodes=split_arrays["train"],
        val_nodes=split_arrays["val"],
        test_nodes=split_arrays["test"],
    )


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Subgraph on ``nodes``: keeps exactly the edges with both endpoints sampled.

    Subgraph id i is original id ``sorted(set(nodes))[i]``; edges,
    features, labels and splits are re-indexed accordingly.
    """
    sel = _as_id_array(nodes)
    if sel.size == 0:
        raise GraphValidationError("cannot induce a subgraph on an empty node set")
    _check_ids_in_range(sel, g.num_nodes, "node")

    forward = np.full(g.num_nodes, -1, dtype=np.int64)
    forward[sel] = np.arange(sel.size)
    rows = np.repeat(np.arange(g.num_nodes), g.degrees)
    keep = (forward[rows] >= 0) & (forward[g.indices] >= 0)
    new_rows = forward[rows[keep]]
    new_cols = forward[g.indices[keep]]
    indptr = np.zeros(sel.size + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(new_rows, minlength=sel.size))

    def _remap(ids: np.ndarray) -> np.ndarray:
        mapped = forward[ids]
        return mapped[mapped >= 0]

    return Graph(
        num_nodes=int(sel.size),
        num_edges=int(new_cols.size // 2),
        indptr=indptr,
        indices=new_cols,
        features=g.features[sel],
        labels=g.labels[sel],
        num_classes=g.num_classes,
        train_nodes=_remap(g.train_nodes),
        val_nodes=_remap(g.val_nodes),
        test_nodes=_remap(g.test_nodes),
    )


def restrict_features(g: Graph, dims) -> Graph:
    """Keep only the given feature columns, in ascending original order."""
    sel = _as_id_array(dims)
    if sel.size == 0:
        raise GraphValidationError("cannot restrict to an empty feature set")
    _check_ids_in_range(sel, g.num_features, "feature dim")
    return Graph(
        num_nodes=g.num_nodes,
        num_edges=g.num_edges,
        indptr=g.indptr,
        indices=g.indices,
        features=g.features[:, sel],
        labels=g.labels,
        num_classes=g.num_classes,
        train_nodes=g.train_nodes,
        val_nodes=g.val_nodes,
        test_nodes=g.test_nodes,
    )


def edge_preservation_ratio(full: Graph, sub: Graph) -> float:
    """Fraction of the full graph's edges that survived node subsampling.

    Defined as 1.0 for an edgeless full graph.
    """
    if full.num_edges == 0:
        return 1.0
    return sub.num_edges / full.num_edges


def check_invariants(g: Graph) -> None:
    """Assert every structural invariant; raises GraphValidationError.

    Used by tests and by harnesses that synthesize graphs through
    non-standard paths (e.g. edge-flip attacks).
    """
    if g.indptr.shape != (g.num_nodes + 1,) or g.indptr[0] != 0:
        raise GraphValidationError("malformed indptr")
    if g.indptr[-1] != g.indices.size or np.any(np.diff(g.indptr) < 0):
        raise GraphValidationError("indptr does not cover indices")
    if g.indices.size != 2 * g.num_edges:
        raise GraphValidationError("edge count does not match CSR size")
    rows = np.repeat(np.arange(g.num_nodes), g.degrees)
    if np.any(rows == g.indices):
        raise GraphValidationError("self-loop present")
    for v in range(g.num_nodes):
        row = g.indices[g.indptr[v]:g.indptr[v + 1]]
        if row.size and np.any(np.diff(row) <= 0):
            raise GraphValidationError(f"row {v} not strictly increasing")
    fwd = set(map(tuple, np.column_stack([rows, g.indices])))
    if any((v, u) not in fwd for u, v in fwd):
        raise GraphValidationError("adjacency not symmetric")
    if not np.isfinite(g.features).all():
        raise GraphValidationError("non-finite feature")
    present = g.labels >= 0
    if present.any() and int(g.labels[present].max()) >= g.num_classes:
        raise GraphValidationError("label out of range")
    if np.any(g.labels < -1):
        raise GraphValidationError("negative label other than -1")
    for name, ids in (("train", g.train_nodes), ("val", g.val_nodes), ("test", g.test_nodes)):
        _check_ids_in_range(ids, g.num_nodes, f"{name} split")
        if ids.size and np.any(np.diff(ids) <= 0):
            raise GraphValidationError(f"{name} split not sorted/unique")
    if np.intersect1d(g.train_nodes, g.test_nodes).size:
        raise GraphValidationError("train and test splits overlap")
