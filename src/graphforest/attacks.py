"""Evasion-attack harness: budgeted edge flips and robustness scoring.

Both attacks edit only the adjacency (features, labels and splits pass
through untouched) and never revisit a flipped pair, so the edit
distance between the clean and attacked edge sets always equals the
resolved budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import Graph
from .metrics import micro_f1


@dataclass(frozen=True)
class AttackBudget:
    """Edge-flip allowance: a fraction of the clean edge count, resolved
    to floor(fraction * m) individual flips."""

    fraction: float
    resolved_edges: int

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("budget fraction must lie in [0, 1]")
        if self.resolved_edges < 0:
            raise ValueError("resolved_edges must be non-negative")


def budget_for(g: Graph, fraction: float) -> AttackBudget:
    # the 1e-9 nudge keeps exact products like 0.3 * 10 from flooring low
    return AttackBudget(fraction=fraction,
                        resolved_edges=int(math.floor(fraction * g.num_edges + 1e-9)))


def _edge_set(g: Graph) -> set[tuple[int, int]]:
    return {(int(u), int(v)) for u, v in g.edge_pairs()}


def _flip_edge(g: Graph, u: int, v: int) -> Graph:
    """Graph with the single undirected edge (u, v) toggled.

    Surgical CSR edit (two insertions or deletions), avoiding a full
    rebuild so greedy candidate scoring stays cheap.
    """
    if u == v:
        raise ValueError("cannot flip a self-loop")
    present = g.has_edge(u, v)
    indptr = g.indptr.copy()
    if present:
        pos_u = g.indptr[u] + int(np.searchsorted(g.neighbors(u), v))
        pos_v = g.indptr[v] + int(np.searchsorted(g.neighbors(v), u))
        indices = np.delete(g.indices, [pos_u, pos_v])
        indptr[min(u, v) + 1:] -= 1
        indptr[max(u, v) + 1:] -= 1
        num_edges = g.num_edges - 1
    else:
        pos_u = g.indptr[u] + int(np.searchsorted(g.neighbors(u), v))
        pos_v = g.indptr[v] + int(np.searchsorted(g.neighbors(v), u))
        indices = np.insert(g.indices, [pos_u, pos_v], [v, u])
        indptr[min(u, v) + 1:] += 1
        indptr[max(u, v) + 1:] += 1
        num_edges = g.num_edges + 1
    return Graph(num_nodes=g.num_nodes, num_edges=num_edges, indptr=indptr,
                 indices=indices, features=g.features, labels=g.labels,
                 num_classes=g.num_classes, train_nodes=g.train_nodes,
                 val_nodes=g.val_nodes, test_nodes=g.test_nodes)


def _random_nonedge(rng: np.random.Generator, n: int,
                    edges: set, used: set) -> tuple[int, int] | None:
    for _ in range(100_000):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        pair = (u, v) if u < v else (v, u)
        if pair not in edges and pair not in used:
            return pair
    return None


def random_flip_attack(g: Graph, budget: AttackBudget, seed: int) -> Graph:
    """Flip ``budget.resolved_edges`` distinct pairs, each a 50/50 choice
    between deleting a uniform existing edge and adding a uniform non-edge."""
    rng = np.random.default_rng(seed)
    edges = _edge_set(g)
    # the clean edges not yet deleted, sorted: an added pair is never
    # deleted again, so only deletions change this list
    deletable = sorted(edges)
    used: set[tuple[int, int]] = set()
    out = g
    for _ in range(budget.resolved_edges):
        if rng.random() < 0.5 and deletable:
            pair = deletable.pop(int(rng.integers(len(deletable))))
        else:
            pair = _random_nonedge(rng, g.num_nodes, edges, used)
            if pair is None and deletable:  # graph nearly complete
                pair = deletable.pop(int(rng.integers(len(deletable))))
        if pair is None:
            raise RuntimeError("no unspent flip available")
        out = _flip_edge(out, *pair)
        if pair in edges:
            edges.remove(pair)
        else:
            edges.add(pair)
        used.add(pair)
    return out


def _neighbors_of(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated CSR neighbor lists of ``nodes`` (repeats kept)."""
    starts = g.indptr[nodes]
    counts = g.indptr[nodes + 1] - starts
    row_offset = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return g.indices[row_offset + np.arange(row_offset.size)]


def _two_hop_pool(g: Graph, targets: np.ndarray) -> np.ndarray:
    """Sorted ids of the targets and of every node within two hops of one."""
    hop1 = np.unique(_neighbors_of(g, targets))
    return np.unique(np.concatenate([targets, hop1, _neighbors_of(g, hop1)]))


def greedy_confidence_attack(g: Graph, victim: Callable[[Graph], np.ndarray],
                             targets, budget: AttackBudget,
                             candidate_pool_size: int, seed: int) -> Graph:
    """Black-box greedy evasion against a scoring oracle.

    Per flip: sample ``candidate_pool_size`` distinct unspent single-edge
    flips incident to the targets' <=2-hop neighborhood, query the victim
    oracle (graph -> posterior rows aligned with ``targets``) on each
    candidate graph, and keep the flip that minimizes the mean true-class
    confidence over the targets (ties: first sampled). Deterministic in
    ``seed``; the oracle is only ever queried, never inspected.
    """
    target_arr = np.asarray(targets, dtype=np.int64).reshape(-1)
    true_labels = g.labels[target_arr]
    if np.any(true_labels < 0):
        raise ValueError("attack targets must be labeled")
    if candidate_pool_size < 1:
        raise ValueError("candidate pool must hold at least one flip")
    rng = np.random.default_rng(seed)
    used: set[tuple[int, int]] = set()
    out = g
    rows = np.arange(target_arr.size)

    for _ in range(budget.resolved_edges):
        pool = _two_hop_pool(out, target_arr)
        candidates: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        attempts = 0
        while len(candidates) < candidate_pool_size and attempts < candidate_pool_size * 64:
            attempts += 1
            a = int(pool[int(rng.integers(pool.size))])
            b = int(rng.integers(g.num_nodes))
            if a == b:
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in used or pair in seen:
                continue
            seen.add(pair)
            candidates.append(pair)
        if not candidates:
            raise RuntimeError("no unspent candidate flips available")

        best_idx, best_score = 0, math.inf
        for idx, pair in enumerate(candidates):
            probe = _flip_edge(out, *pair)
            score = float(victim(probe)[rows, true_labels].mean())
            if score < best_score:
                best_idx, best_score = idx, score
        pair = candidates[best_idx]
        out = _flip_edge(out, *pair)
        used.add(pair)
    return out


def robustness_eval(decider: Callable[[Graph, Sequence[int]], np.ndarray],
                    clean: Graph, attacked: Graph, eval_nodes,
                    truth) -> tuple[float, float, float]:
    """Micro-F1 of ``decider`` on the clean and attacked graphs, plus the drop."""
    nodes = np.asarray(eval_nodes, dtype=np.int64).reshape(-1)
    truth_arr = np.asarray(truth, dtype=np.int64).reshape(-1)
    f1_clean = micro_f1(decider(clean, nodes), truth_arr)
    f1_attacked = micro_f1(decider(attacked, nodes), truth_arr)
    return f1_clean, f1_attacked, f1_clean - f1_attacked
