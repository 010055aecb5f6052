"""Self-test of the benchmark's checks: each must reject a corrupted output.

    python3 perfbench/selftest.py

Trains a tiny ensemble with graphforest, confirms that the checks accept
the program's real outputs, then corrupts one thing at a time (one
weight, one vote, one extra or one-sided edge flip) and confirms that the
matching check rejects it. Takes about a second; exits 1 on any miss.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

import graphforest as gf
from graphforest.model import BaseModel, GnnParams

import reference as ref
import workloads as wl


def main() -> int:
    g = gf.generate_sbm(gf.SbmConfig(**wl.SIZES["smoke"]["infer"]["sbm"], seed=3))
    e = gf.train_ensemble(g, 3, 0.7, 0.5, gf.HyperParams(hidden_dim=8, epochs=3), 3)
    nodes = np.arange(g.num_nodes)
    stack = gf.ensemble_posteriors(e, g, nodes)
    hard, soft = gf.decide_hard(stack), gf.decide_soft(stack, e.weights)
    adj = ref.dense_adjacency(g.indptr, g.indices, g.num_nodes)
    misses = []

    def expect(label, faults, rejected):
        ok = bool(faults) == rejected
        print(f"selftest: {'ok  ' if ok else 'MISS'} {label}: {faults or 'accepted'}")
        if not ok:
            misses.append(label)

    m = e.models[0]
    expect("posteriors as computed", wl.posterior_faults(m, g, adj, stack.probs[0], nodes),
           rejected=False)
    params = GnnParams([w.copy() for w in m.params.agg_weights],
                       [w.copy() for w in m.params.self_weights])
    params.agg_weights[0][0, 0] += 1e-3
    expect("posteriors against one perturbed weight",
           wl.posterior_faults(BaseModel(params, m.spec, m.train_f1), g, adj,
                               stack.probs[0], nodes), rejected=True)

    expect("votes as computed", wl.vote_faults(stack.probs, e.weights, hard, soft),
           rejected=False)
    # change the vote of the node the ensemble is surest about
    sure = int(np.argmax(stack.probs.mean(axis=0).max(axis=1)))
    for label, h, s in (("one changed hard vote", hard.copy(), soft),
                        ("one changed soft vote", hard, soft.copy())):
        changed = h if label.endswith("hard vote") else s
        changed[sure] = (changed[sure] + 1) % g.num_classes
        expect(label, wl.vote_faults(stack.probs, e.weights, h, s), rejected=True)

    budget = gf.budget_for(g, 0.05)
    adv = gf.random_flip_attack(g, budget, seed=5)
    expect("random attack as computed", wl.attacked_faults(g, adv, budget.resolved_edges, "r"),
           rejected=False)
    edges = ref.edge_set(adv.indptr, adv.indices)
    touched = edges ^ ref.edge_set(g.indptr, g.indices)
    pair = next((0, v) for v in range(1, g.num_nodes) if (0, v) not in touched)
    extra = gf.build_graph(sorted(edges ^ {pair}), adv.features, labels=adv.labels,
                           num_classes=adv.num_classes,
                           splits={"train": adv.train_nodes, "val": adv.val_nodes,
                                   "test": adv.test_nodes})
    expect("one extra edge flip", wl.attacked_faults(g, extra, budget.resolved_edges, "r"),
           rejected=True)
    # drop the first CSR entry, the edge (v, u) of the first non-empty row v,
    # but keep its mirror (u, v)
    v = int(np.flatnonzero(np.diff(adv.indptr))[0])
    indptr = adv.indptr.copy()
    indptr[v + 1:] -= 1
    one_sided = gf.Graph(adv.num_nodes, adv.num_edges, indptr,
                         np.delete(adv.indices, adv.indptr[v]), adv.features, adv.labels,
                         adv.num_classes, adv.train_nodes, adv.val_nodes, adv.test_nodes)
    expect("one edge removed in one direction only",
           wl.attacked_faults(g, one_sided, budget.resolved_edges, "r"), rejected=True)

    print(f"selftest: {'ok' if not misses else 'FAILED: ' + ', '.join(misses)}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
