"""The benchmark's three workloads and the checks on their outputs.

Each workload has ``setup`` (untimed apart from set-up time), ``run_round``
(one timed round of operations), ``after_round`` (untimed bookkeeping) and
``check`` (returns fault messages; empty means correct). The program is
always reached through module attributes at call time (``gf.x``,
``graphforest.cli.main``), so the tracer's wrappers see every call.

Sizes live in SIZES; "full" is what the benchmark measures, "smoke" runs
the same code path on tiny inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

import graphforest as gf
import graphforest.cli

import reference as ref

# The acceptance fixture: 600 nodes in 3 blocks, mean degree about 24.
FIXTURE = dict(num_nodes=600, num_classes=3, p_in=0.1, p_out=0.01, feature_dim=60,
               signal=0.6, noise_sd=1.0, train_fraction=0.1)

SIZES = {
    "full": {
        # criterion-4 model. Rounds train serially: at parallelism 2 on 2
        # cores one 10-model verb took 15-35 s (BLAS threads oversubscribe the
        # cores), far too unsteady for a bound; the traced run times the pool.
        # 6 models per verb (an even split over 2 workers) give about four
        # rounds in 20 s, so the median is a warm round.
        "train": dict(sbm=FIXTURE, models=6, hidden=256, epochs=60, node_fraction=0.7,
                      feature_fraction=0.5, pool_parallelism=2, accuracy_floor=0.8,
                      check_models=3),
        # five times the fixture's nodes at the same mean degree (~36k edges)
        "infer": dict(sbm=dict(FIXTURE, num_nodes=3000, p_in=0.02, p_out=0.002),
                      models=25, hidden=64, epochs=5, node_fraction=0.7,
                      feature_fraction=0.5, check_models=2, check_nodes=200),
        # criterion-5 victim, ensemble and random budget on the fixture; the
        # greedy budget is cut to 0.004 (29 flips, 928 queries) so that a
        # round takes about 6 s and the median comes from several rounds
        "attack": dict(sbm=FIXTURE, models=25, hidden=64, epochs=50, node_fraction=0.7,
                       feature_fraction=0.5, random_budget=0.1, greedy_budget=0.004,
                       pool=32, targets=30),
    },
    "smoke": {
        "train": dict(sbm=dict(FIXTURE, num_nodes=90, p_in=0.3, p_out=0.02, feature_dim=12,
                               train_fraction=0.3),
                      models=3, hidden=16, epochs=30, node_fraction=0.7,
                      feature_fraction=0.5, pool_parallelism=2, accuracy_floor=0.8,
                      check_models=3),
        "infer": dict(sbm=dict(FIXTURE, num_nodes=120, p_in=0.2, p_out=0.02, feature_dim=12),
                      models=3, hidden=8, epochs=2, node_fraction=0.7,
                      feature_fraction=0.5, check_models=2, check_nodes=50),
        "attack": dict(sbm=dict(FIXTURE, num_nodes=90, p_in=0.3, p_out=0.02, feature_dim=12,
                                train_fraction=0.3),
                       models=3, hidden=16, epochs=30, node_fraction=0.7,
                       feature_fraction=0.5, random_budget=0.1, greedy_budget=0.02,
                       pool=4, targets=5),
    },
}


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def subset_size(fraction: float, count: int) -> int:
    """ceil(fraction * count) in exact decimal arithmetic."""
    return math.ceil(Fraction(repr(fraction)) * count)


def graph_arrays(g) -> dict:
    return {"indptr": g.indptr, "indices": g.indices, "features": g.features,
            "labels": g.labels, "train": g.train_nodes, "val": g.val_nodes,
            "test": g.test_nodes}


def model_arrays(m) -> list:
    return [m.spec.node_subset, m.spec.feature_subset, *m.params.agg_weights,
            *m.params.self_weights]


def changed_arrays(a, b, names) -> list[str]:
    left, right = graph_arrays(a), graph_arrays(b)
    return [n for n in names if not np.array_equal(left[n], right[n])]


def posterior_faults(model, g, adj, probs, nodes, tol=1e-9) -> list[str]:
    """Program posteriors ``probs`` (rows for ``nodes``) against the dense reference."""
    fs = model.spec.feature_subset
    want = ref.softmax_rows(ref.dense_logits(model.params.agg_weights,
                                             model.params.self_weights, adj,
                                             g.features[:, fs]))[nodes]
    err = float(np.max(np.abs(probs - want)))
    if err > tol:
        return [f"model {model.spec.model_index}: posteriors differ from the dense "
                f"reference by {err:.3e} (> {tol:g})"]
    return []


def vote_faults(probs, weights, hard, soft) -> list[str]:
    faults = []
    bad = ref.hard_vote_faults(probs, hard)
    if bad:
        faults.append(f"hard vote differs from the loop reference at {len(bad)} nodes "
                      f"(first {bad[0]})")
    bad = ref.soft_vote_faults(probs, weights, soft)
    if bad:
        faults.append(f"soft vote differs from the loop reference at {len(bad)} nodes "
                      f"(first {bad[0]})")
    return faults


def attacked_faults(clean, attacked, resolved_edges: int, label: str) -> list[str]:
    faults = [f"{label}: {f}" for f in ref.csr_faults(attacked.indptr, attacked.indices,
                                                     attacked.num_nodes)]
    diff = ref.edge_set(clean.indptr, clean.indices) ^ ref.edge_set(attacked.indptr,
                                                                     attacked.indices)
    if len(diff) != resolved_edges:
        faults.append(f"{label}: {len(diff)} edges differ from the clean graph, "
                      f"budget resolved to {resolved_edges}")
    changed = changed_arrays(clean, attacked, ("features", "labels", "train", "val", "test"))
    if changed:
        faults.append(f"{label}: attack changed {', '.join(changed)}")
    return faults


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, cfg: dict, seed: int, workdir: str, tracer=None):
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.sbm = gf.SbmConfig(**cfg["sbm"], seed=seed)
        self.notes: dict = {}   # output figures worth printing with the run

    def setup(self) -> None:
        pass

    def run_round(self) -> None:
        raise NotImplementedError

    def after_round(self) -> None:
        pass

    def traced_extras(self) -> dict:
        return {}

    def check(self) -> list[str]:
        raise NotImplementedError


class Train(Workload):
    """`graphforest train` through graphforest.cli.main, on the fixture SBM."""

    name = "train"

    def __init__(self, cfg, seed, workdir, tracer=None):
        super().__init__(cfg, seed, workdir, tracer)
        self.ops_per_round = cfg["models"]
        self.out = os.path.join(workdir, "train")
        self.digests: list[str] = []
        self.verb_walls: list[float] = []

    def argv(self, out: str, parallelism: int) -> list[str]:
        cfg = self.cfg
        spec = "sbm:" + ",".join(f"{k}={v!r}" for k, v in
                                 dict(cfg["sbm"], seed=self.seed).items())
        sets = {"dataset": spec, "num_models": cfg["models"], "hidden_dim": cfg["hidden"],
                "epochs": cfg["epochs"], "node_fraction": cfg["node_fraction"],
                "feature_fraction": cfg["feature_fraction"]}
        argv = ["train", "--seed", str(self.seed), "--parallelism", str(parallelism),
                "--out", out]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def verb(self, out: str, parallelism: int) -> float:
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = graphforest.cli.main(self.argv(out, parallelism))
        wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"graphforest train exited with {code}")
        return wall

    def run_round(self) -> None:
        self.verb_walls.append(self.verb(self.out, 1))

    def after_round(self) -> None:
        self.digests.append(sha256_file(os.path.join(self.out, "ensemble.gfe")))

    def traced_extras(self) -> dict:
        """Untraced serial and parallel walls of the same verb (pool speedup)."""
        walls = {}
        for parallelism in (1, self.cfg["pool_parallelism"]):
            out = os.path.join(self.workdir, f"train-p{parallelism}")
            walls[parallelism] = self.verb(out, parallelism)
            self.digests.append(sha256_file(os.path.join(out, "ensemble.gfe")))
        serial, parallel = walls[1], walls[self.cfg["pool_parallelism"]]
        return {"ensemble.pool_serial_s": serial, "ensemble.pool_parallel_s": parallel,
                "ensemble.pool_speedup": serial / parallel}

    def check(self) -> list[str]:
        cfg, faults = self.cfg, []
        if len(set(self.digests)) != 1:
            faults.append(f"the same config gave {len(set(self.digests))} different .gfe files")
        path = os.path.join(self.out, "ensemble.gfe")
        with open(os.path.join(self.out, "train_log.txt"), encoding="utf-8") as fh:
            logged = [line.strip() for line in fh if line.startswith("ensemble_digest=")]
        if logged != [f"ensemble_digest=sha256:{sha256_file(path)}"]:
            faults.append("train_log digest does not match the .gfe file")

        e = gf.load_ensemble(path)
        g = gf.generate_sbm(self.sbm)   # the input the verb resolved from its spec
        n, d = g.num_nodes, g.num_features
        if len(e.models) != cfg["models"]:
            faults.append(f"{len(e.models)} models in the .gfe, {cfg['models']} asked for")
        adj = ref.dense_adjacency(g.indptr, g.indices, n)
        rng = np.random.default_rng(self.seed)
        sampled = rng.choice(len(e.models), size=min(cfg["check_models"], len(e.models)),
                             replace=False)
        for j in sorted(sampled):
            m = e.models[j]
            ns, fs = m.spec.node_subset, m.spec.feature_subset
            for what, sub, frac, count in (("node", ns, cfg["node_fraction"], n),
                                           ("feature", fs, cfg["feature_fraction"], d)):
                if sub.size != subset_size(frac, count):
                    faults.append(f"model {j}: {sub.size} {what}s, want "
                                  f"ceil({frac} * {count}) = {subset_size(frac, count)}")
                if sub.size and (np.any(np.diff(sub) <= 0) or sub[0] < 0 or sub[-1] >= count):
                    faults.append(f"model {j}: {what} subset not sorted, unique and in range")
            logits = ref.dense_logits(m.params.agg_weights, m.params.self_weights,
                                      adj[np.ix_(ns, ns)], g.features[np.ix_(ns, fs)])
            labeled = np.isin(ns, g.train_nodes) & (g.labels[ns] >= 0)
            acc = ref.accuracy(logits[labeled].argmax(axis=1), g.labels[ns][labeled])
            if abs(m.train_f1 - acc) > 1e-9:
                faults.append(f"model {j}: train_f1 {m.train_f1!r} != reference accuracy {acc!r}")

        test = g.test_nodes
        probs = np.stack([ref.softmax_rows(ref.dense_logits(
            m.params.agg_weights, m.params.self_weights, adj,
            g.features[:, m.spec.feature_subset]))[test] for m in e.models])
        acc = ref.accuracy(ref.soft_vote(probs, e.weights), g.labels[test])
        self.notes["soft_test_accuracy"] = acc
        if acc < cfg["accuracy_floor"]:
            faults.append(f"soft-voted test accuracy {acc:.4f} below the floor "
                          f"{cfg['accuracy_floor']}")
        return faults


class Infer(Workload):
    """Repeated ensemble decisions over every node of a larger SBM."""

    name = "infer"

    def __init__(self, cfg, seed, workdir, tracer=None):
        super().__init__(cfg, seed, workdir, tracer)
        self.ops_per_round = 2 * cfg["sbm"]["num_nodes"]   # one hard + one soft decision per node
        self.first = None

    def setup(self) -> None:
        cfg = self.cfg
        self.generated = gf.generate_sbm(self.sbm)
        self.trained = gf.train_ensemble(
            self.generated, cfg["models"], cfg["node_fraction"], cfg["feature_fraction"],
            gf.HyperParams(hidden_dim=cfg["hidden"], epochs=cfg["epochs"]), self.seed,
            parallelism=1, voting="hard")
        graph_dir = os.path.join(self.workdir, "graph")
        model_path = os.path.join(self.workdir, "ensemble.gfe")
        gf.save_graph_dir(self.generated, graph_dir)
        gf.save_ensemble(self.trained, model_path)
        self.g = gf.load_graph_dir(graph_dir)
        self.e = gf.load_ensemble(model_path)
        self.nodes = np.arange(self.g.num_nodes)
        self.unstable_rounds = 0

    def run_round(self) -> None:
        self.hard = gf.ensemble_decide(self.e, self.g, self.nodes)
        self.stack = gf.ensemble_posteriors(self.e, self.g, self.nodes)
        self.soft = gf.decide_soft(self.stack, self.e.weights)

    def after_round(self) -> None:
        if self.first is None:
            self.first = (self.hard, self.soft)
        elif not (np.array_equal(self.first[0], self.hard)
                  and np.array_equal(self.first[1], self.soft)):
            self.unstable_rounds += 1

    def check(self) -> list[str]:
        cfg, faults = self.cfg, []
        g, e = self.g, self.e
        changed = changed_arrays(self.generated, g, graph_arrays(g).keys())
        if changed:
            faults.append(f"graph reloaded from disk differs in {', '.join(changed)}")
        for a, b in zip(self.trained.models, e.models):
            if not all(np.array_equal(x, y) for x, y in zip(model_arrays(a), model_arrays(b))):
                faults.append(f"model {a.spec.model_index} changed in the .gfe round trip")
        if self.unstable_rounds:
            faults.append(f"{self.unstable_rounds} rounds decided differently from the first")
        probs = self.stack.probs
        if not np.array_equal(self.stack.nodes, self.nodes):
            faults.append("posterior stack is not aligned with the queried nodes")
        worst = float(np.max(np.abs(probs.sum(axis=2) - 1.0)))
        if worst > 1e-9:
            faults.append(f"posterior rows sum to 1 only within {worst:.3e}")
        rng = np.random.default_rng(self.seed)
        nodes = np.sort(rng.choice(g.num_nodes, size=min(cfg["check_nodes"], g.num_nodes),
                                   replace=False))
        adj = ref.dense_adjacency(g.indptr, g.indices, g.num_nodes)
        for j in sorted(rng.choice(len(e.models), size=min(cfg["check_models"], len(e.models)),
                                   replace=False)):
            faults += posterior_faults(e.models[j], g, adj, probs[j, nodes], nodes)
        faults += vote_faults(probs, e.weights, self.hard, self.soft)
        return faults


class Attack(Workload):
    """Random and greedy edge-flip attacks plus robustness_eval, no training."""

    name = "attack"

    def setup(self) -> None:
        cfg = self.cfg
        g = self.g = gf.generate_sbm(self.sbm)
        hp = gf.HyperParams(hidden_dim=cfg["hidden"], epochs=cfg["epochs"])
        self.base = gf.train_ensemble(g, 1, 1.0, 1.0, hp, self.seed, parallelism=1)
        self.ens = gf.train_ensemble(g, cfg["models"], cfg["node_fraction"],
                                     cfg["feature_fraction"], hp, self.seed, parallelism=1)
        rng = np.random.default_rng(gf.derive_seed(self.seed, 9002))
        self.targets = np.sort(rng.choice(g.test_nodes, size=min(cfg["targets"],
                                                                 g.test_nodes.size),
                                          replace=False))
        self.random_budget = gf.budget_for(g, cfg["random_budget"])
        self.greedy_budget = gf.budget_for(g, cfg["greedy_budget"])
        self.ops_per_round = self.random_budget.resolved_edges + self.greedy_budget.resolved_edges
        victim, targets = self.base.models[0], self.targets

        def oracle(graph):
            self.queries += 1
            return gf.predict_posterior(victim, graph, targets)
        self.oracle = self.tracer.wrap(oracle, "attacks.oracle") if self.tracer else oracle
        self.first = None
        self.query_faults: list[str] = []

    def run_round(self) -> None:
        g, cfg = self.g, self.cfg
        self.queries = 0
        self.evals = []
        self.random = gf.random_flip_attack(g, self.random_budget,
                                            seed=gf.derive_seed(self.seed, 9001))
        self.greedy = gf.greedy_confidence_attack(g, self.oracle, self.targets,
                                                  self.greedy_budget, cfg["pool"],
                                                  seed=gf.derive_seed(self.seed, 9003))
        for attacked, nodes in ((self.random, g.test_nodes), (self.greedy, self.targets)):
            truth = g.labels[nodes]
            for model in (self.base, self.ens):
                preds = []

                def decider(graph, eval_nodes, _m=model, _out=preds):
                    _out.append(gf.ensemble_decide(_m, graph, eval_nodes))
                    return _out[-1]
                result = gf.robustness_eval(decider, g, attacked, nodes, truth)
                self.evals.append((result, preds, truth))

    def after_round(self) -> None:
        want = self.greedy_budget.resolved_edges * self.cfg["pool"]
        if self.queries != want:
            self.query_faults.append(f"oracle queried {self.queries} times, want "
                                     f"flips x pool = {want}")
        edges = [(a.indptr, a.indices) for a in (self.random, self.greedy)]
        if self.first is None:
            self.first = edges
        elif not all(np.array_equal(x, y) for p, q in zip(self.first, edges)
                     for x, y in zip(p, q)):
            self.query_faults.append("an attack gave a different graph than in round 1")

    def check(self) -> list[str]:
        g, faults = self.g, list(self.query_faults)
        faults += attacked_faults(g, self.random, self.random_budget.resolved_edges, "random")
        faults += attacked_faults(g, self.greedy, self.greedy_budget.resolved_edges, "greedy")

        victim = self.base.models[0]
        fs, rows = victim.spec.feature_subset, self.targets
        truth = g.labels[rows]

        def confidence(graph) -> float:
            adj = ref.dense_adjacency(graph.indptr, graph.indices, graph.num_nodes)
            probs = ref.softmax_rows(ref.dense_logits(victim.params.agg_weights,
                                                      victim.params.self_weights, adj,
                                                      graph.features[:, fs]))
            return float(np.mean(probs[rows, truth]))
        clean, attacked = confidence(g), confidence(self.greedy)
        self.notes["victim_confidence"] = [clean, attacked]
        if not attacked < clean:
            faults.append(f"victim confidence on the targets did not fall: "
                          f"{clean:.4f} -> {attacked:.4f}")

        for (f1_clean, f1_attacked, drop), preds, truth in self.evals:
            if len(preds) != 2:
                faults.append(f"robustness_eval made {len(preds)} decisions, want 2")
                continue
            want = (ref.accuracy(preds[0], truth), ref.accuracy(preds[1], truth))
            if (abs(f1_clean - want[0]) > 1e-12 or abs(f1_attacked - want[1]) > 1e-12
                    or abs(drop - (want[0] - want[1])) > 1e-12):
                faults.append(f"micro_f1 ({f1_clean!r}, {f1_attacked!r}) != reference "
                              f"accuracy {want}")
        return faults


WORKLOADS = {w.name: w for w in (Train, Infer, Attack)}
