"""Timing spans around graphforest's public functions, recorded from outside.

``Tracer.install`` replaces every public graphforest function found in the
namespaces of the traced modules (and of the package itself) with a
wrapper that records a span: name, start, end and the index of the
enclosing span. A name imported into another module is replaced where it
is looked up, so ``graphforest.model.induced_subgraph`` is timed when
``train_base_model`` calls it. The span name is always the defining
module and function, e.g. ``graph.induced_subgraph``. ``MeanAggregator``
construction is timed as ``model.MeanAggregator``.

Spans stay in memory; ``dump`` writes them out once the run has ended.
Wrappers run in the calling process only, so a traced run trains
serially: a process-pool worker would keep its spans to itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict

import graphforest

TRACED_MODULES = ("datasets", "sampling", "graph", "model", "ensemble", "attacks", "cli")
# Modules whose spans count towards the share of a CLI verb that is covered.
VERB_CHILD_MODULES = ("datasets", "sampling", "graph", "model", "ensemble")


def _train_step_flop(params, g) -> float:
    """Computed flops of one forward + backward step from array shapes and nnz.

    Per layer with n nodes, nnz adjacency entries, in/out widths di/do:
    forward = SpMM 2*nnz*di + two GEMMs 4*n*di*do; backward = two weight
    GEMMs 4*n*di*do, plus, below the top layer, the input-gradient GEMMs
    4*n*di*do and the transposed SpMM 2*nnz*do. Elementwise work is left out.
    """
    n, nnz = g.num_nodes, g.indices.size
    flop = 0.0
    for l, w in enumerate(params.agg_weights):
        d_out, d_in = w.shape
        flop += 2 * nnz * d_in + 4 * n * d_in * d_out
        flop += 4 * n * d_in * d_out
        if l > 0:
            flop += 4 * n * d_in * d_out + 2 * nnz * d_out
    return flop


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.round_start = None           # index of the first span of the timed rounds
        self.rounds = 0
        self.gfe_bytes = 0                # size of the last serialized ensemble

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if name == "model.loss_and_grad":
                tracer.count("model.train_flop", _train_step_flop(*args[:2]))
            elif name == "ensemble.serialize_ensemble":
                tracer.gfe_bytes = len(result)
            return result
        return traced

    def count(self, key: str, value: float) -> None:
        phase = "rounds" if self.round_start is not None else "setup"
        self.counters[f"{phase}:{key}"] += value

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        namespaces = [graphforest] + [importlib.import_module(f"graphforest.{m}")
                                      for m in TRACED_MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("graphforest.")):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self.wrap(obj, f"{short}.{obj.__name__}")
                setattr(ns, attr, wrappers[id(obj)])
                self._patched.append((ns, attr, obj))
        agg = graphforest.model.MeanAggregator
        self._patched.append((agg, "__init__", agg.__init__))
        agg.__init__ = self.wrap(agg.__init__, "model.MeanAggregator")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_rounds(self) -> None:
        self.round_start = len(self.spans)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "round_start": self.round_start, "rounds": self.rounds,
                       "spans": self.spans}, fh)


class SpanStats:
    """Per-run aggregates: set-up spans count once, round spans per round."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self._spans = spans
        self._split = tracer.round_start if tracer.round_start is not None else len(spans)
        self._rounds = max(tracer.rounds, 1)
        self._counters = tracer.counters
        self._child_time = [0.0] * len(spans)
        self._ancestors: list[frozenset] = []
        self._by_name: dict[str, list[int]] = defaultdict(list)
        for idx, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                self._child_time[parent] += end - start
                self._ancestors.append(self._ancestors[parent] | {spans[parent][0]})
            else:
                self._ancestors.append(frozenset())
            self._by_name[name].append(idx)

    def _weight(self, idx: int) -> float:
        return 1.0 if idx < self._split else 1.0 / self._rounds

    def _outermost(self, name: str):
        for idx in self._by_name.get(name, ()):
            if name not in self._ancestors[idx]:
                start, end = self._spans[idx][1:3]
                yield idx, end - start

    def total_s(self, name: str) -> float:
        return sum(self._weight(i) * d for i, d in self._outermost(name))

    def calls(self, name: str) -> float:
        idx = self._by_name.get(name, ())
        in_setup = sum(1 for i in idx if i < self._split)
        return in_setup + (len(idx) - in_setup) / self._rounds

    def self_s(self, name: str) -> float:
        return sum(self._weight(i) * (d - self._child_time[i]) for i, d in self._outermost(name))

    def within_s(self, outer: str, inner: str) -> float:
        """Time in outermost ``inner`` spans nested inside an ``outer`` span."""
        return sum(self._weight(i) * d for i, d in self._outermost(inner)
                   if outer in self._ancestors[i])

    def counter(self, key: str) -> float:
        return (self._counters.get(f"setup:{key}", 0.0)
                + self._counters.get(f"rounds:{key}", 0.0) / self._rounds)

    def verb_child_time(self, verb: str) -> float:
        """Time in spans of VERB_CHILD_MODULES that run inside ``verb`` with
        no other span of those modules between them and the verb."""
        covered = 0.0
        for idx, (name, start, end, parent) in enumerate(self._spans):
            if name.split(".", 1)[0] not in VERB_CHILD_MODULES or verb not in self._ancestors[idx]:
                continue
            while self._spans[parent][0] != verb:
                if self._spans[parent][0].split(".", 1)[0] in VERB_CHILD_MODULES:
                    break
                parent = self._spans[parent][3]
            else:
                covered += self._weight(idx) * (end - start)
        return covered
