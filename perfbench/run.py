"""Benchmark of graphforest: train, infer and attack workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 20260808 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One run sets a workload up, repeats whole rounds of its operations until
``--seconds`` have passed (at least one round), checks the outputs against
the reference code in ``reference.py`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
wraps the program's public functions in timing spans (see tracing.py) and
reports the per-layer metrics instead. See README.md for what each
workload and metric means.
"""

import time

_PROCESS_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# graphforest would otherwise let this variable override the workload's
# parallelism; BLAS thread variables are deliberately left alone so the
# pool's oversubscription stays visible in ensemble.pool_speedup.
THREADS_ENV = "GRAPH_FOREST_THREADS"


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": openblas_threads()}


def openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if absent."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_int
        return fn()
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (a process-pool worker, if the timed part started a pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def layer_metrics(workload, tracer, extras: dict) -> dict:
    from tracing import SpanStats
    st = SpanStats(tracer)
    walls = getattr(workload, "verb_walls", [])
    mean_verb = statistics.fmean(walls) if walls else 0.0
    values = {
        "datasets.generate_sbm_s": st.total_s("datasets.generate_sbm"),
        "datasets.load_graph_dir_s": st.total_s("datasets.load_graph_dir"),
        "ensemble.load_ensemble_s": st.total_s("ensemble.load_ensemble"),
        "sampling.sample_subspace_s": st.total_s("sampling.sample_subspace"),
        "graph.induced_subgraph_s": st.total_s("graph.induced_subgraph"),
        "graph.induced_subgraph_calls": st.calls("graph.induced_subgraph"),
        "model.train_base_model_s": st.total_s("model.train_base_model"),
        "model.loss_and_grad_s": st.total_s("model.loss_and_grad"),
        "model.loss_and_grad_calls": st.calls("model.loss_and_grad"),
        "model.train_self_s": st.self_s("model.train_base_model"),
        "model.train_gflop": st.counter("model.train_flop") / 1e9,
        "model.predict_posterior_s": st.total_s("model.predict_posterior"),
        "model.predict_posterior_calls": st.calls("model.predict_posterior"),
        "model.aggregator_build_s": st.total_s("model.MeanAggregator"),
        "model.aggregator_builds": st.calls("model.MeanAggregator"),
        "ensemble.train_ensemble_s": st.total_s("ensemble.train_ensemble"),
        "ensemble.pool_speedup": 0.0,
        "ensemble.pool_serial_s": 0.0,
        "ensemble.pool_parallel_s": 0.0,
        "ensemble.posteriors_s": st.total_s("ensemble.ensemble_posteriors"),
        "ensemble.decide_hard_s": st.total_s("ensemble.decide_hard"),
        "ensemble.decide_soft_s": st.total_s("ensemble.decide_soft"),
        "ensemble.serialize_s": st.total_s("ensemble.serialize_ensemble"),
        "ensemble.serialize_calls": st.calls("ensemble.serialize_ensemble"),
        "ensemble.gfe_bytes": float(tracer.gfe_bytes),
        "attacks.random_flip_s": st.total_s("attacks.random_flip_attack"),
        "attacks.greedy_s": st.total_s("attacks.greedy_confidence_attack"),
        "attacks.oracle_queries": st.calls("attacks.oracle"),
        "attacks.oracle_s": st.total_s("attacks.oracle"),
        "attacks.greedy_self_s": (st.total_s("attacks.greedy_confidence_attack")
                                  - st.within_s("attacks.greedy_confidence_attack",
                                                "attacks.oracle")),
        "cli.verb_overhead_s": (st.total_s("cli.main")
                                - st.within_s("cli.main", "ensemble.train_ensemble")),
        "cli.verb_span_coverage": (st.verb_child_time("cli.main") / mean_verb
                                   if mean_verb else 0.0),
    }
    values.update(extras)
    return values


def run(args) -> int:
    os.environ.pop(THREADS_ENV, None)
    if not (ROOT / "src" / "graphforest" / "__init__.py").is_file():
        print(f"error: no graphforest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_benchmark()
    import workloads
    from tracing import Tracer

    env = environment()
    tracer = Tracer() if args.trace else None
    cfg = workloads.SIZES["smoke" if args.tiny else "full"][args.workload]
    outdir = HERE / "out"
    workdir = outdir / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer:
            tracer.install()
        w = workloads.WORKLOADS[args.workload](cfg, args.seed, str(workdir), tracer)
        w.setup()
        setup_s = time.perf_counter() - _PROCESS_T0

        if tracer:
            tracer.begin_rounds()
        rates, walls, attempted, failed = [], [], 0, 0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            attempted += w.ops_per_round
            t0 = time.perf_counter()
            try:
                w.run_round()
            except Exception:
                traceback.print_exc()
                failed += w.ops_per_round
                walls.append(time.perf_counter() - t0)
                continue
            wall = time.perf_counter() - t0
            walls.append(wall)
            rates.append(w.ops_per_round / wall)
            w.after_round()
        peak = peak_rss_mb()
        extras = {}
        if tracer:
            tracer.rounds = len(walls)
            tracer.uninstall()
            extras = w.traced_extras()

        try:
            faults = w.check() if rates else ["no round completed"]
        except Exception as exc:
            traceback.print_exc()
            faults = [f"check raised {exc!r}"]
        for fault in faults:
            print(f"check failed: {fault}", file=sys.stderr)

        if tracer:
            values = layer_metrics(w, tracer, extras)
            names = spec["per_layer"]
            tracer.dump(outdir / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            values = {"setup_s": setup_s, "peak_rss_mb": peak,
                      "ops_per_s": statistics.median(rates) if rates else 0.0}
            names = spec["end_to_end"]
        print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                          "env": env, "rounds": len(walls), "round_s": walls,
                          "notes": w.notes}))
        print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed,
                          "metrics": {m["name"]: {"value": values[m["name"]],
                                                  "unit": m["unit"]} for m in names}}))
        return 0
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    """Every workload at its smoke size, traced and untraced, in fresh
    processes; fails unless every BENCHMARK.json metric is printed with its
    unit and every check passes. Runs the checks' self-test first."""
    spec = load_benchmark()
    code = subprocess.run([sys.executable, str(HERE / "selftest.py")]).returncode
    if code:
        print(f"smoke: selftest exited with {code}", file=sys.stderr)
        return 1
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            label = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in metrics.items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got)} != {sorted(want)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            if not all(isinstance(v["value"], (int, float)) for v in metrics.values()):
                problems.append(f"{label}: a metric value is not a number")
            print(f"smoke: {label}: {json.dumps(metrics)}", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("train", "infer", "attack"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the acceptance fixture's)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="run at the smoke size")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at the smoke size and check the output")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is None:
        args.seed = 20260808
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
