#!/usr/bin/env python3
"""tokentab benchmark: one workload, one seed, in this process.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's inputs are generated from ``--seed`` under
``perfbench/out/``. After set-up, a closed loop with one client calls
``tokentab.cli.main`` until ``--seconds`` have passed (and at least
``MIN_CALLS`` times), checking every call's outputs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with spans around each layer's public functions,
and reports the per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit codes: 0 with a result; 2 when ``src/tokentab`` is missing; 3 when a
layer the workload runs saw no call in the traced loop.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS    # fixed before numpy loads

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3     # set-up runs per process; setup_s is their median
MIN_CALLS = 5      # every loop makes at least this many calls: one cycle
                   # through each workload's distinct inputs

E2E_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "call_s_p50": "s",
             "quality": "1"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("pretrain", "finetune-wide", "evaluate-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import tokentab from this checkout's ``src/``; time the import."""
    src = ROOT / "src"
    if not (src / "tokentab" / "__init__.py").is_file():
        print(f"error: {src / 'tokentab'} not found; run from a tokentab "
              "source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import tokentab.cli as cli
    import_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"error: imported tokentab from {cli.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return cli, import_s


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def keep_freed_memory() -> bool:
    """Serve large blocks from glibc's heap and never trim it.

    By default every array above glibc's mmap threshold is mapped fresh
    and unmapped on free, so each evaluate-large call faulted in about
    1.2 GiB again and identical calls varied from 1.0 to 1.9 s. Kept
    memory makes later calls reuse pages; the first-touch cost stays in
    the set-up's warm-up call and in ``peak_rss_mib``. Returns whether
    glibc accepted both settings.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    return bool(libc.mallopt(m_mmap_threshold, 1 << 30)
                and libc.mallopt(m_trim_threshold, 2**31 - 1))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: call after call until ``seconds`` pass and MIN_CALLS ran."""
    calls = []
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
        k = len(calls)
        shutil.rmtree(workload.out, ignore_errors=True)
        argv = workload.call(k)
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        record = {"call": k}
        try:
            try:
                workload.run(argv)
            finally:
                record["s"] = time.perf_counter() - t0
            record["quality"] = workload.check(k)
        except Exception as exc:  # a failed call is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc()
            print(f"call {k} failed: {record['error']}", file=sys.stderr)
        calls.append(record)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.op = -1
    return {"calls": calls, "wall_s": wall}


def loop_metrics(loop: dict) -> dict:
    calls = loop["calls"]
    # quality over the first MIN_CALLS calls, which every run makes
    first = [c["quality"] for c in calls[:MIN_CALLS] if "error" not in c]
    return {
        "call_s_p50": statistics.median(c["s"] for c in calls),
        "quality": sum(first) / len(first) if first else 0.0,
    }


def untraced_run(workload, seconds: float, setup_s: float):
    """End-to-end metrics of one untraced loop."""
    loop = run_loop(workload, seconds)
    e2e = {"setup_s": setup_s, "peak_rss_mib": peak_rss_mib(),
           **loop_metrics(loop)}
    for name, (value, unit) in workload.named(e2e["call_s_p50"],
                                              e2e["quality"]).items():
        print(f"{name} = {value:.6g} {unit}")
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    return metrics, {"untraced": loop}, {}


def traced_run(workload, seconds: float, work: Path):
    """Per-layer metrics: half the time untraced, half traced."""
    from tracing import MIB, PER_LAYER, Tracer, layer_values

    untraced = run_loop(workload, seconds / 2)
    rss_untraced = peak_rss_mib()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(work / "spans.tsv")

    per_op = tracer.per_op()
    per_call = [layer_values(tracer, per_op, c["call"]) for c in traced["calls"]]
    metrics, mismatches = {}, {}
    period = workload.distinct_calls
    for name, unit, _span, _field in PER_LAYER:
        values = [v[name] for v in per_call]
        if unit == "s":
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            continue
        # deterministic: calls with the same inputs must agree exactly, and
        # the first MIN_CALLS calls' inputs are the same in every run
        if any(values[k] != values[k - period] for k in range(period, len(values))):
            mismatches[name] = values
            print(f"count mismatch between calls with the same inputs: "
                  f"{name} = {values}")
        metrics[name] = {"value": statistics.fmean(values[:MIN_CALLS]),
                         "unit": unit}
    metrics["model.predict_proba_peak_mib"] = {
        "value": tracer.proba_peak / MIB, "unit": "MiB"}
    before, after = loop_metrics(untraced), loop_metrics(traced)
    overhead = {k: after[k] - before[k] for k in before}
    overhead["peak_rss_mib"] = peak_rss_mib() - rss_untraced
    print("trace overhead (traced - untraced): " + json.dumps(overhead))
    metrics["trace.uncovered_s"] = {
        "value": (traced["wall_s"] - tracer.covered_s()) / len(traced["calls"]),
        "unit": "s"}
    metrics["trace.overhead_call_s"] = {"value": overhead["call_s_p50"], "unit": "s"}
    seen = {name for spans in per_op.values() for name in spans}
    extra = {"trace_overhead": overhead, "count_mismatches": mismatches,
             "missing_layers": sorted(workload.layers - seen)}
    return metrics, {"untraced": untraced, "traced": traced}, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, import_s = import_program()
    kept = keep_freed_memory()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    env["malloc_keeps_freed_memory"] = kept
    print("env " + json.dumps(env, sort_keys=True))

    workload = WORKLOADS[args.workload](cli, work, args.seed)
    workload.prepare()
    setup_reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup()
        setup_reps.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_reps)
    print(f"setup: import {import_s:.3f} s + median of {setup_reps} s")

    if args.trace:
        metrics, loops, extra = traced_run(workload, args.seconds, work)
    else:
        metrics, loops, extra = untraced_run(workload, args.seconds, setup_s)
    calls = [c for loop in loops.values() for c in loop["calls"]]
    failed = sum(1 for c in calls if "error" in c)
    print(f"calls = {len(calls)}, failed_share = {failed / len(calls):.6g}")
    out = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
           "metrics": metrics}
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "import_s": import_s, "setup_reps_s": setup_reps,
              "loops": loops, **extra, "result": out}
    (work / "result.json").write_text(json.dumps(result, indent=1),
                                      encoding="utf-8")
    if extra.get("missing_layers"):
        print(f"error: no calls to {', '.join(extra['missing_layers'])} in "
              f"the traced {args.workload} loop", file=sys.stderr)
        return 3
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
