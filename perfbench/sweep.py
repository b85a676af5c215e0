#!/usr/bin/env python3
"""Run workloads over several seeds, each run in a fresh process, and
report how much every metric spreads.

    python3 perfbench/sweep.py                      # every workload, seed 0
    python3 perfbench/sweep.py --seeds 0-9          # the ten-seed spread check
    python3 perfbench/sweep.py --trace 1 --repeat 2 # per-layer metrics; counts
                                                    # must repeat exactly

Runs go one after another, so each workload's peak memory is its own.
For each metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median next to the metric's bound from ``BENCHMARK.json``.
The summary is written to ``perfbench/out/sweep.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0", help="e.g. 0-9 or 1,4,7")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per seed; counts are compared between them")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            for rep in range(args.repeat):
                r = run_once(workload, seed, args.seconds, args.trace)
                r["seed"] = seed
                runs.append(r)
                print(f"{workload} seed {seed} run {rep}: {r['elapsed_s']:.1f} s, "
                      f"{r['attempted']} calls, {r['failed']} failed", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"values": values}
            if len(values) >= 2:
                metrics[name].update(spread(values))
        mismatches = {}
        if args.trace and args.repeat > 1:
            for name in metrics:
                if units.get(name) != "count":
                    continue
                for seed in seed_list(args.seeds):
                    seen = {r["metrics"][name]["value"] for r in runs if r["seed"] == seed}
                    if len(seen) > 1:
                        mismatches.setdefault(name, {})[seed] = sorted(seen)
        summary[workload] = {"runs": runs, "metrics": metrics,
                             "count_mismatches": mismatches,
                             "failed": sum(r["failed"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs)}
        print(f"\n{workload}: {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']} calls failed")
        for name, m in metrics.items():
            if "spread" not in m:
                print(f"  {name:32s} {m['values'][0]:.6g} {units.get(name, '')}")
                continue
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  {'ok' if m['spread'] <= bound / 3 else 'WIDE'}"
            print(f"  {name:32s} median {m['median']:.6g}  q1 {m['q1']:.6g}  "
                  f"q3 {m['q3']:.6g}  spread {m['spread']:.3f}{note}")
        for name, per_seed in mismatches.items():
            print(f"  count mismatch {name}: {per_seed}")
        print(flush=True)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
