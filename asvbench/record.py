"""Repeat the benchmark over several seeds and record the results.

Run from the repository root:

    python3 asvbench/record.py --runs 10 --out asvbench/results/BENCH_1.json

For every workload in ``BENCHMARK.json`` this runs ``run.py --trace 0``
at its ``run_seconds`` once per seed (seeds 1 to ``--runs``, workloads
interleaved), then ``--trace 1`` once per workload on seed 1.  For each end-to-end
metric it prints and saves the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound.  The saved record also holds the machine, the seeds, every
run's digests and the traced runs' per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if args[0] == "python3":
        args[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["detail"] = json.loads(lines[-2])["detail"]
    out["wall_s"] = wall
    return out


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    ap.add_argument("--out", default=None, help="write the record to this JSON file")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.runs + 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            r = run_once(bench["command"], w, seed, seconds, 0)
            runs[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                  + f" wall={r['wall_s']:.1f}s", flush=True)

    record = {"machine": machine(), "benchmark": bench, "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    worst = 0.0
    print(f"\n{'workload':<11} {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in names:
        stats = {}
        for metric in bounds:
            s = spread([r["metrics"][metric]["value"] for r in runs[w]])
            stats[metric] = s
            worst = max(worst, s["spread"] / bounds[metric])
            print(f"{w:<11} {metric:<20} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {bounds[metric]:>6}")
        record["workloads"][w] = {
            "stats": stats,
            "runs": [{"seed": r["detail"]["seed"], "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                      "wall_s": r["wall_s"], "digests": r["detail"]["digests"],
                      "errors": r["detail"]["errors"]} for r in runs[w]],
        }
    print(f"\nworst spread / bound: {worst:.3f}")
    all_correct = all(r["correct"] for rs in runs.values() for r in rs)
    print(f"all runs correct: {all_correct}")

    for w in names:
        r = run_once(bench["command"], w, seeds[0], seconds, 1)
        d = r["detail"]
        record["workloads"][w]["trace"] = {
            "seed": seeds[0], "correct": r["correct"], "wall_s": r["wall_s"],
            "metrics": {k: v["value"] for k, v in r["metrics"].items()},
            "invariants": d["invariants"], "missing_layers": d["missing_layers"],
            "spans": d["spans"], "peak_rss_mb": d["peak_rss_mb"], "digests": d["digests"],
            "digests_match_untraced": not d["digest_mismatches"],
        }
        all_correct = all_correct and r["correct"]
        print(f"{w} trace: correct={r['correct']} spans={d['spans']} "
              f"peak_rss_mb={d['peak_rss_mb']:.0f} "
              f"overhead={r['metrics']['trace.overhead_frac']['value']:.3f} "
              f"wall={r['wall_s']:.1f}s", flush=True)

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
