"""asvsim benchmark: Monte Carlo throughput, recorded-scene I/O, and a
traced per-layer run.

Run from the repository root:

    python3 asvbench/run.py --workload mc_dense --seed 3 --seconds 40 --trace 0

The simulator is imported from ``src/`` next to this directory; without it
the script exits with status 2 and prints no result.

``--trace 0`` measures the end-to-end metrics untraced for ``--seconds``
seconds, running units 0, 0, 1, 2, ...: unit 0 runs twice to check that its
digests reproduce.  ``setup_s`` is the fastest of several fresh-process
set-ups, since set-up noise only ever adds time.  ``--trace 1`` ignores
``--seconds``: it runs unit 0 once cold, then units 0 to TRACE_UNITS - 1
untraced, then the same units again with the layer wrappers installed, and
reports the per-layer metrics; the traced digests must equal the untraced
ones.  Spans are written to ``asvbench/_out/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the details (digests, errors, invariants, missing layers).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "_out"
#: set-up is measured this many times, in fresh processes, per untraced run
SETUP_REPEATS = 9
#: distinct units the traced run replays; the replay stores about 10 spans
#: per vessel-step
TRACE_UNITS = 5


def _require_source() -> None:
    if not (SRC / "asvsim" / "__init__.py").is_file():
        print(f"error: simulator source not found at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _setup_probe(workload: str, seed: int) -> None:
    """Time imports plus workload set-up in this (fresh) process."""
    import workloads

    t0 = time.perf_counter()
    wl = workloads.make(workload)
    wl.prepare(seed, str(WORK_DIR))
    elapsed = time.perf_counter() - t0
    wl.close()
    print(repr(elapsed))


def _setup_seconds(workload: str, seed: int) -> float:
    """Fastest set-up time over SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return min(times)


class Tally:
    """Totals over units, plus the digest book that catches a unit whose
    outputs differ from an earlier run of the same unit."""

    def __init__(self) -> None:
        self.digests: dict = {}
        self.mismatches: list = []
        self.units: list = []
        self.runs = self.failed = self.vessel_steps = 0
        self.busy_s = 0.0
        self.errors: list = []
        self.problems: list = []

    def add(self, k: int, r) -> None:
        self.units.append(k)
        self.runs += r.runs
        self.failed += r.failed
        self.vessel_steps += r.vessel_steps
        self.busy_s += r.busy_s
        self.errors += r.errors
        self.problems += r.problems
        for key, value in r.digests.items():
            seen = self.digests.setdefault(key, value)
            if seen != value:
                self.mismatches.append(key)


def _loop(wl, tally: Tally, seconds: float) -> None:
    """Run units 0, 0, 1, 2, ... until ``seconds`` of wall time have passed."""
    t0 = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - t0 < seconds:
        unit = max(k - 1, 0)
        tally.add(unit, wl.run_unit(unit))
        k += 1


def _result(correct: bool, tally: Tally, metrics: dict, detail: dict) -> None:
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.runs, "failed": tally.failed,
                      "metrics": metrics}))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _detail(args, tally: Tally) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": len(tally.units), "runs": tally.runs,
        "failed": tally.failed,
        "failed_run_frac": tally.failed / tally.runs if tally.runs else 0.0,
        "peak_rss_mb": _peak_rss_mb(), "vessel_steps": tally.vessel_steps,
        "busy_s": tally.busy_s, "errors": tally.errors[:20],
        "problems": tally.problems[:20], "digest_mismatches": tally.mismatches[:20],
        "digests": tally.digests,
    }


def untraced(args, wl) -> None:
    setup_s = _setup_seconds(args.workload, args.seed)
    wl.prepare(args.seed, str(WORK_DIR))
    try:
        tally = Tally()
        _loop(wl, tally, args.seconds)
    finally:
        wl.close()
    done = tally.runs - tally.failed
    metrics = {
        "runs_per_s": (done / tally.busy_s, "1/s"),
        "vessel_steps_per_s": (tally.vessel_steps / tally.busy_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "completed_run_frac": (done / tally.runs, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    correct = not (tally.problems or tally.mismatches)
    _result(correct, tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            _detail(args, tally))


def traced(args, wl) -> None:
    import layers
    from tracing import Tracer

    wl.prepare(args.seed, str(WORK_DIR))
    tracer = Tracer()
    units = range(TRACE_UNITS)
    try:
        # the cold first run is checked but left out of both timed passes
        cold = Tally()
        cold.add(0, wl.run_unit(0))
        plain = Tally()
        plain.digests = cold.digests
        for unit in units:
            plain.add(unit, wl.run_unit(unit))
        tally = Tally()
        tally.digests = plain.digests  # the traced units must reproduce these
        with tracer.installed(layers.HOOKS):
            for unit in units:
                tally.add(unit, wl.run_unit(unit))
    finally:
        wl.close()
    metrics, inv = layers.layer_metrics(tracer, plain.busy_s, tally.busy_s)
    tracer.save(str(WORK_DIR / f"trace-{args.workload}.npz"))
    detail = _detail(args, tally)
    detail.update(invariants=inv, missing_layers=tracer.missing, spans=len(tracer),
                  untraced_busy_s=plain.busy_s)
    correct = (not any(t.problems or t.mismatches for t in (cold, plain, tally))
               and layers.invariants_held(inv))
    _result(correct, tally,
            {k: {"value": v, "unit": layers.PER_LAYER_UNITS[k]} for k, v in metrics.items()},
            detail)


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    _require_source()
    WORK_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    wl = workloads.make(args.workload)
    (traced if args.trace else untraced)(args, wl)
    return 0


if __name__ == "__main__":
    sys.exit(main())
