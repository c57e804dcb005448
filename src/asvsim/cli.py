"""Command-line surface: simulate, batch, compare, plot, validate.

Exit codes for `simulate`: 0 success, 2 collision, 3 timeout, 1 error.
All other subcommands exit 0 on completion and 1 on bad input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import montecarlo, plots, serialize
from .engine import SimConfig, run
from .serialize import ScenarioError, dumps_canonical, resolve_method


def cmd_simulate(args) -> int:
    try:
        scenario = serialize.load_scenario(args.scenario)
        if args.method:
            scenario = scenario.with_method(resolve_method(args.method))
        if args.dt is not None:
            scenario = replace(scenario, config=replace(scenario.config, dt=args.dt))
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run(scenario, record=True)
    except Exception as exc:  # noqa: BLE001 - surface any run failure as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_trajectory_csv(result, str(out / "trajectory.csv"))
    (out / "result.json").write_text(
        dumps_canonical(serialize.result_to_dict(result, scenario)), encoding="utf-8")
    print(f"end_reason={result.end_reason} t_end={result.t_end:.1f}")
    for a in result.agents:
        ttg = f"{a.time_to_goal:.1f}" if a.time_to_goal is not None else "-"
        print(f"agent {a.agent_id}: {a.outcome} CE={a.ce:.4f} MCTE={a.mcte:.4f} "
              f"time_to_goal={ttg} min_ship_dist={a.min_ship_distance:.2f}")
    if "collision" in result.outcomes:
        return 2
    if "timeout" in result.outcomes:
        return 3
    return 0


def cmd_batch(args) -> int:
    try:
        env = montecarlo.EnvSpec.by_id(args.env)
        method = resolve_method(args.method)
        spec = montecarlo.BatchSpec(env=env, method=method, n_runs=args.runs,
                                    master_seed=args.seed, jobs=args.jobs)
    except ValueError as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = montecarlo.run_batch(spec)
    agg = montecarlo.aggregate(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = serialize.batch_summary_dict(args.env, method, args.runs, args.seed,
                                           records, agg)
    (out / "summary.json").write_text(dumps_canonical(summary), encoding="utf-8")
    (out / "timing.json").write_text(
        dumps_canonical(serialize.batch_timing_dict(records, agg)), encoding="utf-8")
    print(f"env {args.env} method {args.method}: n={args.runs} "
          f"success_rate={agg.success_rate:.4f} +/- {agg.success_ci95:.4f} "
          f"mean_ce={agg.mean_ce:.4f} mean_mcte={agg.mean_mcte:.4f}")
    return 0


def cmd_compare(args) -> int:
    try:
        env = montecarlo.EnvSpec.by_id(args.env)
        methods = [resolve_method(m.strip()) for m in args.methods.split(",")]
        if len(set(methods)) < len(methods):
            raise ValueError(f"--methods lists a method twice: {args.methods}")
        # validate every batch before the first one runs
        specs = [montecarlo.BatchSpec(env=env, method=m, n_runs=args.runs,
                                      master_seed=args.seed, jobs=args.jobs)
                 for m in methods]
    except ValueError as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = montecarlo.compare_methods(specs)
    aggregates = {m: montecarlo.aggregate(r) for m, r in records.items()}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = serialize.comparison_dict(args.env, args.runs, args.seed, records, aggregates)
    (out / "comparison.json").write_text(dumps_canonical(doc), encoding="utf-8")
    timing = {serialize.METHOD_SHORT[m]: agg.mean_guidance_call_us
              for m, agg in aggregates.items()}
    (out / "timing.json").write_text(dumps_canonical(timing), encoding="utf-8")
    for m, agg in aggregates.items():
        print(f"{serialize.METHOD_SHORT[m]:10s} success={agg.success_rate:.4f} "
              f"ce={agg.mean_ce:.4f} mcte={agg.mean_mcte:.4f} "
              f"guidance_us={agg.mean_guidance_call_us:.1f}")
    return 0


def cmd_plot(args) -> int:
    try:
        if args.field:
            plots.plot_field(args.field, args.out)
            return 0
        if not args.traj or not args.kind:
            raise ValueError("need --traj and --kind (or --field)")
        rows = serialize.read_trajectory_csv(args.traj)
        scenario = None
        if args.scenario:
            scenario = serialize.load_scenario(args.scenario)
        if args.kind == "path":
            plots.plot_paths(rows, scenario, args.out)
        elif args.kind in ("rudder", "heading", "crosstrack"):
            plots.plot_series(rows, args.kind, args.out)
        elif args.kind == "distance":
            config = scenario.config if scenario else SimConfig()
            plots.plot_distances(rows, args.out, r_safe=config.R_safe)
        else:
            raise ValueError(f"unknown plot kind {args.kind!r}")
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    try:
        serialize.load_scenario(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asvsim",
        description="Multi-agent surface-vessel simulation and evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", help="override the avoidance method for every agent")
    p.add_argument("--dt", type=float, help="integrator step (non-dimensional)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("batch", help="run a seeded Monte Carlo batch")
    p.add_argument("--env", type=int, required=True, choices=sorted(montecarlo.ENVIRONMENTS))
    p.add_argument("--method", required=True,
                   help="mvortex | sinkvortex | inverse | vo")
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("compare", help="paired method comparison on one environment")
    p.add_argument("--env", type=int, required=True, choices=sorted(montecarlo.ENVIRONMENTS))
    p.add_argument("--methods", default="mvortex,inverse,vo",
                   help="comma-separated method list")
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="render SVG diagnostics")
    p.add_argument("--traj", help="trajectory CSV from `simulate`")
    p.add_argument("--kind", help="path | rudder | heading | distance | crosstrack")
    p.add_argument("--scenario", help="scenario JSON (adds obstacles/waypoints)")
    p.add_argument("--field", help="inverse | sinkvortex | mvortex vector field")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("validate", help="schema-check a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
