"""The wrapper table and the per-layer metrics derived from its spans.

Targets are named where the caller looks them up, so that the wrapper sees
every call:

* guidance functions in the ``asvsim.engine`` namespace, because the engine
  binds them there with ``from .guidance import``;
* ``apf``/``vo``/``montecarlo``/``serialize`` functions on their modules,
  because callers reach them through the module (or, inside a module,
  through its globals);
* ``World``/``CollisionCone``/``ShipModel`` methods on their classes.

When a refactor removes a target, its layer is reported as missing and its
metrics read 0; the rest of the trace still works.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from tracing import COUNT, FACTORY, RUN, Hook, Tracer, percentile, self_times


def _observe_result(tracer: Tracer, args, result) -> None:
    tracer.runs[tracer.run_id] = {
        "n_steps": result.n_steps,
        "vessels": len(result.agents),
        "guidance_calls": result.guidance_calls,
    }


HOOKS: Tuple[Hook, ...] = (
    Hook("montecarlo.run_batch", "asvsim.montecarlo:run_batch"),
    Hook("montecarlo.run_one", "asvsim.montecarlo:_run_one"),
    Hook("montecarlo.sample", "asvsim.montecarlo:sample_scenario"),
    Hook("serialize.parse", "asvsim.serialize:parse_scenario"),
    Hook("serialize.csv_write", "asvsim.serialize:write_trajectory_csv",
         observe=lambda tr, args, out: os.path.getsize(args[1])),
    # one World per simulated scenario, so its construction opens a run id
    Hook("engine.world_init", "asvsim.engine:World.__init__", kind=RUN),
    Hook("engine.result", "asvsim.engine:World.result", observe=_observe_result),
    Hook("engine.step", "asvsim.engine:World.step"),
    Hook("engine.observe", "asvsim.engine:World._observe_distances"),
    Hook("engine.control", "asvsim.engine:World._guidance_and_control"),
    Hook("engine.sensing", "asvsim.engine:World._views_in_range",
         observe=lambda tr, args, out: len(out)),
    Hook("engine.integrate", "asvsim.engine:World._integrate"),
    Hook("mmg.deriv", "asvsim.mmg:ShipModel.make_derivative", kind=FACTORY),
    Hook("guidance.track_errors", "asvsim.engine:track_errors"),
    Hook("guidance.ilos", "asvsim.engine:ilos_desired_heading"),
    Hook("guidance.pd", "asvsim.engine:pd_rudder_command"),
    Hook("apf.harmonic", "asvsim.apf:desired_heading_harmonic"),
    Hook("apf.inverse", "asvsim.apf:desired_heading_inverse_square"),
    Hook("apf.classify", "asvsim.apf:classify_encounter"),
    Hook("apf.vortex", "asvsim.apf:modified_vortex_strength",
         observe=lambda tr, args, out: out != 0.0),
    Hook("vo.search", "asvsim.vo:vo_desired_heading"),
    Hook("vo.hold", "asvsim.vo:heading_admissible",
         observe=lambda tr, args, out: bool(out)),
    Hook("vo.cone_test", "asvsim.vo:CollisionCone.forbids", kind=COUNT),
)

#: per-layer metric name -> unit, in report order
PER_LAYER_UNITS: Dict[str, str] = {
    "mmg.deriv_calls": "count",
    "mmg.deriv_us": "us",
    "engine.step_us_p50": "us",
    "engine.step_us_p99": "us",
    "engine.integrate_self_us": "us",
    "engine.sensing_calls": "count",
    "engine.sensing_us": "us",
    "engine.views_per_call": "count",
    "engine.observe_us": "us",
    "engine.control_self_us": "us",
    "engine.reactive_frac": "ratio",
    "guidance.us": "us",
    "apf.harmonic_calls": "count",
    "apf.harmonic_us": "us",
    "apf.inverse_calls": "count",
    "apf.inverse_us": "us",
    "apf.classify_calls": "count",
    "apf.vortex_active_ratio": "ratio",
    "vo.search_calls": "count",
    "vo.search_us": "us",
    "vo.cone_tests": "count",
    "vo.hold_ratio": "ratio",
    "montecarlo.sample_us": "us",
    "montecarlo.batch_self_s": "s",
    "serialize.parse_us": "us",
    "serialize.csv_write_ms": "ms",
    "serialize.csv_bytes": "count",
    "serialize.csv_mb_per_s": "MB/s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> Tuple[dict, dict]:
    """Per-layer metrics of a traced pass, plus the exact-count invariants.

    ``untraced_s`` and ``traced_s`` are the wall times of the same work
    without and with tracing.  Per-vessel-step figures divide by the
    vessel-steps of the runs that reached ``World.result``.
    """
    a = tracer.arrays()
    dur = (a["end"] - a["start"]).astype(np.float64)
    own = self_times(a["start"], a["end"], a["parent"])
    n_layers = len(tracer.layers)
    layer = a["layer"].astype(np.int64)
    calls_by = np.bincount(layer, minlength=n_layers)
    dur_by = np.bincount(layer, weights=dur, minlength=n_layers)
    self_by = np.bincount(layer, weights=own, minlength=n_layers)

    def lid(name):
        return tracer.layers.index(name) if name in tracer.layers else None

    def calls(name):
        i = lid(name)
        return int(calls_by[i]) if i is not None else 0

    def total_ns(name, by=dur_by):
        i = lid(name)
        return float(by[i]) if i is not None else 0.0

    def mean_ns(name):
        return _ratio(total_ns(name), calls(name))

    steps_i = lid("engine.step")
    step_ns = dur[layer == steps_i].tolist() if steps_i is not None else []
    vessel_steps = sum(r["n_steps"] * r["vessels"] for r in tracer.runs.values())
    guidance_calls = sum(r["guidance_calls"] for r in tracer.runs.values())
    search_calls = calls("vo.search")
    csv_bytes = tracer.tallies.get("serialize.csv_write", 0)
    csv_ns = total_ns("serialize.csv_write")

    m = {
        "mmg.deriv_calls": calls("mmg.deriv"),
        "mmg.deriv_us": mean_ns("mmg.deriv") / 1e3,
        "engine.step_us_p50": percentile(step_ns, 50) / 1e3 if step_ns else 0.0,
        "engine.step_us_p99": percentile(step_ns, 99) / 1e3 if step_ns else 0.0,
        "engine.integrate_self_us":
            _ratio(total_ns("engine.integrate", self_by), vessel_steps) / 1e3,
        "engine.sensing_calls": calls("engine.sensing"),
        "engine.sensing_us": mean_ns("engine.sensing") / 1e3,
        "engine.views_per_call":
            _ratio(tracer.tallies.get("engine.sensing", 0), calls("engine.sensing")),
        "engine.observe_us": mean_ns("engine.observe") / 1e3,
        "engine.control_self_us":
            _ratio(total_ns("engine.control", self_by), vessel_steps) / 1e3,
        "engine.reactive_frac": _ratio(guidance_calls, vessel_steps),
        "guidance.us": _ratio(total_ns("guidance.track_errors") + total_ns("guidance.ilos")
                              + total_ns("guidance.pd"), vessel_steps) / 1e3,
        "apf.harmonic_calls": calls("apf.harmonic"),
        "apf.harmonic_us": mean_ns("apf.harmonic") / 1e3,
        "apf.inverse_calls": calls("apf.inverse"),
        "apf.inverse_us": mean_ns("apf.inverse") / 1e3,
        "apf.classify_calls": calls("apf.classify"),
        "apf.vortex_active_ratio":
            _ratio(tracer.tallies.get("apf.vortex", 0), calls("apf.vortex")),
        "vo.search_calls": search_calls,
        "vo.search_us": mean_ns("vo.search") / 1e3,
        "vo.cone_tests": _ratio(tracer.counts.get(("vo.cone_test", "vo.search"), 0),
                                search_calls),
        "vo.hold_ratio": _ratio(tracer.tallies.get("vo.hold", 0), calls("vo.hold")),
        "montecarlo.sample_us": mean_ns("montecarlo.sample") / 1e3,
        "montecarlo.batch_self_s":
            _ratio(total_ns("montecarlo.run_batch", self_by), calls("montecarlo.run_batch")) / 1e9,
        "serialize.parse_us": mean_ns("serialize.parse") / 1e3,
        "serialize.csv_write_ms": mean_ns("serialize.csv_write") / 1e6,
        "serialize.csv_bytes": _ratio(csv_bytes, calls("serialize.csv_write")),
        "serialize.csv_mb_per_s": _ratio(csv_bytes / 1e6, csv_ns / 1e9),
        "trace.overhead_frac": 1.0 - _ratio(untraced_s, traced_s) if traced_s else 0.0,
    }
    if list(m) != list(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metrics and their unit table disagree")
    return m, invariants(tracer, a)


def invariants(tracer: Tracer, a: Dict[str, np.ndarray]) -> dict:
    """Exact per-run counts: 4 ``deriv`` calls (RK4 stages) and one sensing
    call per vessel-step.  Runs that raised before ``World.result`` are left
    out; a missing layer leaves its invariant unchecked."""
    out: Dict[str, object] = {"runs_checked": len(tracer.runs)}
    run_ids = sorted(tracer.runs)
    expected = np.array([tracer.runs[r]["n_steps"] * tracer.runs[r]["vessels"]
                         for r in run_ids], dtype=np.int64)
    for name, layer, per_step in (("deriv_calls", "mmg.deriv", 4),
                                  ("sensing_calls", "engine.sensing", 1)):
        if layer not in tracer.layers or "engine.result" in tracer.missing:
            out[name] = "unchecked: layer missing"
            continue
        sel = a["layer"] == tracer.layers.index(layer)
        per_run = np.bincount(a["run"][sel].astype(np.int64) + 1,
                              minlength=(max(run_ids) + 2) if run_ids else 1)
        got = per_run[np.array(run_ids, dtype=np.int64) + 1] if run_ids else per_run[:0]
        bad: List[int] = [r for r, g, e in zip(run_ids, got, expected) if g != per_step * e]
        out[name] = {"total": int(got.sum()), "expected": int(per_step * expected.sum()),
                     "held": not bad, "runs_violating": bad[:10]}
    return out


def invariants_held(inv: dict) -> bool:
    """True unless a checked invariant failed (unchecked ones do not count)."""
    return all(not isinstance(v, dict) or v["held"] for v in inv.values())
