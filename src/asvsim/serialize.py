"""Scenario/result file formats.

* scenario JSON ("scenario-1"): agents, static obstacles, optional channel,
  parameter overrides; unknown fields are rejected with their path.
* trajectory CSV: one row per agent per step, fixed column order.
* result JSON ("result-1") and batch summary JSON ("batch-summary-1"):
  wall-clock timing is kept out of the summary so identical seeds produce
  byte-identical files at any parallelism degree.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .apf import ChannelBoundary, HarmonicParams, InverseSquareParams, StaticObstacle
from .engine import METHODS, AgentSpec, Scenario, SimConfig, SimResult
from .guidance import ILOSParams, PDGains
from .vo import VOParams

if TYPE_CHECKING:  # annotations only: montecarlo pulls in numpy
    from .montecarlo import AggregateStats

SCENARIO_SCHEMA_VERSION = "scenario-1"
RESULT_SCHEMA_VERSION = "result-1"
BATCH_SCHEMA_VERSION = "batch-summary-1"

CSV_COLUMNS = ("t_prime", "agent_id", "x_L", "y_L", "psi_rad", "u_nd", "v_nd",
               "r_nd", "delta_rad", "delta_c_rad", "psi_d_rad", "mode", "y_e_L")

METHOD_ALIASES = {
    "mvortex": "apf_mvortex",
    "sinkvortex": "apf_sinkvortex",
    "inverse": "apf_inverse",
    "vo": "velocity_obstacle",
}
METHOD_SHORT = {v: k for k, v in METHOD_ALIASES.items()}


class ScenarioError(ValueError):
    """Scenario file failed validation; message carries the field path."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _check_keys(doc: dict, allowed: set, path: str):
    unknown = set(doc) - allowed
    if unknown:
        _fail(path, f"unknown field(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _number(doc: dict, key: str, path: str, default=None, positive=False):
    if key not in doc:
        if default is None:
            _fail(path, f"missing required field '{key}'")
        return default
    v = doc[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        _fail(f"{path}.{key}", "must be a finite number")
    if positive and v <= 0:
        _fail(f"{path}.{key}", "must be > 0")
    return float(v)


def _point(v, path: str) -> Tuple[float, float]:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                       and math.isfinite(c) for c in v)):
        _fail(path, "must be a [x, y] pair of finite numbers")
    return (float(v[0]), float(v[1]))


def resolve_method(name: str, path: str = "method") -> str:
    method = METHOD_ALIASES.get(name, name)
    if method not in METHODS:
        _fail(path, f"unknown method {name!r}; expected one of "
                    f"{sorted(METHOD_ALIASES)} or {list(METHODS)}")
    return method


def _parse_agent(doc: dict, path: str) -> AgentSpec:
    if not isinstance(doc, dict):
        _fail(path, "must be an object")
    _check_keys(doc, {"id", "start", "heading_rad", "speed", "waypoints", "method"}, path)
    if "id" not in doc or not isinstance(doc["id"], int) or isinstance(doc["id"], bool):
        _fail(f"{path}.id", "must be an integer")
    start = _point(doc.get("start"), f"{path}.start")
    heading = _number(doc, "heading_rad", path, default=0.0)
    speed = _number(doc, "speed", path, default=1.0)
    wps = doc.get("waypoints")
    if not isinstance(wps, list) or not wps:
        _fail(f"{path}.waypoints", "must be a non-empty list of [x, y] pairs")
    waypoints = tuple(_point(w, f"{path}.waypoints[{i}]") for i, w in enumerate(wps))
    method = resolve_method(doc.get("method", "mvortex"), f"{path}.method")
    try:
        return AgentSpec(id=doc["id"], start=start, heading=heading, speed=speed,
                         waypoints=waypoints, method=method)
    except ValueError as exc:
        _fail(path, str(exc))


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document and build the Scenario with defaults."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be a JSON object")
    allowed = {"schema_version", "name", "ship_file", "agents", "static_obstacles",
               "channel", "guidance", "control", "apf", "vo", "sim"}
    _check_keys(doc, allowed, "scenario")
    version = doc.get("schema_version", SCENARIO_SCHEMA_VERSION)
    if version != SCENARIO_SCHEMA_VERSION:
        _fail("scenario.schema_version", f"unsupported version {version!r}")

    agents_doc = doc.get("agents")
    if not isinstance(agents_doc, list) or not agents_doc:
        _fail("scenario.agents", "must be a non-empty list")
    agents = [_parse_agent(a, f"agents[{i}]") for i, a in enumerate(agents_doc)]

    statics = []
    for i, o in enumerate(doc.get("static_obstacles", [])):
        path = f"static_obstacles[{i}]"
        if not isinstance(o, dict):
            _fail(path, "must be an object")
        _check_keys(o, {"center", "radius"}, path)
        center = _point(o.get("center"), f"{path}.center")
        radius = _number(o, "radius", path, default=0.5, positive=True)
        statics.append(StaticObstacle(center=center, R_obs=radius))

    sim_doc = doc.get("sim", {})
    _check_keys(sim_doc, {"dt", "max_time", "collision_threshold", "r_safe",
                          "seed", "termination"}, "sim")
    termination = sim_doc.get("termination", "all")
    if termination not in ("all", "own"):
        _fail("sim.termination", "must be 'all' or 'own'")
    seed = sim_doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        _fail("sim.seed", "must be an integer")
    r_safe = _number(sim_doc, "r_safe", "sim", default=15.0, positive=True)
    try:
        config = SimConfig(
            dt=_number(sim_doc, "dt", "sim", default=0.1, positive=True),
            max_time=_number(sim_doc, "max_time", "sim", default=400.0, positive=True),
            collision_threshold=_number(sim_doc, "collision_threshold", "sim",
                                        default=2.0, positive=True),
            R_safe=r_safe,
            seed=seed,
            termination=termination,
        )
    except ValueError as exc:
        _fail("sim", str(exc))

    g_doc = doc.get("guidance", {})
    _check_keys(g_doc, {"delta", "k_factor", "r_tol"}, "guidance")
    try:
        ilos = ILOSParams(
            Delta=_number(g_doc, "delta", "guidance", default=2.0, positive=True),
            k_factor=_number(g_doc, "k_factor", "guidance", default=0.05),
            R_tol=_number(g_doc, "r_tol", "guidance", default=3.0, positive=True),
        )
    except ValueError as exc:
        _fail("guidance", str(exc))

    c_doc = doc.get("control", {})
    _check_keys(c_doc, {"kp", "kd"}, "control")
    try:
        gains = PDGains(Kp_c=_number(c_doc, "kp", "control", default=3.5),
                        Kd_c=_number(c_doc, "kd", "control", default=4.0))
    except ValueError as exc:
        _fail("control", str(exc))

    a_doc = doc.get("apf", {})
    _check_keys(a_doc, {"k_att", "k_rep", "d0", "lambda_sink", "k_vor0",
                        "r_tol_vortex", "in_extremis_range"}, "apf")
    try:
        inverse = InverseSquareParams(
            k_att=_number(a_doc, "k_att", "apf", default=50.0),
            k_rep=_number(a_doc, "k_rep", "apf", default=200000.0),
            d0=_number(a_doc, "d0", "apf", default=r_safe, positive=True),
        )
        harmonic = HarmonicParams(
            Lambda_sink=_number(a_doc, "lambda_sink", "apf", default=-100.0),
            K_vor0=_number(a_doc, "k_vor0", "apf", default=-10.0),
            R_safe=r_safe,
            R_tol_vortex=_number(a_doc, "r_tol_vortex", "apf", default=3.0),
            in_extremis_range=_number(a_doc, "in_extremis_range", "apf", default=10.0),
        )
    except ValueError as exc:
        _fail("apf", str(exc))

    v_doc = doc.get("vo", {})
    _check_keys(v_doc, {"cone_radius", "heading_resolution_deg",
                        "max_course_change_deg"}, "vo")
    try:
        vo_params = VOParams(
            cone_radius=_number(v_doc, "cone_radius", "vo", default=6.0, positive=True),
            heading_resolution=math.radians(
                _number(v_doc, "heading_resolution_deg", "vo", default=1.0, positive=True)),
            max_course_change=math.radians(
                _number(v_doc, "max_course_change_deg", "vo", default=90.0, positive=True)),
            R_safe=r_safe,
        )
    except ValueError as exc:
        _fail("vo", str(exc))

    channel = None
    ch_doc = doc.get("channel")
    if ch_doc is not None:
        _check_keys(ch_doc, {"boundary_a", "boundary_b", "activation_distance",
                             "source_strength"}, "channel")
        def _segment(v, path):
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                _fail(path, "must be a [[x, y], [x, y]] segment")
            return (_point(v[0], f"{path}[0]"), _point(v[1], f"{path}[1]"))
        try:
            channel = ChannelBoundary(
                boundary_a=_segment(ch_doc.get("boundary_a"), "channel.boundary_a"),
                boundary_b=_segment(ch_doc.get("boundary_b"), "channel.boundary_b"),
                activation_distance=_number(ch_doc, "activation_distance", "channel",
                                            default=2.0, positive=True),
                Lambda_src=_number(ch_doc, "source_strength", "channel",
                                   default=10.0, positive=True),
            )
        except ValueError as exc:
            _fail("channel", str(exc))

    name = doc.get("name", "")
    if not isinstance(name, str):
        _fail("scenario.name", "must be a string")
    ship_file = doc.get("ship_file")
    if ship_file is not None and not isinstance(ship_file, str):
        _fail("scenario.ship_file", "must be a string path")

    try:
        return Scenario(agents=agents, static_obstacles=statics, channel=channel,
                        ilos=ilos, gains=gains, inverse_params=inverse,
                        harmonic_params=harmonic, vo_params=vo_params,
                        config=config, name=name)
    except ValueError as exc:
        raise ScenarioError(str(exc))


def load_scenario(path: str) -> Tuple[Scenario, Optional[str]]:
    """Read and validate a scenario file; returns (scenario, ship_file)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
    return parse_scenario(doc), doc.get("ship_file")


def scenario_to_dict(sc: Scenario, ship_file: Optional[str] = None) -> dict:
    doc = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "name": sc.name,
        "agents": [
            {"id": a.id, "start": list(a.start), "heading_rad": a.heading,
             "speed": a.speed, "waypoints": [list(w) for w in a.waypoints],
             "method": METHOD_SHORT[a.method]}
            for a in sc.agents
        ],
        "static_obstacles": [
            {"center": list(o.center), "radius": o.R_obs} for o in sc.static_obstacles
        ],
        "guidance": {"delta": sc.ilos.Delta, "k_factor": sc.ilos.k_factor,
                     "r_tol": sc.ilos.R_tol},
        "control": {"kp": sc.gains.Kp_c, "kd": sc.gains.Kd_c},
        "apf": {"k_att": sc.inverse_params.k_att, "k_rep": sc.inverse_params.k_rep,
                "d0": sc.inverse_params.d0,
                "lambda_sink": sc.harmonic_params.Lambda_sink,
                "k_vor0": sc.harmonic_params.K_vor0,
                "r_tol_vortex": sc.harmonic_params.R_tol_vortex,
                "in_extremis_range": sc.harmonic_params.in_extremis_range},
        "vo": {"cone_radius": sc.vo_params.cone_radius,
               "heading_resolution_deg": math.degrees(sc.vo_params.heading_resolution),
               "max_course_change_deg": math.degrees(sc.vo_params.max_course_change)},
        "sim": {"dt": sc.config.dt, "max_time": sc.config.max_time,
                "collision_threshold": sc.config.collision_threshold,
                "r_safe": sc.config.R_safe, "seed": sc.config.seed,
                "termination": sc.config.termination},
    }
    if sc.channel is not None:
        doc["channel"] = {
            "boundary_a": [list(p) for p in sc.channel.boundary_a],
            "boundary_b": [list(p) for p in sc.channel.boundary_b],
            "activation_distance": sc.channel.activation_distance,
            "source_strength": sc.channel.Lambda_src,
        }
    if ship_file is not None:
        doc["ship_file"] = ship_file
    return doc


def dumps_canonical(doc: dict) -> str:
    """Stable serialization used for all deterministic artifacts."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# trajectory CSV


#: one CSV row: floats as repr (round-trip exact), ids and mode as integers;
#: no field can contain a comma or quote, so nothing needs quoting
_CSV_ROW = "%r,%d,%r,%r,%r,%r,%r,%r,%r,%r,%r,%d,%r\r\n"


def write_trajectory_csv(result: SimResult, path: str) -> None:
    """Write the trajectory CSV: a header, then one row per agent per step
    (steps in time order, agents in id order), in the ``excel`` dialect
    that ``read_trajectory_csv`` reads."""
    if result.trajectories is None:
        raise ValueError("run was executed without trajectory recording")
    agent_ids = [a.agent_id for a in result.agents]
    trajectories = result.trajectories
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for k in range(len(trajectories[0])):
            # one write per time step: as fast as one write per file, while
            # memory does not grow with the run length
            fh.write("".join([_CSV_ROW % ((rows[k][0], aid) + rows[k][1:])
                              for aid, rows in zip(agent_ids, trajectories)]))


def read_trajectory_csv(path: str) -> Dict[int, List[tuple]]:
    """Rows per agent id, in time order."""
    out: Dict[int, List[tuple]] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for rec in reader:
            aid = int(rec[1])
            row = (float(rec[0]), float(rec[2]), float(rec[3]), float(rec[4]),
                   float(rec[5]), float(rec[6]), float(rec[7]), float(rec[8]),
                   float(rec[9]), float(rec[10]), int(rec[11]), float(rec[12]))
            out.setdefault(aid, []).append(row)
    return out


# ---------------------------------------------------------------------------
# result / batch JSON


def result_to_dict(result: SimResult, scenario: Scenario) -> dict:
    def clean(v):
        return None if v is None or (isinstance(v, float) and not math.isfinite(v)) else v

    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "scenario_name": scenario.name,
        "end_reason": result.end_reason,
        "t_end": result.t_end,
        "n_steps": result.n_steps,
        "collision_pair": list(result.collision_pair) if result.collision_pair else None,
        "agents": [
            {
                "id": a.agent_id,
                "outcome": a.outcome,
                "ce": a.ce,
                "mcte": a.mcte,
                "time_to_goal": clean(a.time_to_goal),
                "min_ship_distance": clean(a.min_ship_distance),
                "min_static_clearance": clean(a.min_static_clearance),
                "waypoints_reached": a.waypoints_reached,
            }
            for a in result.agents
        ],
    }


def aggregate_to_dict(agg: AggregateStats, with_timing: bool = False) -> dict:
    doc = {
        "n_runs": agg.n_runs,
        "n_errors": agg.n_errors,
        "success_rate": agg.success_rate,
        "success_ci95": agg.success_ci,
        "mean_ce": agg.mean_ce,
        "ce_ci95": agg.ce_ci,
        "mean_mcte": agg.mean_mcte,
        "mcte_ci95": agg.mcte_ci,
        "mean_time_to_goal": agg.mean_time_to_goal,
        "time_to_goal_ci95": agg.ttg_ci,
    }
    if with_timing:
        doc["mean_guidance_call_us"] = agg.mean_guidance_call_us
    return doc


def strip_timing(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "timing_us"}


def batch_summary_dict(env_id, method: str, n_runs: int, master_seed: int,
                       records: Sequence[dict], agg: AggregateStats) -> dict:
    """Deterministic batch summary (timing excluded by design)."""
    return {
        "schema_version": BATCH_SCHEMA_VERSION,
        "environment": env_id,
        "method": METHOD_SHORT.get(method, method),
        "n_runs": n_runs,
        "master_seed": master_seed,
        "aggregate": aggregate_to_dict(agg, with_timing=False),
        "records": [strip_timing(r) for r in records],
    }


def batch_timing_dict(records: Sequence[dict], agg: AggregateStats) -> dict:
    return {
        "mean_guidance_call_us": agg.mean_guidance_call_us,
        "per_run_us": [r.get("timing_us", 0.0) for r in records],
    }
