"""Scenario/result file formats.

* scenario JSON ("scenario-1"): agents, static obstacles, optional channel,
  parameter overrides; unknown fields are rejected with their path.
* trajectory CSV: one row per agent per step, fixed column order.
* result JSON ("result-1") and batch summary JSON ("batch-summary-1"):
  wall-clock timing is kept out of the summary so identical seeds produce
  byte-identical files at any parallelism degree.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .apf import ChannelBoundary, HarmonicParams, InverseSquareParams, StaticObstacle
from .engine import METHODS, AgentSpec, Scenario, SimConfig, SimResult, track_rows
from .guidance import ILOSParams, PDGains
from .vo import VOParams

if TYPE_CHECKING:  # annotations only: the scenario path does not load montecarlo
    from .montecarlo import AggregateStats

SCENARIO_SCHEMA_VERSION = "scenario-1"
RESULT_SCHEMA_VERSION = "result-1"
BATCH_SCHEMA_VERSION = "batch-summary-1"
COMPARISON_SCHEMA_VERSION = "comparison-1"

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


NUMBER, POSITIVE, DEGREES = "number", "positive", "degrees"

#: Every parameter a scenario file may set, by Scenario attribute:
#: (JSON block, dataclass, {JSON key: (dataclass field, kind)}).  A kind is
#: NUMBER, POSITIVE (> 0), DEGREES (> 0, in degrees in the file and in
#: radians in the dataclass), or a tuple of the allowed strings.
#: Absent keys take the dataclass default, so the defaults live only there.
PARAMETERS = {
    "ilos": ("guidance", ILOSParams, {
        "delta": ("Delta", POSITIVE),
        "k_factor": ("k_factor", NUMBER),
        "r_tol": ("R_tol", POSITIVE)}),
    "gains": ("control", PDGains, {
        "kp": ("Kp_c", POSITIVE),
        "kd": ("Kd_c", POSITIVE)}),
    "inverse_params": ("apf", InverseSquareParams, {
        "k_att": ("k_att", POSITIVE),
        "k_rep": ("k_rep", POSITIVE),
        "d0": ("d0", POSITIVE)}),
    "harmonic_params": ("apf", HarmonicParams, {
        "lambda_sink": ("Lambda_sink", NUMBER),
        "k_vor0": ("K_vor0", NUMBER),
        "r_tol_vortex": ("R_tol_vortex", POSITIVE),
        "in_extremis_range": ("in_extremis_range", POSITIVE)}),
    "vo_params": ("vo", VOParams, {
        "cone_radius": ("cone_radius", POSITIVE),
        "heading_resolution_deg": ("heading_resolution", DEGREES),
        "max_course_change_deg": ("max_course_change", DEGREES)}),
    "config": ("sim", SimConfig, {
        "dt": ("dt", POSITIVE),
        "max_time": ("max_time", POSITIVE),
        "collision_threshold": ("collision_threshold", POSITIVE),
        "r_safe": ("R_safe", POSITIVE),
        "termination": ("termination", ("all", "own"))}),
    "channel": ("channel", ChannelBoundary, {
        "activation_distance": ("activation_distance", POSITIVE),
        "source_strength": ("Lambda_src", POSITIVE)}),
}

#: allowed keys of each parameter block (the channel also has its walls)
_BLOCK_KEYS: Dict[str, set] = {"channel": {"boundary_a", "boundary_b"}}
for _block, _, _keys in PARAMETERS.values():
    _BLOCK_KEYS.setdefault(_block, set()).update(_keys)


def _value(v, path: str, kind):
    """Validate one parameter value and convert it to its dataclass form."""
    if isinstance(kind, tuple):
        if v not in kind:
            _fail(path, "must be " + " or ".join(repr(k) for k in kind))
        return v
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        _fail(path, "must be a finite number")
    if kind != NUMBER and v <= 0:
        _fail(path, "must be > 0")
    return math.radians(v) if kind == DEGREES else float(v)


def _number(doc: dict, key: str, path: str, default: float) -> float:
    return _value(doc[key], f"{path}.{key}", NUMBER) if key in doc else default


def _params(doc: dict, attr: str, **extra):
    """The parameter dataclass of one Scenario attribute, built from the
    keys of its block that the document sets."""
    block, cls, keys = PARAMETERS[attr]
    block_doc = doc.get(block, {})
    kwargs = {name: _value(block_doc[key], f"{block}.{key}", kind)
              for key, (name, kind) in keys.items() if key in block_doc}
    try:
        return cls(**kwargs, **extra)
    except ValueError as exc:
        _fail(block, str(exc))


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
    """Validate a scenario document and build the Scenario; parameters the
    document leaves out take their dataclass defaults."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be a JSON object")
    _check_keys(doc, {"schema_version", "name", "agents", "static_obstacles", *_BLOCK_KEYS},
                "scenario")
    version = doc.get("schema_version", SCENARIO_SCHEMA_VERSION)
    if version != SCENARIO_SCHEMA_VERSION:
        _fail("scenario.schema_version", f"unsupported version {version!r}")

    agents_doc = doc.get("agents")
    if not isinstance(agents_doc, list) or not agents_doc:
        _fail("scenario.agents", "must be a non-empty list")
    agents = [_parse_agent(a, f"agents[{i}]") for i, a in enumerate(agents_doc)]

    statics_doc = doc.get("static_obstacles", [])
    if not isinstance(statics_doc, list):
        _fail("static_obstacles", "must be a list")
    statics = []
    for i, o in enumerate(statics_doc):
        path = f"static_obstacles[{i}]"
        if not isinstance(o, dict):
            _fail(path, "must be an object")
        _check_keys(o, {"center", "radius"}, path)
        center = _point(o.get("center"), f"{path}.center")
        radius = ({"R_obs": _value(o["radius"], f"{path}.radius", POSITIVE)}
                  if "radius" in o else {})
        statics.append(StaticObstacle(center=center, **radius))

    for block, allowed in _BLOCK_KEYS.items():
        if block in doc:
            if not isinstance(doc[block], dict):
                _fail(block, "must be an object")
            _check_keys(doc[block], allowed, block)
    params = {attr: _params(doc, attr) for attr in PARAMETERS if attr != "channel"}

    channel = None
    if "channel" in doc:
        ch_doc = doc["channel"]
        def _segment(v, path):
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                _fail(path, "must be a [[x, y], [x, y]] segment")
            return (_point(v[0], f"{path}[0]"), _point(v[1], f"{path}[1]"))
        channel = _params(doc, "channel",
                          boundary_a=_segment(ch_doc.get("boundary_a"), "channel.boundary_a"),
                          boundary_b=_segment(ch_doc.get("boundary_b"), "channel.boundary_b"))

    name = doc.get("name", "")
    if not isinstance(name, str):
        _fail("scenario.name", "must be a string")

    try:
        return Scenario(agents=agents, static_obstacles=statics, channel=channel,
                        name=name, **params)
    except ValueError as exc:  # duplicate agent ids
        _fail("scenario.agents", str(exc))


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
    return parse_scenario(doc)


def scenario_to_dict(sc: Scenario) -> dict:
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
    }
    for attr, (block, _, keys) in PARAMETERS.items():
        params = getattr(sc, attr)
        if params is None:  # no channel
            continue
        out = doc.setdefault(block, {})
        for key, (name, kind) in keys.items():
            v = getattr(params, name)
            out[key] = math.degrees(v) if kind == DEGREES else v
    if sc.channel is not None:
        doc["channel"]["boundary_a"] = [list(p) for p in sc.channel.boundary_a]
        doc["channel"]["boundary_b"] = [list(p) for p in sc.channel.boundary_b]
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
    that ``read_trajectory_csv`` reads.  Rows are read from
    ``result.tracks`` one step at a time, never as whole row lists."""
    if result.tracks is None:
        raise ValueError("run was executed without trajectory recording")
    agent_ids = [a.agent_id for a in result.agents]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for step in zip(*map(track_rows, result.tracks)):
            # one write per time step: as fast as one write per file, while
            # memory does not grow with the run length
            fh.write("".join([_CSV_ROW % ((row[0], aid) + row[1:])
                              for aid, row in zip(agent_ids, step)]))


def read_trajectory_csv(path: str) -> Dict[int, List[tuple]]:
    """Rows per agent id, in time order."""
    import csv  # only reading needs it; the writer formats rows itself

    out: Dict[int, List[tuple]] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # a zero-byte file has no header either
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for rec in reader:
            if len(rec) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num}: expected "
                                 f"{len(CSV_COLUMNS)} fields, got {len(rec)}")
            aid = int(rec[1])
            row = (float(rec[0]), float(rec[2]), float(rec[3]), float(rec[4]),
                   float(rec[5]), float(rec[6]), float(rec[7]), float(rec[8]),
                   float(rec[9]), float(rec[10]), int(rec[11]), float(rec[12]))
            out.setdefault(aid, []).append(row)
    if not out:
        raise ValueError(f"{path}: trajectory CSV has no rows")
    return out


# ---------------------------------------------------------------------------
# result / batch JSON


def result_to_dict(result: SimResult, scenario: Scenario) -> dict:
    def clean(v):
        return None if v is None or not math.isfinite(v) else v

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


def aggregate_to_dict(agg: AggregateStats) -> dict:
    """The deterministic aggregate statistics (no wall-clock timing)."""
    doc = agg._asdict()
    del doc["mean_guidance_call_us"]
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
        "aggregate": aggregate_to_dict(agg),
        "records": [strip_timing(r) for r in records],
    }


def comparison_dict(env_id, n_runs: int, master_seed: int,
                    records: Dict[str, Sequence[dict]],
                    aggregates: Dict[str, AggregateStats]) -> dict:
    """Deterministic paired comparison (timing excluded by design), keyed by
    short method name; a success-rate delta for each pair of methods, the
    earlier-listed method first."""
    methods = list(records)
    return {
        "schema_version": COMPARISON_SCHEMA_VERSION,
        "environment": env_id,
        "n_runs": n_runs,
        "master_seed": master_seed,
        "methods": {METHOD_SHORT[m]: aggregate_to_dict(aggregates[m]) for m in methods},
        "success_rate_deltas": {
            f"{METHOD_SHORT[m1]}-{METHOD_SHORT[m2]}":
                aggregates[m1].success_rate - aggregates[m2].success_rate
            for i, m1 in enumerate(methods) for m2 in methods[i + 1:]
        },
        "records": {METHOD_SHORT[m]: [strip_timing(r) for r in records[m]] for m in methods},
    }


def batch_timing_dict(records: Sequence[dict], agg: AggregateStats) -> dict:
    return {
        "mean_guidance_call_us": agg.mean_guidance_call_us,
        "per_run_us": [r.get("timing_us", 0.0) for r in records],
    }
