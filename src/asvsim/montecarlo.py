"""Monte Carlo study: scenario sampling, seeded parallel batches, aggregation.

Five environments of increasing congestion are sampled on a 100L x 100L
arena: every spawn point keeps at least 10L from all previously placed
entities, every goal at least 50L from its own start, dynamic traffic runs
at uniform random speed in [0.5, 1.0] of design speed with uniform random
heading, and all vessels run the same avoidance method as the own ship.

Child RNG streams derive from ``SeedSequence(master_seed, spawn_key=(i,))``
so run i is reproducible in isolation and batches are independent of the
parallelism degree.  Wall-clock guidance timing is collected per run but
kept out of the deterministic per-run records.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .apf import FieldSingularity, StaticObstacle
from .engine import METHODS, AgentSpec, Scenario, SimConfig, SimulationError, run
from .mmg import ShipModel

#: static / dynamic obstacle counts per environment id
ENVIRONMENTS: Dict[int, Tuple[int, int]] = {
    1: (1, 2),
    2: (2, 3),
    3: (2, 5),
    4: (3, 7),
    5: (4, 9),
}

_REJECTION_BUDGET = 10_000


class SamplingError(RuntimeError):
    """Raised when rejection sampling cannot place an entity."""


@dataclass(frozen=True)
class EnvSpec:
    n_static: int
    n_dynamic: int
    arena_side: float = 100.0
    min_separation: float = 10.0
    min_goal_distance: float = 50.0
    static_radius: float = 0.5
    speed_range: Tuple[float, float] = (0.5, 1.0)

    def __post_init__(self):
        if self.n_static < 0 or self.n_dynamic < 0 or self.arena_side <= 0.0:
            raise ValueError("invalid environment spec")

    @classmethod
    def by_id(cls, env_id: int) -> "EnvSpec":
        if env_id not in ENVIRONMENTS:
            raise ValueError(f"unknown environment id {env_id}; expected 1..5")
        n_static, n_dynamic = ENVIRONMENTS[env_id]
        return cls(n_static=n_static, n_dynamic=n_dynamic)


@dataclass(frozen=True)
class BatchSpec:
    env: EnvSpec
    method: str
    n_runs: int
    master_seed: int
    jobs: int = 1

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class AggregateStats:
    n_runs: int
    n_errors: int
    success_rate: float
    success_ci: float
    mean_ce: float
    ce_ci: float
    mean_mcte: float
    mcte_ci: float
    mean_time_to_goal: Optional[float]
    ttg_ci: Optional[float]
    mean_guidance_call_us: float = 0.0


def _sample_point(rng: np.random.Generator, half: float) -> Tuple[float, float]:
    return (float(rng.uniform(-half, half)), float(rng.uniform(-half, half)))


def _place(rng: np.random.Generator, half: float, placed: List[Tuple[float, float]],
           min_sep: float) -> Tuple[float, float]:
    """Redraw one point until it clears every previously placed entity."""
    for _ in range(_REJECTION_BUDGET):
        p = _sample_point(rng, half)
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= min_sep for q in placed):
            return p
    raise SamplingError("rejection budget exhausted while placing an entity")


def _place_goal(rng: np.random.Generator, half: float, start: Tuple[float, float],
                min_dist: float, keep_clear: List[Tuple[float, float]],
                min_sep: float) -> Tuple[float, float]:
    """Goal must be far from its own start and clear of static obstacles and
    previously placed goals (else runs end in unavoidable near-goal traps)."""
    for _ in range(_REJECTION_BUDGET):
        p = _sample_point(rng, half)
        if math.hypot(p[0] - start[0], p[1] - start[1]) < min_dist:
            continue
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= min_sep for q in keep_clear):
            return p
    raise SamplingError("rejection budget exhausted while placing a goal")


def sample_scenario(env: EnvSpec, rng: np.random.Generator,
                    method: str = "apf_mvortex") -> Scenario:
    """Draw one random scenario.

    Draw order (fixed for reproducibility): own start, static positions,
    dynamic starts, own goal, dynamic goals, headings, speeds.
    """
    half = env.arena_side / 2.0
    placed: List[Tuple[float, float]] = []

    own_start = _sample_point(rng, half)
    placed.append(own_start)
    statics = []
    for _ in range(env.n_static):
        p = _place(rng, half, placed, env.min_separation)
        placed.append(p)
        statics.append(StaticObstacle(center=p, R_obs=env.static_radius))
    dyn_starts = []
    for _ in range(env.n_dynamic):
        p = _place(rng, half, placed, env.min_separation)
        placed.append(p)
        dyn_starts.append(p)

    static_centers = [o.center for o in statics]
    own_goal = _place_goal(rng, half, own_start, env.min_goal_distance,
                           static_centers, env.min_separation)
    goals_placed = [own_goal]
    dyn_goals = []
    for s in dyn_starts:
        g = _place_goal(rng, half, s, env.min_goal_distance,
                        static_centers + goals_placed, env.min_separation)
        goals_placed.append(g)
        dyn_goals.append(g)

    headings = [float(rng.uniform(-math.pi, math.pi))
                for _ in range(1 + env.n_dynamic)]
    lo, hi = env.speed_range
    speeds = [float(rng.uniform(lo, hi)) for _ in range(env.n_dynamic)]

    agents = [AgentSpec(id=0, start=own_start, heading=headings[0], speed=1.0,
                        waypoints=(own_goal,), method=method)]
    for i, (s, g) in enumerate(zip(dyn_starts, dyn_goals)):
        agents.append(AgentSpec(id=i + 1, start=s, heading=headings[i + 1],
                                speed=speeds[i], waypoints=(g,), method=method))
    # statistical-study protocol: the run is scored for the own ship, so
    # third-party collisions are recorded but do not end it
    return Scenario(agents=agents, static_obstacles=statics,
                    config=SimConfig(termination="own"),
                    name=f"mc_env{env.n_static}s{env.n_dynamic}d")


def scenario_hash(scenario: Scenario) -> str:
    """Digest of the method-independent scenario geometry."""
    parts = []
    for a in scenario.agents:
        parts.append(f"a{a.id}:{a.start!r}:{a.heading!r}:{a.speed!r}:{a.waypoints!r}")
    for o in scenario.static_obstacles:
        parts.append(f"s:{o.center!r}:{o.R_obs!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def child_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent stream for one run, a pure function of (seed, index)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(run_index,))))


# ---------------------------------------------------------------------------
# batch execution

_WORKER_MODEL: Optional[ShipModel] = None


def _init_worker() -> None:
    global _WORKER_MODEL
    _WORKER_MODEL = ShipModel.default_kcs()


def _run_one(args: Tuple[EnvSpec, str, int, int]) -> dict:
    """Execute one seeded run; returns a per-run record.

    The record's ``timing_us`` entry is wall-clock dependent and must be
    stripped before any determinism comparison (see serialize.batch_summary).
    A run that raises ``SimulationError`` (non-finite or runaway state) or
    ``FieldSingularity`` (a field evaluated at its singular point, e.g. a
    hull inside a static disc) ends in the ``error`` outcome, so one bad run
    never aborts the batch.
    """
    env, method, master_seed, run_index = args
    global _WORKER_MODEL
    if _WORKER_MODEL is None:
        _WORKER_MODEL = ShipModel.default_kcs()
    rng = child_rng(master_seed, run_index)
    scenario = sample_scenario(env, rng, method=method)
    record = {
        "run_index": run_index,
        "scenario_hash": scenario_hash(scenario),
        "timing_us": 0.0,
    }
    try:
        result = run(scenario, model=_WORKER_MODEL, record=False)
    except (SimulationError, FieldSingularity) as exc:
        record.update(outcome="error", error=str(exc), end_reason="error",
                      ce=None, mcte=None, time_to_goal=None,
                      min_ship_distance=None, t_end=None, n_steps=None)
        return record
    own = result.agents[0]
    record.update(
        outcome=own.outcome,
        end_reason=result.end_reason,
        ce=own.ce,
        mcte=own.mcte,
        time_to_goal=own.time_to_goal,
        min_ship_distance=own.min_ship_distance,
        t_end=result.t_end,
        n_steps=result.n_steps,
    )
    record["timing_us"] = result.guidance_time_us_mean
    return record


def run_batch(spec: BatchSpec) -> List[dict]:
    """Run the batch; records are ordered by run index for any jobs count."""
    args = [(spec.env, spec.method, spec.master_seed, i) for i in range(spec.n_runs)]
    if spec.jobs <= 1:
        _init_worker()
        return [_run_one(a) for a in args]
    with Pool(processes=spec.jobs, initializer=_init_worker) as pool:
        return pool.map(_run_one, args)


def _mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    s = statistics.stdev(values)
    return mean, 1.96 * s / math.sqrt(len(values))


def aggregate(records: Sequence[dict]) -> AggregateStats:
    """Own-ship statistics with normal-approximation 95% CIs."""
    if len(records) < 2:
        raise ValueError("need at least 2 run records to aggregate")
    n = len(records)
    n_err = sum(1 for r in records if r["outcome"] == "error")
    successes = [r for r in records if r["outcome"] == "success"]
    p = len(successes) / n
    success_ci = 1.96 * math.sqrt(p * (1.0 - p) / n)
    valid = [r for r in records if r["ce"] is not None]
    mean_ce, ce_ci = _mean_ci([r["ce"] for r in valid]) if valid else (math.nan, math.nan)
    mean_mcte, mcte_ci = _mean_ci([r["mcte"] for r in valid]) if valid else (math.nan, math.nan)
    if successes:
        mean_ttg, ttg_ci = _mean_ci([r["time_to_goal"] for r in successes])
    else:
        mean_ttg, ttg_ci = None, None
    timing = [r.get("timing_us", 0.0) for r in records if r.get("timing_us")]
    mean_us = statistics.fmean(timing) if timing else 0.0
    return AggregateStats(
        n_runs=n, n_errors=n_err,
        success_rate=p, success_ci=success_ci,
        mean_ce=mean_ce, ce_ci=ce_ci,
        mean_mcte=mean_mcte, mcte_ci=mcte_ci,
        mean_time_to_goal=mean_ttg, ttg_ci=ttg_ci,
        mean_guidance_call_us=mean_us,
    )


def compare_methods(env: EnvSpec, methods: Sequence[str], n_runs: int,
                    master_seed: int, jobs: int = 1) -> dict:
    """Paired comparison: every method replays the identical scenario set."""
    per_method: Dict[str, List[dict]] = {}
    for method in methods:
        per_method[method] = run_batch(BatchSpec(
            env=env, method=method, n_runs=n_runs, master_seed=master_seed,
            jobs=jobs))
    hashes = None
    for method, records in per_method.items():
        h = [r["scenario_hash"] for r in records]
        if hashes is None:
            hashes = h
        elif h != hashes:
            raise RuntimeError("paired comparison broke: scenario sets differ")
    aggregates = {m: aggregate(records) for m, records in per_method.items()}
    deltas = {}
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1:]:
            deltas[f"{m1}-{m2}"] = (aggregates[m1].success_rate
                                    - aggregates[m2].success_rate)
    return {"aggregates": aggregates, "records": per_method,
            "success_rate_deltas": deltas}
