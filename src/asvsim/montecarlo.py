"""Monte Carlo study: scenario sampling, seeded parallel batches, aggregation.

Five environments of increasing congestion are sampled on a 100L x 100L
arena: every spawn point keeps at least 10L from all previously placed
entities, every goal at least 50L from its own start, dynamic traffic runs
at uniform random speed in [0.5, 1.0] of design speed with uniform random
heading, and all vessels run the same avoidance method as the own ship.

Run i draws from its own stream, a pure function of (master_seed, i), so
it is reproducible in isolation and batches are independent of the
parallelism degree.  The stream is a pure-Python port of numpy's
``Generator(PCG64(SeedSequence(master_seed, spawn_key=(i,)))).uniform``
(SeedSequence hashing, PCG64 XSL-RR 128/64, 53-bit doubles) and equals it
bit for bit, so the simulator needs no numpy.  Wall-clock guidance timing
is collected per run but kept out of the deterministic per-run records.

The sampler takes no method.  A paired comparison samples run i's scenario
once and simulates it under each method in turn, so every method replays
the same scenarios by construction; with jobs > 1 one process pool maps
the run indices.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .apf import FieldSingularity, StaticObstacle
from .engine import (METHODS, OUTCOME_SUCCESS, AgentSpec, Scenario, SimConfig,
                     SimulationError, run)

#: static / dynamic obstacle counts per environment id
ENVIRONMENTS: Dict[int, Tuple[int, int]] = {
    1: (1, 2),
    2: (2, 3),
    3: (2, 5),
    4: (3, 7),
    5: (4, 9),
}

#: sampling geometry shared by every environment (see the module docstring)
ARENA_SIDE = 100.0
MIN_SEPARATION = 10.0
MIN_GOAL_DISTANCE = 50.0
STATIC_RADIUS = 0.5
SPEED_RANGE = (0.5, 1.0)

_REJECTION_BUDGET = 10_000

#: the outcome and end reason of a run that raised (see ``_run_one``)
OUTCOME_ERROR = "error"


class SamplingError(RuntimeError):
    """Raised when rejection sampling cannot place an entity."""


@dataclass(frozen=True)
class EnvSpec:
    """Static and dynamic obstacle counts of one environment; rejects a negative count."""

    n_static: int
    n_dynamic: int

    def __post_init__(self):
        if self.n_static < 0 or self.n_dynamic < 0:
            raise ValueError("invalid environment spec")

    @classmethod
    def by_id(cls, env_id: int) -> "EnvSpec":
        if env_id not in ENVIRONMENTS:
            raise ValueError(f"unknown environment id {env_id}; expected 1..5")
        n_static, n_dynamic = ENVIRONMENTS[env_id]
        return cls(n_static=n_static, n_dynamic=n_dynamic)


@dataclass(frozen=True)
class BatchSpec:
    """One seeded batch of an environment and method; rejects fewer than 2
    runs, a negative seed, an unknown method and fewer than 1 job."""

    env: EnvSpec
    method: str
    n_runs: int
    master_seed: int
    jobs: int = 1

    def __post_init__(self):
        # the summary statistics need two runs; refuse before any run starts
        if self.n_runs < 2:
            raise ValueError("n_runs must be >= 2")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


class AggregateStats(NamedTuple):
    """Own-ship statistics of one batch, with 95% confidence half-widths."""

    n_runs: int
    n_errors: int
    success_rate: float
    success_ci95: float
    mean_ce: float
    ce_ci95: float
    mean_mcte: float
    mcte_ci95: float
    mean_time_to_goal: Optional[float]
    time_to_goal_ci95: Optional[float]
    mean_guidance_call_us: float = 0.0


# ---------------------------------------------------------------------------
# random stream: numpy's SeedSequence, PCG64 and Generator.uniform, ported

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(n: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative integer; 0 is [0]."""
    if n < 0:
        raise ValueError("seed and run index must be >= 0")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_state(entropy: int, spawn_index: int) -> List[int]:
    """``SeedSequence(entropy, spawn_key=(spawn_index,)).generate_state(4, uint64)``."""
    run_words = _words32(entropy)
    # with a spawn key the run entropy is zero-padded to the pool size
    words = run_words + [0] * (_POOL_SIZE - len(run_words)) + _words32(spawn_index)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))

    # eight 32-bit words, paired little-endian into four 64-bit words
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    return [out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)]


class PCG64Stream:
    """The random stream of one run: PCG64 (XSL-RR 128/64), seeded as
    ``pcg_setseq_128_srandom_r``; its ``uniform`` equals numpy's
    ``Generator.uniform`` for scalar bounds."""

    __slots__ = ("_state", "_inc")

    def __init__(self, initstate: int, initseq: int):
        self._inc = ((initseq << 1) | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, low: float, high: float) -> float:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _MASK64
        # the top 53 bits as a double in [0, 1), as numpy's next_double
        return low + (high - low) * ((x >> 11) * 2.0 ** -53)


def child_rng(master_seed: int, run_index: int) -> PCG64Stream:
    """Independent stream for one run, a pure function of (seed, index)."""
    words = _seed_sequence_state(master_seed, run_index)
    return PCG64Stream((words[0] << 64) | words[1], (words[2] << 64) | words[3])


# ---------------------------------------------------------------------------
# scenario sampling

def _sample_point(rng: PCG64Stream, half: float) -> Tuple[float, float]:
    return (rng.uniform(-half, half), rng.uniform(-half, half))


def _place(rng: PCG64Stream, half: float, placed: List[Tuple[float, float]],
           min_sep: float) -> Tuple[float, float]:
    """Redraw one point until it clears every previously placed entity."""
    for _ in range(_REJECTION_BUDGET):
        p = _sample_point(rng, half)
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= min_sep for q in placed):
            return p
    raise SamplingError("rejection budget exhausted while placing an entity")


def _place_goal(rng: PCG64Stream, half: float, start: Tuple[float, float],
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


def sample_scenario(env: EnvSpec, rng: PCG64Stream) -> Scenario:
    """Draw one random scenario, every vessel on the default method; set the
    method with ``Scenario.with_method``.

    Draw order (fixed for reproducibility): own start, static positions,
    dynamic starts, own goal, dynamic goals, headings, speeds.
    """
    half = ARENA_SIDE / 2.0
    placed: List[Tuple[float, float]] = []

    own_start = _sample_point(rng, half)
    placed.append(own_start)
    statics = []
    for _ in range(env.n_static):
        p = _place(rng, half, placed, MIN_SEPARATION)
        placed.append(p)
        statics.append(StaticObstacle(center=p, R_obs=STATIC_RADIUS))
    dyn_starts = []
    for _ in range(env.n_dynamic):
        p = _place(rng, half, placed, MIN_SEPARATION)
        placed.append(p)
        dyn_starts.append(p)

    static_centers = [o.center for o in statics]
    own_goal = _place_goal(rng, half, own_start, MIN_GOAL_DISTANCE,
                           static_centers, MIN_SEPARATION)
    goals_placed = [own_goal]
    dyn_goals = []
    for s in dyn_starts:
        g = _place_goal(rng, half, s, MIN_GOAL_DISTANCE,
                        static_centers + goals_placed, MIN_SEPARATION)
        goals_placed.append(g)
        dyn_goals.append(g)

    headings = [rng.uniform(-math.pi, math.pi) for _ in range(1 + env.n_dynamic)]
    lo, hi = SPEED_RANGE
    speeds = [rng.uniform(lo, hi) for _ in range(env.n_dynamic)]

    agents = [AgentSpec(id=0, start=own_start, heading=headings[0], speed=1.0,
                        waypoints=(own_goal,))]
    for i, (s, g) in enumerate(zip(dyn_starts, dyn_goals)):
        agents.append(AgentSpec(id=i + 1, start=s, heading=headings[i + 1],
                                speed=speeds[i], waypoints=(g,)))
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


# ---------------------------------------------------------------------------
# batch execution

def _run_one(args: Tuple[EnvSpec, Tuple[str, ...], int, int]) -> List[dict]:
    """Sample run i's scenario once and simulate it under each method; returns
    one record per method, in the order given.

    The record's ``timing_us`` entry is wall-clock dependent and must be
    stripped before any determinism comparison (see serialize.batch_summary).
    A run that raises ``SimulationError`` (non-finite or runaway state) or
    ``FieldSingularity`` (a field evaluated at its singular point, e.g. a
    hull inside a static disc) ends in the ``error`` outcome, so one bad run
    never aborts the batch.
    """
    env, methods, master_seed, run_index = args
    scenario = sample_scenario(env, child_rng(master_seed, run_index))
    digest = scenario_hash(scenario)
    records = []
    for method in methods:
        record = {"run_index": run_index, "scenario_hash": digest, "timing_us": 0.0}
        records.append(record)
        try:
            result = run(scenario.with_method(method), record=False)
        except (SimulationError, FieldSingularity) as exc:
            record.update(outcome=OUTCOME_ERROR, error=str(exc), end_reason=OUTCOME_ERROR,
                          ce=None, mcte=None, time_to_goal=None,
                          min_ship_distance=None, t_end=None, n_steps=None)
            continue
        own = result.agents[0]
        record.update(outcome=own.outcome, end_reason=result.end_reason, ce=own.ce,
                      mcte=own.mcte, time_to_goal=own.time_to_goal,
                      min_ship_distance=own.min_ship_distance, t_end=result.t_end,
                      n_steps=result.n_steps, timing_us=result.guidance_time_us_mean)
    return records


def run_batch(spec: BatchSpec) -> List[dict]:
    """Run the batch; records are ordered by run index for any jobs count."""
    return compare_methods([spec])[spec.method]


def _mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    import statistics  # with fractions and decimal; only aggregation needs it

    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    s = statistics.stdev(values)
    return mean, 1.96 * s / math.sqrt(len(values))


def aggregate(records: Sequence[dict]) -> AggregateStats:
    """Own-ship statistics with normal-approximation 95% CIs."""
    import statistics

    if len(records) < 2:
        raise ValueError("need at least 2 run records to aggregate")
    n = len(records)
    n_err = sum(1 for r in records if r["outcome"] == OUTCOME_ERROR)
    successes = [r for r in records if r["outcome"] == OUTCOME_SUCCESS]
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
        success_rate=p, success_ci95=success_ci,
        mean_ce=mean_ce, ce_ci95=ce_ci,
        mean_mcte=mean_mcte, mcte_ci95=mcte_ci,
        mean_time_to_goal=mean_ttg, time_to_goal_ci95=ttg_ci,
        mean_guidance_call_us=mean_us,
    )


def compare_methods(specs: Sequence[BatchSpec]) -> Dict[str, List[dict]]:
    """Paired comparison: runs each sampled scenario under every method and
    returns the records of each method.  The batches must replay one
    scenario set, so they may differ only in the method; RuntimeError, before
    any run, if they do not."""
    first = specs[0]
    if any(replace(s, method=first.method) != first for s in specs):
        raise RuntimeError("paired comparison broke: the batches differ in more than the method")
    methods = tuple(s.method for s in specs)
    args = [(first.env, methods, first.master_seed, i) for i in range(first.n_runs)]
    if first.jobs == 1:
        per_run = [_run_one(a) for a in args]
    else:
        from multiprocessing import Pool  # only parallel batches load multiprocessing
        with Pool(processes=first.jobs) as pool:
            per_run = pool.map(_run_one, args)
    return {m: [records[k] for records in per_run] for k, m in enumerate(methods)}
