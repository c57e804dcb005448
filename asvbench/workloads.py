"""Benchmark workloads.

Each workload splits its work into numbered *units*.  ``run_unit(k)`` does
unit k, checks its outputs and returns a :class:`UnitResult`; unit k is the
same work every time it runs, so repeating a unit must reproduce its
digests.  ``busy_s`` covers the simulator's own work (simulate, aggregate,
parse, write), not the benchmark's checks and hashing.

Why these workloads:

* ``mc_sparse`` - env 1 (3 vessels): the per-vessel dynamics layer
  (``mmg`` ``deriv`` inside RK4) dominates; sensing and guidance are light.
* ``mc_dense`` - env 5 (10 vessels): O(N^2) sensing, distance observation
  and reactive guidance (APF, VO) dominate, since they grow with vessel
  pairs.
* ``scenes_io`` - the canned scenes through scenario JSON, parse, a
  recorded run, and trajectory CSV / result JSON writing: the only path
  that records and serializes, and the only one that bypasses
  ``montecarlo``.

The simulator is imported inside :meth:`prepare`, so set-up timing covers
the imports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

#: the Monte Carlo method set, run on one paired scenario set per unit
MC_METHODS = ("apf_mvortex", "apf_inverse", "velocity_obstacle")
#: outcomes a run may end in
OUTCOMES = ("success", "collision", "timeout", "error")
#: unit k of a Monte Carlo workload runs ``master_seed = seed * STRIDE + k``
#: (unit 0 runs the workload seed itself), so units never share scenarios
CHUNK_STRIDE = 1000


@dataclass
class UnitResult:
    runs: int = 0
    failed: int = 0
    vessel_steps: int = 0
    busy_s: float = 0.0
    digests: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class MonteCarlo:
    """Paired Monte Carlo cells through ``montecarlo.run_batch`` (jobs=1).

    A unit is one cell per method, every cell on the same master seed and
    so the same scenarios; its digest is the sha256 of the canonical batch
    summary, as ``asvsim batch`` writes it.
    """

    def __init__(self, name: str, env_id: int, runs_per_cell: int):
        self.name = name
        self.env_id = env_id
        self.runs_per_cell = runs_per_cell

    def prepare(self, seed: int, work_dir: str) -> None:
        from asvsim import mmg, montecarlo, serialize

        self.montecarlo, self.serialize = montecarlo, serialize
        # the ship model every caller loads once; run_batch loads its own
        # per batch, so this is set-up cost only
        self.model = mmg.ShipModel.default_kcs()
        self.env = montecarlo.EnvSpec.by_id(self.env_id)
        self.vessels = 1 + self.env.n_dynamic
        self.seed = seed

    def close(self) -> None:
        pass

    def run_unit(self, k: int) -> UnitResult:
        mc, ser = self.montecarlo, self.serialize
        n = self.runs_per_cell
        master_seed = self.seed * CHUNK_STRIDE + k
        res = UnitResult()
        scenario_sets = set()
        for method in MC_METHODS:
            key = f"env{self.env_id}/{ser.METHOD_SHORT[method]}/seed{master_seed}"
            res.runs += n
            t0 = time.perf_counter()
            try:
                records = mc.run_batch(mc.BatchSpec(env=self.env, method=method, n_runs=n,
                                                    master_seed=master_seed, jobs=1))
                summary = ser.dumps_canonical(ser.batch_summary_dict(
                    self.env_id, method, n, master_seed, records, mc.aggregate(records)))
            except Exception as exc:  # one bad cell must not abort the benchmark
                res.busy_s += time.perf_counter() - t0
                res.failed += n
                res.errors.append(f"{key}: {type(exc).__name__}: {exc}")
                res.digests[key] = f"error:{type(exc).__name__}"
                continue
            res.busy_s += time.perf_counter() - t0
            res.digests[key] = sha256(summary)
            scenario_sets.add(tuple(r["scenario_hash"] for r in records))
            for r in records:
                if r["outcome"] not in OUTCOMES:
                    res.problems.append(f"{key} run {r['run_index']}: outcome {r['outcome']!r}")
                elif r["outcome"] == "error":
                    res.failed += 1
                    res.errors.append(f"{key} run {r['run_index']}: {r.get('error')}")
                elif not (_finite(r["ce"]) and _finite(r["mcte"])):
                    res.problems.append(f"{key} run {r['run_index']}: CE/MCTE not finite")
                else:
                    res.vessel_steps += r["n_steps"] * self.vessels
        if len(scenario_sets) > 1:
            res.problems.append(f"seed {master_seed}: methods saw different scenario sets")
        return res


def canned_scenes(scenarios) -> Dict[str, object]:
    """The canned scenes, one run each: every guidance law and the channel."""
    return {
        "square_tracking": scenarios.square_tracking(),
        "static_avoidance_sinkvortex": scenarios.static_avoidance("apf_sinkvortex"),
        "static_avoidance_inverse": scenarios.static_avoidance("apf_inverse"),
        "head_on": scenarios.head_on(),
        "crossing": scenarios.crossing(),
        "overtaking": scenarios.overtaking(),
        "three_ship": scenarios.three_ship(),
        "narrow_channel": scenarios.narrow_channel(),
        "head_on_vo": scenarios.head_on("velocity_obstacle"),
    }


class Scenes:
    """Canned scenes: scenario JSON -> parse -> recorded run -> CSV + JSON.

    Set-up serializes each scene to JSON text; a unit processes every scene
    once, in an order drawn from the seed, writing ``trajectory.csv`` and
    ``result.json`` per scene into a temporary directory.
    """

    name = "scenes_io"

    def prepare(self, seed: int, work_dir: str) -> None:
        from asvsim import engine, mmg, scenarios, serialize

        self.engine, self.serialize = engine, serialize
        self.model = mmg.ShipModel.default_kcs()
        texts = {name: json.dumps(serialize.scenario_to_dict(sc))
                 for name, sc in canned_scenes(scenarios).items()}
        order = sorted(texts)
        random.Random(seed).shuffle(order)
        self.inputs = [(name, texts[name]) for name in order]
        self.out_dir = tempfile.mkdtemp(prefix="scenes-", dir=work_dir)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run_unit(self, k: int) -> UnitResult:
        ser, engine = self.serialize, self.engine
        res = UnitResult()
        for name, text in self.inputs:
            res.runs += 1
            scene_dir = os.path.join(self.out_dir, name)
            os.makedirs(scene_dir, exist_ok=True)
            csv_path = os.path.join(scene_dir, "trajectory.csv")
            t0 = time.perf_counter()
            try:
                scenario = ser.parse_scenario(json.loads(text))
                result = engine.run(scenario, model=self.model, record=True)
                ser.write_trajectory_csv(result, csv_path)
                result_text = ser.dumps_canonical(ser.result_to_dict(result, scenario))
                with open(os.path.join(scene_dir, "result.json"), "w", encoding="utf-8") as fh:
                    fh.write(result_text)
            except Exception as exc:  # one bad scene must not abort the benchmark
                res.busy_s += time.perf_counter() - t0
                res.failed += 1
                res.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                res.digests[name] = f"error:{type(exc).__name__}"
                continue
            res.busy_s += time.perf_counter() - t0
            with open(csv_path, "rb") as fh:
                csv_bytes = fh.read()
            res.digests[f"{name}/trajectory.csv"] = sha256(csv_bytes)
            res.digests[f"{name}/result.json"] = sha256(result_text)
            vessels = len(result.agents)
            rows = csv_bytes.count(b"\n") - 1
            if rows != (result.n_steps + 1) * vessels:
                res.problems.append(f"{name}: {rows} CSV rows for {result.n_steps} steps")
            for a in result.agents:
                if a.outcome not in OUTCOMES[:3]:
                    res.problems.append(f"{name} agent {a.agent_id}: outcome {a.outcome!r}")
                if not (_finite(a.ce) and _finite(a.mcte)):
                    res.problems.append(f"{name} agent {a.agent_id}: CE/MCTE not finite")
            res.vessel_steps += result.n_steps * vessels
        return res


def make(name: str):
    """The workload called ``name``; raises KeyError for an unknown name."""
    return {
        # cell sizes keep one unit near 2-3 s, so the time limit is not
        # overrun by much and the repeated unit stays cheap
        "mc_sparse": lambda: MonteCarlo("mc_sparse", env_id=1, runs_per_cell=8),
        "mc_dense": lambda: MonteCarlo("mc_dense", env_id=5, runs_per_cell=2),
        "scenes_io": Scenes,
    }[name]()


WORKLOADS = ("mc_sparse", "mc_dense", "scenes_io")
