import math

import numpy as np
import pytest

from asvsim import montecarlo
from asvsim.apf import FieldSingularity
from asvsim.montecarlo import (
    ENVIRONMENTS,
    AggregateStats,
    BatchSpec,
    EnvSpec,
    SamplingError,
    aggregate,
    child_rng,
    compare_methods,
    run_batch,
    sample_scenario,
    scenario_hash,
)
from asvsim.serialize import strip_timing


class TestEnvironments:
    def test_table_counts(self):
        assert ENVIRONMENTS == {1: (1, 2), 2: (2, 3), 3: (2, 5), 4: (3, 7), 5: (4, 9)}

    def test_unknown_env_rejected(self):
        with pytest.raises(ValueError):
            EnvSpec.by_id(6)

    @pytest.mark.parametrize("build, message", [
        (lambda: EnvSpec(-1, 0), "invalid environment spec"),
        (lambda: BatchSpec(env=EnvSpec(1, 2), method="warp", n_runs=2, master_seed=0),
         "unknown method 'warp'"),
    ], ids=["negative_count", "unknown_method"])
    def test_invalid_spec_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestSampling:
    def test_env1_entity_counts(self):
        sc = sample_scenario(EnvSpec.by_id(1), child_rng(0, 0))
        assert len(sc.agents) == 3          # own ship + 2 dynamic
        assert len(sc.static_obstacles) == 1
        assert sc.agents[0].speed == 1.0
        assert all(o.R_obs == 0.5 for o in sc.static_obstacles)

    def test_spawn_separation(self):
        env = EnvSpec.by_id(5)
        for i in range(200):
            sc = sample_scenario(env, child_rng(123, i))
            pts = [a.start for a in sc.agents] + [o.center for o in sc.static_obstacles]
            for j in range(len(pts)):
                for k in range(j + 1, len(pts)):
                    assert math.dist(pts[j], pts[k]) >= 10.0

    def test_goal_distance(self):
        env = EnvSpec.by_id(1)
        for i in range(1000):
            sc = sample_scenario(env, child_rng(7, i))
            for a in sc.agents:
                assert math.dist(a.start, a.waypoints[0]) >= 50.0

    def test_speed_and_heading_ranges(self):
        env = EnvSpec.by_id(3)
        for i in range(100):
            sc = sample_scenario(env, child_rng(9, i))
            for a in sc.agents[1:]:
                assert 0.5 <= a.speed <= 1.0
            for a in sc.agents:
                assert -math.pi <= a.heading <= math.pi

    def test_seeded_reproducibility(self):
        s1 = sample_scenario(EnvSpec.by_id(2), child_rng(42, 5))
        s2 = sample_scenario(EnvSpec.by_id(2), child_rng(42, 5))
        assert scenario_hash(s1) == scenario_hash(s2)
        assert s1.agents == s2.agents

    @pytest.mark.parametrize("env, what", [
        (EnvSpec(100, 0), "an entity"),  # no room for the statics
        (EnvSpec(68, 2), "a goal"),  # no goal clear of the statics
    ], ids=["entity", "goal"])
    def test_crowded_arena_exhausts_budget(self, env, what):
        with pytest.raises(SamplingError, match=f"exhausted while placing {what}$"):
            sample_scenario(env, child_rng(0, 0))


def _draws(rng, n):
    return [rng.uniform(0.0, 1.0) for _ in range(n)]


class TestSeedSplitting:
    def test_child_streams_never_coincide(self):
        for i, j in [(0, 1), (0, 2), (5, 17)]:
            a = _draws(child_rng(99, i), 1_000_000)
            b = _draws(child_rng(99, j), 1_000_000)
            assert a != b
            # statistically independent draws agree almost nowhere
            assert sum(x == y for x, y in zip(a, b)) == 0

    def test_same_index_reproduces(self):
        a = _draws(child_rng(99, 3), 1000)
        b = _draws(child_rng(99, 3), 1000)
        assert a == b


#: the bounds sample_scenario draws with: positions, headings, speeds
SAMPLER_RANGES = [(-50.0, 50.0), (-math.pi, math.pi), (0.5, 1.0)]


class TestStreamMatchesNumpy:
    """child_rng is a port of numpy's SeedSequence -> PCG64 -> uniform; the
    draws, and so every sampled scenario, must equal numpy's bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("run_index", [0, 1, 199, 70000])
    def test_uniform_draws_equal_numpy(self, seed, run_index):
        ours = child_rng(seed, run_index)
        ref = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(run_index,))))
        for lo, hi in SAMPLER_RANGES:
            got = [ours.uniform(lo, hi) for _ in range(1000)]
            want = [float(ref.uniform(lo, hi)) for _ in range(1000)]
            assert got == want, (lo, hi)

    def test_seed_state_equals_numpy(self):
        for seed in (0, 2**64 + 5, 2**160 + 3):  # the last has > 4 words of entropy
            for run_index in (0, 2**40):
                want = np.random.SeedSequence(seed, spawn_key=(run_index,))
                assert (montecarlo._seed_sequence_state(seed, run_index)
                        == [int(w) for w in want.generate_state(4, np.uint64)])

    def test_negative_seed_or_index_rejected(self):
        with pytest.raises(ValueError):
            child_rng(-1, 0)
        with pytest.raises(ValueError):
            child_rng(0, -1)
        with pytest.raises(ValueError, match="master_seed"):
            BatchSpec(env=EnvSpec.by_id(1), method="apf_mvortex", n_runs=2,
                      master_seed=-1)


class TestBatch:
    def test_parallel_determinism(self, model):
        spec1 = BatchSpec(env=EnvSpec.by_id(1), method="apf_mvortex", n_runs=8,
                          master_seed=21, jobs=1)
        spec3 = BatchSpec(env=EnvSpec.by_id(1), method="apf_mvortex", n_runs=8,
                          master_seed=21, jobs=3)
        r1 = [strip_timing(r) for r in run_batch(spec1)]
        r3 = [strip_timing(r) for r in run_batch(spec3)]
        assert r1 == r3

    def test_records_ordered_by_index(self):
        spec = BatchSpec(env=EnvSpec.by_id(1), method="apf_mvortex", n_runs=6,
                         master_seed=3, jobs=2)
        records = run_batch(spec)
        assert [r["run_index"] for r in records] == list(range(6))

    def test_run_failures_recorded_not_fatal(self, monkeypatch):
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise montecarlo.SimulationError("injected failure")
            if calls["n"] == 3:
                raise FieldSingularity("injected singularity")
            return real_run(*args, **kwargs)

        real_run = montecarlo.run
        monkeypatch.setattr(montecarlo, "run", flaky)
        spec = BatchSpec(env=EnvSpec.by_id(1), method="apf_mvortex", n_runs=4,
                         master_seed=3, jobs=1)
        records = run_batch(spec)
        assert len(records) == 4
        assert [r["outcome"] == "error" for r in records] == [False, True, True, False]
        assert records[1]["error"] == "injected failure"
        assert records[2]["error"] == "injected singularity"
        assert records[2]["end_reason"] == "error" and records[2]["ce"] is None
        agg = aggregate(records)
        assert agg.n_errors == 2


class TestAggregation:
    def _records(self, outcomes, ce=0.1, mcte=0.5, ttg=60.0):
        return [{"run_index": i, "outcome": o, "ce": ce, "mcte": mcte,
                 "time_to_goal": ttg if o == "success" else None,
                 "timing_us": 1.0}
                for i, o in enumerate(outcomes)]

    def test_all_success_degenerate_ci(self):
        agg = aggregate(self._records(["success"] * 20))
        assert agg.success_rate == 1.0
        assert agg.success_ci95 == 0.0

    def test_95_of_100_ci(self):
        outcomes = ["success"] * 95 + ["collision"] * 5
        agg = aggregate(self._records(outcomes))
        assert agg.success_rate == pytest.approx(0.95)
        assert agg.success_ci95 == pytest.approx(1.96 * math.sqrt(0.95 * 0.05 / 100),
                                                 abs=1e-9)
        assert agg.success_ci95 == pytest.approx(0.0427, abs=2e-4)

    def test_constant_metric_zero_ci(self):
        agg = aggregate(self._records(["success"] * 10))
        assert agg.ce_ci95 == 0.0
        assert agg.mcte_ci95 == 0.0

    def test_permutation_invariant(self):
        recs = self._records(["success", "collision"] * 10, ce=0.2)
        for i, r in enumerate(recs):
            r["ce"] = 0.01 * i
        a1 = aggregate(recs)
        a2 = aggregate(list(reversed(recs)))
        assert a1.success_rate == a2.success_rate
        assert a1.mean_ce == pytest.approx(a2.mean_ce)
        assert a1.ce_ci95 == pytest.approx(a2.ce_ci95)

    def test_one_success_has_zero_ttg_ci(self):
        agg = aggregate(self._records(["success", "collision", "timeout"], ttg=42.0))
        assert (agg.mean_time_to_goal, agg.time_to_goal_ci95) == (42.0, 0.0)

    def test_no_success_has_no_ttg(self):
        agg = aggregate(self._records(["collision", "timeout"]))
        assert agg.success_rate == 0.0
        assert (agg.mean_time_to_goal, agg.time_to_goal_ci95) == (None, None)

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            aggregate(self._records(["success"]))


class TestCompare:
    @staticmethod
    def specs(n_runs, *cells):
        return [BatchSpec(env=EnvSpec.by_id(1), method=method, n_runs=n_runs,
                          master_seed=seed) for method, seed in cells]

    def test_paired_scenarios_identical(self):
        out = compare_methods(self.specs(4, ("apf_mvortex", 11), ("apf_inverse", 11)))
        assert list(out) == ["apf_mvortex", "apf_inverse"]
        h1 = [r["scenario_hash"] for r in out["apf_mvortex"]]
        h2 = [r["scenario_hash"] for r in out["apf_inverse"]]
        assert h1 == h2

    def test_unpaired_seeds_rejected(self):
        with pytest.raises(RuntimeError, match="paired comparison broke"):
            compare_methods(self.specs(2, ("apf_mvortex", 11), ("apf_inverse", 12)))
