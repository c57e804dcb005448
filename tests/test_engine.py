import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import asvsim
from asvsim import scenarios
from asvsim.apf import (
    FieldSingularity,
    ObstacleView,
    OwnShip,
    StaticObstacle,
    desired_heading_harmonic,
)
from asvsim.engine import (
    METHODS,
    AgentSpec,
    MODE_ILOS,
    MODE_REACTIVE,
    ROW_LEN,
    Scenario,
    SimConfig,
    SimulationError,
    World,
    run,
)
from asvsim.frames import wrap_angle
from asvsim.mmg import DELTA_MAX

DELTA_35 = math.radians(35.0)


@pytest.fixture(scope="module")
def head_on_result(model):
    return run(scenarios.head_on("apf_mvortex"), model=model, record=True)


class TestStep:
    def test_unperturbed_tracking_stays_ilos(self, model):
        agent = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0,
                          waypoints=((60.0, 0.0),))
        res = run(Scenario(agents=[agent]), model=model, record=True)
        rows = res.trajectories[0]
        assert all(r[10] == MODE_ILOS for r in rows)
        assert max(abs(r[3]) for r in rows) < math.radians(2.0)
        assert res.agents[0].outcome == "success"

    @pytest.mark.parametrize("method", METHODS)
    def test_mode_flips_at_detection_radius(self, model, method):
        # no guidance law sees an obstacle beyond R_safe: the vessel tracks
        # its path until the obstacle comes within the detection radius
        agent = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0,
                          waypoints=((60.0, 0.0),), method=method)
        sc = Scenario(agents=[agent],
                      static_obstacles=[StaticObstacle((30.0, 0.0), 0.5)])
        R_safe = sc.config.R_safe
        res = run(sc, model=model, record=True)
        rows = res.trajectories[0]
        first_reactive = next(r for r in rows if r[10] == MODE_REACTIVE)
        dist = math.hypot(30.0 - first_reactive[1], first_reactive[2])
        # crossing R_safe flips the mode within one control step
        assert dist <= R_safe
        prev = rows[rows.index(first_reactive) - 1]
        assert math.hypot(30.0 - prev[1], prev[2]) > R_safe - 0.15
        assert all(r[10] == MODE_ILOS for r in rows[:rows.index(first_reactive)])

    def test_vo_uses_the_configured_detection_radius(self, model):
        # a static obstacle dead ahead, detected at 20 L: VO's first reactive
        # heading already clears its cone instead of holding the goal bearing
        agent = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0,
                          waypoints=((60.0, 0.0),), method="velocity_obstacle")
        sc = Scenario(agents=[agent], static_obstacles=[StaticObstacle((40.0, 0.0), 0.5)],
                      config=SimConfig(R_safe=20.0))
        rows = run(sc, model=model, record=True).trajectories[0]
        first = next(r for r in rows if r[10] == MODE_REACTIVE)
        assert math.hypot(40.0 - first[1], first[2]) > 15.0
        goal_bearing = math.atan2(0.0 - first[2], 60.0 - first[1])
        assert abs(wrap_angle(first[9] - goal_bearing)) > math.radians(10.0)

    def test_mvortex_scales_by_the_configured_detection_radius(self, model):
        # the first reactive heading is the harmonic field with the vortex
        # scaled by SimConfig.R_safe (20 L), not by the 15 L default
        agent = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0,
                          waypoints=((60.0, 0.0),))
        obstacle = StaticObstacle((40.0, 0.0), 0.5)
        sc = Scenario(agents=[agent], static_obstacles=[obstacle],
                      config=SimConfig(R_safe=20.0))
        rows = run(sc, model=model, record=True).trajectories[0]
        first = next(r for r in rows if r[10] == MODE_REACTIVE)
        own = OwnShip(*first[1:6])
        view = ObstacleView(obstacle.center, (0.0, 0.0), obstacle.R_obs)

        def heading(R_safe):
            return wrap_angle(desired_heading_harmonic(
                own, (60.0, 0.0), [view], None, R_safe, True, own.psi))

        assert first[9] == heading(20.0) != heading(15.0)

    def test_nonpositive_detection_radius_rejected(self):
        with pytest.raises(ValueError, match="R_safe"):
            SimConfig(R_safe=0.0)

    def test_head_on_mirror_symmetry(self, model, head_on_result):
        rows_a, rows_b = head_on_result.trajectories
        for ra, rb in zip(rows_a, rows_b):
            assert rb[1] == pytest.approx(50.0 - ra[1], abs=1e-9)   # x
            assert rb[2] == pytest.approx(-ra[2], abs=1e-9)         # y
            assert wrap_angle(rb[3] - ra[3] - math.pi) == pytest.approx(0.0, abs=1e-9)
            assert rb[4] == pytest.approx(ra[4], abs=1e-9)          # u
            assert rb[7] == pytest.approx(ra[7], abs=1e-9)          # delta


class TestLargeStep:
    @pytest.mark.parametrize("scene, side", [("head_on", 1.0), ("narrow_channel", -1.0)])
    def test_rudder_clamped_before_runaway(self, model, scene, side):
        # above T_delta the first-order rudder lag overshoots its command,
        # so only the clamp after the rate step holds delta_max; the
        # integration then runs away within a few dozen steps
        sc = getattr(scenarios, scene)()
        world = World(replace(sc, config=SimConfig(dt=1.5)), model=model)
        with pytest.raises(SimulationError, match="surge runaway"):
            while world.step():
                pass
        deltas = [d for ag in world.agents for d in ag.rows[7::ROW_LEN]]
        deltas += [ag.delta for ag in world.agents]
        assert side * DELTA_MAX in deltas
        assert max(abs(d) for d in deltas) == DELTA_MAX

    @pytest.mark.parametrize("dt", [1e100, 1e150])
    def test_heading_overflow_is_non_finite_state(self, model, dt):
        # at these steps RK4's fourth stage gets psi = inf, and the
        # derivative's math.cos raises ValueError before the state is
        # tested; the run ends as any other non-finite state does
        sc = scenarios.head_on()
        world = World(replace(sc, config=SimConfig(dt=dt, max_time=10 * dt)), model=model)
        with pytest.raises(SimulationError, match=r"^non-finite state for agent 0 at t'=0.0$"):
            world.step()


class TestDeterminismAndInvariance:
    def test_bit_identical_repeat(self, model):
        r1 = run(scenarios.crossing("apf_mvortex"), model=model, record=True)
        r2 = run(scenarios.crossing("apf_mvortex"), model=model, record=True)
        assert r1.trajectories == r2.trajectories

    def test_agent_order_permutation_invariant(self, model):
        sc = scenarios.three_ship("apf_mvortex")
        shuffled = replace(sc, agents=[sc.agents[2], sc.agents[0], sc.agents[1]])
        r1 = run(sc, model=model, record=True)
        r2 = run(shuffled, model=model, record=True)
        assert r1.trajectories == r2.trajectories
        assert [a.agent_id for a in r1.agents] == [a.agent_id for a in r2.agents]

    def test_mirror_reflection_obstacle_free(self, model):
        # reflecting an obstacle-free scenario about the x-axis reflects
        # every trajectory exactly
        a = AgentSpec(id=0, start=(0, 0), heading=math.radians(20.0), speed=1.0,
                      waypoints=((40.0, 25.0), (10.0, 40.0)))
        sc = Scenario(agents=[a])
        mirrored = Scenario(agents=[AgentSpec(
            id=0, start=(0, 0), heading=-math.radians(20.0), speed=1.0,
            waypoints=((40.0, -25.0), (10.0, -40.0)))])
        r1 = run(sc, model=model, record=True)
        r2 = run(mirrored, model=model, record=True)
        for ra, rb in zip(r1.trajectories[0], r2.trajectories[0]):
            assert rb[1] == pytest.approx(ra[1], abs=1e-12)
            assert rb[2] == pytest.approx(-ra[2], abs=1e-12)
            assert rb[3] == pytest.approx(-ra[3], abs=1e-12)


class TestCollisionDetection:
    """The first step's distance observation, which opens every step."""

    def _first_step(self, model, scenario):
        world = World(scenario, model=model)
        return world, world.step()

    def _ships_with_gap(self, gap):
        a = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0, waypoints=((60, 0),))
        b = AgentSpec(id=1, start=(gap, 0), heading=0.0, speed=1.0, waypoints=((60, gap),))
        return Scenario(agents=[a, b])

    def test_below_threshold(self, model):
        world, stepped = self._first_step(model, self._ships_with_gap(1.99))
        assert not stepped
        assert world.collision_pair == ("0", "1")
        assert world.end_reason == "collision"
        # a run that ends before its first step still closes its metrics
        res = world.result()
        assert res.outcomes == ["collision", "collision"]
        assert [(a.ce, a.mcte) for a in res.agents] == [(0.0, 0.0), (0.0, 0.0)]
        assert run(self._ships_with_gap(1.99), model=model).n_steps == 0

    def test_exactly_at_threshold_is_safe(self, model):
        world, stepped = self._first_step(model, self._ships_with_gap(2.0))
        assert stepped
        assert world.collision_pair is None and world.end_reason is None

    def test_no_pairs(self, model):
        world, stepped = self._first_step(model, self._ships_with_gap(30.0))
        assert stepped
        assert world.collision_pair is None and world.end_reason is None

    def test_static_uses_clearance(self, model):
        # ship-static pairs compare the clearance (center distance minus the
        # obstacle radius) with the same strict threshold
        a = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0, waypoints=((60, 0),))
        for radius, pair in [(0.5, ("0", "static:0")), (0.4, None)]:
            sc = Scenario(agents=[a], static_obstacles=[StaticObstacle((2.4, 0.0), radius)])
            world, stepped = self._first_step(model, sc)
            assert world.collision_pair == pair
            assert stepped == (pair is None)

    def test_run_ends_on_collision(self, model):
        res = run(scenarios.head_on("apf_inverse"), model=model, record=False)
        assert res.end_reason == "collision"
        assert res.collision_pair == ("0", "1")
        assert res.outcomes == ["collision", "collision"]


def trapezoid_mean(rows, col):
    """Trapezoid integral of |rows[col]| over t, divided by the run's length."""
    acc = sum(0.5 * (abs(a[col]) + abs(b[col])) * (b[0] - a[0])
              for a, b in zip(rows, rows[1:]))
    return acc / (rows[-1][0] - rows[0][0])


class TestMetrics:
    """CE and MCTE as the engine accumulates them, against the recorded rows."""

    def _straight_run(self, model):
        agent = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0,
                          waypoints=((60.0, 0.0),))
        return run(Scenario(agents=[agent]), model=model, record=True).agents[0]

    def test_ce_saturated(self, model):
        # the goal lies astern: the rudder is driven hard over and held there
        agent = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0,
                          waypoints=((-60.0, 10.0),))
        res = run(Scenario(agents=[agent], config=SimConfig(max_time=10.0)),
                  model=model, record=True)
        ce = res.agents[0].ce
        assert ce == pytest.approx(trapezoid_mean(res.trajectories[0], 7) / DELTA_35,
                                   rel=1e-9)
        assert 0.85 < ce <= 1.0
        # the rudder state never exceeds its 35 deg saturation
        assert max(abs(r[7]) for r in res.trajectories[0]) <= DELTA_35

    def test_ce_zero(self, model):
        assert self._straight_run(model).ce == 0.0

    def test_mcte_matches_recorded_rows(self, model, head_on_result):
        for agent, rows in zip(head_on_result.agents, head_on_result.trajectories):
            assert agent.mcte > 0.0
            assert agent.mcte == pytest.approx(trapezoid_mean(rows, 11), rel=1e-9)
            assert agent.ce == pytest.approx(trapezoid_mean(rows, 7) / DELTA_35, rel=1e-9)

    def test_mcte_zero_on_path(self, model):
        assert self._straight_run(model).mcte == 0.0

    def test_integrals_start_at_the_first_row(self, model):
        # the first waypoint lies within R_tol of the start, so the ship
        # switches at t' = 0 onto a segment 1L away: no interval may be
        # integrated before the first recorded row
        agent = AgentSpec(id=0, start=(0, 0), heading=math.pi / 2, speed=1.0,
                          waypoints=((1.0, 0.0), (1.0, 40.0)))
        res = run(Scenario(agents=[agent], config=SimConfig(max_time=20.0)),
                  model=model, record=True)
        rows = res.trajectories[0]
        assert abs(rows[0][11]) == pytest.approx(1.0)
        assert res.agents[0].mcte == pytest.approx(trapezoid_mean(rows, 11), rel=1e-9)


class TestOutcomes:
    def test_all_success(self, model, head_on_result):
        assert head_on_result.outcomes == ["success", "success"]
        assert head_on_result.end_reason == "all_done"
        for a in head_on_result.agents:
            assert a.time_to_goal is not None

    def test_timeout(self, model):
        agent = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0,
                          waypoints=((300.0, 0.0),))
        sc = Scenario(agents=[agent], config=SimConfig(max_time=10.0))
        res = run(sc, model=model, record=False)
        assert res.end_reason == "timeout"
        assert res.outcomes == ["timeout"]

    def test_step_after_end_is_a_no_op(self, model):
        world = World(scenarios.head_on(), model=model, record=False)
        while world.step():
            pass
        t, n = world.t, world.step_index
        assert world.step() is False
        assert (world.t, world.step_index, world.end_reason) == (t, n, "all_done")

    def test_mid_run_result_ends_the_run(self, model):
        # a result taken mid-run closes the run: no step follows it, and the
        # tracks end with the row of the state it reports
        world = World(scenarios.head_on(), model=model)
        for _ in range(3):
            assert world.step()
        first = world.result()
        assert world.step() is False
        assert world.end_reason == "running"
        assert world.result() == first
        assert [len(t) for t in first.tracks] == [(3 + 1) * ROW_LEN] * 2

    def test_own_termination_ignores_third_party_collision(self, model):
        # agents 1 and 2 collide head-on with the weak method while the own
        # ship sails clear far away; under "own" termination the run carries
        # on and the own ship still succeeds
        own = AgentSpec(id=0, start=(0.0, 200.0), heading=0.0, speed=1.0,
                        waypoints=((60.0, 200.0),), method="apf_mvortex")
        a = AgentSpec(id=1, start=(0.0, 0.0), heading=0.0, speed=1.0,
                      waypoints=((50.0, 0.0),), method="apf_inverse")
        b = AgentSpec(id=2, start=(50.0, 0.0), heading=math.pi, speed=1.0,
                      waypoints=((0.0, 0.0),), method="apf_inverse")
        sc = Scenario(agents=[own, a, b], config=SimConfig(termination="own"))
        res = run(sc, model=model, record=False)
        assert res.agents[0].outcome == "success"
        assert res.agents[1].outcome == "collision"
        assert res.agents[2].outcome == "collision"
        assert res.end_reason == "own_done"

    def test_own_termination_stops_on_own_collision(self, model):
        sc = replace(scenarios.head_on("apf_inverse"),
                     config=SimConfig(termination="own"))
        res = run(sc, model=model, record=False)
        assert res.end_reason == "collision"
        assert res.agents[0].outcome == "collision"


def _coincident_third_parties(method):
    # agents 1 and 2 start on the same spot, inside each other's detection
    # radius, while the own ship sails clear
    own = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=1.0,
                    waypoints=((60.0, 0.0),), method=method)
    twins = [AgentSpec(id=i, start=(0.0, 40.0), heading=0.0, speed=1.0,
                       waypoints=((60.0, 40.0),), method=method) for i in (1, 2)]
    return Scenario(agents=[own, *twins], config=SimConfig(termination="own"))


class TestEncounterClassification:
    def test_law_without_classes_never_classifies(self, model):
        # VO reads no encounter class, so coincident targets are never
        # classified (which would raise at the undefined bearing)
        res = run(_coincident_third_parties("velocity_obstacle"), model=model, record=False)
        assert res.end_reason == "own_done"
        assert res.outcomes == ["success", "collision", "collision"]

    @pytest.mark.parametrize("method, message", [
        ("apf_mvortex", "coincident vessel and obstacle positions"),
        ("apf_sinkvortex", "vortex evaluated at its center"),
        ("apf_inverse", "vessel inside obstacle disc"),
    ])
    def test_field_laws_keep_their_own_singularity(self, model, method, message):
        with pytest.raises(FieldSingularity, match=message):
            run(_coincident_third_parties(method), model=model, record=False)


class TestRecording:
    def test_tracks_hold_every_step_once(self, model):
        world = World(scenarios.head_on(), model=model)
        while world.step():
            pass
        first, second = world.result(), world.result()
        assert first == second
        assert [len(t) for t in first.tracks] == [(first.n_steps + 1) * ROW_LEN] * 2
        assert len(first.trajectories[0]) == first.n_steps + 1

    def test_recorded_rows_stay_compact(self, model):
        res = run(scenarios.three_ship(), model=model, record=True)
        rows = (res.n_steps + 1) * len(res.agents)
        assert sum(sys.getsizeof(t) for t in res.tracks) <= 110 * rows

    def test_unrecorded_run_has_no_rows(self, model):
        res = run(scenarios.head_on(), model=model, record=False)
        assert res.tracks is None
        assert res.trajectories is None


class TestScenarioValidation:
    def test_duplicate_ids_rejected(self):
        a = AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0, waypoints=((10, 0),))
        with pytest.raises(ValueError):
            Scenario(agents=[a, a])

    def test_method_validated(self):
        with pytest.raises(ValueError):
            AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0,
                      waypoints=((10, 0),), method="nonsense")

    def test_speed_validated(self):
        with pytest.raises(ValueError):
            AgentSpec(id=0, start=(0, 0), heading=0.0, speed=0.0, waypoints=((10, 0),))

    @pytest.mark.parametrize("build, message", [
        (lambda: SimConfig(termination="x"), "termination must be 'all' or 'own'"),
        (lambda: AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.0, waypoints=()),
         "agent needs at least one waypoint"),
        (lambda: AgentSpec(id=0, start=(0, 0), heading=0.0, speed=1.3, waypoints=((10, 0),)),
         r"assigned speed must be in \(0, 1.2\]"),
        (lambda: AgentSpec(id=0, start=(0, 0), heading=0.0, speed=0.0, waypoints=((10, 0),)),
         r"assigned speed must be in \(0, 1.2\]"),
        (lambda: AgentSpec(id=0, start=(1, 1), heading=0.0, speed=1.0, waypoints=((1, 1),)),
         "consecutive waypoints must not coincide"),
    ], ids=["termination", "no_waypoints", "speed_above_range",
            "speed_zero", "start_on_waypoint"])
    def test_invalid_spec_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_with_method_override(self):
        sc = scenarios.head_on("apf_mvortex").with_method("velocity_obstacle")
        assert all(a.method == "velocity_obstacle" for a in sc.agents)


def _run_in_fresh_interpreter(code: str) -> None:
    src = os.path.dirname(os.path.dirname(asvsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_simulation_path_imports_without_numpy():
    # no part of the package needs numpy: simulation, scenario files, the
    # Monte Carlo harness, the plots and the CLI
    _run_in_fresh_interpreter(
        "import sys, asvsim.engine, asvsim.scenarios, asvsim.serialize, "
        "asvsim.montecarlo, asvsim.cli, asvsim.plots; "
        "assert 'numpy' not in sys.modules, 'numpy imported'")


@pytest.mark.parametrize("module", ["multiprocessing", "statistics", "csv"])
def test_serial_batch_does_not_load(module):
    # only a parallel batch (jobs > 1) loads multiprocessing, only aggregation
    # loads statistics and only reading a trajectory file loads csv
    _run_in_fresh_interpreter(
        "import sys, asvsim.montecarlo as mc, asvsim.serialize, asvsim.cli; "
        f"assert {module!r} not in sys.modules, 'imported with the package'; "
        "mc.run_batch(mc.BatchSpec(env=mc.EnvSpec.by_id(1), method='apf_mvortex', "
        "n_runs=2, master_seed=0)); "
        f"assert {module!r} not in sys.modules, 'imported by a serial batch'")
