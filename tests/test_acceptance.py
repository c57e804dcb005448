"""Acceptance suite: one test per criterion, each printing a PASS line.

The statistical criteria (10, 11) are deterministic for the pinned master
seed, so reruns reproduce identical numbers.  Criterion 10 is the long one
(2000 simulations); it is marked `slow` but runs in the default suite.
"""

import json
import math
import time

import numpy as np
import pytest

from asvsim import apf, scenarios
from asvsim.apf import HarmonicParams, InverseSquareParams, ObstacleView
from asvsim.cli import main
from asvsim.engine import MODE_REACTIVE, World, run
from asvsim.frames import wrap_angle
from asvsim.montecarlo import BatchSpec, EnvSpec, aggregate, run_batch
from asvsim.serialize import dumps_canonical, scenario_to_dict

TWO_PI = 2.0 * math.pi
MASTER_SEED = 7
ACCEPTANCE_RUNS = 200


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def peak_heading_change(rows):
    base = rows[0][3]
    return max(abs(wrap_angle(r[3] - base)) for r in rows)


def first_reactive_rudder(rows):
    row = next(r for r in rows if r[10] == MODE_REACTIVE)
    return row[8]


# ---------------------------------------------------------------------------
def test_criterion_01_harmonicity():
    """Numerical Laplacian of the sink and vortex potentials < 1e-5.

    The 5-point stencil at h=1e-3 carries a truncation error of about
    h^2 * |strength/(2 pi)| * 12 / r^4, so the 1e-5 bound resolves at
    strength magnitude 10; harmonicity itself is independent of the linear
    strength factor, and the shipped sink strength (-100) is verified by
    the equivalent scaled bound.
    """
    t0 = time.time()
    h = 1e-3
    rng = np.random.default_rng(MASTER_SEED)

    def laplacian(f, x, y):
        return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
                - 4.0 * f(x, y)) / (h * h)

    def sink(strength):
        return lambda x, y: (strength / TWO_PI) * math.log(math.hypot(x, y))

    def vortex(strength):
        return lambda x, y: (strength / TWO_PI) * math.atan2(y, x)

    worst = 0.0
    for _ in range(100):
        r = rng.uniform(1.0, 20.0)
        th = rng.uniform(0.05, math.pi - 0.05)  # clear of the atan2 branch cut
        x, y = r * math.cos(th), r * math.sin(th)
        worst = max(worst,
                    abs(laplacian(sink(-10.0), x, y)),
                    abs(laplacian(vortex(-10.0), x, y)),
                    abs(laplacian(sink(-100.0), x, y)) / 10.0)
        assert abs(laplacian(sink(-10.0), x, y)) < 1e-5
        assert abs(laplacian(vortex(-10.0), x, y)) < 1e-5
        assert abs(laplacian(sink(-100.0), x, y)) / 10.0 < 1e-5
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"harmonicity: max |Laplacian| {worst:.2e} < 1e-5 at 100 points "
              f"({elapsed:.2f} s)")


def test_criterion_02_gradient_oracle():
    """Analytic inverse-square gradient vs central finite differences."""
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    p = InverseSquareParams()
    h = 1e-5

    def potential(pos, goal, obstacles):
        phi = 0.5 * p.k_att * ((pos[0] - goal[0]) ** 2 + (pos[1] - goal[1]) ** 2)
        for ob in obstacles:
            rho = math.hypot(pos[0] - ob.position[0], pos[1] - ob.position[1]) - ob.radius
            if rho <= p.d0:
                phi += p.k_rep * (1.0 / rho - 1.0 / p.d0) ** 2
        return phi

    checked = 0
    worst = 0.0
    while checked < 50:
        goal = tuple(rng.uniform(-30, 30, 2))
        obstacles = [ObstacleView(position=tuple(rng.uniform(-30, 30, 2)),
                                  velocity_global=(0.0, 0.0), radius=0.5)
                     for _ in range(int(rng.integers(1, 4)))]
        pos = tuple(rng.uniform(-30, 30, 2))
        if any(math.hypot(pos[0] - o.position[0], pos[1] - o.position[1]) - o.radius < 1.0
               for o in obstacles):
            continue
        if math.hypot(pos[0] - goal[0], pos[1] - goal[1]) < 2.0:
            continue
        ga = apf.inverse_square_gradient(pos, goal, obstacles, p)
        gf = (-(potential((pos[0] + h, pos[1]), goal, obstacles)
                - potential((pos[0] - h, pos[1]), goal, obstacles)) / (2 * h),
              -(potential((pos[0], pos[1] + h), goal, obstacles)
                - potential((pos[0], pos[1] - h), goal, obstacles)) / (2 * h))
        rel = (math.hypot(ga[0] - gf[0], ga[1] - gf[1])
               / max(math.hypot(*ga), math.hypot(*gf)))
        worst = max(worst, rel)
        assert rel < 1e-5
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, f"gradient oracle: worst relative error {worst:.2e} < 1e-5 "
              f"on 50 scenes ({elapsed:.2f} s)")


def test_criterion_03_waypoint_tracking(model):
    t0 = time.time()
    res = run(scenarios.square_tracking(), model=model, record=True)
    own = res.agents[0]
    assert own.outcome == "success"
    assert own.waypoints_reached == 4
    assert 0.06 <= own.ce <= 0.24
    assert 0.13 <= own.mcte <= 0.53
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(3, f"square tracking: 4 waypoints, CE={own.ce:.4f} in [0.06, 0.24], "
              f"MCTE={own.mcte:.4f} in [0.13, 0.53] ({elapsed:.1f} s)")


def test_criterion_04_static_avoidance_contrast(model):
    t0 = time.time()
    res_inv = run(scenarios.static_avoidance("apf_inverse"), model=model, record=False)
    res_sv = run(scenarios.static_avoidance("apf_sinkvortex"), model=model, record=False)
    inv, sv = res_inv.agents[0], res_sv.agents[0]
    assert inv.outcome == "success" and sv.outcome == "success"
    assert inv.min_static_clearance >= 2.0
    assert sv.min_static_clearance >= 2.0
    assert sv.ce < inv.ce
    assert sv.min_static_clearance > inv.min_static_clearance
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(4, f"static avoidance: CE {sv.ce:.4f} (sink-vortex) < {inv.ce:.4f} "
              f"(inverse); clearance {sv.min_static_clearance:.2f} > "
              f"{inv.min_static_clearance:.2f} >= 2L ({elapsed:.1f} s)")


def test_criterion_05_inverse_square_failure(model):
    t0 = time.time()
    res = run(scenarios.static_avoidance("apf_inverse", goal_x=60.0),
              model=model, record=False)
    assert res.end_reason == "collision"
    assert res.agents[0].outcome == "collision"
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(5, f"inverse-square failure: goal at 60L reproduces the collision "
              f"(min clearance {res.agents[0].min_static_clearance:.2f}L, "
              f"{elapsed:.1f} s)")


def test_criterion_06_colregs_suite(model):
    t0 = time.time()
    # Rule 14: head-on
    res = run(scenarios.head_on("apf_mvortex"), model=model, record=True)
    assert res.outcomes == ["success", "success"]
    sep_ho = res.agents[0].min_ship_distance
    assert 4.0 <= sep_ho <= 8.0
    rud_a = first_reactive_rudder(res.trajectories[0])
    rud_b = first_reactive_rudder(res.trajectories[1])
    assert rud_a > 0.0 and rud_b > 0.0  # positive rudder = starboard turn

    # Rule 15: crossing
    res = run(scenarios.crossing("apf_mvortex"), model=model, record=True)
    assert res.outcomes == ["success", "success"]
    sep_cr = res.agents[0].min_ship_distance
    assert 4.0 <= sep_cr <= 8.0
    assert first_reactive_rudder(res.trajectories[0]) > 0.0  # give-way: starboard
    standon_peak = peak_heading_change(res.trajectories[1])
    assert standon_peak < math.radians(10.0)

    # Rule 13: overtaking, with the overtaken vessel's vortex logged per step
    world = World(scenarios.overtaking("apf_mvortex"), model=model, record=False)
    hp = world.scenario.harmonic_params
    max_overtaken_K = 0.0
    while world.step():
        a, b = world.agents
        if math.hypot(a.x - b.x, a.y - b.y) <= world.cfg.R_safe:
            view = ObstacleView(
                position=(a.x, a.y),
                velocity_global=(math.cos(a.psi) * a.u - math.sin(a.psi) * a.v,
                                 math.sin(a.psi) * a.u + math.cos(a.psi) * a.v),
                encounter_class=b.encounters.get(0, apf.ENCOUNTER_ACTIVE))
            K = apf.modified_vortex_strength(b, view, hp, world.cfg.R_safe)
            max_overtaken_K = max(max_overtaken_K, abs(K))
    res = world.result()
    assert res.outcomes == ["success", "success"]
    sep_ot = res.agents[0].min_ship_distance
    assert 6.0 <= sep_ot <= 10.0
    assert max_overtaken_K == 0.0

    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(6, f"COLREGS suite: head-on {sep_ho:.2f}L (both starboard), crossing "
              f"{sep_cr:.2f}L (stand-on peak {math.degrees(standon_peak):.2f} deg), "
              f"overtaking {sep_ot:.2f}L (overtaken vortex = 0) ({elapsed:.1f} s)")


def test_criterion_07_inverse_square_head_on(model):
    t0 = time.time()
    res = run(scenarios.head_on("apf_inverse"), model=model, record=False)
    assert res.end_reason == "collision"
    assert res.outcomes == ["collision", "collision"]
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(7, f"inverse-square head-on: separation fell to "
              f"{res.agents[0].min_ship_distance:.2f}L < 2L ({elapsed:.1f} s)")


def test_criterion_08_three_ship(model):
    t0 = time.time()
    res = run(scenarios.three_ship("apf_mvortex"), model=model, record=False)
    assert res.outcomes == ["success", "success", "success"]
    min_sep = min(a.min_ship_distance for a in res.agents)
    assert 4.0 <= min_sep <= 8.0
    res_inv = run(scenarios.three_ship("apf_inverse"), model=model, record=False)
    assert "collision" in res_inv.outcomes
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(8, f"three-ship: mvortex all succeed at min {min_sep:.2f}L; "
              f"inverse-square collides ({elapsed:.1f} s)")


def test_criterion_09_narrow_channel(model):
    t0 = time.time()
    sc = scenarios.narrow_channel("apf_mvortex")
    res = run(sc, model=model, record=True)
    assert res.outcomes == ["success", "success"]
    min_sep = res.agents[0].min_ship_distance
    assert min_sep >= 2.0
    min_wall = math.inf
    for rows in res.trajectories:
        for r in rows:
            assert sc.channel.contains((r[1], r[2]))
            da, db = sc.channel.signed_offsets((r[1], r[2]))
            min_wall = min(min_wall, da, db)
    assert min_wall > 0.0
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(9, f"narrow channel: success at min separation {min_sep:.2f}L >= 2L, "
              f"hulls stayed {min_wall:.2f}L inside the walls ({elapsed:.1f} s)")


@pytest.mark.slow
def test_criterion_10_monte_carlo_desk_scale():
    t0 = time.time()
    cells = [(1, "apf_mvortex")] + [(e, m) for e in (3, 4, 5)
                                    for m in ("apf_mvortex", "apf_inverse",
                                              "velocity_obstacle")]
    stats = {}
    for env_id, method in cells:
        spec = BatchSpec(env=EnvSpec.by_id(env_id), method=method,
                         n_runs=ACCEPTANCE_RUNS, master_seed=MASTER_SEED, jobs=2)
        stats[(env_id, method)] = aggregate(run_batch(spec))

    s = lambda e, m: stats[(e, m)].success_rate
    pooled = lambda m, key: sum(getattr(stats[(e, m)], key) for e in (3, 4, 5)) / 3.0

    assert s(1, "apf_mvortex") >= 0.97
    assert s(5, "apf_mvortex") >= 0.93
    for e in (3, 4, 5):
        assert s(e, "apf_mvortex") > s(e, "apf_inverse")
        assert s(e, "apf_mvortex") > s(e, "velocity_obstacle")
    ce_vo = pooled("velocity_obstacle", "mean_ce")
    ce_mv = pooled("apf_mvortex", "mean_ce")
    ce_inv = pooled("apf_inverse", "mean_ce")
    assert ce_vo < ce_mv < ce_inv
    mcte_vo = pooled("velocity_obstacle", "mean_mcte")
    mcte_mv = pooled("apf_mvortex", "mean_mcte")
    assert mcte_vo > mcte_mv
    us_vo = pooled("velocity_obstacle", "mean_guidance_call_us")
    us_mv = pooled("apf_mvortex", "mean_guidance_call_us")
    us_inv = pooled("apf_inverse", "mean_guidance_call_us")
    assert us_mv < us_vo and us_inv < us_vo
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    report(10, f"Monte Carlo ({ACCEPTANCE_RUNS} runs/cell, seed {MASTER_SEED}): "
               f"mvortex env1 {s(1, 'apf_mvortex'):.3f} >= 0.97, "
               f"env5 {s(5, 'apf_mvortex'):.3f} >= 0.93; mvortex beats inverse/vo "
               f"in envs 3-5; CE {ce_vo:.3f} < {ce_mv:.3f} < {ce_inv:.3f}; "
               f"MCTE vo {mcte_vo:.2f} > mvortex {mcte_mv:.2f}; guidance "
               f"apf {us_mv:.1f}/{us_inv:.1f} us < vo {us_vo:.1f} us "
               f"({elapsed / 60.0:.1f} min)")


@pytest.mark.slow
def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    scen_path = tmp_path / "head_on.json"
    scen_path.write_text(dumps_canonical(scenario_to_dict(scenarios.head_on())))
    for sub in ("r1", "r2"):
        assert main(["simulate", "--scenario", str(scen_path),
                     "--out", str(tmp_path / sub)]) == 0
    csv1 = (tmp_path / "r1" / "trajectory.csv").read_bytes()
    csv2 = (tmp_path / "r2" / "trajectory.csv").read_bytes()
    assert csv1 == csv2

    for jobs, sub in ((1, "j1"), (8, "j8")):
        assert main(["batch", "--env", "1", "--method", "mvortex",
                     "--runs", "12", "--seed", str(MASTER_SEED),
                     "--jobs", str(jobs), "--out", str(tmp_path / sub)]) == 0
    s1 = (tmp_path / "j1" / "summary.json").read_bytes()
    s8 = (tmp_path / "j8" / "summary.json").read_bytes()
    assert s1 == s8
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(11, f"determinism: trajectory CSVs byte-identical across reruns; "
               f"batch summaries byte-identical for jobs 1 vs 8 ({elapsed:.1f} s)")
