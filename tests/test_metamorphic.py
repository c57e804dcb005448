"""Exact metamorphic relations of the closed loop.

Each relation transforms a scene's input in a way that must not change
the run, runs the scene under every guidance method and compares the two
runs bit for bit: every recorded track, the outcomes, the end reason and
the CE/MCTE metrics.  The scenes are four canned ones and three Monte
Carlo draws.  Permuting the input agent list is checked in test_engine.py.

Removing a third-party vessel that never comes within R_safe + 1 of any
other vessel leaves every other track bit-identical, up to the step at
which the shorter run ends: that run's final row records the state but
carries the commands of the step before, so it is compared on its state
columns only.  It runs on three Monte Carlo draws under "all" termination,
two of which end sooner without the removed vessel.

The fork relation transforms the run instead: a deep copy of the world
taken at a step boundary, and the original, each resumed to the end, equal
the uninterrupted run.  A run is a value, with no state shared through
module caches or closures.
"""

import copy
import math
from dataclasses import replace

import pytest

from asvsim import scenarios
from asvsim.apf import StaticObstacle
from asvsim.engine import METHODS, ROW_LEN, World, run, track_rows
from asvsim.montecarlo import EnvSpec, child_rng, sample_scenario
from asvsim.serialize import CSV_COLUMNS

#: Monte Carlo draws by (environment id, run index) under master seed 7
DRAWN = {"env1_run0": (1, 0), "env1_run1": (1, 1), "env3_run0": (3, 0)}
SCENES = ("head_on", "crossing", "three_ship", "static_avoidance", *DRAWN)


def make_scene(scene, method):
    if scene in DRAWN:
        env_id, run_index = DRAWN[scene]
        return sample_scenario(EnvSpec.by_id(env_id), child_rng(7, run_index)).with_method(method)
    return getattr(scenarios, scene)(method)


@pytest.fixture(scope="module")
def original(model):
    """The untransformed run of a scene and method, made once per module."""
    runs = {}

    def get(scene, method):
        if (scene, method) not in runs:
            runs[scene, method] = run(make_scene(scene, method), model=model)
        return runs[scene, method]

    return get


def signature(result):
    return ([bytes(track) for track in result.tracks], result.outcomes, result.end_reason,
            [(a.ce, a.mcte, a.min_ship_distance) for a in result.agents])


#: the columns of a recorded track row: the trajectory CSV's, less the agent id
COLUMNS = tuple(c for c in CSV_COLUMNS if c != "agent_id")


def first_divergence(a, b):
    """(step, agent id, column) of the first recorded value in which two runs
    of one scene differ, earliest step first; None if every track agrees
    bit for bit.  A run that stops first differs in column "end"."""
    rows = [(agent.agent_id, list(track_rows(ta)), list(track_rows(tb)))
            for agent, ta, tb in zip(a.agents, a.tracks, b.tracks)]
    n_common = min(a.n_steps, b.n_steps) + 1
    for step in range(n_common):
        for agent_id, rows_a, rows_b in rows:
            for column, va, vb in zip(COLUMNS, rows_a[step], rows_b[step]):
                if repr(va) != repr(vb):
                    return step, agent_id, column
    if a.n_steps != b.n_steps:
        return n_common, rows[0][0], "end"
    return None


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scene", SCENES)
def test_far_static_obstacle_changes_nothing(model, original, scene, method):
    # a disc at (1e4, 1e4) never comes within the detection radius
    sc = make_scene(scene, method)
    far = StaticObstacle(center=(1e4, 1e4))
    base = original(scene, method)
    out = run(replace(sc, static_obstacles=[*sc.static_obstacles, far]), model=model)
    assert signature(out) == signature(base)
    # the disc is still measured: it is the nearest one only where it is alone
    for a, b in zip(base.agents, out.agents):
        if sc.static_obstacles:
            assert b.min_static_clearance == a.min_static_clearance
        else:
            assert a.min_static_clearance == math.inf
            assert 1e4 < b.min_static_clearance < math.inf


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scene", SCENES)
def test_order_keeping_relabel_changes_nothing(model, original, scene, method):
    sc = make_scene(scene, method)
    base = original(scene, method)
    out = run(replace(sc, agents=[replace(a, id=7 * a.id + 3) for a in sc.agents]),
              model=model)
    assert [b.agent_id for b in out.agents] == [7 * a.agent_id + 3 for a in base.agents]
    assert signature(out) == signature(base)


#: the isolated-vessel relation's draws: (environment id, run index under
#: master seed 7, id of the removed vessel)
ISOLATED = {"env1_run2": (1, 2, 2), "env1_run3": (1, 3, 1), "env2_run12": (2, 12, 3)}
#: state columns lead a track row: t, x, y, psi, u, v, r and delta
N_STATE = COLUMNS.index("delta_c_rad")


@pytest.mark.parametrize("draw", ISOLATED)
def test_removing_an_isolated_vessel_changes_no_other_track(model, draw):
    env_id, run_index, removed = ISOLATED[draw]
    sc = sample_scenario(EnvSpec.by_id(env_id), child_rng(7, run_index))
    sc = replace(sc.with_method("apf_mvortex"), config=replace(sc.config, termination="all"))
    base = run(sc, model=model)
    tracks = {a.agent_id: t for a, t in zip(base.agents, base.tracks)}
    rows = {aid: list(track_rows(t)) for aid, t in tracks.items()}
    gap = min(math.hypot(ra[1] - rb[1], ra[2] - rb[2])
              for aid in rows if aid != removed for ra, rb in zip(rows[removed], rows[aid]))
    assert gap > sc.config.R_safe + 1.0  # the draw still isolates the vessel
    out = run(replace(sc, agents=[a for a in sc.agents if a.id != removed]), model=model)
    assert [a.agent_id for a in out.agents] == [aid for aid in tracks if aid != removed]
    last = out.n_steps * ROW_LEN  # offset of the final row
    assert out.n_steps <= base.n_steps
    for agent, track in zip(out.agents, out.tracks):
        full = tracks[agent.agent_id]
        assert bytes(track[:last]) == bytes(full[:last]), agent.agent_id
        assert bytes(track[last:last + N_STATE]) == bytes(full[last:last + N_STATE])


#: the fork relation's scenes: two encounters that end at the goal, and one
#: (inverse-square, three ships) that ends in a collision
FORKED = [("head_on", "apf_mvortex"), ("three_ship", "apf_inverse"),
          ("narrow_channel", "apf_mvortex")]


@pytest.mark.parametrize("at", ["first", "mid", "last"])
@pytest.mark.parametrize("scene, method", FORKED)
def test_fork_and_resume_changes_nothing(model, original, scene, method, at):
    base = original(scene, method)
    k = {"first": 0, "mid": base.n_steps // 2, "last": base.n_steps}[at]
    world = World(make_scene(scene, method), model=model)
    for _ in range(k):
        world.step()
    fork = copy.deepcopy(world)
    for resumed in (world, fork):
        while resumed.step():
            pass
        out = resumed.result()
        assert signature(out) == signature(base), first_divergence(out, base)


def test_first_divergence_names_step_agent_and_column(model, original):
    base = original("head_on", "apf_mvortex")
    sc = make_scene("head_on", "apf_mvortex")
    # a heading 1e-9 rad off moves the give-way ship's heading at step 0
    nudged = replace(sc, agents=[sc.agents[0],
                                 replace(sc.agents[1], heading=sc.agents[1].heading + 1e-9)])
    assert first_divergence(run(nudged, model=model), base) == (0, 1, "psi_rad")
    # a run stopped after 10 steps agrees on its 11 rows, then ends
    world = World(sc, model=model)
    for _ in range(10):
        world.step()
    assert first_divergence(world.result(), base) == (11, 0, "end")
