"""Exact metamorphic relations of the closed loop.

Each relation transforms a scene's input in a way that must not change
the run, runs the scene under every guidance method and compares the two
runs bit for bit: every recorded track, the outcomes, the end reason and
the CE/MCTE metrics.  The scenes are four canned ones and three Monte
Carlo draws.  Permuting the input agent list is checked in test_engine.py.
"""

import math
from dataclasses import replace

import pytest

from asvsim import scenarios
from asvsim.apf import StaticObstacle
from asvsim.engine import METHODS, run
from asvsim.montecarlo import EnvSpec, child_rng, sample_scenario

#: Monte Carlo draws by (environment id, run index) under master seed 7
DRAWN = {"env1_run0": (1, 0), "env1_run1": (1, 1), "env3_run0": (3, 0)}
SCENES = ("head_on", "crossing", "three_ship", "static_avoidance", *DRAWN)


def make_scene(scene, method):
    if scene in DRAWN:
        env_id, run_index = DRAWN[scene]
        return sample_scenario(EnvSpec.by_id(env_id), child_rng(7, run_index), method=method)
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
