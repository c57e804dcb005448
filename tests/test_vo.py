import math

import pytest
from hypothesis import given, settings, strategies as st

from asvsim.apf import FieldSingularity, ObstacleView
from asvsim.vo import (
    HEADING_RESOLUTION,
    MAX_COURSE_CHANGE,
    VOParams,
    collision_cone,
    heading_admissible,
    vo_desired_heading,
)


def view(pos, vel=(0.0, 0.0), radius=0.0):
    """An obstacle as the engine hands it to VO."""
    return ObstacleView(pos, vel, radius)


class TestCollisionCone:
    def test_half_angle(self):
        cone = collision_cone((0, 0), (10, 0), (0, 0), 2.0)
        assert math.degrees(math.acos(cone.cos_half_angle)) == pytest.approx(11.537, abs=1e-3)

    def test_direct_course_forbidden(self):
        cone = collision_cone((0, 0), (10, 0), (0.0, 0.0), 2.0)
        assert cone.forbids((1.0, 0.0))

    def test_perpendicular_course_allowed(self):
        cone = collision_cone((0, 0), (10, 0), (0.0, 0.0), 2.0)
        assert not cone.forbids((0.0, 1.0))

    def test_moving_target_apex_shift(self):
        # matching the target's velocity exactly can never collide
        cone = collision_cone((0, 0), (10, 0), (0.5, 0.5), 2.0)
        assert not cone.forbids((0.5, 0.5))

    def test_overlap_forbids_everything(self):
        # a target inside the cone radius has no cone: every course is refused
        assert collision_cone((0, 0), (1.0, 0), (0, 0), 2.0) is None
        targets = [view((1.0, 0.0))]
        for k in range(8):
            assert not heading_admissible((0, 0), 1.0, k * math.pi / 4, targets, VOParams(2.0))


class TestDesiredHeading:
    def test_no_targets_returns_goal_bearing(self):
        p = VOParams()
        out = vo_desired_heading((0, 0), 1.0, (10, 10), [], p)
        assert out == pytest.approx(math.pi / 4)

    def test_head_on_deviation_matches_cone_clearance(self):
        # static target dead ahead: the deviation must clear the cone
        # half-angle within one resolution step
        p = VOParams(cone_radius=2.0)
        sep = 10.0
        out = vo_desired_heading((0, 0), 1.0, (30, 0), [view((sep, 0.0))], p)
        half = math.asin(p.cone_radius / sep)
        assert abs(out) == pytest.approx(half, abs=HEADING_RESOLUTION + 1e-9)

    def test_starboard_preferred_on_tie(self):
        p = VOParams(cone_radius=2.0)
        out = vo_desired_heading((0, 0), 1.0, (30, 0), [view((10.0, 0.0))], p)
        assert out > 0.0

    def test_deviation_bounded(self):
        # the search turns at most MAX_COURSE_CHANGE (90 degrees) off the goal bearing
        p = VOParams(cone_radius=6.0)
        targets = [view((6.5, 0.0)), view((8.0, 3.0)), view((8.0, -3.0))]
        out = vo_desired_heading((0, 0), 1.0, (30, 0), targets, p)
        assert abs(out) <= math.radians(90.0) + 1e-12

    def test_solution_outside_cone(self):
        p = VOParams(cone_radius=2.0)
        targets = [view((10.0, 1.0))]
        out = vo_desired_heading((0, 0), 1.0, (30, 0), targets, p)
        w = (math.cos(out), math.sin(out))
        cone = collision_cone((0, 0), (10.0, 1.0), (0.0, 0.0), 2.0)
        assert not cone.forbids(w)

    def test_deterministic(self):
        p = VOParams()
        targets = [view((12.0, 2.0), (-0.7, 0.1)), view((9.0, -4.0), (0.2, 0.6), 0.5)]
        outs = {vo_desired_heading((0, 0), 1.0, (30, 5), targets, p) for _ in range(5)}
        assert len(outs) == 1

    def test_requires_positive_speed(self):
        # zero own speed is the constant-speed search's singular point; a
        # batch records a FieldSingularity as an `error` run
        with pytest.raises(FieldSingularity):
            vo_desired_heading((0, 0), 0.0, (10, 0), [], VOParams())


class TestHeadingAdmissible:
    def test_consistent_with_search(self):
        p = VOParams(cone_radius=2.0)
        targets = [view((10.0, 0.0))]
        chosen = vo_desired_heading((0, 0), 1.0, (30, 0), targets, p)
        assert heading_admissible((0, 0), 1.0, chosen, targets, p)
        assert not heading_admissible((0, 0), 1.0, 0.0, targets, p)


# ---------------------------------------------------------------------------
# equivalence with a plain reference search


def reference_cones(own_pos, targets, p):
    return [collision_cone(own_pos, t.position, t.velocity_global, p.cone_radius + t.radius)
            for t in targets]


def reference_violations(cones, speed, heading):
    w = (speed * math.cos(heading), speed * math.sin(heading))
    return sum(1 for cone in cones if cone is None or cone.forbids(w))


def reference_search(own_pos, speed, goal, targets, p):
    """Count every cone for every candidate; first zero, else first fewest."""
    goal_bearing = math.atan2(goal[1] - own_pos[1], goal[0] - own_pos[0])
    cones = reference_cones(own_pos, targets, p)
    if not cones:
        return goal_bearing
    n_steps = int(round(MAX_COURSE_CHANGE / HEADING_RESOLUTION))
    best_heading, best_violations = goal_bearing, None
    for i in range(n_steps + 1):
        offsets = (i * HEADING_RESOLUTION,) if i == 0 else (
            i * HEADING_RESOLUTION, -i * HEADING_RESOLUTION)
        for off in offsets:
            heading = goal_bearing + off
            violations = reference_violations(cones, speed, heading)
            if violations == 0:
                return heading
            if best_violations is None or violations < best_violations:
                best_violations, best_heading = violations, heading
    return best_heading


def reference_admissible(own_pos, speed, heading, targets, p):
    return reference_violations(reference_cones(own_pos, targets, p), speed, heading) == 0


coord = st.floats(-16.0, 16.0)
target = st.builds(view, st.tuples(coord, coord),
                   st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)),
                   st.sampled_from([0.0, 0.5]))
params = st.builds(VOParams, cone_radius=st.floats(1.0, 8.0))


@st.composite
def scenes(draw):
    """Own ship at the origin heading for a goal on the +x axis.  Targets are
    random (targets within the combined radius give no cone and forbid all,
    crowds force the fewest-violations fallback); mirroring them about the
    goal line makes every +i/-i candidate pair tie, so the starboard
    tie-break decides."""
    targets = draw(st.lists(target, max_size=8))
    if draw(st.booleans()):
        targets += [view((t.position[0], -t.position[1]),
                         (t.velocity_global[0], -t.velocity_global[1]), t.radius)
                    for t in targets]
    return (draw(st.floats(0.1, 1.2)), (draw(st.floats(20.0, 60.0)), 0.0), targets,
            draw(params))


class TestMatchesReference:
    @given(scene=scenes(), heading=st.floats(-math.pi, math.pi))
    @settings(max_examples=300, deadline=None)
    def test_search_and_admissibility_match_reference(self, scene, heading):
        speed, goal, targets, p = scene
        chosen = vo_desired_heading((0.0, 0.0), speed, goal, targets, p)
        assert chosen == reference_search((0.0, 0.0), speed, goal, targets, p)
        for h in (heading, chosen):
            assert (heading_admissible((0.0, 0.0), speed, h, targets, p)
                    == reference_admissible((0.0, 0.0), speed, h, targets, p))

    def test_whole_plane_cones_with_fallback(self):
        # two hulls inside the cone radius forbid everything; a third cone
        # ahead leaves the fallback to the first candidate clear of it
        p = VOParams(cone_radius=2.0)
        targets = [view((1.0, 0.5)), view((-1.0, -1.0), (0.3, 0.0)), view((10.0, 0.0))]
        cones = reference_cones((0.0, 0.0), targets, p)
        assert cones.count(None) == 2
        chosen = vo_desired_heading((0.0, 0.0), 1.0, (30.0, 0.0), targets, p)
        assert chosen == reference_search((0.0, 0.0), 1.0, (30.0, 0.0), targets, p)
        assert reference_violations(cones, 1.0, chosen) == 2
        assert reference_violations(cones, 1.0, 0.0) == 3
        assert chosen > 0.0  # the starboard side of the tie

    def test_fewest_violations_fallback_without_whole_plane(self):
        # a ring of moving targets leaves no clear candidate
        p = VOParams(cone_radius=4.0)
        targets = [view((10.0 * math.cos(a), 10.0 * math.sin(a)),
                        (-0.6 * math.cos(a), -0.6 * math.sin(a)))
                   for a in [math.radians(d) for d in range(-90, 91, 30)]]
        cones = reference_cones((0.0, 0.0), targets, p)
        assert None not in cones
        chosen = vo_desired_heading((0.0, 0.0), 1.0, (30.0, 0.0), targets, p)
        assert chosen == reference_search((0.0, 0.0), 1.0, (30.0, 0.0), targets, p)
        assert reference_violations(cones, 1.0, chosen) > 0
