import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asvsim.apf import (
    D0,
    ENCOUNTER_ACTIVE,
    ENCOUNTER_OVERTAKEN,
    ENCOUNTER_STAND_ON,
    ChannelBoundary,
    FieldSingularity,
    K_ATT,
    K_REP,
    K_VOR0,
    LAMBDA_SINK,
    ObstacleView,
    OwnShip,
    StaticObstacle,
    bearing_gamma,
    boundary_source_velocity,
    classify_encounter,
    desired_heading_harmonic,
    desired_heading_inverse_square,
    inverse_square_gradient,
    modified_vortex_strength,
    radial_tangential,
    sink_velocity,
    vortex_scale_factor,
    vortex_velocity,
)
from asvsim.engine import SimConfig

TWO_PI = 2.0 * math.pi
R_SAFE = SimConfig.R_safe


def own_state(x=0.0, y=0.0, psi=0.0, u=1.0, v=0.0):
    return OwnShip(x, y, psi, u, v)


def dynamic_view(pos, vel, encounter=ENCOUNTER_ACTIVE):
    return ObstacleView(position=pos, velocity_global=vel, encounter_class=encounter)


def static_view(pos, radius=0.5):
    return ObstacleView(position=pos, velocity_global=(0.0, 0.0), radius=radius)


def potential(pos, goal, obstacles):
    """Test-local potential; the gradient implementation is checked against
    finite differences of this function."""
    phi = 0.5 * K_ATT * ((pos[0] - goal[0]) ** 2 + (pos[1] - goal[1]) ** 2)
    for ob in obstacles:
        rho = math.hypot(pos[0] - ob.position[0], pos[1] - ob.position[1]) - ob.radius
        if rho <= D0:
            phi += K_REP * (1.0 / rho - 1.0 / D0) ** 2
    return phi


def fd_gradient(pos, goal, obstacles, h=1e-5):
    gx = (potential((pos[0] + h, pos[1]), goal, obstacles)
          - potential((pos[0] - h, pos[1]), goal, obstacles)) / (2 * h)
    gy = (potential((pos[0], pos[1] + h), goal, obstacles)
          - potential((pos[0], pos[1] - h), goal, obstacles)) / (2 * h)
    return (-gx, -gy)


@pytest.mark.parametrize("build", [
    lambda: StaticObstacle(center=(0.0, 0.0), R_obs=0.0),
    lambda: StaticObstacle(center=(0.0, 0.0), R_obs=math.nan),
    lambda: StaticObstacle(center=(0.0, 0.0), R_obs=math.inf),
], ids=["static_radius_zero", "static_radius_nan", "static_radius_inf"])
def test_invalid_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestInverseSquareGradient:
    def test_zero_at_goal_without_obstacles(self):
        assert inverse_square_gradient((3, 4), (3, 4), []) == (0.0, 0.0)

    def test_obstacle_beyond_influence_ignored(self):
        # 19.5 L of clearance, beyond the influence distance d0 = 15 L
        g_with = inverse_square_gradient((0, 0), (10, 0), [static_view((0, 20))])
        g_free = inverse_square_gradient((0, 0), (10, 0), [])
        assert g_with == g_free

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            goal = tuple(rng.uniform(-30, 30, 2))
            obstacles = [static_view(tuple(rng.uniform(-30, 30, 2)))
                         for _ in range(rng.integers(1, 4))]
            pos = tuple(rng.uniform(-30, 30, 2))
            if any(math.hypot(pos[0] - o.position[0], pos[1] - o.position[1]) - o.radius < 1.0
                   for o in obstacles):
                continue
            if math.hypot(pos[0] - goal[0], pos[1] - goal[1]) < 2.0:
                continue
            ga = inverse_square_gradient(pos, goal, obstacles)
            gf = fd_gradient(pos, goal, obstacles)
            scale = max(math.hypot(*ga), math.hypot(*gf), 1.0)
            assert math.hypot(ga[0] - gf[0], ga[1] - gf[1]) / scale < 1e-5

    def test_inside_obstacle_reported(self):
        with pytest.raises(FieldSingularity):
            inverse_square_gradient((0, 0), (10, 0), [static_view((0.2, 0.0))])


class TestHarmonicFlows:
    def test_sink_magnitude_and_direction(self):
        v = sink_velocity((0, 0), (5, 0), -100.0)
        assert math.hypot(*v) == pytest.approx(100.0 / (TWO_PI * 5.0))
        assert v[0] > 0 and v[1] == 0.0  # toward the goal for a sink

    def test_sink_radial_symmetry(self):
        v = sink_velocity((0, 0), (1, 0), -10.0)
        assert v[0] > 0.0 and abs(v[1]) < 1e-15

    def test_sink_inverse_distance_decay(self):
        v1 = sink_velocity((0, 0), (4, 0), -100.0)
        v2 = sink_velocity((0, 0), (8, 0), -100.0)
        assert math.hypot(*v1) / math.hypot(*v2) == pytest.approx(2.0, abs=1e-12)

    def test_vortex_magnitude(self):
        v = vortex_velocity((5, 0), (0, 0), -10.0)
        assert math.hypot(*v) == pytest.approx(1.0 / math.pi)

    @given(dx=st.floats(-10, 10), dy=st.floats(-10, 10), K=st.floats(-50, 50))
    def test_vortex_tangential(self, dx, dy, K):
        if math.hypot(dx, dy) < 0.5:
            return
        v = vortex_velocity((dx, dy), (0.0, 0.0), K)
        assert abs(v[0] * dx + v[1] * dy) < 1e-9

    def test_vortex_inverse_distance_decay(self):
        v1 = vortex_velocity((3, 0), (0, 0), -10.0)
        v2 = vortex_velocity((6, 0), (0, 0), -10.0)
        assert math.hypot(*v1) / math.hypot(*v2) == pytest.approx(2.0, abs=1e-12)

    def test_negative_strength_deflects_head_on_to_starboard(self):
        # vessel behind the vortex center: velocity must point to +y
        v = vortex_velocity((-10, 0), (0, 0), -10.0)
        assert v[0] == 0.0 and v[1] > 0.0

    def test_singularities_reported(self):
        with pytest.raises(FieldSingularity):
            sink_velocity((1, 1), (1, 1), -10.0)
        with pytest.raises(FieldSingularity):
            vortex_velocity((1, 1), (1, 1), -10.0)

    def test_harmonicity_of_potentials(self):
        # five-point Laplacian of the shipped potential forms
        h = 1e-3
        rng = np.random.default_rng(5)

        def lap(f, x, y):
            return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
                    - 4.0 * f(x, y)) / (h * h)

        sink = lambda x, y: (-10.0 / TWO_PI) * math.log(math.hypot(x, y))
        vort = lambda x, y: (-10.0 / TWO_PI) * math.atan2(y, x)
        for _ in range(100):
            r = rng.uniform(1.0, 20.0)
            th = rng.uniform(0.1, math.pi - 0.1)  # keep clear of the atan2 cut
            x, y = r * math.cos(th), r * math.sin(th)
            assert abs(lap(sink, x, y)) < 1e-5
            assert abs(lap(vort, x, y)) < 1e-5


class TestBearingAndRelativeVelocity:
    @pytest.mark.parametrize("psi,obs,expected", [
        (0.0, (1, 1), math.pi / 4),
        (math.pi / 4, (1, 1), 0.0),
        (0.0, (-1, 0), math.pi),
    ])
    def test_bearing(self, psi, obs, expected):
        assert bearing_gamma(own_state(psi=psi), obs) == pytest.approx(expected)

    def test_bearing_coincident_reported(self):
        with pytest.raises(FieldSingularity):
            bearing_gamma(own_state(1, 1), (1, 1))

    # with psi = 0 and the obstacle dead ahead (gamma = 0) the line-of-sight
    # components are the global-frame relative velocity itself

    def test_static_form(self):
        v = radial_tangential(own_state(u=1.0, psi=0.0), static_view((5, 0)), 0.0)
        assert v == pytest.approx((-1.0, 0.0))

    def test_identical_velocities(self):
        own = own_state(u=1.0)
        obs = dynamic_view((5, 0), (1.0, 0.0))
        assert radial_tangential(own, obs, 0.0) == pytest.approx((0.0, 0.0))

    def test_head_on_closing(self):
        own = own_state(u=1.0, psi=0.0)
        obs = dynamic_view((10, 0), (-1.0, 0.0))
        assert radial_tangential(own, obs, 0.0) == pytest.approx((-2.0, 0.0))


class TestRadialTangential:
    def test_head_on_closing(self):
        own = own_state(u=1.0, psi=0.0)
        v_r, v_th = radial_tangential(own, dynamic_view((10.0, 0.0), (-1.0, 0.0)), 0.0)
        assert v_r == pytest.approx(-2.0)
        assert v_th == pytest.approx(0.0)

    def test_pure_tangential_crossing(self):
        own = own_state(u=0.0, psi=0.0)
        v_r, v_th = radial_tangential(own, dynamic_view((10.0, 0.0), (0.0, 1.5)), 0.0)
        assert v_r == pytest.approx(0.0)
        assert v_th == pytest.approx(1.5)

    @given(vx=st.floats(-2, 2), vy=st.floats(-2, 2), u=st.floats(0, 1.2),
           v=st.floats(-0.3, 0.3), gamma=st.floats(-math.pi, math.pi),
           psi=st.floats(-math.pi, math.pi), dynamic=st.booleans())
    @settings(max_examples=80)
    def test_matches_rotation_composition(self, vx, vy, u, v, gamma, psi, dynamic):
        # V_rel = V_obs - R(psi) nu (V_obs = 0 for a static obstacle), seen
        # from the body frame rotated by the bearing gamma
        def rot(a):
            return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

        own = own_state(psi=psi, u=u, v=v)
        if dynamic:
            obs, v_obs = dynamic_view((10.0, 0.0), (vx, vy)), np.array([vx, vy])
        else:
            obs, v_obs = static_view((10.0, 0.0)), np.zeros(2)
        v_rel = v_obs - rot(own.psi) @ np.array([u, v])
        expected = rot(gamma).T @ rot(own.psi).T @ v_rel
        v_r, v_th = radial_tangential(own, obs, gamma)
        assert v_r == pytest.approx(expected[0], abs=1e-12)
        assert v_th == pytest.approx(expected[1], abs=1e-12)


class TestVortexGate:
    def test_overtaking_bearing_gated(self):
        own = own_state()
        obs = dynamic_view((-5.0, 5.0), (1.0, 0.0))  # bearing 3*pi/4 abaft
        assert abs(bearing_gamma(own, obs.position)) == pytest.approx(3 * math.pi / 4)
        assert modified_vortex_strength(own, obs, R_SAFE) == 0.0

    def test_head_on_static_active(self):
        # gamma=0, v_r=-1, v_theta=0, separation 10, R_tol=3: threshold 0.6,
        # 0 is not greater than 0.6, so the vortex fires with f = 2 - 10/15 + 1
        own = own_state(u=1.0)
        obs = static_view((10.0, 0.0), radius=0.5)
        K = modified_vortex_strength(own, obs, R_SAFE)
        f = vortex_scale_factor(10.0, -1.0, R_SAFE)
        assert K == pytest.approx(f * K_VOR0)
        assert K < 0.0

    def test_passing_clear_gated(self):
        # strongly positive transversal rate: target sliding clear
        own = own_state(u=1.0)
        obs = dynamic_view((10.0, 0.0), (1.0, 3.0))
        assert modified_vortex_strength(own, obs, R_SAFE) == 0.0

    def test_stand_on_class_passive(self):
        own = own_state(u=1.0)
        obs = dynamic_view((10.0, -10.0), (0.0, 1.0), encounter=ENCOUNTER_STAND_ON)
        assert modified_vortex_strength(own, obs, R_SAFE) == 0.0

    def test_stand_on_in_extremis_override(self):
        # give-way ship never acted: collision course inside the in-extremis
        # range forces the vortex back on
        own = own_state(u=1.0)
        obs = dynamic_view((8.0, 0.0), (-1.0, 0.0), encounter=ENCOUNTER_STAND_ON)
        assert modified_vortex_strength(own, obs, R_SAFE) != 0.0

    def test_gate_monotone_in_separation(self):
        own = own_state(u=1.0)
        strengths = []
        for d in (14.0, 12.0, 10.0, 8.0, 6.0, 4.0):
            obs = static_view((d, 0.0))
            strengths.append(abs(modified_vortex_strength(own, obs, R_SAFE)))
        assert all(b >= a for a, b in zip(strengths, strengths[1:]))

    @given(bearing=st.floats(5 * math.pi / 8 + 0.01, math.pi),
           side=st.sampled_from([-1.0, 1.0]), dist=st.floats(2.0, 14.0))
    @settings(max_examples=60)
    def test_abaft_bearings_always_zero(self, bearing, side, dist):
        own = own_state(u=1.0)
        ang = side * bearing
        obs = static_view((dist * math.cos(ang), dist * math.sin(ang)))
        assert modified_vortex_strength(own, obs, R_SAFE) == 0.0


class TestScaleFactor:
    def test_at_detection_radius(self):
        assert vortex_scale_factor(15.0, 0.0, 15.0) == 1.0

    def test_half_radius_closing(self):
        assert vortex_scale_factor(7.5, -0.5, 15.0) == pytest.approx(2.0)

    def test_floor(self):
        assert vortex_scale_factor(15.0, 1.0, 15.0) == 1.0


class TestEncounterClassification:
    def test_target_abaft_is_overtaken(self):
        own = own_state()
        obs = dynamic_view((-10.0, 1.0), (1.0, 0.0))
        assert classify_encounter(own, obs) == ENCOUNTER_OVERTAKEN

    def test_proper_crossing_from_port_is_stand_on(self):
        own = own_state(u=1.0, psi=0.0)
        # target on the port bow heading so that we are on its starboard bow
        obs = dynamic_view((10.0, -10.0), (0.0, 1.0))
        assert classify_encounter(own, obs) == ENCOUNTER_STAND_ON

    def test_target_to_starboard_is_active(self):
        own = own_state(u=1.0, psi=0.0)
        obs = dynamic_view((10.0, 10.0), (0.0, -1.0))
        assert classify_encounter(own, obs) == ENCOUNTER_ACTIVE

    def test_reciprocal_head_on_is_active(self):
        own = own_state(u=1.0, psi=0.0)
        obs = dynamic_view((15.0, -0.5), (-1.0, 0.0))
        assert classify_encounter(own, obs) == ENCOUNTER_ACTIVE

    def test_static_obstacles_never_stand_on(self):
        own = own_state(u=1.0, psi=0.0)
        obs = static_view((10.0, -10.0))
        assert classify_encounter(own, obs) == ENCOUNTER_ACTIVE

    def test_stationary_target_on_port_bow_is_active(self):
        # a target with no course cannot be the give-way ship of a crossing
        obs = dynamic_view((5.0, -3.0), (0.0, 0.0))
        assert classify_encounter(own_state(), obs) == ENCOUNTER_ACTIVE


class TestBoundarySources:
    def channel(self, width=10.0):
        return ChannelBoundary(
            boundary_a=((0.0, width / 2), (100.0, width / 2)),
            boundary_b=((0.0, -width / 2), (100.0, -width / 2)))

    def test_centerline_of_wide_channel_is_free(self):
        ch = self.channel(width=10.0)
        assert boundary_source_velocity((50.0, 0.0), ch) == (0.0, 0.0)

    def test_near_wall_magnitude_and_direction(self):
        ch = self.channel(width=10.0)
        v = boundary_source_velocity((50.0, 4.0), ch)  # 1L below the upper wall
        assert math.hypot(*v) == pytest.approx(10.0 / TWO_PI)
        assert v[1] < 0.0  # pushes back toward the centerline

    def test_narrow_channel_contributions_cancel_at_center(self):
        ch = self.channel(width=3.0)
        v = boundary_source_velocity((50.0, 0.0), ch)
        assert v == pytest.approx((0.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize("y, inside", [(0.0, True), (5.0, True), (-5.0, True),
                                           (8.0, False), (-8.0, False)])
    def test_contains_between_the_walls_only(self, y, inside):
        # past either wall a point is farther than the width from the other
        assert self.channel(width=10.0).contains((50.0, y)) is inside

    def test_outside_channel_reported(self):
        ch = self.channel(width=10.0)
        with pytest.raises(FieldSingularity):
            boundary_source_velocity((50.0, 8.0), ch)


class TestDesiredHeadings:
    def test_harmonic_points_at_goal_without_obstacles(self):
        psi_d = desired_heading_harmonic(own_state(), (10.0, 10.0), [], None,
                                         R_SAFE, True, 0.0)
        assert psi_d == pytest.approx(math.pi / 4)

    def test_harmonic_deflects_starboard_for_head_on_obstacle(self):
        own = own_state(u=1.0)
        obs = static_view((10.0, 0.0))
        psi_d = desired_heading_harmonic(own, (25.0, 0.0), [obs], None, R_SAFE, True,
                                         own.psi)
        assert psi_d > 0.0

    def test_gated_vortex_equals_sink_only(self):
        own = own_state(u=1.0)
        obs = dynamic_view((-5.0, 5.0), (1.0, 0.0))  # abaft: gated to zero
        with_obs = desired_heading_harmonic(own, (25.0, 0.0), [obs], None, R_SAFE,
                                            True, own.psi)
        sink_only = desired_heading_harmonic(own, (25.0, 0.0), [], None, R_SAFE,
                                             True, own.psi)
        assert with_obs == sink_only

    @pytest.mark.parametrize("prev_psi_d, expected", [(0.7, 0.7)])
    def test_harmonic_stagnation_holds_previous_heading(self, prev_psi_d, expected):
        # at the origin the sink toward (10, 0) and the vortex of an obstacle
        # at (0, 1) cancel exactly: the paper's stagnation point
        own, goal = own_state(psi=0.3), (10.0, 0.0)
        obs = static_view((0.0, 1.0))
        sx, sy = sink_velocity((own.x, own.y), goal, LAMBDA_SINK)
        wx, wy = vortex_velocity((own.x, own.y), obs.position, K_VOR0)
        assert (sx + wx, sy + wy) == (0.0, 0.0)
        out = desired_heading_harmonic(own, goal, [obs], None, R_SAFE, modified=False,
                                       prev_psi_d=prev_psi_d)
        assert out == expected

    def test_inverse_square_points_at_goal_when_clear(self):
        psi_d = desired_heading_inverse_square(own_state(), (0.0, 30.0), [], 0.0)
        assert psi_d == pytest.approx(math.pi / 2)

    def test_inverse_square_collinear_until_stagnation(self):
        own_far = own_state(x=0.0)
        obs = static_view((25.0, 0.0))
        assert desired_heading_inverse_square(own_far, (50.0, 0.0), [obs], 0.0) == 0.0
        own_near = own_state(x=24.0)  # inside the stagnation radius
        assert abs(desired_heading_inverse_square(own_near, (50.0, 0.0), [obs],
                                                  0.0)) == math.pi

    @pytest.mark.parametrize("prev_psi_d, expected", [(0.7, 0.7)])
    def test_stagnation_holds_previous_heading(self, prev_psi_d, expected):
        out = desired_heading_inverse_square(own_state(x=3.0, y=4.0, psi=0.3), (3.0, 4.0),
                                             [], prev_psi_d=prev_psi_d)
        assert out == expected

