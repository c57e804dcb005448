import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from asvsim.engine import AgentSpec, Scenario, World, run
from asvsim.frames import wrap_angle
from asvsim.guidance import (
    ILOSParams,
    PDGains,
    ilos_desired_heading,
    ilos_integrator_derivative,
    path_tangential_angle,
    pd_rudder_command,
    segment_frame,
    should_switch_waypoint,
    track_errors,
)
from asvsim import scenarios

DELTA_35 = math.radians(35.0)


class TestPathTangentialAngle:
    @pytest.mark.parametrize("a,b,expected", [
        ((0, 0), (10, 0), 0.0),
        ((0, 0), (10, 10), math.pi / 4),
        ((0, 0), (0, -5), -math.pi / 2),
    ])
    def test_cases(self, a, b, expected):
        assert path_tangential_angle(a, b) == pytest.approx(expected)

    def test_coincident_waypoints_rejected(self):
        with pytest.raises(ValueError):
            path_tangential_angle((1, 1), (1, 1))


class TestTrackErrors:
    def test_on_path_midpoint(self):
        assert track_errors((5, 0), segment_frame((0, 0), (10, 0))) == pytest.approx((5.0, 0.0))

    def test_axis_aligned_offset(self):
        assert track_errors((5, 2), segment_frame((0, 0), (10, 0))) == pytest.approx((5.0, 2.0))

    def test_matches_projection_oracle(self):
        # brute-force projection of (pos - wp_k) onto the segment direction
        pos, a, b = (0.0, 2.0), (0.0, 0.0), (2.0, 2.0)
        d = np.array(b) - np.array(a)
        t_hat = d / np.linalg.norm(d)
        n_hat = np.array([-t_hat[1], t_hat[0]])
        r = np.array(pos) - np.array(a)
        expected = (float(r @ t_hat), float(r @ n_hat))
        assert track_errors(pos, segment_frame(a, b)) == pytest.approx(expected)


class TestILOS:
    def test_on_path_heading(self):
        p = ILOSParams()
        assert ilos_desired_heading(0.3, 0.0, 0.0, p) == pytest.approx(0.3)

    def test_forty_five_degree_correction(self):
        p = ILOSParams(Delta=2.0)
        out = ilos_desired_heading(0.0, 2.0, 0.0, p)
        assert out == pytest.approx(-math.pi / 4)

    def test_limit_heading_from_above(self):
        p = ILOSParams(Delta=2.0)
        out = ilos_desired_heading(0.0, 1e6, 0.0, p)
        assert -math.pi / 2 < out < -math.pi / 2 + 1e-4

    def test_gains_follow_reference_tuning(self):
        p = ILOSParams()
        assert p.Kp_g == pytest.approx(0.5)
        assert p.Ki_g == pytest.approx(0.025)
        assert p.R_tol == 3.0

    def test_integrator_zero_error(self):
        assert ilos_integrator_derivative(0.0, 5.0, ILOSParams()) == 0.0

    def test_integrator_hand_value(self):
        out = ilos_integrator_derivative(2.0, 0.0, ILOSParams(Delta=2.0, k_factor=0.05))
        assert out == pytest.approx(0.5)

    @given(y_e=st.floats(-50, 50), y_int=st.floats(-50, 50))
    def test_integrator_bounded(self, y_e, y_int):
        p = ILOSParams(Delta=2.0)
        assert abs(ilos_integrator_derivative(y_e, y_int, p)) <= abs(y_e) / p.Delta + 1e-12


class TestWaypointSwitch:
    @pytest.mark.parametrize("dist,expected", [(2.9, True), (3.0, True), (3.1, False)])
    def test_switch_radius(self, dist, expected):
        assert should_switch_waypoint((0, 0), (dist, 0), 3.0) is expected

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            should_switch_waypoint((0, 0), (1, 0), 0.0)


class TestPDCommand:
    def test_no_error(self, model):
        assert pd_rudder_command(0.0, 0.0, 0.0, PDGains(), model.limits) == 0.0

    def test_hand_value(self, model):
        out = pd_rudder_command(0.1, 0.0, 0.0, PDGains(Kp_c=3.5, Kd_c=4.0),
                                model.limits)
        assert out == pytest.approx(-0.35)

    def test_clamped(self, model):
        out = pd_rudder_command(-math.pi / 2, 0.0, 0.0, PDGains(), model.limits)
        assert out == DELTA_35

    def test_error_wraps(self, model):
        # psi = 179 deg, psi_d = -179 deg: error is -2 deg, never +358
        psi, psi_d = math.radians(179.0), math.radians(-179.0)
        out = pd_rudder_command(psi, psi_d, 0.0, PDGains(Kp_c=3.5, Kd_c=4.0),
                                model.limits)
        assert out == pytest.approx(-3.5 * math.radians(-2.0))

    def test_wrap_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for a, b in rng.uniform(-math.pi, math.pi, size=(1000, 2)):
            assert abs(wrap_angle(a - b)) <= math.pi


class TestClosedLoop:
    def test_cross_track_regulation(self, model):
        # start 5L off a straight 100L segment: |y_e| < 0.5L within 40 t'
        # with no limit cycling afterwards, through the engine's integrator
        agent = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=1.0,
                          waypoints=((100.0, 0.0),))
        world = World(Scenario(agents=[agent]), model=model)
        world.agents[0].y = 5.0
        while world.step():
            pass
        rows = world.result().trajectories[0]
        assert rows[-1][0] >= 80.0, "run too short"
        late = [abs(row[11]) for row in rows if row[0] >= 40.0]
        assert max(late) < 0.5

    def test_square_path_completion(self, model):
        res = run(scenarios.square_tracking(), model=model, record=False)
        assert res.agents[0].outcome == "success"
        assert res.agents[0].waypoints_reached == 4
