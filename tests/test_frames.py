"""Frame conventions, angle arithmetic and the fixed-step RK4, checked on
the code the simulation runs: the kinematic rows of ``mmg``'s derivative,
the engine's obstacle views and ``World._integrate``."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from asvsim.engine import AgentSpec, Scenario, SimConfig, SimulationError, World
from asvsim.frames import wrap_angle


def kinematics(model, psi, u, v, r=0.0):
    """(x_dot, y_dot, psi_dot) of the vessel derivative."""
    return model.make_derivative(1.7)(psi, u, v, r, 0.0)[:3]


def rotation(model, psi):
    """Columns: the global images of the body surge and sway unit vectors."""
    ex, ey, _ = kinematics(model, psi, 1.0, 0.0)
    sx, sy, _ = kinematics(model, psi, 0.0, 1.0)
    return np.array([[ex, sx], [ey, sy]])


class TestRotationMatrix:
    def test_identity_at_zero(self, model):
        for u, v, r in [(1.0, 0.0, 0.0), (0.7, -0.2, 0.05), (0.3, 0.4, -0.1)]:
            assert kinematics(model, 0.0, u, v, r) == (u, v, r)

    def test_quarter_turn(self, model):
        # z-down frame: at psi = pi/2 the bow points along global +y
        out = kinematics(model, math.pi / 2, 1.0, 0.0)
        assert out == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_orthogonality(self, model):
        R = rotation(model, 0.7)
        assert np.max(np.abs(R.T @ R - np.eye(2))) < 1e-12

    @given(st.floats(-50.0, 50.0))
    def test_orthogonal_unit_determinant(self, model, psi):
        R = rotation(model, psi)
        assert np.max(np.abs(R.T @ R - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        assert kinematics(model, psi, 0.8, 0.1, -0.3)[2] == -0.3


class TestWrapAngle:
    @pytest.mark.parametrize("a,expected", [
        (0.0, 0.0),
        (3 * math.pi, math.pi),
        (-3 * math.pi / 2, math.pi / 2),
        (math.pi, math.pi),
        (-math.pi, math.pi),
    ])
    def test_cases(self, a, expected):
        assert wrap_angle(a) == pytest.approx(expected, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for a in rng.uniform(-100.0, 100.0, size=1000):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert wrap_angle(w) == w
            # result is congruent to the input modulo 2*pi
            assert abs((a - w) / (2 * math.pi) - round((a - w) / (2 * math.pi))) < 1e-9


def one_ship_world(model, heading=0.0, dt=0.1):
    agent = AgentSpec(id=0, start=(0.0, 0.0), heading=heading, speed=1.0,
                      waypoints=((60.0, 0.0),))
    return World(Scenario(agents=[agent], config=SimConfig(dt=dt)), model=model)


class TestBodyToGlobal:
    """A vessel's global velocity as other vessels see it (its obstacle view)."""

    def _velocity(self, model, psi, u, v):
        ag = one_ship_world(model, heading=psi).agents[0]
        ag.u, ag.v = u, v
        return ag.obstacle_view().velocity_global

    def test_aligned(self, model):
        assert self._velocity(model, 0.0, 1.0, 0.0) == pytest.approx((1.0, 0.0))

    def test_quarter_turn(self, model):
        out = self._velocity(model, math.pi / 2, 1.0, 0.0)
        assert out == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_diagonal(self, model):
        out = self._velocity(model, math.pi / 4, 1.0, 1.0)
        assert out == pytest.approx((0.0, math.sqrt(2.0)), abs=1e-15)


class TestRK4:
    """``World._integrate`` with a stand-in derivative in the vessel's slot."""

    def _world(self, model, deriv, dt=0.1):
        world = one_ship_world(model, dt=dt)
        world.agents[0].deriv = deriv
        return world

    @staticmethod
    def _state(world):
        ag = world.agents[0]
        return (ag.x, ag.y, ag.psi, ag.u, ag.v, ag.r)

    def test_zero_derivative(self, model):
        world = self._world(model, lambda *s: (0.0,) * 6)
        before = self._state(world)
        world._integrate()
        assert self._state(world) == before

    def test_exact_for_constant(self, model):
        c = (2.0, -1.0, 0.5, 0.25, -0.5, 0.125)
        world = self._world(model, lambda *s: c, dt=0.25)
        world._integrate()
        expected = (0.5, -0.25, 0.125, 1.0625, -0.125, 0.03125)
        assert self._state(world) == pytest.approx(expected, abs=1e-15)

    def _oscillator_error(self, model, dt, t_end=10.0):
        # harmonic oscillator in (u, v); |u| <= 1 keeps the runaway cap quiet
        world = self._world(model, lambda psi, u, v, r, delta:
                            (0.0, 0.0, 0.0, v, -u, 0.0), dt=dt)
        for _ in range(int(round(t_end / dt))):
            world._integrate()
        ag = world.agents[0]
        err = math.hypot(ag.u - math.cos(t_end), ag.v + math.sin(t_end))
        return err, abs(math.hypot(ag.u, ag.v) - 1.0)

    def test_oscillator_amplitude(self, model):
        _, amp_err = self._oscillator_error(model, 0.01)
        assert amp_err < 1e-8

    def test_fourth_order_convergence(self, model):
        coarse, _ = self._oscillator_error(model, 0.02)
        fine, _ = self._oscillator_error(model, 0.01)
        assert coarse / fine >= 15.0

    def test_nonfinite_derivative_reported(self, model):
        world = self._world(model, lambda *s: (math.inf,) * 6)
        with pytest.raises(SimulationError):
            world._integrate()

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)


def test_pose_normalizes_heading():
    agent = AgentSpec(id=0, start=(0.0, 0.0), heading=3 * math.pi, speed=1.0,
                      waypoints=((10.0, 0.0),))
    assert World(Scenario(agents=[agent])).agents[0].psi == pytest.approx(math.pi)
