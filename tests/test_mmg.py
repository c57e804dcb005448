import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asvsim.engine import AgentSpec, Scenario, SimConfig, World
from asvsim.frames import wrap_angle
from asvsim.mmg import (
    DELTA_MAX,
    T_DELTA,
    CoefficientError,
    ShipModel,
    rudder_step,
    self_propulsion_rpm,
)

DELTA_35 = math.radians(35.0)
#: marks a coefficient-file key that a test deletes
_MISSING = object()


def simulate_openloop(model, n_prop, delta_fn, t_end, dt=0.1, u0=1.0):
    """Fixed-rudder rollout of one vessel through the engine's integrator."""
    agent = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=u0,
                      waypoints=((1000.0, 0.0),))
    world = World(Scenario(agents=[agent], config=SimConfig(dt=dt)), model=model)
    ag = world.agents[0]
    ag.deriv = model.make_derivative(n_prop)
    rows = []
    for k in range(int(round(t_end / dt))):
        ag.delta = ag.last_delta_c = delta_fn(k * dt)
        world._integrate()
        rows.append((k * dt, ag.x, ag.y, ag.psi, ag.u, ag.v, ag.r))
    return rows


def oracle_derivative(doc, n, psi, u, v, r, delta):
    """Independent oracle: the full MMG derivative evaluated term by term
    from the raw JSON document, the sway-yaw system solved by numpy.
    Valid for u > 0 and n > 0."""
    h, pr, rd, ship, ms = doc["hull"], doc["propeller"], doc["rudder"], doc["ship"], doc["mass"]
    Ut = math.hypot(u, v)
    vd, rr = v / Ut, r / Ut
    X_H = Ut ** 2 * (-h["R_0"] + h["X_vv"] * vd ** 2 + h["X_vr"] * vd * rr
                     + h["X_rr"] * rr ** 2 + h["X_vvvv"] * vd ** 4)
    Y_H = Ut ** 2 * (h["Y_v"] * vd + h["Y_r"] * rr + h["Y_vvv"] * vd ** 3
                     + h["Y_vvr"] * vd ** 2 * rr + h["Y_vrr"] * vd * rr ** 2
                     + h["Y_rrr"] * rr ** 3)
    N_H = Ut ** 2 * (h["N_v"] * vd + h["N_r"] * rr + h["N_vvv"] * vd ** 3
                     + h["N_vvr"] * vd ** 2 * rr + h["N_vrr"] * vd * rr ** 2
                     + h["N_rrr"] * rr ** 3)
    J = (1 - pr["w_p0"]) * u * ship["U_des"] / (n * pr["D_p"])
    K_T = pr["k_0"] + pr["k_1"] * J + pr["k_2"] * J ** 2
    X_P = ((1 - pr["t_p"]) * ship["rho_w"] * n ** 2 * pr["D_p"] ** 4 * K_T
           / (0.5 * ship["rho_w"] * ship["U_des"] ** 2 * ship["L"] * ship["d_em"]))
    u_R = (u * (1 - pr["w_p0"]) * rd["epsilon"] * math.sqrt(
        rd["eta"] * (1 + rd["kappa"] * (math.sqrt(1 + 8 * K_T / (math.pi * J ** 2)) - 1)) ** 2
        + (1 - rd["eta"])))
    v_R = Ut * rd["gamma_R"] * (math.atan2(-v, u) - rd["l_R_nd"] * rr)
    F_N = ((rd["A_R"] / (ship["L"] * ship["d_em"])) * rd["f_alpha"]
           * (u_R ** 2 + v_R ** 2) * math.sin(delta - math.atan2(v_R, u_R)))
    X_R = -(1 - rd["t_R"]) * F_N * math.sin(delta)
    Y_R = -(1 + rd["a_H"]) * F_N * math.cos(delta)
    N_R = -(rd["x_R_nd"] + rd["a_H"] * rd["x_H_nd"]) * F_N * math.cos(delta)
    m, x_G = ms["m"], ship["x_G_nd"]
    u_dot = (X_H + X_R + X_P + m * v * r + m * x_G * r ** 2) / (m + ms["m_x"])
    A = np.array([[m + ms["m_y"], m * x_G], [m * x_G, ms["I_zz"] + ms["J_zz"]]])
    v_dot, r_dot = np.linalg.solve(A, [Y_H + Y_R - m * u * r, N_H + N_R - m * x_G * u * r])
    return (math.cos(psi) * u - math.sin(psi) * v, math.sin(psi) * u + math.cos(psi) * v,
            r, u_dot, float(v_dot), float(r_dot))


def body_forces(model, n, u, v, r, delta):
    """(X, Y, N) recovered from the derivative by undoing the inertia terms."""
    m, x_G = model.mass, model.ship.x_G_nd
    d = model.make_derivative(n)(0.0, u, v, r, delta)
    X = d[3] * (m.m + m.m_x) - m.m * v * r - m.m * x_G * r * r
    Y = (m.m + m.m_y) * d[4] + m.m * x_G * d[5] + m.m * u * r
    N = m.m * x_G * d[4] + (m.I_zz + m.J_zz) * d[5] + m.m * x_G * u * r
    return np.array([X, Y, N])


def variant(model, hull=True, rudder=True):
    """The model with its hull polynomial and/or rudder normal force zeroed."""
    doc = copy.deepcopy(model.doc)
    if not hull:
        for k in doc["hull"]:
            doc["hull"][k] = 0.0
    if not rudder:
        doc["rudder"]["f_alpha"] = 0.0
    return ShipModel(doc)


class TestHullForces:
    def test_straight_run_symmetry(self, model):
        # no propeller: at v = r = 0 the rudder sees no inflow, so only the
        # hull acts, with resistance opposing u > 0 and no side force
        m = model.mass
        d = model.make_derivative(0.0)(0.0, 1.0, 0.0, 0.0, 0.0)
        assert d[4] == 0.0 and d[5] == 0.0
        assert d[3] * (m.m + m.m_x) == pytest.approx(-model.coeffs.R_0, rel=1e-15)

    @given(u=st.floats(0.2, 1.2), v=st.floats(-0.5, 0.5), r=st.floats(-0.5, 0.5),
           delta=st.floats(-DELTA_35, DELTA_35), psi=st.floats(-math.pi, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_odd_symmetry(self, model, u, v, r, delta, psi):
        # mirror about the x-axis: the hull forces are odd in (v, r) and
        # the rudder force is odd in delta, so the derivative mirrors exactly
        d = model.make_derivative(1.7)
        a = d(psi, u, v, r, delta)
        b = d(-psi, u, -v, -r, -delta)
        assert b == (a[0], -a[1], -a[2], a[3], -a[4], -a[5])

    def test_matches_independent_polynomial(self, model):
        for u, v, r in [(1.0, 0.05, 0.0), (0.8, -0.1, 0.2), (1.1, 0.2, -0.3)]:
            out = model.make_derivative(1.7)(0.0, u, v, r, 0.0)
            expected = oracle_derivative(model.doc, 1.7, 0.0, u, v, r, 0.0)
            assert out == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestPropeller:
    def test_zero_revolutions(self, model):
        # at n = 0 the propeller adds nothing: the straight-run surge force
        # is the hull resistance alone, at every speed
        m, R_0 = model.mass, model.coeffs.R_0
        d = model.make_derivative(0.0)
        for u in np.linspace(0.1, 1.2, 12):
            assert d(0.0, u, 0.0, 0.0, 0.0)[3] == (u * u) * -R_0 / (m.m + m.m_x)

    def test_self_propulsion_residual(self, model):
        # the independent oracle's straight-run thrust balances resistance
        n = self_propulsion_rpm(1.0, model)
        m = model.mass
        u_dot = oracle_derivative(model.doc, n, 0.0, 1.0, 0.0, 0.0, 0.0)[3]
        assert abs(u_dot * (m.m + m.m_x)) < 1e-6

    @given(u=st.floats(1e-3, 1.2))
    @settings(max_examples=100, deadline=None)
    def test_trim_is_zero_of_surge_acceleration(self, model, u):
        # the trim brackets a sign change of the integrated model's own
        # straight-run surge acceleration
        n = self_propulsion_rpm(u, model)
        below = model.make_derivative(n - 1e-8)(0.0, u, 0.0, 0.0, 0.0)[3]
        above = model.make_derivative(n + 1e-8)(0.0, u, 0.0, 0.0, 0.0)[3]
        assert below < 0.0 <= above

    def test_monotone_in_revolutions(self, model):
        # operating range around the self-propulsion point (J below ~1): the
        # hull term is fixed, so the surge acceleration follows the thrust
        n_sp = self_propulsion_rpm(1.0, model)
        ns = np.linspace(0.7 * n_sp, 2.0 * n_sp, 60)
        u_dots = [model.make_derivative(n)(0.0, 1.0, 0.0, 0.0, 0.0)[3] for n in ns]
        assert all(b >= a - 1e-12 for a, b in zip(u_dots, u_dots[1:]))

    @pytest.mark.parametrize("target, rpm_hex", [
        (1e-3, "0x1.cdad3f9db22d2p-10"),
        (0.1, "0x1.68af72b604188p-3"),
        (0.5, "0x1.c2db4f3991688p-1"),
        (0.75, "0x1.52247b7fe978dp+0"),
        (1.0, "0x1.c2db4f3bf1a9ep+0"),
        (1.2, "0x1.0e8395f6f22d1p+1"),
    ])
    def test_self_propulsion_pinned(self, model, target, rpm_hex):
        # every digest starts from this trim; it must not move by one ulp
        assert self_propulsion_rpm(target, model) == float.fromhex(rpm_hex)

    def test_lower_speed_needs_fewer_revolutions(self, model):
        assert self_propulsion_rpm(0.5, model) < self_propulsion_rpm(1.0, model)

    @pytest.mark.parametrize("target", [1.0, 0.5])
    def test_forward_simulation_holds_speed(self, model, target):
        n = self_propulsion_rpm(target, model)
        rows = simulate_openloop(model, n, lambda t: 0.0, 200.0, u0=target)
        assert abs(rows[-1][4] - target) < 0.01


class TestRudder:
    def test_zero_deflection(self, model):
        d = model.make_derivative(1.7)(0.0, 1.0, 0.0, 0.0, 0.0)
        assert d[4] == 0.0 and d[5] == 0.0

    def test_matches_independent_formula(self, model):
        # the rudder normal-force model in the propeller race
        u, delta, n = 1.0, math.radians(20.0), 1.7
        out = model.make_derivative(n)(0.0, u, 0.0, 0.0, delta)
        expected = oracle_derivative(model.doc, n, 0.0, u, 0.0, 0.0, delta)
        assert out == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_positive_rudder_turns_starboard(self, model):
        # positive deflection must yield a positive yaw acceleration (psi increases)
        d = model.make_derivative(1.7)(0.0, 1.0, 0.0, 0.0, math.radians(10))
        assert d[5] > 0.0


class TestTotalForcesAndDerivative:
    def test_components_sum_exactly(self, model):
        # X = X_H + X_R + X_P, Y = Y_H + Y_R, N = N_H + N_R: zeroing the hull
        # and/or rudder coefficients isolates each part (the propeller acts
        # alone when both are zeroed).  The sum inside deriv is exact; undoing
        # the inertia terms to recover forces costs a few ulps.
        no_hull, no_rudder = variant(model, hull=False), variant(model, rudder=False)
        prop_only = variant(model, hull=False, rudder=False)
        for u, v, r, delta in [(1.0, 0.0, 0.0, math.radians(5.0)),
                               (0.8, -0.1, 0.2, math.radians(-20.0)),
                               (1.1, 0.2, -0.3, math.radians(30.0))]:
            args = (1.7, u, v, r, delta)
            full = body_forces(model, *args)
            parts = (body_forces(no_hull, *args) + body_forces(no_rudder, *args)
                     - body_forces(prop_only, *args))
            assert full == pytest.approx(parts, rel=1e-12, abs=1e-14)

    def test_steady_straight_run(self, model):
        d = model.make_derivative(self_propulsion_rpm(1.0, model))(
            0.0, 1.0, 0.0, 0.0, 0.0)
        assert d[0] == pytest.approx(1.0)           # x_dot = u
        assert abs(d[1]) < 1e-12 and abs(d[2]) < 1e-12
        assert abs(d[3]) < 1e-6                     # self-propulsion balance
        assert d[4] == 0.0 and d[5] == 0.0

    def test_centripetal_surge_term(self, model):
        # with every hydrodynamic coefficient zeroed, only inertial coupling
        # remains: u_dot = (m v r + m x_G r^2) / (m + m_x)
        doc = copy.deepcopy(model.doc)
        for k in doc["hull"]:
            doc["hull"][k] = 0.0
        for k in ("k_0", "k_1", "k_2"):
            doc["propeller"][k] = 0.0
        doc["rudder"]["f_alpha"] = 0.0
        zero = ShipModel(doc)
        m, m_x, x_G = zero.mass.m, zero.mass.m_x, zero.ship.x_G_nd
        u, v, r = 1.0, 0.0, 0.1
        d = zero.make_derivative(1.7)(0.0, u, v, r, 0.0)
        assert d[3] == pytest.approx((m * v * r + m * x_G * r ** 2) / (m + m_x), rel=1e-12)

    def test_at_rest_no_hull_force(self, model):
        # below the speed floor the hull polynomial is skipped and the
        # rudder sees no inflow: only the inertial coupling b r^2 is left
        m, x_G = model.mass, model.ship.x_G_nd
        n = self_propulsion_rpm(1.0, model)
        out = model.make_derivative(n)(0.0, 0.0, 0.0, 0.05, 0.1)
        assert out == (0.0, 0.0, 0.05, m.m * x_G * 0.05 * 0.05 / (m.m + m.m_x), 0.0, 0.0)

    @pytest.mark.parametrize("u", [1e-12, 1e-200])
    def test_creeping_speed_finite(self, model, u):
        # the advance ratio sits on its 1e-9 floor (without it, J * J
        # underflows to zero at 1e-200): the propeller gives about bollard
        # thrust, the oracle's at a creeping 1e-6 with the rudder amidships,
        # and the output stays finite
        n = self_propulsion_rpm(1.0, model)
        out = model.make_derivative(n)(0.0, u, 0.0, 0.0, 0.1)
        assert all(math.isfinite(x) for x in out)
        bollard = oracle_derivative(model.doc, n, 0.0, 1e-6, 0.0, 0.0, 0.0)[3]
        assert out[3] == pytest.approx(bollard, rel=1e-3)

    def test_sway_yaw_solve_matches_matrix_inverse(self, model):
        rng = np.random.default_rng(3)
        d = model.make_derivative(1.7)
        for _ in range(100):
            u, v, r = rng.uniform(0.3, 1.2), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
            delta, psi = rng.uniform(-DELTA_35, DELTA_35), rng.uniform(-math.pi, math.pi)
            out = d(psi, u, v, r, delta)
            expected = oracle_derivative(model.doc, 1.7, psi, u, v, r, delta)
            assert out == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_heading_equivariance(self, model):
        d = model.make_derivative(1.7)
        u, v, r, delta = 1.0, 0.1, -0.05, math.radians(7.0)
        base = d(0.0, u, v, r, delta)
        psi = 0.9
        rot = d(psi, u, v, r, delta)
        c, s = math.cos(psi), math.sin(psi)
        assert rot[0] == pytest.approx(c * base[0] - s * base[1], abs=1e-14)
        assert rot[1] == pytest.approx(s * base[0] + c * base[1], abs=1e-14)
        assert rot[2:] == base[2:]


class TestRudderRate:
    def test_equilibrium(self, model):
        assert rudder_step(0.1, 0.1, model.delta_rate_max, 1.0) == 0.1

    def test_saturation_branch(self):
        assert rudder_step(0.0, DELTA_35, 0.3, 1.0) == 0.3
        assert rudder_step(0.0, -DELTA_35, 0.3, 1.0) == -0.3

    def test_linear_branch(self, model):
        out = rudder_step(0.0, 0.1, model.delta_rate_max, 1.0)
        assert out == pytest.approx(0.1 / T_DELTA, rel=1e-15)

    def test_default_limits(self, model):
        assert DELTA_MAX == pytest.approx(math.radians(35.0))
        expected_rate = math.radians(5.0) * model.ship.L / model.ship.U_des
        assert model.delta_rate_max == pytest.approx(expected_rate)
        assert T_DELTA == 1.0


class TestVesselBehavior:
    def test_mirror_symmetry(self, model):
        n = self_propulsion_rpm(1.0, model)
        port = simulate_openloop(model, n, lambda t: -math.radians(20.0), 100.0)
        stbd = simulate_openloop(model, n, lambda t: math.radians(20.0), 100.0)
        for (_, x1, y1, p1, u1, v1, r1), (_, x2, y2, p2, u2, v2, r2) in zip(stbd, port):
            assert abs(x1 - x2) < 1e-9
            assert abs(y1 + y2) < 1e-9
            assert abs(wrap_angle(p1 + p2)) < 1e-9
            assert abs(u1 - u2) < 1e-9
            assert abs(v1 + v2) < 1e-9
            assert abs(r1 + r2) < 1e-9

    def test_turning_circle(self, model):
        n = self_propulsion_rpm(1.0, model)
        rows = simulate_openloop(model, n, lambda t: DELTA_35, 400.0)
        unwrapped = 0.0
        prev = 0.0
        tactical = None
        for _, x, y, psi, u, v, r in rows:
            unwrapped += wrap_angle(psi - prev)
            prev = psi
            if tactical is None and unwrapped >= math.pi:
                tactical = y
        assert tactical is not None, "vessel never completed a half turn"
        assert 2.0 <= tactical <= 6.0
        # settled circular path: steady positive turn rate, steady drift angle
        tail = rows[-200:]
        rs = [row[6] for row in tail]
        drifts = [math.atan2(-row[5], row[4]) for row in tail]
        assert min(rs) > 0.0
        assert max(rs) - min(rs) < 1e-6
        assert max(drifts) - min(drifts) < 1e-6


class TestCoefficientFile:
    def test_schema_version_present(self, model):
        assert model.coeffs.schema_version == "kcs-mmg-1"

    def test_mass_invariants_enforced(self, model):
        doc = copy.deepcopy(model.doc)
        doc["mass"]["m_y"] = -1.0
        with pytest.raises(CoefficientError):
            ShipModel(doc)

    @pytest.mark.parametrize("block, key, value, message", [
        ("ship", "L", 0.0, "ship parameter L must be > 0"),
        ("ship", "rho_w", -1.0, "ship parameter rho_w must be > 0"),
        ("hull", "R_0", math.inf, "coefficient R_0 is not finite"),
        ("rudder", "eta", math.nan, "coefficient eta is not finite"),
        ("ship", "L", math.inf, r"\bL\b.*finite"),
        ("ship", "U_des", math.nan, r"\bU_des\b.*finite"),
        ("ship", "x_G_nd", math.nan, r"\bx_G_nd\b.*finite"),
        ("mass", "m_y", math.nan, r"\bm_y\b.*finite"),
        ("mass", "J_zz", math.inf, r"\bJ_zz\b.*finite"),
        (None, "schema_version", "", "coefficient table missing schema_version"),
        ("hull", "X_uu", 0.0, "malformed coefficient file"),
        ("propeller", "k_2", _MISSING, "malformed coefficient file"),
    ], ids=["ship.L=0", "ship.rho_w=-1", "hull.R_0=inf", "rudder.eta=nan",
            "ship.L=inf", "ship.U_des=nan", "ship.x_G_nd=nan",
            "mass.m_y=nan", "mass.J_zz=inf",
            "schema_version=empty", "hull.unknown_key", "propeller.missing_key"])
    def test_bad_file_rejected(self, model, block, key, value, message):
        doc = copy.deepcopy(model.doc)
        table = doc if block is None else doc[block]
        if value is _MISSING:
            del table[key]
        else:
            table[key] = value
        with pytest.raises(CoefficientError, match=message):
            ShipModel(doc)

    def test_singular_sway_yaw_matrix_rejected(self, model):
        doc = copy.deepcopy(model.doc)
        doc["mass"] = dict(m=1.0, m_x=0.1, m_y=0.1, I_zz=0.001, J_zz=0.001)
        doc["ship"]["x_G_nd"] = 10.0
        with pytest.raises(CoefficientError, match="sway-yaw mass matrix is singular"):
            ShipModel(doc)

    def test_negative_resistance_reported(self, model):
        # the table constructs, but thrust beats resistance at any RPM
        doc = copy.deepcopy(model.doc)
        doc["hull"]["R_0"] = -0.01
        bad = ShipModel(doc)
        with pytest.raises(CoefficientError, match="thrust exceeds resistance"):
            self_propulsion_rpm(1.0, bad)

    def test_self_propulsion_bracket_failure_reported(self, model):
        doc = copy.deepcopy(model.doc)
        doc["propeller"]["k_0"] = -1.0  # thrust can never balance resistance
        doc["propeller"]["k_1"] = 0.0
        doc["propeller"]["k_2"] = 0.0
        bad = ShipModel(doc)
        with pytest.raises(CoefficientError):
            self_propulsion_rpm(1.0, bad)
