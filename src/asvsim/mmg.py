"""Non-dimensional 3-DOF MMG maneuvering model of the KCS container ship.

Hull, propeller and rudder forces follow the MMG standard decomposition
X = X_H + X_R + X_P, Y = Y_H + Y_R, N = N_H + N_R.  Everything is expressed
in the prime-II system: forces by 0.5*rho*U^2*L*d, moments by
0.5*rho*U^2*L^2*d, speeds by the design speed U, time by L/U.  Coefficient
values live in a versioned JSON file (see data/kcs_coeffs.json); the
propeller revolution rate n is kept dimensional (rev/s) because the advance
ratio is formed from dimensional quantities.

The force model and the equations of motion are written once, in the
closure that ``ShipModel.make_derivative`` returns.  The self-propulsion
trim shares its propeller factors (``_thrust_factors``) and balances the
same thrust against the straight-run hull resistance.  The rudder actuator
is ``rudder_step``: a first-order lag of time constant ``T_DELTA``, its
rate capped at ``ShipModel.delta_rate_max`` and its angle at ``DELTA_MAX``.
"""

from __future__ import annotations

import functools
import json
import math
from importlib import resources
from typing import NamedTuple, Tuple

DELTA_MAX = math.radians(35.0)
#: rudder time constant, in units of L/U
T_DELTA = 1.0


class CoefficientError(ValueError):
    """Raised for malformed or physically inconsistent coefficient tables."""


class ShipParams(NamedTuple):
    """Principal particulars of the vessel (dimensional).

    Built by ``_coeffs_from_dict``, which rejects a non-positive or
    non-finite L, B, d_em, U_des or rho_w and a non-finite x_G_nd.
    """

    L: float
    B: float
    d_em: float
    U_des: float
    rho_w: float
    displacement: float
    x_G_nd: float


class MassParams(NamedTuple):
    """Non-dimensional mass, added mass and inertia (prime-II).

    Built by ``_coeffs_from_dict``, which rejects a term that is not > 0
    and finite, and a sway-yaw matrix whose determinant is not > 0.
    """

    m: float
    m_x: float
    m_y: float
    I_zz: float
    J_zz: float


class HydroCoeffs(NamedTuple):
    """Flat, named coefficient table for hull, propeller and rudder forces.

    Carries the propeller diameter D_p and rudder area A_R; the particulars
    the forces are normalized by live in ``ShipParams``.  Built by
    ``_coeffs_from_dict``, which rejects a non-finite float and an empty
    ``schema_version``.
    """

    schema_version: str
    # hull polynomial (instantaneous-speed normalization)
    R_0: float
    X_vv: float
    X_vr: float
    X_rr: float
    X_vvvv: float
    Y_v: float
    Y_r: float
    Y_vvv: float
    Y_vvr: float
    Y_vrr: float
    Y_rrr: float
    N_v: float
    N_r: float
    N_vvv: float
    N_vvr: float
    N_vrr: float
    N_rrr: float
    # propeller
    D_p: float
    k_0: float
    k_1: float
    k_2: float
    w_p0: float
    t_p: float
    # rudder
    A_R: float
    f_alpha: float
    epsilon: float
    kappa: float
    eta: float
    gamma_R: float
    l_R_nd: float
    t_R: float
    a_H: float
    x_H_nd: float
    x_R_nd: float


_EPS_SPEED = 1e-9
#: bracket width (rev/s) at which the self-propulsion bisection stops
_RPM_TOL = 1e-8


def _thrust_factors(n_prop: float, ship: ShipParams, c: HydroCoeffs) -> Tuple[float, float]:
    """The propeller's speed-independent factors at n_prop rev/s.

    Returns (thrust_norm, J_fac): the surge force is X_P = thrust_norm *
    K_T(J) at advance ratio J = J_fac * u.  Both are 0 when n_prop <= 0.
    """
    if n_prop <= 0.0:
        return 0.0, 0.0
    thrust_norm = (1.0 - c.t_p) * ship.rho_w * n_prop ** 2 * c.D_p ** 4 / (
        0.5 * ship.rho_w * ship.U_des ** 2 * ship.L * ship.d_em)
    return thrust_norm, (1.0 - c.w_p0) * ship.U_des / (n_prop * c.D_p)


def _sway_yaw(mass: MassParams, x_G: float) -> Tuple[float, float, float, float]:
    """The sway-yaw mass matrix [[a, b], [b, dI]] and its determinant."""
    a = mass.m + mass.m_y
    b = mass.m * x_G
    dI = mass.I_zz + mass.J_zz
    return a, b, dI, a * dI - b * b


def rudder_step(delta: float, delta_c: float, rate_max: float, dt: float) -> float:
    """The rudder angle dt after delta under command delta_c.

    One explicit step of the first-order response, its rate saturated at
    rate_max, then the angle clamped at DELTA_MAX (a step dt > T_DELTA
    overshoots the command).
    """
    raw = (delta_c - delta) / T_DELTA
    if not abs(raw) <= rate_max:
        raw = math.copysign(rate_max, raw)
    delta = delta + dt * raw
    if delta > DELTA_MAX:
        return DELTA_MAX
    if delta < -DELTA_MAX:
        return -DELTA_MAX
    return delta


def self_propulsion_rpm(target_u: float, model: "ShipModel") -> float:
    """Revolution rate (rev/s) balancing thrust and resistance at target_u.

    Bisection on the derivative's straight-run surge force X_P + X_H, in
    its operation order, so the trim is a zero of the model's own surge
    acceleration.  The K_T line is the one ``deriv`` keeps inline on its
    hot path.  Raises CoefficientError if no sign change is found in the
    search bracket.  ``target_u`` is an ``AgentSpec`` speed, in (0, 1.2].
    """
    ship, c = model.ship, model.coeffs
    X_H = (target_u * target_u) * -c.R_0  # hull resistance at v = r = 0

    def residual(n: float) -> float:
        thrust_norm, J_fac = _thrust_factors(n, ship, c)
        J = J_fac * target_u
        return thrust_norm * (c.k_0 + c.k_1 * J + c.k_2 * J * J) + X_H

    lo, hi = 1e-3, 0.5
    while residual(hi) < 0.0:
        hi *= 2.0
        if hi > 64.0:
            raise CoefficientError("no self-propulsion point in bracket; bad coefficient table")
    if residual(lo) > 0.0:
        raise CoefficientError("thrust exceeds resistance at near-zero RPM; bad coefficient table")
    while hi - lo > _RPM_TOL:
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Coefficient file handling


def _coeffs_from_dict(doc: dict) -> Tuple[ShipParams, MassParams, HydroCoeffs]:
    """The one constructor of ``ShipParams``, ``MassParams`` and
    ``HydroCoeffs``, and the place their file checks live."""
    try:
        ship = ShipParams(**doc["ship"])
        for name in ("L", "B", "d_em", "U_des", "rho_w"):
            if not 0.0 < getattr(ship, name) < math.inf:
                raise CoefficientError(f"ship parameter {name} must be > 0 and finite")
        if not math.isfinite(ship.x_G_nd):
            raise CoefficientError("ship parameter x_G_nd is not finite")
        mass = MassParams(**doc["mass"])
        for name, v in zip(MassParams._fields, mass):
            if not 0.0 < v < math.inf:
                raise CoefficientError(f"mass parameter {name} must be > 0 and finite")
        if not _sway_yaw(mass, ship.x_G_nd)[3] > 0.0:
            raise CoefficientError("sway-yaw mass matrix is singular")
        coeffs = HydroCoeffs(
            schema_version=doc["schema_version"],
            **doc["hull"],
            **doc["propeller"],
            **doc["rudder"],
        )
    except (KeyError, TypeError) as exc:
        raise CoefficientError(f"malformed coefficient file: {exc}") from exc
    for name, v in zip(HydroCoeffs._fields, coeffs):
        if isinstance(v, float) and not math.isfinite(v):
            raise CoefficientError(f"coefficient {name} is not finite")
    if not coeffs.schema_version:
        raise CoefficientError("coefficient table missing schema_version")
    return ship, mass, coeffs


class ShipModel:
    """Immutable bundle of ship particulars, masses and hydrodynamic coefficients.

    Loaded once from a coefficient JSON file and shared across agents/threads.
    ``delta_rate_max`` is the rudder rate cap: 5 deg/s at full scale, which
    is radians(5) * L / U_des per unit t'.
    """

    def __init__(self, doc: dict):
        self.doc = doc
        self.ship, self.mass, self.coeffs = _coeffs_from_dict(doc)
        self.delta_rate_max = math.radians(5.0) * self.ship.L / self.ship.U_des

    @classmethod
    @functools.lru_cache(maxsize=None)
    def default_kcs(cls) -> "ShipModel":
        """The packaged KCS model, loaded once per process."""
        text = resources.files("asvsim.data").joinpath("kcs_coeffs.json").read_text()
        return cls(json.loads(text))

    def make_derivative(self, n_prop: float):
        """The vessel dynamics: closure d(psi, u, v, r, delta) -> the 6
        derivatives of (x, y, psi, u, v, r), which read no position.

        This is the one force model: hull polynomial, propeller thrust and
        rudder normal force summed per the MMG decomposition; surge uses the
        decoupled equation, (v_dot, r_dot) solve the 2x2 sway-yaw system
        [[m+m_y, m*x_G], [m*x_G, I_zz+J_zz]], and the kinematics rotate the
        body velocities into the global frame.  Every coefficient is bound
        to a local, since the RK4 of the simulation loop calls it four
        times per vessel-step.
        """
        ship, c, mass = self.ship, self.coeffs, self.mass
        R_0, X_vv, X_vr, X_rr, X_vvvv = c.R_0, c.X_vv, c.X_vr, c.X_rr, c.X_vvvv
        Y_v, Y_r, Y_vvv, Y_vvr, Y_vrr, Y_rrr = c.Y_v, c.Y_r, c.Y_vvv, c.Y_vvr, c.Y_vrr, c.Y_rrr
        N_v, N_r, N_vvv, N_vvr, N_vrr, N_rrr = c.N_v, c.N_r, c.N_vvv, c.N_vvr, c.N_vrr, c.N_rrr
        m, m_x = mass.m, mass.m_x
        a, b, dI, det = _sway_yaw(mass, ship.x_G_nd)
        A_fac = c.A_R / (ship.L * ship.d_em) * c.f_alpha
        t_R1 = 1.0 - c.t_R
        a_H1 = 1.0 + c.a_H
        N_lever = c.x_R_nd + c.a_H * c.x_H_nd
        gamma_R, l_R = c.gamma_R, c.l_R_nd
        w1 = 1.0 - c.w_p0
        eps_r, kappa, eta = c.epsilon, c.kappa, c.eta
        k_0, k_1, k_2 = c.k_0, c.k_1, c.k_2
        thrust_norm, J_fac = _thrust_factors(n_prop, ship, c)
        cos, sin, atan2, hypot, sqrt, pi = (
            math.cos, math.sin, math.atan2, math.hypot, math.sqrt, math.pi)

        def deriv(psi, u, v, r, delta):
            Ut = hypot(u, v)
            if Ut < _EPS_SPEED:
                X_H = Y_H = N_H = 0.0
                beta = 0.0
                rd = 0.0
            else:
                vd = v / Ut
                rd = r / Ut
                s2 = Ut * Ut
                vd2 = vd * vd
                rd2 = rd * rd
                X_H = s2 * (-R_0 + X_vv * vd2 + X_vr * vd * rd + X_rr * rd2 + X_vvvv * vd2 * vd2)
                Y_H = s2 * (Y_v * vd + Y_r * rd + Y_vvv * vd2 * vd + Y_vvr * vd2 * rd
                            + Y_vrr * vd * rd2 + Y_rrr * rd2 * rd)
                N_H = s2 * (N_v * vd + N_r * rd + N_vvv * vd2 * vd + N_vvr * vd2 * rd
                            + N_vrr * vd * rd2 + N_rrr * rd2 * rd)
                beta = atan2(-v, u)
            beta_R = beta - l_R * rd
            v_R = Ut * gamma_R * beta_R
            if n_prop > 0.0 and u > 0.0:
                J = J_fac * u
                if J < 1e-9:
                    J = 1e-9
                K_T = k_0 + k_1 * J + k_2 * J * J
                X_Pu = thrust_norm * K_T
                K_T_r = K_T if K_T > 0.0 else 0.0
                u_R = u * w1 * eps_r * sqrt(
                    eta * (1.0 + kappa * (sqrt(1.0 + 8.0 * K_T_r / (pi * J * J)) - 1.0)) ** 2
                    + (1.0 - eta))
            else:
                X_Pu = 0.0
                u_R = 0.0
            U_R_sq = u_R * u_R + v_R * v_R
            alpha_R = delta - atan2(v_R, u_R) if U_R_sq > 0.0 else delta
            F_N = A_fac * U_R_sq * sin(alpha_R)
            cd = cos(delta)
            X_R = -t_R1 * F_N * sin(delta)
            Y_R = -a_H1 * F_N * cd
            N_R = -N_lever * F_N * cd
            X = X_H + X_R + X_Pu
            Y = Y_H + Y_R
            N = N_H + N_R
            u_dot = (X + m * v * r + b * r * r) / (m + m_x)
            rhs_Y = Y - m * u * r
            rhs_N = N - b * u * r
            v_dot = (dI * rhs_Y - b * rhs_N) / det
            r_dot = (-b * rhs_Y + a * rhs_N) / det
            cp, sp = cos(psi), sin(psi)
            return (cp * u - sp * v, sp * u + cp * v, r, u_dot, v_dot, r_dot)

        return deriv
