"""Non-dimensional 3-DOF MMG maneuvering model of the KCS container ship.

Hull, propeller and rudder forces follow the MMG standard decomposition
X = X_H + X_R + X_P, Y = Y_H + Y_R, N = N_H + N_R.  Everything is expressed
in the prime-II system: forces by 0.5*rho*U^2*L*d, moments by
0.5*rho*U^2*L^2*d, speeds by the design speed U, time by L/U.  Coefficient
values live in a versioned JSON file (see data/kcs_coeffs.json); the
propeller revolution rate n is kept dimensional (rev/s) because the advance
ratio is formed from dimensional quantities.

The force model and the equations of motion are written once, in the
closure that ``ShipModel.make_derivative`` returns.  ``propeller_force``
serves only the self-propulsion search, which balances it against the
straight-run hull resistance.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple, Tuple

DELTA_MAX = math.radians(35.0)


class CoefficientError(ValueError):
    """Raised for malformed or physically inconsistent coefficient tables."""


class ShipParams(NamedTuple):
    """Principal particulars of the vessel (dimensional).

    Built by ``_coeffs_from_dict``, which rejects a non-positive L, B,
    d_em, U_des or rho_w.
    """

    L: float
    B: float
    d_em: float
    U_des: float
    rho_w: float
    displacement: float
    x_G_nd: float


@dataclass(frozen=True)
class MassParams:
    """Non-dimensional mass, added mass and inertia (prime-II)."""

    m: float
    m_x: float
    m_y: float
    I_zz: float
    J_zz: float
    x_G: float

    def __post_init__(self):
        if min(self.m, self.m_x, self.m_y, self.I_zz, self.J_zz) <= 0.0:
            raise CoefficientError("mass parameters must be > 0")
        if self.sway_yaw_det() <= 0.0:
            raise CoefficientError("sway-yaw mass matrix is singular")

    def sway_yaw_det(self) -> float:
        return (self.m + self.m_y) * (self.I_zz + self.J_zz) - (self.m * self.x_G) ** 2


class HydroCoeffs(NamedTuple):
    """Flat, named coefficient table for hull, propeller and rudder forces.

    Self-contained: also carries the geometry and normalization context
    (L, d_em, U_des, rho_w, D_p, A_R) needed to evaluate the forces.
    Built by ``_coeffs_from_dict``, which rejects a non-finite float and an
    empty ``schema_version``.
    """

    schema_version: str
    # normalization context
    L: float
    d_em: float
    U_des: float
    rho_w: float
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


@dataclass(frozen=True)
class ActuatorLimits:
    """Rudder saturation (35 deg), rate cap and first-order time constant.

    The rate cap is non-dimensional: 5 deg/s at full scale corresponds to
    radians(5) * L / U_des per unit t', which ``ShipModel`` derives from
    the ship's particulars.
    """

    delta_rate_max: float
    delta_max: float = DELTA_MAX
    T_delta: float = 1.0

    def __post_init__(self):
        if min(self.delta_max, self.delta_rate_max, self.T_delta) <= 0.0:
            raise CoefficientError("actuator limits must be > 0")


_EPS_SPEED = 1e-9
#: bracket width (rev/s) at which the self-propulsion bisection stops
_RPM_TOL = 1e-8


def _advance_ratio(u: float, n_prop: float, c: HydroCoeffs) -> float:
    return (1.0 - c.w_p0) * u * c.U_des / (n_prop * c.D_p)


def propeller_force(u: float, n_prop: float, c: HydroCoeffs) -> float:
    """Propeller surge force X_P from the quadratic open-water fit."""
    if n_prop < 0.0:
        raise ValueError("n_prop must be >= 0")
    if n_prop == 0.0:
        return 0.0
    J = _advance_ratio(u, n_prop, c)
    K_T = c.k_0 + c.k_1 * J + c.k_2 * J * J
    thrust = c.rho_w * n_prop ** 2 * c.D_p ** 4 * K_T
    norm = 0.5 * c.rho_w * c.U_des ** 2 * c.L * c.d_em
    return (1.0 - c.t_p) * thrust / norm


def rudder_rate(delta: float, delta_c: float, limits: ActuatorLimits) -> float:
    """Rudder slew rate: first-order response saturated at delta_rate_max."""
    raw = (delta_c - delta) / limits.T_delta
    if abs(raw) <= limits.delta_rate_max:
        return raw
    return math.copysign(limits.delta_rate_max, raw)


def self_propulsion_rpm(target_u: float, c: HydroCoeffs) -> float:
    """Revolution rate (rev/s) balancing thrust and resistance at target_u.

    Bisection on the straight-run force residual X_P + X_H; raises
    CoefficientError if no sign change is found in the search bracket.
    """
    if not 0.0 < target_u <= 1.2:
        raise ValueError(f"target_u must be in (0, 1.2], got {target_u}")
    X_H = (target_u * target_u) * -c.R_0  # hull resistance at v = r = 0

    def residual(n: float) -> float:
        return propeller_force(target_u, n, c) + X_H

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
    """The one constructor of ``ShipParams`` and ``HydroCoeffs``, and the
    place their file checks live."""
    try:
        ship = ShipParams(**doc["ship"])
        for name in ("L", "B", "d_em", "U_des", "rho_w"):
            if getattr(ship, name) <= 0.0:
                raise CoefficientError(f"ship parameter {name} must be > 0")
        mass = MassParams(x_G=doc["ship"]["x_G_nd"], **doc["mass"])
        coeffs = HydroCoeffs(
            schema_version=doc["schema_version"],
            L=ship.L,
            d_em=ship.d_em,
            U_des=ship.U_des,
            rho_w=ship.rho_w,
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
    """

    def __init__(self, doc: dict):
        self.doc = doc
        self.ship, self.mass, self.coeffs = _coeffs_from_dict(doc)
        self.limits = ActuatorLimits(
            delta_rate_max=math.radians(5.0) * self.ship.L / self.ship.U_des)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def default_kcs(cls) -> "ShipModel":
        """The packaged KCS model, loaded once per process."""
        text = resources.files("asvsim.data").joinpath("kcs_coeffs.json").read_text()
        return cls(json.loads(text))

    def make_derivative(self, n_prop: float):
        """The vessel dynamics: closure d(x, y, psi, u, v, r, delta) -> 6 derivatives.

        This is the one force model: hull polynomial, propeller thrust and
        rudder normal force summed per the MMG decomposition; surge uses the
        decoupled equation, (v_dot, r_dot) solve the 2x2 sway-yaw system
        [[m+m_y, m*x_G], [m*x_G, I_zz+J_zz]], and the kinematics rotate the
        body velocities into the global frame.  Every coefficient is bound
        to a local, since the RK4 of the simulation loop calls it four
        times per vessel-step.
        """
        c = self.coeffs
        mass = self.mass
        R_0, X_vv, X_vr, X_rr, X_vvvv = c.R_0, c.X_vv, c.X_vr, c.X_rr, c.X_vvvv
        Y_v, Y_r, Y_vvv, Y_vvr, Y_vrr, Y_rrr = c.Y_v, c.Y_r, c.Y_vvv, c.Y_vvr, c.Y_vrr, c.Y_rrr
        N_v, N_r, N_vvv, N_vvr, N_vrr, N_rrr = c.N_v, c.N_r, c.N_vvv, c.N_vvr, c.N_vrr, c.N_rrr
        m, m_x, x_G = mass.m, mass.m_x, mass.x_G
        a = m + mass.m_y
        b = m * x_G
        dI = mass.I_zz + mass.J_zz
        det = a * dI - b * b
        A_fac = c.A_R / (c.L * c.d_em) * c.f_alpha
        t_R1 = 1.0 - c.t_R
        a_H1 = 1.0 + c.a_H
        N_lever = c.x_R_nd + c.a_H * c.x_H_nd
        gamma_R, l_R = c.gamma_R, c.l_R_nd
        w1 = 1.0 - c.w_p0
        eps_r, kappa, eta = c.epsilon, c.kappa, c.eta
        k_0, k_1, k_2 = c.k_0, c.k_1, c.k_2
        # propeller force depends on u; precompute the u-independent parts
        thrust_norm = (1.0 - c.t_p) * c.rho_w * n_prop ** 2 * c.D_p ** 4 / (
            0.5 * c.rho_w * c.U_des ** 2 * c.L * c.d_em) if n_prop > 0.0 else 0.0
        J_fac = w1 * c.U_des / (n_prop * c.D_p) if n_prop > 0.0 else 0.0
        cos, sin, atan2, hypot, sqrt, pi = (
            math.cos, math.sin, math.atan2, math.hypot, math.sqrt, math.pi)

        def deriv(x, y, psi, u, v, r, delta):
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
