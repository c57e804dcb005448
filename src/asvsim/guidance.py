"""ILOS waypoint guidance with anti-windup integrator and PD heading control.

The guidance law steers toward a point a look-ahead distance Delta ahead of
the cross-track foot point, with a slowly-varying integral state that keeps
the straight-line path globally asymptotically stable.  The PD law maps the
wrapped heading error to a commanded rudder angle, clamped at 35 degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .frames import Vec2, wrap_angle
from .mmg import DELTA_MAX


@dataclass(frozen=True)
class ILOSParams:
    """Guidance parameters; defaults reproduce the reference tuning.

    The gains Kp_g = 1 / Delta and Ki_g = k_factor * Kp_g are derived once,
    on construction.
    """

    Delta: float = 2.0
    k_factor: float = 0.05
    R_tol: float = 3.0
    Kp_g: float = field(init=False, repr=False, compare=False)
    Ki_g: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.Delta < math.inf and 0.0 < self.R_tol < math.inf):
            raise ValueError("Delta and R_tol must be > 0")
        if not math.isfinite(self.k_factor):
            raise ValueError("k_factor must be finite")
        object.__setattr__(self, "Kp_g", 1.0 / self.Delta)
        object.__setattr__(self, "Ki_g", self.k_factor * self.Kp_g)


@dataclass(frozen=True)
class PDGains:
    """Proportional and derivative gains of the heading controller, each in (0, inf)."""

    Kp_c: float = 3.5
    Kd_c: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.Kp_c < math.inf and 0.0 < self.Kd_c < math.inf):
            raise ValueError("PD gains must be > 0")


class SegmentFrame(NamedTuple):
    """Path-fixed frame of one segment: its start point, its tangential angle
    pi_p and that angle's cosine and sine.  Fixed while the segment is
    active, so it is computed once per segment."""

    origin: Vec2
    angle: float
    cos: float
    sin: float


def segment_frame(wp_k: Vec2, wp_k1: Vec2) -> SegmentFrame:
    """Frame of the segment wp_k -> wp_k1, whose ends ``AgentSpec`` keeps apart."""
    pi_p = math.atan2(wp_k1[1] - wp_k[1], wp_k1[0] - wp_k[0])
    return SegmentFrame(wp_k, pi_p, math.cos(pi_p), math.sin(pi_p))


def track_errors(pos: Vec2, frame: SegmentFrame) -> tuple:
    """Along-track and cross-track errors (x_e, y_e) of pos w.r.t. the segment."""
    rx = pos[0] - frame.origin[0]
    ry = pos[1] - frame.origin[1]
    c, s = frame.cos, frame.sin
    return (c * rx + s * ry, -s * rx + c * ry)


def ilos_desired_heading(pi_p: float, y_e: float, y_int: float, p: ILOSParams) -> float:
    """psi_d = pi_p - atan(Kp*y_e + Ki*y_int), wrapped to (-pi, pi]."""
    return wrap_angle(pi_p - math.atan(p.Kp_g * y_e + p.Ki_g * y_int))


def ilos_integrator_derivative(y_e: float, y_int: float, p: ILOSParams) -> float:
    """Anti-windup integrator dynamics for the cross-track integral state."""
    D = p.Delta
    s = y_e + p.k_factor * y_int
    return D * y_e / (D * D + s * s)


def should_switch_waypoint(pos: Vec2, wp_k1: Vec2, R_tol: float) -> bool:
    """True once the vessel is within (<=) the switching radius of the target."""
    return math.hypot(wp_k1[0] - pos[0], wp_k1[1] - pos[1]) <= R_tol


def pd_rudder_command(psi: float, psi_d: float, r: float, g: PDGains) -> float:
    """Commanded rudder from wrapped heading error; clamped at DELTA_MAX."""
    e = wrap_angle(psi - psi_d)
    delta_c = -g.Kp_c * e - g.Kd_c * r
    if delta_c > DELTA_MAX:
        return DELTA_MAX
    if delta_c < -DELTA_MAX:
        return -DELTA_MAX
    return delta_c
