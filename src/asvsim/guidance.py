"""ILOS waypoint guidance with anti-windup integrator and PD heading control.

The guidance law steers toward a point a look-ahead distance Delta ahead of
the cross-track foot point, with a slowly-varying integral state that keeps
the straight-line path globally asymptotically stable.  The PD law maps the
wrapped heading error to a commanded rudder angle, clamped at 35 degrees.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .frames import Vec2, wrap_angle
from .mmg import DELTA_MAX

#: ILOS look-ahead distance Delta (L), integral factor k and waypoint
#: switching radius R_tol (L) of the reference tuning
DELTA = 2.0
K_FACTOR = 0.05
R_TOL = 3.0
#: ILOS gains Kp_g = 1 / Delta and Ki_g = k * Kp_g
KP_G = 1.0 / DELTA
KI_G = K_FACTOR * KP_G
#: proportional and derivative gains of the PD heading controller
KP_C = 3.5
KD_C = 4.0


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


def ilos_desired_heading(pi_p: float, y_e: float, y_int: float) -> float:
    """psi_d = pi_p - atan(Kp*y_e + Ki*y_int), wrapped to (-pi, pi]."""
    return wrap_angle(pi_p - math.atan(KP_G * y_e + KI_G * y_int))


def ilos_integrator_derivative(y_e: float, y_int: float) -> float:
    """Anti-windup integrator dynamics for the cross-track integral state."""
    s = y_e + K_FACTOR * y_int
    return DELTA * y_e / (DELTA * DELTA + s * s)


def should_switch_waypoint(pos: Vec2, wp_k1: Vec2) -> bool:
    """True once the vessel is within (<=) the switching radius R_TOL of the target."""
    return math.hypot(wp_k1[0] - pos[0], wp_k1[1] - pos[1]) <= R_TOL


def pd_rudder_command(psi: float, psi_d: float, r: float) -> float:
    """Commanded rudder from wrapped heading error; clamped at DELTA_MAX."""
    e = wrap_angle(psi - psi_d)
    delta_c = -KP_C * e - KD_C * r
    if delta_c > DELTA_MAX:
        return DELTA_MAX
    if delta_c < -DELTA_MAX:
        return -DELTA_MAX
    return delta_c
