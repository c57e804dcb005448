"""Reactive guidance from artificial potential fields.

Three field families:

* inverse-square: quadratic attraction to the goal plus the classical
  inverse-square repulsion inside an influence distance d0;
* sink-vortex: a harmonic sink at the goal and a harmonic vortex of fixed
  strength at each detected obstacle;
* modified sink-vortex: as above, but the vortex strength is gated by the
  relative bearing gamma and the radial/tangential relative velocity and
  scaled up with collision risk, which yields COLREGS-consistent behavior.

The vortex Cartesian form is v = (K / (2 pi r^2)) * (-dy, dx) in the z-down
global frame, so the default negative vortex strength deflects a head-on
approacher to starboard.  Channel walls are modeled as line sources active
within a threshold distance of the wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

from .frames import TWO_PI, Vec2, wrap_angle

# Gradient/velocity magnitudes below this are treated as stagnation.
STAGNATION_EPS = 1e-9


class FieldSingularity(ValueError):
    """Raised when a field is evaluated at its singular point."""


class OwnShip(NamedTuple):
    """The own-ship quantities the guidance fields read: position (L),
    heading psi (rad) and body-frame surge u and sway v.  The engine passes
    its per-agent state, which carries the same attributes."""

    x: float
    y: float
    psi: float
    u: float
    v: float


@dataclass(frozen=True)
class StaticObstacle:
    """A fixed disc obstacle: its centre and radius; rejects a radius outside (0, inf)."""

    center: Vec2
    R_obs: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.R_obs < math.inf:
            raise ValueError("R_obs must be > 0")


#: encounter classes assigned when a dynamic target first enters the
#: detection radius; the class persists until the pair separates again
ENCOUNTER_ACTIVE = "active"
ENCOUNTER_OVERTAKEN = "overtaken"
ENCOUNTER_STAND_ON = "stand_on"

#: bearing margin around dead-ahead treated as a head-on (both vessels keep
#: their vortex; no stand-on exemption), per the nearly-reciprocal-course rule
HEAD_ON_BEARING_MARGIN = math.radians(6.0)


@dataclass(frozen=True)
class ObstacleView:
    """Snapshot of an obstacle as seen by the guidance: position, global
    velocity (zero for static), an effective radius (zero for vessels), and
    the encounter class assigned when the pair came into detection range."""

    position: Vec2
    velocity_global: Vec2
    radius: float = 0.0
    encounter_class: str = ENCOUNTER_ACTIVE


@dataclass(frozen=True)
class InverseSquareParams:
    """Gains and influence distance of the inverse-square field, each in (0, inf)."""

    k_att: float = 50.0
    k_rep: float = 200000.0
    d0: float = 15.0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.k_att, self.k_rep, self.d0)):
            raise ValueError("inverse-square parameters must be > 0")


@dataclass(frozen=True)
class HarmonicParams:
    """Sink and vortex strengths and ranges of the harmonic fields; rejects
    a non-finite value, a sink strength >= 0 and a range or tolerance <= 0."""

    Lambda_sink: float = -100.0
    K_vor0: float = -10.0
    R_tol_vortex: float = 3.0
    # range inside which a stand-on/overtaken vessel abandons its passive
    # duty when the give-way ship has evidently failed to act
    in_extremis_range: float = 10.0

    def __post_init__(self):
        if not -math.inf < self.Lambda_sink < 0.0:
            raise ValueError("Lambda_sink must be < 0 (sink)")
        if not math.isfinite(self.K_vor0):
            raise ValueError("K_vor0 must be finite")
        if not (0.0 < self.R_tol_vortex < math.inf and 0.0 < self.in_extremis_range < math.inf):
            raise ValueError("R_tol_vortex and in_extremis_range must be > 0")


@dataclass(frozen=True)
class ChannelBoundary:
    """Two parallel channel walls, each given as a line segment.

    Line sources on the walls repel the vessel toward the channel interior
    whenever it is within ``activation_distance`` of a wall.  Each wall's
    line frame (origin, unit tangent, unit normal toward the other wall) and
    the channel width are computed once, on construction.
    """

    boundary_a: Tuple[Vec2, Vec2]
    boundary_b: Tuple[Vec2, Vec2]
    activation_distance: float = 2.0
    Lambda_src: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.activation_distance < math.inf and 0.0 < self.Lambda_src < math.inf):
            raise ValueError("activation distance and source strength must be > 0")
        lines = []
        for (x0, y0), (x1, y1) in (self.boundary_a, self.boundary_b):
            dx, dy = x1 - x0, y1 - y0
            L = math.hypot(dx, dy)
            if L < 1e-9:
                raise ValueError("degenerate boundary segment")
            lines.append((x0, y0, dx / L, dy / L))
        (ax, ay, atx, aty), (bx, by, btx, bty) = lines
        if abs(atx * bty - aty * btx) > 1e-9:
            raise ValueError("channel walls must be parallel")
        width = abs(-aty * (bx - ax) + atx * (by - ay))
        if width < 1e-9:
            raise ValueError("channel walls must not lie on one line")
        walls = []
        for (ox, oy, tx, ty), (px, py, _, _) in ((lines[0], lines[1]), (lines[1], lines[0])):
            side = -ty * (px - ox) + tx * (py - oy)
            sign = 1.0 if side >= 0.0 else -1.0
            walls.append((ox, oy, tx, ty, sign * -ty, sign * tx))
        # frozen: the derived frames are set past the generated __setattr__
        object.__setattr__(self, "_walls", tuple(walls))
        object.__setattr__(self, "_width", width)

    def signed_offsets(self, pos: Vec2) -> Tuple[float, float]:
        """Perpendicular distances from pos to wall lines a and b (unsigned)."""
        (ax, ay, atx, aty, _, _), (bx, by, btx, bty, _, _) = self._walls
        x, y = pos
        return (abs(-aty * (x - ax) + atx * (y - ay)),
                abs(-bty * (x - bx) + btx * (y - by)))

    def contains(self, pos: Vec2) -> bool:
        da, db = self.signed_offsets(pos)
        w = self._width
        return da <= w + 1e-9 and db <= w + 1e-9


def inverse_square_gradient(
    pos: Vec2,
    goal: Vec2,
    obstacles: Sequence[ObstacleView],
    p: InverseSquareParams,
) -> Vec2:
    """Steepest-descent direction -grad(phi) of the inverse-square field.

    The attractive term is -k_att * (pos - goal); each obstacle with
    clearance rho <= d0 adds
    2 k_rep (pos - X_o) / (rho^2 (rho + R_obs)) * (1/rho - 1/d0).
    Obstacles farther than d0 contribute nothing.
    """
    gx = -p.k_att * (pos[0] - goal[0])
    gy = -p.k_att * (pos[1] - goal[1])
    for ob in obstacles:
        dx = pos[0] - ob.position[0]
        dy = pos[1] - ob.position[1]
        dist = math.hypot(dx, dy)
        rho = dist - ob.radius
        if rho <= 0.0:
            raise FieldSingularity("vessel inside obstacle disc")
        if rho > p.d0:
            continue
        coef = 2.0 * p.k_rep * (1.0 / rho - 1.0 / p.d0) / (rho * rho * dist)
        gx += coef * dx
        gy += coef * dy
    return (gx, gy)


def sink_velocity(pos: Vec2, goal: Vec2, Lambda: float) -> Vec2:
    """Radial harmonic flow of strength Lambda centered at the goal."""
    dx = pos[0] - goal[0]
    dy = pos[1] - goal[1]
    r_sq = dx * dx + dy * dy
    if r_sq < STAGNATION_EPS * STAGNATION_EPS:
        raise FieldSingularity("sink evaluated at its center")
    coef = Lambda / (TWO_PI * r_sq)
    return (coef * dx, coef * dy)


def vortex_velocity(pos: Vec2, center: Vec2, K: float) -> Vec2:
    """Tangential harmonic flow of strength K centered at the obstacle."""
    dx = pos[0] - center[0]
    dy = pos[1] - center[1]
    r_sq = dx * dx + dy * dy
    if r_sq < STAGNATION_EPS * STAGNATION_EPS:
        raise FieldSingularity("vortex evaluated at its center")
    coef = K / (TWO_PI * r_sq)
    return (-coef * dy, coef * dx)


def _range_bearing(own: OwnShip, obs_pos: Vec2) -> Tuple[float, float]:
    """Separation of the obstacle from the vessel and its bearing gamma
    relative to the bow, in (-pi, pi]."""
    dx = obs_pos[0] - own.x
    dy = obs_pos[1] - own.y
    sep = math.hypot(dx, dy)
    if sep < 1e-12:
        raise FieldSingularity("coincident vessel and obstacle positions")
    return sep, wrap_angle(math.atan2(dy, dx) - own.psi)


def bearing_gamma(own: OwnShip, obs_pos: Vec2) -> float:
    """Bearing of the obstacle relative to the vessel's bow, in (-pi, pi]."""
    return _range_bearing(own, obs_pos)[1]


def radial_tangential(own: OwnShip, obs: ObstacleView, gamma: float) -> Tuple[float, float]:
    """Radial and tangential components of the obstacle's relative velocity.

    The relative velocity in the global frame is V_obs - R(psi) nu, with
    V_obs the obstacle's global-frame velocity (zero for a static one).  It
    is expressed in the body frame (rotation by -psi) and then rotated by
    the bearing gamma, so the components align with the line of sight:
    v_r < 0 means the obstacle is closing, and v_theta is the transversal
    rate (positive when the target drifts toward larger bearings, i.e.
    starboard-abaft).  cos/sin of psi are taken once for both rotations.
    """
    psi = own.psi
    c, s = math.cos(psi), math.sin(psi)
    u, v = own.u, own.v
    own_vx = c * u - s * v
    own_vy = s * u + c * v
    rel_x = obs.velocity_global[0] - own_vx
    rel_y = obs.velocity_global[1] - own_vy
    bx = c * rel_x + s * rel_y
    by = -s * rel_x + c * rel_y
    cg, sg = math.cos(gamma), math.sin(gamma)
    v_r = cg * bx + sg * by
    v_theta = -sg * bx + cg * by
    return v_r, v_theta


def vortex_scale_factor(separation: float, v_r: float, R_safe: float) -> float:
    """Risk scaling f >= 1; grows as separation shrinks or closing speed rises."""
    return max(1.0, 2.0 - separation / R_safe - v_r)


def classify_encounter(own: OwnShip, obs: ObstacleView) -> str:
    """Assign the COLREGS encounter class when a dynamic target is first
    detected; the caller keeps the class until the pair is past and clear.

    * target abaft the 5 pi / 8 bearing: it is overtaking us, we stand on;
    * target on the port bow while we sit on its starboard bow: a crossing
      in which the other ship gives way, so we stand on;
    * anything else (head-on sector, give-way crossing, us overtaking):
      the vortex gate stays armed.
    """
    gamma = bearing_gamma(own, obs.position)
    if abs(gamma) > 5.0 * math.pi / 8.0:
        return ENCOUNTER_OVERTAKEN
    # gamma > -5 pi / 8 here: the test above leaves -5 pi / 8 only, which
    # wrap_angle never returns (its results there are multiples of 2**-50)
    if gamma < -HEAD_ON_BEARING_MARGIN:
        vx, vy = obs.velocity_global
        if math.hypot(vx, vy) > 1e-6:
            target_course = math.atan2(vy, vx)
            gamma_t = wrap_angle(
                math.atan2(own.y - obs.position[1],
                           own.x - obs.position[0]) - target_course)
            if HEAD_ON_BEARING_MARGIN < gamma_t < 5.0 * math.pi / 8.0:
                return ENCOUNTER_STAND_ON
    return ENCOUNTER_ACTIVE


def _in_extremis(sep: float, v_r: float, v_theta: float, p: HarmonicParams) -> bool:
    """True when a passive vessel must act after all: the closing is real,
    the range is short, and the straight-line pass prediction is inside the
    collision radius (the give-way ship has evidently not resolved it)."""
    if v_r >= 0.0 or sep > p.in_extremis_range:
        return False
    return abs(v_theta) * sep / -v_r < p.R_tol_vortex


def modified_vortex_strength(own: OwnShip, obs: ObstacleView, p: HarmonicParams,
                             R_safe: float) -> float:
    """Gated vortex strength for one obstacle.

    Passive encounter classes (stand-on, being overtaken) keep the vortex
    at zero unless the in-extremis test fires.  For armed encounters the
    vortex is zero when the obstacle is already passing clear
    (v_theta > -2 R_tol / separation * v_r) or lies abaft the 5 pi / 8
    bearing; otherwise f * K_vor0, with f scaled by the detection radius
    R_safe.
    """
    sep, gamma = _range_bearing(own, obs.position)
    v_r, v_theta = radial_tangential(own, obs, gamma)
    if obs.encounter_class != ENCOUNTER_ACTIVE:
        if not _in_extremis(sep, v_r, v_theta, p):
            return 0.0
    elif abs(gamma) > 5.0 * math.pi / 8.0:
        return 0.0
    elif v_theta > (-2.0 * p.R_tol_vortex / sep) * v_r:
        return 0.0
    return vortex_scale_factor(sep, v_r, R_safe) * p.K_vor0


def boundary_source_velocity(pos: Vec2, ch: ChannelBoundary) -> Vec2:
    """Summed line-source flow from channel walls within activation distance.

    Each active wall contributes magnitude Lambda_src / (2 pi dist) directed
    perpendicular to the wall, toward the channel centerline.
    """
    if not ch.contains(pos):
        raise FieldSingularity("position outside the channel")
    vx = vy = 0.0
    for ox, oy, tx, ty, nx, ny in ch._walls:
        dist = abs(-ty * (pos[0] - ox) + tx * (pos[1] - oy))
        if dist > ch.activation_distance:
            continue
        mag = ch.Lambda_src / (TWO_PI * max(dist, 1e-9))
        vx += mag * nx
        vy += mag * ny
    return (vx, vy)


def desired_heading_harmonic(
    own: OwnShip,
    goal: Vec2,
    obstacles: Sequence[ObstacleView],
    boundaries: Optional[ChannelBoundary],
    p: HarmonicParams,
    R_safe: float,
    modified: bool,
    prev_psi_d: float,
) -> float:
    """Heading of the composed sink + vortex (+ wall source) flow field.

    ``obstacles`` are the detected ones, those within the detection radius
    R_safe.  With ``modified`` the per-obstacle vortex strength passes
    through the COLREGS gate; otherwise every detected obstacle gets K_vor0.
    Falls back to ``prev_psi_d`` at stagnation points.
    """
    pos = (own.x, own.y)
    vx, vy = sink_velocity(pos, goal, p.Lambda_sink)
    for ob in obstacles:
        K = modified_vortex_strength(own, ob, p, R_safe) if modified else p.K_vor0
        if K == 0.0:
            continue
        wx, wy = vortex_velocity(pos, ob.position, K)
        vx += wx
        vy += wy
    if boundaries is not None:
        bx, by = boundary_source_velocity(pos, boundaries)
        vx += bx
        vy += by
    if math.hypot(vx, vy) < STAGNATION_EPS:
        return prev_psi_d
    return math.atan2(vy, vx)


def desired_heading_inverse_square(
    own: OwnShip,
    goal: Vec2,
    obstacles: Sequence[ObstacleView],
    p: InverseSquareParams,
    prev_psi_d: float,
) -> float:
    """Heading of the inverse-square steepest-descent direction; falls back
    to ``prev_psi_d`` at stagnation points."""
    pos = (own.x, own.y)
    gx, gy = inverse_square_gradient(pos, goal, obstacles, p)
    if math.hypot(gx, gy) < STAGNATION_EPS:
        return prev_psi_d
    return math.atan2(gy, gx)
