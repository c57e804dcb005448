"""Linear velocity-obstacle baseline with a constant-speed constraint.

Candidate own-ship velocities are constant-speed headings enumerated
outward from the goal bearing; a candidate is forbidden for a target when
the velocity relative to that target points into the collision cone (apex
at the target velocity, half-angle asin(cone_radius / separation)).  The
first admissible candidate in the enumeration wins, which makes the search
deterministic and biases ties toward small deviations and starboard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .apf import FieldSingularity, ObstacleView
from .frames import Vec2


#: heading search: candidate spacing, and the largest course change from
#: the goal bearing, which the search reaches in N_HEADING_STEPS steps a side
HEADING_RESOLUTION = math.radians(1.0)
MAX_COURSE_CHANGE = math.radians(90.0)
N_HEADING_STEPS = int(round(MAX_COURSE_CHANGE / HEADING_RESOLUTION))


@dataclass(frozen=True)
class VOParams:
    """Cone radius of the velocity obstacle, in (0, inf)."""

    # cone disc calibrated so that mutual VO encounters pass at about six
    # ship lengths, matching the reference head-on/crossing behavior
    cone_radius: float = 6.0

    def __post_init__(self):
        if not 0.0 < self.cone_radius < math.inf:
            raise ValueError("cone_radius must be > 0")


@dataclass(frozen=True)
class CollisionCone:
    """Forbidden relative-velocity cone for one target outside the combined
    radius; a target inside it has no cone and forbids every velocity."""

    apex_velocity: Vec2
    axis: Vec2  # unit vector from own position toward the target
    cos_half_angle: float

    def forbids(self, w: Vec2) -> bool:
        """True when own velocity w leads to collision with this target."""
        apex = self.apex_velocity
        rx = w[0] - apex[0]
        ry = w[1] - apex[1]
        axis = self.axis
        dot = rx * axis[0] + ry * axis[1]
        if dot <= 0.0:
            return False
        # inside iff angle(w_rel, axis) < half_angle
        return dot > math.hypot(rx, ry) * self.cos_half_angle


def collision_cone(own_pos: Vec2, target_pos: Vec2, target_vel: Vec2,
                   cone_radius: float) -> Optional[CollisionCone]:
    """The linear velocity-obstacle cone for one target; None for a target
    within ``cone_radius``, which forbids every own velocity."""
    dx = target_pos[0] - own_pos[0]
    dy = target_pos[1] - own_pos[1]
    sep = math.hypot(dx, dy)
    if sep <= cone_radius:
        return None
    return CollisionCone(
        apex_velocity=target_vel,
        axis=(dx / sep, dy / sep),
        cos_half_angle=math.cos(math.asin(cone_radius / sep)),
    )


def heading_admissible(own_pos: Vec2, own_speed: float, heading: float,
                       views: Sequence[ObstacleView], p: VOParams) -> bool:
    """True when sailing `heading` at the current speed clears every cone.

    Cones are built one at a time and the test stops at the first that
    forbids the course.
    """
    w = (own_speed * math.cos(heading), own_speed * math.sin(heading))
    for obs in views:
        cone = collision_cone(own_pos, obs.position, obs.velocity_global,
                              p.cone_radius + obs.radius)
        if cone is None or cone.forbids(w):
            return False
    return True


def vo_desired_heading(
    own_pos: Vec2,
    own_speed: float,
    goal: Vec2,
    views: Sequence[ObstacleView],
    p: VOParams,
) -> float:
    """Heading choice at constant (current) speed clearing all cones.

    ``views`` are the obstacles within the detection radius, each widening
    its cone by its effective radius.  Candidates are goal bearing
    +/- i*resolution with +i checked first, so exact ties resolve to
    starboard.  If no candidate clears every cone, the candidate violating
    the fewest cones (first in enumeration order) is returned.

    A target inside its cone radius (no cone) forbids every candidate, so
    it adds the same amount to every count and is left out of it: the first
    candidate that violates no cone wins at once.  A candidate's count
    stops as soon as it reaches the best count so far, since it can then no
    longer win.  Neither shortcut changes the result.
    """
    if own_speed <= 0.0:
        raise FieldSingularity("own speed must be > 0 for the constant-speed search")
    goal_bearing = math.atan2(goal[1] - own_pos[1], goal[0] - own_pos[0])
    if not views:
        return goal_bearing
    cones = [collision_cone(own_pos, obs.position, obs.velocity_global, p.cone_radius + obs.radius)
             for obs in views]
    tests = [cone.forbids for cone in cones if cone is not None]

    best_heading = goal_bearing
    best_violations = len(tests) + 1  # worse than any candidate
    for i in range(0, N_HEADING_STEPS + 1):
        offsets = (i * HEADING_RESOLUTION,) if i == 0 else (
            i * HEADING_RESOLUTION, -i * HEADING_RESOLUTION)
        for off in offsets:
            heading = goal_bearing + off
            w = (own_speed * math.cos(heading), own_speed * math.sin(heading))
            violations = 0
            for forbids in tests:
                if forbids(w):
                    violations += 1
                    if violations >= best_violations:
                        break
            if violations < best_violations:
                if violations == 0:
                    return heading
                best_violations = violations
                best_heading = heading
    return best_heading
