"""Coordinate frames, poses and angle arithmetic.

Conventions used throughout the package:

* The global frame (GCS) is earth-fixed with the z-axis pointing down.
  Heading ``psi`` is measured from the global x-axis and is positive
  clockwise when viewed from above, so a starboard turn increases ``psi``
  and the body y-axis (starboard) maps to global +y at ``psi = 0``.
* All simulation quantities are non-dimensional (prime-II): lengths in
  ship lengths L, speeds as fractions of the design speed, time in units
  of L/U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

Vec2 = Tuple[float, float]

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    r = a % TWO_PI  # [0, 2*pi)
    if r > math.pi:
        r -= TWO_PI
    return r


@dataclass(frozen=True)
class Pose:
    """Planar pose: position in ship lengths, heading in radians.

    ``psi`` is normalized to (-pi, pi] on construction.
    """

    x: float
    y: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "psi", wrap_angle(self.psi))


@dataclass(frozen=True)
class BodyVelocity:
    """Body-frame velocities: surge u, sway v (design-speed units), yaw rate r."""

    u: float
    v: float
    r: float

    # Cap on |u| used by the engine to catch integrator blow-up.
    U_CAP = 2.0
