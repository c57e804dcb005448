"""Coordinate frames and angle arithmetic.

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
from typing import Tuple

Vec2 = Tuple[float, float]

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    r = a % TWO_PI  # [0, 2*pi)
    if r > math.pi:
        r -= TWO_PI
    return r
