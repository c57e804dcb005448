"""Deterministic multi-agent surface-vessel simulator and evaluation harness.

Subsystems: MMG ship dynamics (mmg), ILOS waypoint guidance and PD heading
control (guidance), potential-field reactive guidance (apf), a velocity
obstacle baseline (vo), the simulation engine (engine), a Monte Carlo batch
harness (montecarlo), and file/plot/CLI surfaces (serialize, plots, cli).
"""

__version__ = "0.1.0"

from .frames import Vec2, wrap_angle
from .mmg import (
    ActuatorLimits,
    HydroCoeffs,
    MassParams,
    ShipModel,
    ShipParams,
)

__all__ = [
    "ActuatorLimits",
    "HydroCoeffs",
    "MassParams",
    "ShipModel",
    "ShipParams",
    "Vec2",
    "wrap_angle",
    "__version__",
]
