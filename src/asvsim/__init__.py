"""Deterministic multi-agent surface-vessel simulator and evaluation harness.

Subsystems: MMG ship dynamics (mmg), ILOS waypoint guidance and PD heading
control (guidance), potential-field reactive guidance (apf), a velocity
obstacle baseline (vo), the simulation engine (engine), a Monte Carlo batch
harness (montecarlo), and file/plot/CLI surfaces (serialize, plots, cli).
"""

__version__ = "0.1.0"
