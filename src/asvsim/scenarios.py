"""Canned scenarios: waypoint tracking, static avoidance, the COLREGS
encounter suite, the three-ship conflicting-responsibility case and the
narrow-channel head-on encounter.

All geometry is in ship lengths; speeds are fractions of the design speed.
"""

from __future__ import annotations

import math
from typing import Tuple

from .apf import ChannelBoundary, StaticObstacle
from .engine import AgentSpec, Scenario


def square_tracking(side: float = 30.0, method: str = "apf_mvortex") -> Scenario:
    """Four waypoints forming a square; the vessel starts at the origin."""
    wps = ((side, 0.0), (side, side), (0.0, side), (0.0, 0.0))
    agent = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=1.0,
                      waypoints=wps, method=method)
    return Scenario(agents=[agent], name="square_tracking")


def static_avoidance(method: str = "apf_sinkvortex", goal_x: float = 50.0) -> Scenario:
    """Single obstacle dead ahead on the way to a single goal waypoint."""
    agent = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=1.0,
                      waypoints=((goal_x, 0.0),), method=method)
    obstacle = StaticObstacle(center=(25.0, 0.0))
    return Scenario(agents=[agent], static_obstacles=[obstacle],
                    name=f"static_avoidance_{method}")


def head_on(method: str = "apf_mvortex") -> Scenario:
    """Reciprocal courses along the x-axis; collision at (25, 0) if unguided."""
    a = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=1.0,
                  waypoints=((50.0, 0.0),), method=method)
    b = AgentSpec(id=1, start=(50.0, 0.0), heading=math.pi, speed=1.0,
                  waypoints=((0.0, 0.0),), method=method)
    return Scenario(agents=[a, b], name="head_on")


def crossing(method: str = "apf_mvortex") -> Scenario:
    """Agent 1 crosses from the starboard side of agent 0."""
    a = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=1.0,
                  waypoints=((50.0, 0.0),), method=method)
    b = AgentSpec(id=1, start=(25.0, 25.0), heading=-math.pi / 2, speed=1.0,
                  waypoints=((25.0, -25.0),), method=method)
    return Scenario(agents=[a, b], name="crossing")


def overtaking(method: str = "apf_mvortex") -> Scenario:
    """Agent 0 overtakes agent 1, which runs at half the design speed.

    The overtaker's leg is long enough that the goal attraction stays weak
    through the pass, but short enough that it rejoins the shared track
    only after clearing the overtaken ship's detection radius.
    """
    a = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=1.0,
                  waypoints=((80.0, 0.0),), method=method)
    b = AgentSpec(id=1, start=(15.0, 0.0), heading=0.0, speed=0.5,
                  waypoints=((90.0, 0.0),), method=method)
    return Scenario(agents=[a, b], name="overtaking")


def three_ship(method: str = "apf_mvortex") -> Scenario:
    """Conflicting-responsibility scene: all three would meet at (20, 0).

    Ship 0 is overtaken by ship 1 while ship 2 approaches head-on; ship 0
    is stand-on w.r.t. ship 1 but give-way w.r.t. ship 2.
    """
    s1 = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=0.5,
                   waypoints=((60.0, 0.0),), method=method)
    s2 = AgentSpec(id=1, start=(-20.0, 0.0), heading=0.0, speed=1.0,
                   waypoints=((100.0, 0.0),), method=method)
    s3 = AgentSpec(id=2, start=(60.0, 0.0), heading=math.pi, speed=1.0,
                   waypoints=((0.0, 0.0),), method=method)
    return Scenario(agents=[s1, s2, s3], name="three_ship")


def narrow_channel(method: str = "apf_mvortex") -> Scenario:
    """Head-on encounter inside a 10L-wide diagonal channel with wall sources."""
    p0, p1 = (0.0, 0.0), (50.0, 50.0)
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    L = math.hypot(dx, dy)
    tx, ty = dx / L, dy / L
    nx, ny = -ty, tx
    half = 5.0  # half the channel width
    ext = 10.0  # extend walls beyond the endpoints
    wall = lambda sign: (
        (p0[0] - ext * tx + sign * half * nx, p0[1] - ext * ty + sign * half * ny),
        (p1[0] + ext * tx + sign * half * nx, p1[1] + ext * ty + sign * half * ny),
    )
    channel = ChannelBoundary(boundary_a=wall(+1.0), boundary_b=wall(-1.0))
    heading = math.atan2(dy, dx)
    a = AgentSpec(id=0, start=p0, heading=heading, speed=1.0,
                  waypoints=(p1,), method=method)
    b = AgentSpec(id=1, start=p1, heading=heading - math.pi, speed=1.0,
                  waypoints=(p0,), method=method)
    return Scenario(agents=[a, b], channel=channel, name="narrow_channel")
