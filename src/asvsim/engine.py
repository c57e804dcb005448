"""Multi-agent simulation loop.

Per step, in order for every agent: waypoint-switch check, guidance-mode
arbitration (reactive supersedes path following inside the detection
radius), desired heading from the active guidance law, PD rudder command,
actuator integration, and RK4 integration of the vessel dynamics.  All
agents advance simultaneously from the state at the start of the step
(guidance reads it, only integration writes it), so the result is
independent of agent ordering.  A run ends when every agent has captured
its final waypoint, any pair breaches the collision threshold, or the time
budget is exhausted.

A scenario carries five parameters: the VO cone radius (``VOParams``) and
the step, time budget, detection radius and termination rule
(``SimConfig``).  The rest of the reference tuning is a module constant
beside the law that reads it: the ILOS and PD gains in ``guidance``, the
field gains, ranges and wall sources in ``apf``, the heading search in
``vo`` and ``COLLISION_THRESHOLD`` here.

The distance observation that opens each step measures every ship-ship
and ship-static distance once, for the collision and metric bookkeeping,
and fills the step's distance table: for each agent, the ascending indices
of the vessels and of the static obstacles within the detection radius.
Sensing reads the table instead of measuring again; its views come out in
ascending index order (vessels, then statics), which fixes the order in
which the guidance fields are summed.  The guidance laws measure the range
to each in-range view again, with ``hypot`` (``apf._range_bearing``,
``apf.inverse_square_gradient``, ``vo.collision_cone``).  Each vessel's
obstacle view (its position and global velocity, from one cos/sin of its
heading) is built once per step, on first use, and dropped when
integration moves the vessel.  The guidance laws read the own-ship state
from the per-agent runtime itself.  The active path segment's angle and its
cos/sin are kept until the next waypoint switch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from struct import Struct
from typing import Dict, Iterator, List, MutableSequence, NamedTuple, Optional, Tuple

from . import apf, vo
from .apf import ChannelBoundary, ObstacleView, StaticObstacle
from .frames import Vec2, wrap_angle
from .guidance import (
    ilos_desired_heading,
    ilos_integrator_derivative,
    pd_rudder_command,
    segment_frame,
    should_switch_waypoint,
    track_errors,
)
from .mmg import DELTA_MAX, ShipModel, rudder_step, self_propulsion_rpm
from .vo import VOParams

METHODS = ("apf_mvortex", "apf_sinkvortex", "apf_inverse", "velocity_obstacle")

MODE_ILOS = 0
MODE_REACTIVE = 1

OUTCOME_SUCCESS = "success"
OUTCOME_COLLISION = "collision"
OUTCOME_TIMEOUT = "timeout"
#: in a result taken before the run ended: the outcome of an agent still
#: sailing, and the end reason
OUTCOME_RUNNING = "running"
END_OWN_DONE, END_ALL_DONE = "own_done", "all_done"
#: every end reason, in the order World.step tests them, then the mid-run one
END_REASONS = (OUTCOME_COLLISION, END_OWN_DONE, END_ALL_DONE, OUTCOME_TIMEOUT, OUTCOME_RUNNING)

# Cap on |u| that catches integrator blow-up.
U_CAP = 2.0

#: a ship-ship distance or a ship-static clearance below this (L) is a collision
COLLISION_THRESHOLD = 2.0

#: doubles per recorded agent-step, in trajectory-CSV column order without
#: the agent id: t, x, y, psi, u, v, r, delta, delta_c, psi_d, mode, y_e
ROW_LEN = 12
# one row as the native doubles of an array('d'): appending the packed bytes
# costs about a quarter of extending the array by a tuple
_pack_row = Struct(f"{ROW_LEN}d").pack


class SimulationError(RuntimeError):
    """Raised when the integration produces a non-finite or runaway state."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation loop configuration.

    ``termination`` selects the stopping rule: "all" ends the run when
    every agent has captured its final waypoint, any pair breaches
    ``COLLISION_THRESHOLD``, or time runs out; "own" (the statistical-study
    protocol) ends it when the own ship (lowest id) succeeds or collides,
    with third-party collisions recorded but non-terminal.

    ``R_safe`` is the detection radius: it switches a vessel into reactive
    guidance, bounds what sensing passes to the guidance laws, and scales
    the modified vortex strength.
    """

    dt: float = 0.1
    max_time: float = 400.0
    R_safe: float = 15.0
    termination: str = "all"

    def __post_init__(self):
        if not 0.0 < self.dt < self.max_time < math.inf:
            raise ValueError("need dt > 0 and max_time > dt")
        if not 0.0 < self.R_safe < math.inf:
            raise ValueError("R_safe must be > 0")
        if self.termination not in ("all", "own"):
            raise ValueError("termination must be 'all' or 'own'")


@dataclass(frozen=True)
class AgentSpec:
    """Initial condition and mission of one vessel.

    ``waypoints`` are the targets to track, in order; the start position is
    prepended as the origin of the first path segment.  No two consecutive
    points of that path may coincide; the last waypoint may equal the start,
    closing a loop.
    """

    id: int
    start: Vec2
    heading: float
    speed: float
    waypoints: Tuple[Vec2, ...]
    method: str = "apf_mvortex"

    def __post_init__(self):
        if not 0.0 < self.speed <= 1.2:
            raise ValueError(f"assigned speed must be in (0, 1.2], got {self.speed}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.waypoints:
            raise ValueError("agent needs at least one waypoint")
        path = (self.start, *self.waypoints)
        for a, b in zip(path, path[1:]):
            if math.hypot(b[0] - a[0], b[1] - a[1]) < 1e-9:
                raise ValueError("consecutive waypoints must not coincide")


@dataclass
class Scenario:
    """Everything needed to reproduce one simulation run."""

    agents: List[AgentSpec]
    static_obstacles: List[StaticObstacle] = field(default_factory=list)
    channel: Optional[ChannelBoundary] = None
    vo_params: VOParams = field(default_factory=VOParams)
    config: SimConfig = field(default_factory=SimConfig)
    name: str = ""

    def __post_init__(self):
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")

    def with_method(self, method: str) -> "Scenario":
        agents = [replace(a, method=method) for a in self.agents]
        return replace(self, agents=agents)


class AgentResult(NamedTuple):
    """Outcome and metrics of one vessel at the end of a run."""

    agent_id: int
    outcome: str
    ce: float
    mcte: float
    time_to_goal: Optional[float]
    min_ship_distance: float
    min_static_clearance: float
    waypoints_reached: int


def track_rows(track: MutableSequence[float]) -> Iterator[tuple]:
    """The rows of one recorded track, as ``ROW_LEN``-tuples in time order."""
    return zip(*[iter(track)] * ROW_LEN)


class SimResult(NamedTuple):
    """End state of a run: its reason, the per-vessel results and guidance timing.

    ``end_reason`` is one of ``END_REASONS``, ``OUTCOME_RUNNING`` for a
    result that ended the run mid-way.
    A recorded run keeps each agent's rows in ``tracks``, one flat
    ``array('d')`` per agent in id order: ``ROW_LEN`` doubles per step
    (``n_steps + 1`` steps, the final state included), back to back in
    trajectory-CSV column order, with ``mode`` stored as 0.0 or 1.0.  That
    is about 97 bytes per recorded agent-step.  ``tracks`` is None for a run
    made with ``record=False``.
    """

    t_end: float
    end_reason: str
    collision_pair: Optional[Tuple[str, str]]
    agents: List[AgentResult]
    n_steps: int
    guidance_calls: int
    guidance_time_us_mean: float
    tracks: Optional[List[MutableSequence[float]]] = None

    @property
    def outcomes(self) -> List[str]:
        return [a.outcome for a in self.agents]

    @property
    def trajectories(self) -> Optional[List[List[tuple]]]:
        """Row tuples per agent (``mode`` a float), built from ``tracks`` on
        every read; None for an unrecorded run."""
        if self.tracks is None:
            return None
        return [list(track_rows(t)) for t in self.tracks]


class _AgentRuntime:
    """Mutable per-agent simulation state (engine internal)."""

    __slots__ = (
        "spec", "deriv", "x", "y", "psi", "u", "v", "r", "delta",
        "waypoints", "k", "y_int", "done", "time_to_goal", "frozen_psi_d",
        "collided", "min_ship_distance", "min_static_clearance",
        "ce_int", "ye_int", "prev_abs_delta", "prev_abs_ye",
        "rows", "last_delta_c", "last_psi_d", "last_mode",
        "encounters", "vo_heading", "frame", "view",
    )

    def __init__(self, spec: AgentSpec, model: ShipModel):
        self.spec = spec
        self.deriv = model.make_derivative(self_propulsion_rpm(spec.speed, model))
        self.x, self.y = spec.start
        self.psi = wrap_angle(spec.heading)
        self.u = spec.speed
        self.v = 0.0
        self.r = 0.0
        self.delta = 0.0
        # the active segment joins waypoints[k] -> waypoints[k + 1]
        self.waypoints = (spec.start, *spec.waypoints)
        self.k = 0
        self.frame = segment_frame(spec.start, spec.waypoints[0])
        self.y_int = 0.0
        self.done = False
        self.time_to_goal: Optional[float] = None
        self.frozen_psi_d: Optional[float] = None
        self.collided = False
        self.min_ship_distance = math.inf
        self.min_static_clearance = math.inf
        self.ce_int = 0.0
        self.ye_int = 0.0
        self.prev_abs_delta = 0.0
        self.prev_abs_ye = 0.0
        self.rows: Optional[MutableSequence[float]] = None  # set by a recording World
        self.last_delta_c = 0.0
        self.last_psi_d = wrap_angle(spec.heading)
        self.last_mode = MODE_ILOS
        # per-target COLREGS encounter class, kept while the pair stays
        # inside the detection radius (Rule 13(d): the class persists
        # until the vessels are past and clear); None for the laws that
        # read no class, whose targets are never classified
        self.encounters: Optional[Dict[int, str]] = (
            {} if spec.method == "apf_mvortex" else None)
        # velocity-obstacle evasive course, held until it becomes forbidden
        # or the vessel steers clear of all traffic
        self.vo_heading: Optional[float] = None
        # built on first use in a step; integration clears it
        self.view: Optional[ObstacleView] = None

    def obstacle_view(self) -> ObstacleView:
        """This vessel as a dynamic obstacle: position and global velocity."""
        view = self.view
        if view is None:
            c, s = math.cos(self.psi), math.sin(self.psi)
            view = self.view = ObstacleView((self.x, self.y),
                                            (c * self.u - s * self.v, s * self.u + c * self.v))
        return view


class World:
    """One simulation in progress; create via ``World(scenario)`` and call
    :meth:`step` (or use :func:`run`)."""

    def __init__(self, scenario: Scenario, model: Optional[ShipModel] = None,
                 record: bool = True):
        self.scenario = scenario
        self.model = model if model is not None else ShipModel.default_kcs()
        self.record = record
        self.cfg = scenario.config
        # id order fixes the field-summation order, so trajectories are
        # invariant under permutations of the input agent list
        self.agents = [_AgentRuntime(spec, self.model)
                       for spec in sorted(scenario.agents, key=lambda s: s.id)]
        if record:
            from array import array  # only recording loads it

            for ag in self.agents:
                ag.rows = array("d")
        self.t = 0.0
        self.step_index = 0
        self.end_reason: Optional[str] = None
        self.collision_pair: Optional[Tuple[str, str]] = None
        self.guidance_ns = 0
        self.guidance_calls = 0
        self._static_views = [
            ObstacleView(position=o.center, velocity_global=(0.0, 0.0), radius=o.R_obs)
            for o in scenario.static_obstacles
        ]
        # the step's distance table, refilled by _observe_distances: per
        # agent, ascending indices of the vessels / static obstacles within
        # R_safe (the lists are reused from step to step)
        self._near_ships: List[List[int]] = [[] for _ in self.agents]
        self._near_statics: List[List[int]] = [[] for _ in self.agents]

    # ------------------------------------------------------------------
    def _observe_distances(self) -> None:
        """Pairwise distance bookkeeping on the current state.

        Every sub-threshold pair marks both members as collided; the first
        such pair (lowest ids) is reported.  Also fills the step's distance
        table that :meth:`_views_in_range` reads.
        """
        ags = self.agents
        R_safe = self.cfg.R_safe
        threshold = COLLISION_THRESHOLD
        hypot = math.hypot
        static_views = self._static_views
        n = len(ags)
        near_ships = self._near_ships
        near_statics = self._near_statics
        for i in range(n):
            near_ships[i].clear()
            near_statics[i].clear()
        for i in range(n):
            ai = ags[i]
            xi, yi = ai.x, ai.y
            for j in range(i + 1, n):
                aj = ags[j]
                dist = hypot(aj.x - xi, aj.y - yi)
                if dist < ai.min_ship_distance:
                    ai.min_ship_distance = dist
                if dist < aj.min_ship_distance:
                    aj.min_ship_distance = dist
                if dist <= R_safe:
                    near_ships[i].append(j)
                    near_ships[j].append(i)
                if dist < threshold:
                    if self.collision_pair is None:
                        self.collision_pair = (str(ai.spec.id), str(aj.spec.id))
                    ai.collided = True
                    aj.collided = True
            for k, view in enumerate(static_views):
                cx, cy = view.position
                dist = hypot(cx - xi, cy - yi)
                clearance = dist - view.radius
                if clearance < ai.min_static_clearance:
                    ai.min_static_clearance = clearance
                if dist <= R_safe:
                    near_statics[i].append(k)
                if clearance < threshold:
                    if self.collision_pair is None:
                        self.collision_pair = (str(ai.spec.id), f"static:{k}")
                    ai.collided = True

    # ------------------------------------------------------------------
    def _guidance_and_control(self) -> None:
        """Compute commands for every agent from the step's start state,
        record rows, accumulate metric integrals."""
        dt = self.cfg.dt
        t = self.t
        views_in_range = self._views_in_range
        for idx, ag in enumerate(self.agents):
            pos = (ag.x, ag.y)

            if not ag.done:
                k = ag.k
                if should_switch_waypoint(pos, ag.waypoints[k + 1]):
                    ag.y_int = 0.0
                    if k + 2 == len(ag.waypoints):
                        ag.done = True
                        ag.time_to_goal = t
                        ag.frozen_psi_d = ag.last_psi_d
                    else:
                        ag.k = k + 1
                        ag.frame = segment_frame(ag.waypoints[k + 1], ag.waypoints[k + 2])

            x_e, y_e = track_errors(pos, ag.frame)
            views = views_in_range(idx)

            # after goal capture the vessel holds its course (constant RPM,
            # no stopping) but keeps avoiding traffic; the sink is then
            # projected well ahead along the held course
            if views:
                mode = MODE_REACTIVE
                if ag.done:
                    hold = ag.frozen_psi_d
                    goal = (ag.x + 50.0 * math.cos(hold), ag.y + 50.0 * math.sin(hold))
                else:
                    goal = ag.waypoints[ag.k + 1]
                psi_d = self._reactive_heading(ag, views, goal)
            else:
                mode = MODE_ILOS
                ag.vo_heading = None
                if ag.done:
                    psi_d = ag.frozen_psi_d
                else:
                    psi_d = ilos_desired_heading(ag.frame.angle, y_e, ag.y_int)
                    ag.y_int += dt * ilos_integrator_derivative(y_e, ag.y_int)

            ag.last_delta_c = pd_rudder_command(ag.psi, psi_d, ag.r)
            ag.last_psi_d = psi_d
            ag.last_mode = mode
            self._observe_row(ag, y_e)

    def _observe_row(self, ag: _AgentRuntime, y_e: float) -> None:
        """Advance the agent's CE/MCTE trapezoid integrals to the current
        state and, when recording, append its trajectory row (state plus the
        latest commands)."""
        abs_delta = abs(ag.delta)
        abs_ye = abs(y_e)
        if self.step_index > 0:
            dt = self.cfg.dt
            ag.ce_int += 0.5 * (ag.prev_abs_delta + abs_delta) * dt
            ag.ye_int += 0.5 * (ag.prev_abs_ye + abs_ye) * dt
        ag.prev_abs_delta = abs_delta
        ag.prev_abs_ye = abs_ye
        if self.record:
            ag.rows.frombytes(_pack_row(self.t, ag.x, ag.y, ag.psi, ag.u, ag.v, ag.r, ag.delta,
                                        ag.last_delta_c, ag.last_psi_d, ag.last_mode, y_e))

    def _views_in_range(self, idx: int) -> List[ObstacleView]:
        """Obstacle views (other vessels + statics) within the detection
        radius, read from the step's distance table; for an agent that keeps
        encounter classes, dynamic targets carry their persistent class."""
        ags = self.agents
        ag = ags[idx]
        near = self._near_ships[idx]
        encounters = ag.encounters
        if encounters is None:
            views = [ags[jdx].obstacle_view() for jdx in near]
        else:
            for jdx in [j for j in encounters if j not in near]:
                del encounters[jdx]  # out of range: the pair is past and clear
            views = []
            for jdx in near:
                view = ags[jdx].obstacle_view()
                cls = encounters.get(jdx)
                if cls is None:
                    cls = encounters[jdx] = apf.classify_encounter(ag, view)
                if cls != apf.ENCOUNTER_ACTIVE:
                    view = ObstacleView(view.position, view.velocity_global, 0.0, cls)
                views.append(view)
        static_views = self._static_views
        for k in self._near_statics[idx]:
            views.append(static_views[k])
        return views

    def _reactive_heading(self, ag: _AgentRuntime, views: List[ObstacleView],
                          goal: Vec2) -> float:
        """Dispatch to the agent's reactive guidance law, timing the call.

        The clock covers the law's own call(s) only.  The APF laws read the
        own-ship state from the agent itself.
        """
        scn = self.scenario
        method = ag.spec.method
        if method == "velocity_obstacle":
            # the chosen evasive course is maintained until it stops being
            # admissible; it is dropped when the vessel steers clear of all
            # traffic (reactive mode ends)
            speed = math.hypot(ag.u, ag.v)
            pos = (ag.x, ag.y)
            t0 = time.perf_counter_ns()
            if ag.vo_heading is not None and vo.heading_admissible(
                    pos, speed, ag.vo_heading, views, scn.vo_params):
                psi_d = ag.vo_heading
            else:
                psi_d = ag.vo_heading = vo.vo_desired_heading(
                    pos, speed, goal, views, scn.vo_params)
        else:
            t0 = time.perf_counter_ns()
            if method == "apf_inverse":
                psi_d = apf.desired_heading_inverse_square(ag, goal, views, ag.last_psi_d)
            else:
                psi_d = apf.desired_heading_harmonic(
                    ag, goal, views, scn.channel, self.cfg.R_safe,
                    method == "apf_mvortex", ag.last_psi_d)
        self.guidance_ns += time.perf_counter_ns() - t0
        self.guidance_calls += 1
        return wrap_angle(psi_d)

    # ------------------------------------------------------------------
    def _integrate(self) -> None:
        dt = self.cfg.dt
        half = 0.5 * dt
        sixth = dt / 6.0
        rate_max = self.model.delta_rate_max
        isfinite = math.isfinite
        for ag in self.agents:
            ag.delta = delta = rudder_step(ag.delta, ag.last_delta_c, rate_max, dt)
            d = ag.deriv
            x, y, psi, u, v, r = ag.x, ag.y, ag.psi, ag.u, ag.v, ag.r
            try:
                x1, y1, p1, u1, v1, r1 = d(psi, u, v, r, delta)
                x2, y2, p2, u2, v2, r2 = d(psi + half * p1, u + half * u1, v + half * v1,
                                           r + half * r1, delta)
                x3, y3, p3, u3, v3, r3 = d(psi + half * p2, u + half * u2, v + half * v2,
                                           r + half * r2, delta)
                x4, y4, p4, u4, v4, r4 = d(psi + dt * p3, u + dt * u3, v + dt * v3,
                                           r + dt * r3, delta)
            except ValueError:
                # math.cos(inf): a stage's heading overflowed before the state did
                raise SimulationError(
                    f"non-finite state for agent {ag.spec.id} at t'={self.t:.1f}") from None
            ag.x = x = x + sixth * (x1 + 2.0 * (x2 + x3) + x4)
            ag.y = y = y + sixth * (y1 + 2.0 * (y2 + y3) + y4)
            ag.psi = wrap_angle(psi + sixth * (p1 + 2.0 * (p2 + p3) + p4))
            ag.u = u = u + sixth * (u1 + 2.0 * (u2 + u3) + u4)
            ag.v = v = v + sixth * (v1 + 2.0 * (v2 + v3) + v4)
            ag.r = r = r + sixth * (r1 + 2.0 * (r2 + r3) + r4)
            ag.view = None
            # one branch for the five components (& evaluates each): a step
            # that overflows leaves them all non-finite together
            if not (isfinite(x) & isfinite(y) & isfinite(u) & isfinite(v) & isfinite(r)):
                raise SimulationError(
                    f"non-finite state for agent {ag.spec.id} at t'={self.t:.1f}")
            if abs(u) > U_CAP:
                raise SimulationError(
                    f"surge runaway (|u|={abs(u):.2f}) for agent {ag.spec.id} "
                    f"at t'={self.t:.1f}")

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance one step; returns False once the run has ended.  The one
        place a run ends: on a collision (of the own ship under "own"
        termination), the goal (the own ship's under "own", else every
        ship's) or the time budget, tested in that order."""
        if self.end_reason is not None:
            return False
        self._observe_distances()
        ags = self.agents
        own = self.cfg.termination == "own"
        if ags[0].collided if own else self.collision_pair is not None:
            self.end_reason = OUTCOME_COLLISION
        elif ags[0].done if own else all(ag.done for ag in ags):
            self.end_reason = END_OWN_DONE if own else END_ALL_DONE
        elif self.t >= self.cfg.max_time - 1e-9:
            self.end_reason = OUTCOME_TIMEOUT
        else:
            self._guidance_and_control()
            self._integrate()
            self.step_index += 1
            self.t = self.step_index * self.cfg.dt
            return True
        self._close_run()
        return False

    def _close_run(self) -> None:
        """Close the metric integrals and record the final state row."""
        for ag in self.agents:
            self._observe_row(ag, track_errors((ag.x, ag.y), ag.frame)[1])

    def result(self) -> SimResult:
        """The run's end state.  On a running world it ends the run (end
        reason ``OUTCOME_RUNNING``, final row recorded, no step follows); to
        look without ending it, take the result of a ``copy.deepcopy``."""
        if self.end_reason is None:
            self.end_reason = OUTCOME_RUNNING
            self._close_run()
        T = self.t if self.t > 0.0 else self.cfg.dt
        agents = []
        for ag in self.agents:
            if ag.collided:
                outcome = OUTCOME_COLLISION
            elif ag.done:
                outcome = OUTCOME_SUCCESS
            elif self.end_reason == OUTCOME_RUNNING:
                outcome = OUTCOME_RUNNING
            else:
                outcome = OUTCOME_TIMEOUT
            agents.append(AgentResult(
                agent_id=ag.spec.id,
                outcome=outcome,
                ce=ag.ce_int / (DELTA_MAX * T),
                mcte=ag.ye_int / T,
                time_to_goal=ag.time_to_goal,
                min_ship_distance=ag.min_ship_distance,
                min_static_clearance=ag.min_static_clearance,
                waypoints_reached=ag.k + 1 if ag.done else ag.k,
            ))
        mean_us = (self.guidance_ns / self.guidance_calls / 1000.0
                   if self.guidance_calls else 0.0)
        return SimResult(
            t_end=self.t,
            end_reason=self.end_reason,
            collision_pair=self.collision_pair,
            agents=agents,
            n_steps=self.step_index,
            guidance_calls=self.guidance_calls,
            guidance_time_us_mean=mean_us,
            tracks=[ag.rows for ag in self.agents] if self.record else None,
        )


def run(scenario: Scenario, model: Optional[ShipModel] = None,
        record: bool = True) -> SimResult:
    """Simulate a scenario to completion and return its result."""
    world = World(scenario, model=model, record=record)
    while world.step():
        pass
    return world.result()
