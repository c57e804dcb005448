"""Self-contained SVG diagnostics: trajectory maps, time histories, distance
plots and reactive-field quiver plots.  No rendering dependencies; plots are
diagnostic rather than publication figures."""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

from .apf import ObstacleView, OwnShip, desired_heading_harmonic, desired_heading_inverse_square
from .engine import COLLISION_THRESHOLD, Scenario
from .frames import Vec2
from .guidance import R_TOL

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

#: canvas margin (px) around the plot area, and axis intervals per axis
MARGIN = 50
N_TICKS = 6
#: share of the data span left blank on each side of a plot
PAD_FRAC = 0.08
#: stroke of the field-plot arrows
ARROW_COLOR = "#444"


class SvgCanvas:
    """Minimal SVG writer with a world-to-viewport transform (y up)."""

    def __init__(self, x_range: Tuple[float, float], y_range: Tuple[float, float],
                 width: int = 800, height: int = 600):
        self.width, self.height = width, height
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        span_x = max(self.x1 - self.x0, 1e-9)
        span_y = max(self.y1 - self.y0, 1e-9)
        self.sx = (width - 2 * MARGIN) / span_x
        self.sy = (height - 2 * MARGIN) / span_y
        self.parts: List[str] = []

    def tx(self, x: float) -> float:
        return MARGIN + (x - self.x0) * self.sx

    def ty(self, y: float) -> float:
        return self.height - MARGIN - (y - self.y0) * self.sy

    def line(self, x0, y0, x1, y1, color, width, cls):
        self.parts.append(
            f'<line x1="{self.tx(x0):.2f}" y1="{self.ty(y0):.2f}" '
            f'x2="{self.tx(x1):.2f}" y2="{self.ty(y1):.2f}" '
            f'stroke="{color}" stroke-width="{width}" class="{cls}"/>')

    def polyline(self, pts: Sequence[Tuple[float, float]], color, cls):
        coords = " ".join(f"{self.tx(x):.2f},{self.ty(y):.2f}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" class="{cls}"/>')

    def circle(self, x, y, r_world, color, cls, fill="none", dash=""):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<circle cx="{self.tx(x):.2f}" cy="{self.ty(y):.2f}" '
            f'r="{abs(r_world * self.sx):.2f}" stroke="{color}" fill="{fill}"{d} '
            f'class="{cls}"/>')

    def dot(self, x, y, r_px, color, cls):
        self.parts.append(
            f'<circle cx="{self.tx(x):.2f}" cy="{self.ty(y):.2f}" r="{r_px}" '
            f'fill="{color}" class="{cls}"/>')

    def text(self, x, y, s, size, color):
        self.parts.append(
            f'<text x="{self.tx(x):.2f}" y="{self.ty(y):.2f}" '
            f'font-size="{size}" fill="{color}" font-family="sans-serif">{s}</text>')

    def arrow(self, x, y, vx, vy, scale, cls):
        """World-space arrow from (x, y) along (vx, vy) * scale."""
        x1, y1 = x + vx * scale, y + vy * scale
        self.line(x, y, x1, y1, color=ARROW_COLOR, width=1.0, cls=cls)
        ang = math.atan2(self.ty(y1) - self.ty(y), self.tx(x1) - self.tx(x))
        hx, hy = self.tx(x1), self.ty(y1)
        for side in (math.radians(150), -math.radians(150)):
            self.parts.append(
                f'<line x1="{hx:.2f}" y1="{hy:.2f}" '
                f'x2="{hx + 5 * math.cos(ang + side):.2f}" '
                f'y2="{hy + 5 * math.sin(ang + side):.2f}" '
                f'stroke="{ARROW_COLOR}" stroke-width="1.0"/>')

    def axes(self, xlabel: str, ylabel: str):
        self.parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{self.width - 2 * MARGIN}" '
            f'height="{self.height - 2 * MARGIN}" fill="none" stroke="#999"/>')
        for i in range(N_TICKS + 1):
            xv = self.x0 + (self.x1 - self.x0) * i / N_TICKS
            yv = self.y0 + (self.y1 - self.y0) * i / N_TICKS
            self.parts.append(
                f'<text x="{self.tx(xv):.1f}" y="{self.height - MARGIN + 18}" '
                f'font-size="10" fill="#333" text-anchor="middle" '
                f'font-family="sans-serif">{xv:.3g}</text>')
            self.parts.append(
                f'<text x="{MARGIN - 8}" y="{self.ty(yv):.1f}" font-size="10" fill="#333" '
                f'text-anchor="end" font-family="sans-serif">{yv:.3g}</text>')
        self.parts.append(
            f'<text x="{self.width / 2:.1f}" y="{self.height - 12}" font-size="12" '
            f'fill="#000" text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
        self.parts.append(
            f'<text x="14" y="{self.height / 2:.1f}" font-size="12" fill="#000" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(-90 14 {self.height / 2:.1f})">{ylabel}</text>')

    def to_svg(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
                f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n')

    def save(self, path: str):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_svg())


def _bounds(values, min_span=1.0):
    lo, hi = min(values), max(values)
    span = max(hi - lo, min_span)
    pad = span * PAD_FRAC
    return lo - pad, hi + pad


def plot_paths(rows_by_agent: Dict[int, List[tuple]], scenario: Optional[Scenario],
               path: str) -> SvgCanvas:
    """Trajectory map with waypoints, switching circles and obstacle discs."""
    xs, ys = [], []
    for rows in rows_by_agent.values():
        xs.extend(r[1] for r in rows)
        ys.extend(r[2] for r in rows)
    if scenario is not None:
        for a in scenario.agents:
            xs.extend(w[0] for w in a.waypoints)
            ys.extend(w[1] for w in a.waypoints)
        for o in scenario.static_obstacles:
            xs.append(o.center[0])
            ys.append(o.center[1])
    canvas = SvgCanvas(_bounds(xs), _bounds(ys))
    canvas.axes("x (L)", "y (L)")
    if scenario is not None:
        if scenario.channel is not None:
            for seg in (scenario.channel.boundary_a, scenario.channel.boundary_b):
                canvas.line(seg[0][0], seg[0][1], seg[1][0], seg[1][1],
                            color="#000", width=2.0, cls="channel-wall")
        for o in scenario.static_obstacles:
            canvas.circle(o.center[0], o.center[1], o.R_obs, color="#d62728",
                          fill="#d62728", cls="obstacle")
            canvas.circle(o.center[0], o.center[1],
                          COLLISION_THRESHOLD + o.R_obs, color="#d62728",
                          dash="4,4", cls="obstacle-threshold")
        for a in scenario.agents:
            for w in a.waypoints:
                canvas.dot(w[0], w[1], r_px=4, color="#000", cls="waypoint")
                canvas.circle(w[0], w[1], R_TOL, color="#888", dash="3,5",
                              cls="waypoint-tolerance")
    for i, (aid, rows) in enumerate(sorted(rows_by_agent.items())):
        color = PALETTE[i % len(PALETTE)]
        canvas.polyline([(r[1], r[2]) for r in rows], color=color, cls=f"trajectory-{aid}")
        canvas.dot(rows[0][1], rows[0][2], r_px=4, color=color, cls=f"start-{aid}")
        canvas.text(rows[0][1], rows[0][2] + 1.0, f"agent {aid}", size=11, color=color)
    canvas.save(path)
    return canvas


def _series_canvas(ts, series, ylabel, path, labels):
    ys = [v for s in series for v in s]
    canvas = SvgCanvas(_bounds(ts, min_span=1e-6), _bounds(ys, min_span=1e-6))
    canvas.axes("t' (non-dimensional time)", ylabel)
    for i, s in enumerate(series):
        canvas.polyline(list(zip(ts, s)), color=PALETTE[i % len(PALETTE)],
                        cls=f"series-{i}")
        canvas.text(ts[0] + (ts[-1] - ts[0]) * 0.02, max(s), labels[i], size=10,
                    color=PALETTE[i % len(PALETTE)])
    canvas.save(path)
    return canvas


def plot_series(rows_by_agent: Dict[int, List[tuple]], kind: str, path: str) -> SvgCanvas:
    """Time histories: rudder / heading / crosstrack for every agent."""
    ids = sorted(rows_by_agent)
    ts = [r[0] for r in rows_by_agent[ids[0]]]
    series, labels = [], []
    for aid in ids:
        rows = rows_by_agent[aid]
        if kind == "rudder":
            series += [[math.degrees(r[7]) for r in rows],
                       [math.degrees(r[8]) for r in rows]]
            labels += [f"a{aid} delta", f"a{aid} delta_c"]
            ylabel = "rudder angle (deg)"
        elif kind == "heading":
            series += [[math.degrees(r[3]) for r in rows],
                       [math.degrees(r[9]) for r in rows]]
            labels += [f"a{aid} psi", f"a{aid} psi_d"]
            ylabel = "heading (deg)"
        elif kind == "crosstrack":
            series.append([r[11] for r in rows])
            labels.append(f"a{aid} y_e")
            ylabel = "cross-track error (L)"
        else:
            raise ValueError(f"unknown series kind {kind!r}")
    return _series_canvas(ts, series, ylabel, path, labels)


def pairwise_distances(rows_by_agent: Dict[int, List[tuple]], r_safe: float):
    """Per-pair (t, distance) series, masked to separations within r_safe."""
    ids = sorted(rows_by_agent)
    out: Dict[str, List[Tuple[float, float]]] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            series = []
            for ra, rb in zip(rows_by_agent[a], rows_by_agent[b]):
                d = math.hypot(rb[1] - ra[1], rb[2] - ra[2])
                if d <= r_safe:
                    series.append((ra[0], d))
            if series:
                out[f"{a}-{b}"] = series
    return out


def plot_distances(rows_by_agent: Dict[int, List[tuple]], path: str,
                   r_safe: float) -> SvgCanvas:
    pairs = pairwise_distances(rows_by_agent, r_safe)
    if not pairs:
        raise ValueError("no agent pair came within the detection radius")
    ts = [t for s in pairs.values() for t, _ in s]
    ds = [d for s in pairs.values() for _, d in s]
    canvas = SvgCanvas(_bounds(ts, min_span=1e-6), (0.0, max(ds) * 1.1))
    canvas.axes("t' (non-dimensional time)", "separation (L)")
    for i, (key, series) in enumerate(sorted(pairs.items())):
        canvas.polyline(series, color=PALETTE[i % len(PALETTE)], cls=f"pair-{key}")
    canvas.save(path)
    return canvas


# ---------------------------------------------------------------------------
# vector fields


#: the reactive fields ``sample_field`` can draw
FIELD_KINDS = ("inverse", "sinkvortex", "mvortex")

#: the one geometry the field plots show: goal, static obstacle centre and
#: radius, the half-extent of the square domain, and grid points per side
FIELD_GOAL: Vec2 = (10.0, 0.0)
FIELD_OBSTACLE: Vec2 = (-10.0, 0.0)
FIELD_OBSTACLE_RADIUS = 0.5
FIELD_HALF_EXTENT = 20.0
FIELD_GRID_N = 25


def sample_field(kind: str) -> List[Tuple[float, float, float, float]]:
    """Unit direction of the desired heading the guidance law steers by, on
    a grid, for a probe vessel heading +x at design speed (matching the
    reference field plots)."""
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}; expected one of {FIELD_KINDS}")
    R_safe = 1e9  # field plots show the full domain
    arrows = []
    goal, obstacle, half, n = FIELD_GOAL, FIELD_OBSTACLE, FIELD_HALF_EXTENT, FIELD_GRID_N
    obstacles = [ObstacleView(position=obstacle, velocity_global=(0.0, 0.0),
                              radius=FIELD_OBSTACLE_RADIUS)]
    for i in range(n):
        for j in range(n):
            x = -half + 2.0 * half * i / (n - 1)
            y = -half + 2.0 * half * j / (n - 1)
            if math.hypot(x - obstacle[0], y - obstacle[1]) < 1.0:
                continue
            if math.hypot(x - goal[0], y - goal[1]) < 0.5:
                continue
            own = OwnShip(x, y, 0.0, 1.0, 0.0)
            if kind == "inverse":
                psi = desired_heading_inverse_square(own, goal, obstacles, own.psi)
            else:
                psi = desired_heading_harmonic(own, goal, obstacles, None, R_safe,
                                               kind == "mvortex", own.psi)
            arrows.append((x, y, math.cos(psi), math.sin(psi)))
    return arrows


def plot_field(kind: str, path: str) -> SvgCanvas:
    arrows = sample_field(kind)
    half, goal, obstacle = FIELD_HALF_EXTENT, FIELD_GOAL, FIELD_OBSTACLE
    canvas = SvgCanvas((-half * 1.1, half * 1.1), (-half * 1.1, half * 1.1),
                       width=700, height=700)
    canvas.axes("x (L)", "y (L)")
    for x, y, ux, uy in arrows:
        canvas.arrow(x, y, ux, uy, scale=half / 18.0, cls="field-arrow")
    canvas.circle(obstacle[0], obstacle[1], FIELD_OBSTACLE_RADIUS, color="#d62728",
                  fill="#d62728", cls="obstacle")
    canvas.dot(goal[0], goal[1], r_px=5, color="#2ca02c", cls="goal")
    canvas.save(path)
    return canvas
