"""SVG plots of foliation leaves on 2-dimensional charts.

This is the one numeric corner of the package: leaves are drawn as integral
curves of the foliation frame fields, integrated with fixed-step RK4 on
unit-speed velocities, and everything runs in floating point.  Each field
component is compiled once per plot (``symexpr.compile_float``) into a
function of the point that performs the float operations of ``eval_float``;
a field whose components are constants has one unit velocity.
Opaque symbols must be bound to concrete symbol-free expressions before
plotting; the symbolic modules never see any of this.

Output is deterministic for fixed inputs: seeds lie on the window diagonal,
the integrator is fixed-step, and coordinates are emitted with a fixed
format.
"""

from __future__ import annotations

import math

from .calculus import VectorField
from .symexpr import ZeroDenominator, as_expr, bind_symbol, compile_float, coordinates

__all__ = ["PlotError", "Window", "bind_field", "integral_curve", "leaf_plot"]

SIZE = 480  # pixels on the longer side of a leaf plot


class PlotError(Exception):
    pass


class Window:
    """A plotting rectangle [x0, x1] x [y0, y1]."""

    __slots__ = ("x0", "x1", "y0", "y1")

    def __init__(self, x0=-2.0, x1=2.0, y0=-2.0, y1=2.0):
        self.x0, self.x1 = float(x0), float(x1)
        self.y0, self.y1 = float(y0), float(y1)
        if not all(map(math.isfinite, (self.x0, self.x1, self.y0, self.y1))):
            raise PlotError("window bounds must be finite")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise PlotError("window must have positive extent on both axes")
        # both extents are positive, so the sum overflows when either does
        if not math.isfinite(self.width + self.height):
            raise PlotError("window extent must be finite on both axes")

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y1 - self.y0

    def contains(self, x, y, margin=0.0):
        return (
            self.x0 - margin <= x <= self.x1 + margin
            and self.y0 - margin <= y <= self.y1 + margin
        )


def bind_field(field: VectorField, bindings: dict) -> VectorField:
    """Substitute concrete expressions for the chart's opaque symbols.

    `bindings` maps symbol names to symbol-free expressions; any jet left
    unbound afterwards is an error, since the plotter cannot evaluate it.
    """
    chart = field.chart
    by_name = {s.name: s for s in chart.symbols}
    unknown = sorted(set(bindings) - set(by_name))
    if unknown:
        raise PlotError(f"bindings for undeclared symbols: {', '.join(unknown)}")
    entries = []
    missing = set()
    for i, comp in field.entries.items():
        for name, value in sorted(bindings.items()):
            comp = bind_symbol(comp, by_name[name], as_expr(value))
        missing.update(j.symbol.name for j in comp.jet_atoms())
        entries.append((i, comp))
    if missing:
        raise PlotError("cannot plot with unbound opaque symbols: " + ", ".join(sorted(missing)))
    return VectorField.from_entries(chart, entries)


def _unit_velocity(field: VectorField):
    """The field's unit velocity as a function of (x, y): None at a pole, a
    value beyond the float range or a length under 1e-12.  Each component is
    compiled once; components with no coordinates give one velocity, taken
    here and handed back at every point."""
    names = field.chart.names
    cx, cy = field.component(0), field.component(1)
    fx, fy = compile_float(cx, names), compile_float(cy, names)

    def unit(x, y):
        p = (x, y)
        try:
            vx = fx(p)
            vy = fy(p)
        except (ZeroDenominator, OverflowError, ValueError):
            return None
        norm = math.hypot(vx, vy)
        if not math.isfinite(norm) or norm < 1e-12:
            return None
        return vx / norm, vy / norm

    if coordinates(cx) or coordinates(cy):
        return unit
    v = unit(0.0, 0.0)
    return lambda x, y: v


def _half_curve(unit, start, window, steps, h, direction):
    pts = []
    x, y = start
    margin = 0.05 * max(window.width, window.height)
    x_lo, x_hi = window.x0 - margin, window.x1 + margin
    y_lo, y_hi = window.y0 - margin, window.y1 + margin
    # the RK4 stage offsets c * h * direction, bit for bit: 1.0 * h is h
    half, dh = 0.5 * h * direction, direction * h
    for _ in range(steps):
        k1 = unit(x, y)
        if k1 is None:
            break
        k2 = unit(x + half * k1[0], y + half * k1[1])
        if k2 is None:
            break
        k3 = unit(x + half * k2[0], y + half * k2[1])
        if k3 is None:
            break
        k4 = unit(x + dh * k3[0], y + dh * k3[1])
        if k4 is None:
            break
        x += dh * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        y += dh * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        if not (math.isfinite(x) and math.isfinite(y)):
            break
        pts.append((x, y))
        if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
            break
    return pts


def _leaf(unit, start, window: Window, steps: int):
    start = tuple(map(float, start))
    h = (window.width + window.height) / (2.0 * steps) * 4.0
    backward = _half_curve(unit, start, window, steps, h, -1.0)
    forward = _half_curve(unit, start, window, steps, h, +1.0)
    return list(reversed(backward)) + [start] + forward


def integral_curve(field: VectorField, start, window: Window, steps: int = 240):
    """The leaf through `start`: unit-speed RK4 in both directions."""
    return _leaf(_unit_velocity(field), start, window, steps)


def _seeds(window: Window, count: int):
    if count == 1:
        return [(window.x0 + window.width / 2.0, window.y0 + window.height / 2.0)]
    out = []
    for i in range(count):
        t = i / (count - 1.0)
        out.append((window.x0 + t * window.width, window.y0 + t * window.height))
    return out


def _polyline(points, to_px, color):
    coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(x, y) for x, y in points))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.4" points="{coords}"/>'
    )


def leaf_plot(f1: VectorField, f2: VectorField, window: Window = None,
              leaves: int = 9, steps: int = 240,
              bindings: dict = None) -> str:
    """An SVG drawing of the two foliations' leaves on a 2-dimensional chart.

    Leaves of the first foliation are blue, of the second red; seed points
    sit on the window diagonal so transversal families stay distinct.
    """
    if f1.chart.dim != 2:
        raise PlotError(f"leaf plots need a 2-dimensional chart, got {f1.chart.dim}")
    if leaves < 1 or steps < 1:
        raise PlotError(f"leaves and steps must be at least 1, got {leaves} and {steps}")
    window = window or Window()
    f1 = bind_field(f1, bindings or {})
    f2 = bind_field(f2, bindings or {})

    pad = 12.0
    scale = (SIZE - 2 * pad) / max(window.width, window.height)

    def to_px(x, y):
        return (pad + (x - window.x0) * scale,
                pad + (window.y1 - y) * scale)

    width = 2 * pad + window.width * scale
    height = 2 * pad + window.height * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect x="0" y="0" width="{width:.2f}" height="{height:.2f}" fill="white"/>',
    ]
    if window.x0 < 0 < window.x1:
        x_px = to_px(0, 0)[0]
        parts.append(
            f'<line x1="{x_px:.2f}" y1="{pad:.2f}" x2="{x_px:.2f}" '
            f'y2="{height - pad:.2f}" stroke="#cccccc" stroke-width="0.8"/>'
        )
    if window.y0 < 0 < window.y1:
        y_px = to_px(0, 0)[1]
        parts.append(
            f'<line x1="{pad:.2f}" y1="{y_px:.2f}" x2="{width - pad:.2f}" '
            f'y2="{y_px:.2f}" stroke="#cccccc" stroke-width="0.8"/>'
        )
    for field, color in ((f1, "#1f77b4"), (f2, "#d62728")):
        unit = _unit_velocity(field)
        for seed in _seeds(window, leaves):
            pts = _leaf(unit, seed, window, steps)
            if len(pts) >= 2:
                parts.append(_polyline(pts, to_px, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
