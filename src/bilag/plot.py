"""SVG plots of foliation leaves on 2-dimensional charts.

This is the one numeric corner of the package: leaves are drawn as integral
curves of the foliation frame fields, integrated with fixed-step RK4 on
unit-speed velocities, and everything runs in floating point.  Each field
component is compiled once per curve (``symexpr.compile_float``) into a
function of the point that performs the float operations of ``eval_float``.
Opaque symbols must be bound to concrete symbol-free expressions before
plotting; the symbolic modules never see any of this.

Output is deterministic for fixed inputs: seeds lie on the window diagonal,
the integrator is fixed-step, and coordinates are emitted with a fixed
format.
"""

from __future__ import annotations

import math

from .calculus import VectorField
from .symexpr import ZeroDenominator, as_expr, bind_symbol, compile_float

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


def _velocity(fx, fy, x, y):
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


def _half_curve(fx, fy, start, window, steps, h, direction):
    pts = []
    x, y = start
    margin = 0.05 * max(window.width, window.height)
    for _ in range(steps):
        # the RK4 stages; a stage weight of 1.0 leaves h exact
        ks = [_velocity(fx, fy, x, y)]
        for c in (0.5, 0.5, 1.0):
            if ks[-1] is None:
                break
            kx, ky = ks[-1]
            ks.append(_velocity(fx, fy, x + c * h * direction * kx,
                                y + c * h * direction * ky))
        if ks[-1] is None:
            break
        (k1x, k1y), (k2x, k2y), (k3x, k3y), (k4x, k4y) = ks
        x += direction * h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        y += direction * h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0
        if not (math.isfinite(x) and math.isfinite(y)):
            break
        pts.append((x, y))
        if not window.contains(x, y, margin):
            break
    return pts


def integral_curve(field: VectorField, start, window: Window, steps: int = 240):
    """The leaf through `start`: unit-speed RK4 in both directions."""
    names = field.chart.names
    fx, fy = (compile_float(field.component(i), names) for i in (0, 1))
    start = tuple(map(float, start))
    h = (window.width + window.height) / (2.0 * steps) * 4.0
    backward = _half_curve(fx, fy, start, window, steps, h, -1.0)
    forward = _half_curve(fx, fy, start, window, steps, h, +1.0)
    return list(reversed(backward)) + [start] + forward


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
        for seed in _seeds(window, leaves):
            pts = integral_curve(field, seed, window, steps)
            if len(pts) >= 2:
                parts.append(_polyline(pts, to_px, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
