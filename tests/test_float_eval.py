"""Compiled float evaluation against a reference tree walk.

`compile_float` turns a tree into a function of one point.  It must perform
the float operations of the node-by-node walk below, in the same order, so
that its values agree bit for bit (under ``struct.pack("<d", ...)``, which
tells -0.0 from 0.0 and compares nans) and its failures raise the same
exception class.  The plotter's integrator is pinned the same way: a copy
of its velocity and half-curve loop over the walk must give the points
`integral_curve` gives, and a copy of the per-leaf compiling integrator it
replaced must give the SVG bytes `leaf_plot` gives.
"""

import math
import random
import struct
import sys
from fractions import Fraction

import pytest

from bilag import plot
from bilag.calculus import Chart, VectorField
from bilag.cli import find_scene
from bilag.plot import Window, integral_curve, leaf_plot
from bilag.scene import load_scene
from bilag.symexpr import (
    Add,
    EvalError,
    ExprError,
    JetVar,
    Mul,
    ONE,
    OpaqueSymbol,
    Pow,
    Rat,
    Var,
    ZERO,
    ZeroDenominator,
    compile_float,
    eval_float,
)

NAMES = ("x", "y", "h_x")


def walk(e, env):
    """The numeric tree walk: each node evaluated from its children."""
    if isinstance(e, Rat):
        return float(e.value)
    if isinstance(e, (Var, JetVar)):
        try:
            v = env[e.name]
        except KeyError:
            raise EvalError(f"missing assignment for {e.name!r}") from None
        return float(v)
    if isinstance(e, Add):
        return sum(walk(t, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= walk(f, env)
        return out
    b = walk(e.base, env)
    if e.exponent < 0 and not b:
        raise ZeroDenominator("division by zero at the evaluation point")
    return b ** e.exponent


def outcome(f, *args):
    """The packed float value of f(*args), or the class of what it raised."""
    try:
        return struct.pack("<d", f(*args))
    except (ArithmeticError, ExprError) as exc:
        return type(exc)


CONSTANTS = [0, 1, -1, 2, Fraction(1, 3), Fraction(-7, 2), 10**16, -10**16,
             10**400, Fraction(1, 10**400), Fraction(10**300, 3)]
VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e16, -1e16, 1e-300, 1e300,
          math.inf, -math.inf, math.nan]
H_X = JetVar(OpaqueSymbol("h", ("x",)), (1,))


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return Rat(rng.choice(CONSTANTS))
        if r < 0.95:
            return rng.choice([Var("x"), Var("y"), H_X])
        return Var("w")  # not among the assigned names
    r = rng.random()
    if r < 0.4:
        return Add([random_tree(rng, depth - 1) for _ in range(rng.randint(1, 4))])
    if r < 0.75:
        return Mul([random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))])
    return Pow(random_tree(rng, depth - 1), rng.choice([-3, -2, -1, 0, 1, 2, 3, 40]))


# sum compensates on Python 3.12+, so these differ from a chain of +
CANCELLING = [
    Add([Rat(10**16), Rat(1), Rat(-10**16)]),
    Add([Var("x"), Rat(1), Mul([Rat(-1), Var("x")])]),
    Add([Var("x"), Var("y"), Rat(-10**16)]),
]


def test_compiled_matches_walk_on_random_trees():
    rng = random.Random(1729)
    trees = CANCELLING + [random_tree(rng, 4) for _ in range(1200)]
    kinds = set()
    for e in trees:
        f = compile_float(e, NAMES)
        for _ in range(4):
            point = tuple(rng.choice(VALUES) for _ in NAMES)
            env = dict(zip(NAMES, point))
            expected = outcome(walk, e, env)
            assert outcome(f, point) == expected, (e, point)
            assert outcome(eval_float, e, env) == expected, (e, point)
            kinds.add(expected if isinstance(expected, type) else float)
    # every outcome the walk can have was reached
    assert kinds == {float, ZeroDenominator, OverflowError, EvalError}


def test_cancelling_sum_is_summed_as_the_walk_sums():
    f = compile_float(CANCELLING[0], NAMES)
    assert f((0.0, 0.0, 0.0)) == (1.0 if sys.version_info >= (3, 12) else 0.0)


def test_errors_raise_when_called_not_when_compiled():
    huge = compile_float(Rat(10**400), NAMES)
    pole = compile_float(Pow(Var("x"), -1), NAMES)
    unbound = compile_float(Var("w"), NAMES)
    with pytest.raises(OverflowError):
        huge((0.0, 0.0, 0.0))
    with pytest.raises(ZeroDenominator):
        pole((0.0, 0.0, 0.0))
    assert pole((2.0, 0.0, 0.0)) == 0.5
    with pytest.raises(EvalError, match="missing assignment for 'w'"):
        unbound((0.0, 0.0, 0.0))


# -- the integrator over the walk ---------------------------------------------


def reference_velocity(comps, names, x, y):
    env = {names[0]: x, names[1]: y}
    try:
        vx = walk(comps[0], env)
        vy = walk(comps[1], env)
    except (ZeroDenominator, OverflowError, ValueError):
        return None
    norm = math.hypot(vx, vy)
    if not math.isfinite(norm) or norm < 1e-12:
        return None
    return vx / norm, vy / norm


def reference_half_curve(comps, names, start, window, steps, h, direction):
    pts = []
    x, y = start
    margin = 0.05 * max(window.width, window.height)
    for _ in range(steps):
        v = reference_velocity(comps, names, x, y)
        if v is None:
            break
        k1x, k1y = v
        v2 = reference_velocity(comps, names, x + 0.5 * h * direction * k1x,
                                y + 0.5 * h * direction * k1y)
        if v2 is None:
            break
        k2x, k2y = v2
        v3 = reference_velocity(comps, names, x + 0.5 * h * direction * k2x,
                                y + 0.5 * h * direction * k2y)
        if v3 is None:
            break
        k3x, k3y = v3
        v4 = reference_velocity(comps, names, x + h * direction * k3x,
                                y + h * direction * k3y)
        if v4 is None:
            break
        k4x, k4y = v4
        x += direction * h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        y += direction * h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0
        if not (math.isfinite(x) and math.isfinite(y)):
            break
        pts.append((x, y))
        if not window.contains(x, y, margin):
            break
    return pts


def reference_curve(field, start, window, steps):
    comps = (field.component(0), field.component(1))
    names = field.chart.names
    h = (window.width + window.height) / (2.0 * steps) * 4.0
    backward = reference_half_curve(comps, names, start, window, steps, h, -1.0)
    forward = reference_half_curve(comps, names, start, window, steps, h, +1.0)
    return list(reversed(backward)) + [tuple(map(float, start))] + forward


def packed(points):
    return [struct.pack("<dd", x, y) for x, y in points]


CH = Chart(("x", "y"))
X, Y = CH.coords()


@pytest.mark.parametrize("components, start, stops", [
    # the pole x = 0: the curve through it is its start alone
    ((ONE, ONE / X), (0.0, 0.5), 1),
    ((ONE, ONE / X), (-1.0, 0.25), None),
    ((ONE / X, ONE), (0.0, 0.0), 1),
    # a constant beyond the float range ends the curve at once
    ((Rat(10**400), ONE), (0.25, 0.25), 1),
    ((ZERO, ZERO), (0.25, -0.5), 1),
    ((ONE, X * X + Y - 1), (-1.5, 0.0), None),
    ((X + Y + ONE, 2 * X), (0.5, 0.5), None),
])
def test_integral_curve_matches_the_walk(components, start, stops):
    field = VectorField(CH, components)
    window = Window(-2.0, 2.0, -2.0, 2.0)
    got = integral_curve(field, start, window, steps=120)
    assert packed(got) == packed(reference_curve(field, start, window, 120))
    if stops is not None:
        assert len(got) == stops


def test_integral_curve_stops_before_a_pole_on_its_path():
    # away from x = 0 the field is exactly (1, 0) and h = 1/8, so the
    # forward half reaches x = -1/8 and its next RK4 stage lands on the pole
    field = VectorField(CH, (ONE, (X - X) / X))
    window = Window(-2.0, 2.0, -2.0, 2.0)
    got = integral_curve(field, (-1.0, 0.5), window, steps=128)
    assert packed(got) == packed(reference_curve(field, (-1.0, 0.5), window, 128))
    assert got[-1] == (-0.125, 0.5)


# -- whole plots against the per-leaf compiling integrator ---------------------


def per_leaf_velocity(fx, fy, x, y):
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


def per_leaf_half_curve(fx, fy, start, window, steps, h, direction):
    pts = []
    x, y = start
    margin = 0.05 * max(window.width, window.height)
    for _ in range(steps):
        ks = [per_leaf_velocity(fx, fy, x, y)]
        for c in (0.5, 0.5, 1.0):
            if ks[-1] is None:
                break
            kx, ky = ks[-1]
            ks.append(per_leaf_velocity(fx, fy, x + c * h * direction * kx,
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


def per_leaf_curve(field, start, window, steps):
    names = field.chart.names
    fx, fy = (compile_float(field.component(i), names) for i in (0, 1))
    start = tuple(map(float, start))
    h = (window.width + window.height) / (2.0 * steps) * 4.0
    backward = per_leaf_half_curve(fx, fy, start, window, steps, h, -1.0)
    forward = per_leaf_half_curve(fx, fy, start, window, steps, h, +1.0)
    return list(reversed(backward)) + [start] + forward


def per_leaf_plot(monkeypatch, *args, **kwargs):
    """leaf_plot with each leaf drawn by per_leaf_curve from the bound field."""
    with monkeypatch.context() as m:
        m.setattr(plot, "_unit_velocity", lambda field: field)
        m.setattr(plot, "_leaf", per_leaf_curve)
        return leaf_plot(*args, **kwargs)


def scene_plot_args(name):
    """The bundled scene's plot task as leaf_plot arguments."""
    scene = load_scene(find_scene(name))
    s = scene.structure()
    args = dict(scene.task("figure").args)
    kwargs = {"window": Window(*args.pop("window")), "leaves": args.pop("leaves"),
              "steps": args.pop("steps")}
    args.pop("out")
    return (s.f1[0], s.f2[0]), dict(kwargs, bindings=args)


def field(*components):
    return VectorField(CH, components)


PLOTS = {
    "zero": ((field(ZERO, ZERO), field(ONE, X)), {}),
    "huge constant": ((field(Rat(10**400), ONE), field(ONE, ONE)), {}),
    # a constant that is not a literal: its trees have the coordinate x
    "non-literal constant": ((field((X + ONE) - X, ZERO), field(ZERO, ONE)), {}),
    "pole": ((field(ONE, ONE / X), field(ONE / (Y - X), ONE)), {"leaves": 5}),
    "nonsquare window": ((field(Y, -X), field(ONE, 2 * X)),
                         {"window": Window(-3.0, 1.0, -0.25, 0.5), "leaves": 4, "steps": 90}),
}


@pytest.mark.parametrize("name", ["standard", "parabola", *PLOTS])
def test_leaf_plot_matches_the_per_leaf_integrator(name, monkeypatch):
    fields, kwargs = scene_plot_args(name) if name in ("standard", "parabola") else PLOTS[name]
    assert leaf_plot(*fields, **kwargs) == per_leaf_plot(monkeypatch, *fields, **kwargs)


def counted_compile(monkeypatch):
    """Spy on plot's compile_float: the fields compiled and, per compiled
    function, how often it ran."""
    compiled, runs = [], []

    def compile_spy(e, names):
        f = compile_float(e, names)
        compiled.append(e)
        runs.append(0)
        index = len(runs) - 1

        def run(p):
            runs[index] += 1
            return f(p)
        return run

    monkeypatch.setattr(plot, "compile_float", compile_spy)
    return compiled, runs


@pytest.mark.parametrize("leaves", [1, 9])
def test_each_field_is_compiled_once_per_plot(leaves, monkeypatch):
    compiled, _ = counted_compile(monkeypatch)
    (f1, f2), kwargs = scene_plot_args("parabola")
    leaf_plot(f1, f2, **dict(kwargs, leaves=leaves))
    assert len(compiled) == 4  # two components for each of the two fields
    leaf_plot(f1, f2, **dict(kwargs, leaves=leaves))
    assert len(compiled) == 8


@pytest.mark.parametrize("components, constant_runs", [
    ((ONE, ZERO), [1, 1]),
    ((ZERO, ZERO), [1, 1]),
    # the first component overflows, so the second never runs
    ((Rat(10**400), ONE), [1, 0]),
])
def test_a_constant_field_is_evaluated_once_per_plot(components, constant_runs, monkeypatch):
    compiled, runs = counted_compile(monkeypatch)
    leaf_plot(field(*components), field((X + ONE) - X, X), leaves=9, steps=60)
    assert len(compiled) == 4
    assert runs[:2] == constant_runs
    assert min(runs[2:]) > 9  # the field with coordinates, at every RK4 stage
