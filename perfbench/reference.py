"""A fixed pure-Python reference computation that gauges the host's speed.

The hosts this benchmark runs on change speed by up to a factor of two from
one minute to the next, as other tenants come and go.  Raw times then
spread far wider than any useful bound.  So the benchmark times this
kernel right before and right after every op, and scales the op's time by
``REFERENCE_S / (mean of the two kernel times)``.  Its reported times are
seconds at the speed where the kernel takes `REFERENCE_S`; the raw times
are printed next to them.

The kernel does what the engine's core does, using only the standard
library: it builds and evaluates a tree of small slotted objects over
`Fraction`s, and multiplies sparse polynomials kept as dicts keyed by
sorted exponent tuples.  It must never change: a change would rescale
every reported time.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Nominal kernel time: the scale of every reported time.
REFERENCE_S = 0.004
REPEATS = 3


class _Node:
    __slots__ = ("kind", "kids", "value")

    def __init__(self, kind, kids=(), value=None):
        self.kind, self.kids, self.value = kind, kids, value


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", value=Fraction(i % 7 + 1, i % 5 + 2))
    kind = "add" if depth % 2 else "mul"
    return _Node(kind, (_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1)))


def _evaluate(node: _Node) -> Fraction:
    if node.kind == "leaf":
        return node.value
    a, b = _evaluate(node.kids[0]), _evaluate(node.kids[1])
    return a + b if node.kind == "add" else a * b


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = dict(ma)
            for var, e in mb:
                exps[var] = exps.get(var, 0) + e
            mono = tuple(sorted(exps.items()))
            c = out.get(mono, 0) + ca * cb
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


_POLY = {(("x", i), ("y", j)): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}


def kernel() -> int:
    _evaluate(_build(8, 1))
    return len(_poly_mul(_POLY, _POLY))


def sample() -> float:
    """Median seconds of a few kernel runs, with the cyclic collector off."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the kernel times around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
