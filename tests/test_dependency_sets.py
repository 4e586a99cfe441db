"""The coordinate set each tree caches, against reference copies of the
uncached walks it replaces.

`diff` returns ZERO for a tree whose cached coordinates leave out the
name, at every depth; `directional` differentiates only along the names
its function depends on; `coordinates` reads the cache.  The references
below are those walks without the cache: they must build the same trees,
with the same printing and the same node classes, and the same sets.
"""

import functools
import random

import pytest

from bilag import symexpr
from bilag.lift import lift_structure
from bilag.symexpr import (
    ONE,
    ZERO,
    Add,
    JetVar,
    Mul,
    OpaqueSymbol,
    Pow,
    Rat,
    Var,
    as_expr,
    coordinates,
    diff,
    directional,
)
from test_frame_formula import transport_push
from test_structures import STRUCTURES, curved_structure, lifted

# ---------------------------------------------------------------------------
# references: the walks without the cached coordinate set


def ref_diff(e, var):
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, JetVar):
        if var in e.symbol.deps:
            return e.bump(var)
        return ZERO
    if isinstance(e, Add):
        return symexpr._make_add(*(ref_diff(t, var) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = ref_diff(f, var)
            if isinstance(df, Rat) and df.value == 0:
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            terms.append(symexpr._make_mul(df, *rest))
        return symexpr._make_add(*terms) if terms else ZERO
    if isinstance(e, Pow):
        db = ref_diff(e.base, var)
        if isinstance(db, Rat) and db.value == 0:
            return ZERO
        return symexpr._make_mul(
            Rat(e.exponent), symexpr._make_pow(e.base, e.exponent - 1), db)
    raise TypeError(f"cannot differentiate {e!r}")


def ref_directional(components, chart_names, f):
    if isinstance(f, Rat):
        return ZERO
    return symexpr._make_add(*(
        symexpr._make_mul(c, ref_diff(f, name))
        for c, name in zip(components, chart_names)
        if not (isinstance(c, Rat) and c.value == 0)
    ))


def ref_coordinates(e):
    out = set()
    for leaf in symexpr._leaves(as_expr(e)):
        if isinstance(leaf, JetVar):
            out.update(leaf.symbol.deps)
        else:
            out.add(leaf.name)
    return out


def shape(e):
    """The tree's node classes, with each leaf's name and each literal's value."""
    if isinstance(e, Rat):
        return (type(e), e.value)
    if isinstance(e, (Var, JetVar)):
        return (type(e), e.name)
    if isinstance(e, Pow):
        return (Pow, shape(e.base), e.exponent)
    children = e.terms if isinstance(e, Add) else e.factors
    return (type(e), tuple(shape(c) for c in children))


def _nodes(e):
    """Every node of the tree, each as often as it occurs."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
    return out


def assert_same_calculus(trees, names, fields):
    """diff along every name, directional along every field and coordinates
    agree with the references on every tree."""
    for e in trees:
        assert coordinates(e) == ref_coordinates(e), e
        for name in names:
            got, want = diff(e, name), ref_diff(e, name)
            assert (str(got), shape(got)) == (str(want), shape(want)), (e, name)
        for field in fields:
            got, want = field.apply(e), ref_directional(*field._derivation(), e)
            assert (str(got), shape(got)) == (str(want), shape(want)), (e, field)


def assert_same_on_structure(s):
    trees = [c for field in s.frame for c in field.entries.values()]
    trees += list(s.omega.form.coeffs.values())
    assert_same_calculus(trees, s.chart.names, s.frame)


# ---------------------------------------------------------------------------
# the structures, their lifts and the transport pushes


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_field_components_of_the_pool(name):
    assert_same_on_structure(STRUCTURES[name]())


@functools.lru_cache(maxsize=None)
def dim16(name):
    return lifted(STRUCTURES[name](), 16)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_field_components_of_the_dim16_lifts(name):
    assert_same_on_structure(dim16(name))


def test_field_components_of_the_curved_structure_and_its_lift():
    s = curved_structure()
    assert_same_on_structure(s)
    assert_same_on_structure(lift_structure(s))


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("index", range(10))
def test_field_components_of_the_transport_pushes(seed, index):
    assert_same_on_structure(transport_push(seed, index))


# ---------------------------------------------------------------------------
# random trees with jets and negative powers

H = OpaqueSymbol("h", ("x", "y"))
G = OpaqueSymbol("g", ("z",))
X, Y, Z = Var("x"), Var("y"), Var("z")


def random_tree(rng, depth=4):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(5)
        if kind == 0:
            return Rat(rng.choice((0, 1, -2, 3)))
        if kind == 1:
            return H.jet((rng.randrange(3), rng.randrange(3)))
        if kind == 2:
            return G.jet((rng.randrange(2),))
        return rng.choice((X, Y, Z))
    a, b = random_tree(rng, depth - 1), random_tree(rng, depth - 1)
    op = rng.randrange(5)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if op == 3 and not symexpr.is_zero(b):
        return a * Pow(b, -rng.randrange(1, 3))
    return Pow(a, rng.randrange(2, 4)) if not isinstance(a, Rat) else a * b


class _Field:
    """A field on the chart (x, y, z, w), by its stored components."""

    def __init__(self, entries):
        self.entries = entries

    def _derivation(self):
        names = ("x", "y", "z", "w")
        return list(self.entries.values()), [names[i] for i in self.entries]

    def apply(self, f):
        return directional(*self._derivation(), f)


@pytest.mark.parametrize("seed", range(4))
def test_random_trees_with_jets_and_negative_powers(seed):
    rng = random.Random(seed)
    trees = [random_tree(rng) for _ in range(60)]
    assert any(isinstance(node, Pow) and node.exponent < 0
               for t in trees for node in _nodes(t))
    assert any(isinstance(leaf, JetVar) for t in trees for leaf in symexpr._leaves(t))
    names = ("x", "y", "z", "w")
    frame = [
        _Field({0: ONE}),
        _Field({1: X * Y, 2: Rat(-3)}),
        _Field({2: H.jet((1, 0)), 3: ONE / (X + 2)}),
        _Field({}),
    ]
    assert_same_calculus(trees, names, frame)


# ---------------------------------------------------------------------------
# the cache itself


def test_each_node_computes_its_set_once(monkeypatch):
    counts = {}
    for cls in (Rat, Var, JetVar, Add, Mul, Pow):
        original = cls._coordinates

        def counted(self, original=original):
            counts[id(self)] = counts.get(id(self), 0) + 1
            return original(self)
        monkeypatch.setattr(cls, "_coordinates", counted)
    rng = random.Random(7)
    trees = [random_tree(rng) for _ in range(30)]
    # the shared leaves X, Y, Z and the literals ZERO and ONE may hold their
    # sets already; every other node computes its own on first use
    fresh = {id(node) for t in trees for node in _nodes(t) if not hasattr(node, "_coords")}
    for e in trees:
        coordinates(e)
        for name in ("x", "y", "z", "w"):
            diff(e, name)
        directional([ONE, X, ONE], ["x", "y", "z"], e)
        coordinates(e)
    assert len(fresh) > 100
    assert set(counts) == fresh and set(counts.values()) == {1}


def test_a_tree_outside_the_name_gives_the_shared_zero():
    e = (X * Y + H.jet((1, 0))) / (Y - 1) + G.jet((1,))
    assert coordinates(e) == {"x", "y", "z"}
    assert diff(e, "w") is ZERO
    assert directional([X, ONE], ["w", "v"], e) is ZERO
    assert directional([X, ONE], ["x", "y"], Rat(3)) is ZERO
    assert diff(Rat(5), "x") is ZERO


@pytest.mark.parametrize("value", [3, "x", None, 1.5])
def test_diff_of_a_non_expression_raises(value):
    with pytest.raises(TypeError, match="cannot differentiate"):
        diff(value, "x")


def test_coordinates_is_a_set_callers_can_test():
    deps = coordinates(X * H.jet((0, 1)) + G.jet((0,)))
    assert "x" in deps and "y" in deps and "z" in deps and "w" not in deps
    assert deps == {"x", "y", "z"} and len(deps) == 3
    assert sorted(deps) == ["x", "y", "z"]
    assert coordinates(3) == set()
