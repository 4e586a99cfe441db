"""Exact scalar expressions: parsing, normalization, calculus, jets."""

from fractions import Fraction

import pytest

from bilag import symexpr
from bilag.symexpr import (
    CompositionError,
    OpaqueSymbol,
    ParseError,
    UnknownIdentifier,
    Var,
    ZeroDenominator,
    ONE,
    ZERO,
    Rat,
    as_expr,
    bind_symbol,
    check_seed,
    compact,
    diff,
    dot,
    equal_zero,
    eval_float,
    eval_num,
    is_zero,
    normalize,
    parse_expr,
    set_check_seed,
    substitute,
)

X = Var("x")
Y = Var("y")


class _Constant(Rat):
    """A constant that counts its evaluations; its normal form claims `claims`."""

    __slots__ = ("claims", "evaluations")

    def __init__(self, value, claims):
        super().__init__(value)
        self.claims = claims
        self.evaluations = 0

    def _normal(self):
        return Rat(self.claims).normal()

    def _eval(self, env, numeric):
        self.evaluations += 1
        return super()._eval(env, numeric)


class TestParsing:
    def test_arithmetic_golden(self):
        e = parse_expr("x^2 + 3*x*y - 1/2", ("x", "y"))
        assert eval_num(e, {"x": 2, "y": 3}) == Fraction(43, 2)

    def test_precedence_and_unary_minus(self):
        e = parse_expr("-x^2", ("x",))
        assert eval_num(e, {"x": 3}) == -9
        e2 = parse_expr("(-x)^2", ("x",))
        assert eval_num(e2, {"x": 3}) == 9

    def test_chained_power_needs_parens(self):
        with pytest.raises(ParseError):
            parse_expr("x^2^3", ("x",))
        e = parse_expr("(x^2)^3", ("x",))
        assert eval_num(e, {"x": 2}) == 64

    def test_division_is_exact(self):
        e = parse_expr("1/3 + 1/6", ())
        assert eval_num(e, {}) == Fraction(1, 2)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_expr("x + z", ("x", "y"))

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x + 1", ("x",))

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("x^(1/2)", ("x",))

    def test_opaque_symbol_application(self):
        h = OpaqueSymbol("h", ("x", "y"))
        e = parse_expr("h * x", ("x", "y"), symbols=(h,))
        assert eval_num(e, {"x": 2, "y": 5, "h": 7}) == 14


class TestNormalization:
    def test_idempotent(self):
        e = parse_expr("(x + y)^3 - x*(x^2 + 3*x*y)", ("x", "y"))
        once = normalize(e)
        twice = normalize(once.as_expr())
        assert str(once) == str(twice)

    def test_cancellation(self):
        e = (X + Y) * (X - Y) - X * X + Y * Y
        assert is_zero(e)

    def test_rational_function_reduction(self):
        e = (X * X - ONE) / (X - ONE)
        assert equal_zero(e - (X + ONE))

    def test_zero_denominator_detected(self):
        with pytest.raises(ZeroDenominator):
            normalize(ONE / (X - X))

    def test_canonical_string_sorted(self):
        e = parse_expr("y + x", ("x", "y"))
        assert str(normalize(e)) == "x + y"


class TestEquality:
    def test_binomial_square(self):
        e = (X + Y) ** 2 - X ** 2 - 2 * X * Y - Y ** 2
        assert equal_zero(e)

    def test_nonzero_detected(self):
        assert not equal_zero(X ** 2 - Y)

    @pytest.mark.parametrize("value", [0, 3])
    def test_constant_tree_evaluated_once(self, value):
        state = symexpr._check_rng.getstate()
        c = _Constant(value, value)
        assert equal_zero(c) is (value == 0)
        assert c.evaluations == 1
        assert symexpr._check_rng.getstate() == state

    @pytest.mark.parametrize("value, claims, message", [
        (3, 0, "normal form claims zero but 3 evaluates to 3 at {}"),
        (0, 1, "normal form claims nonzero but 0 vanished at 20 random points"),
    ])
    def test_constant_tree_disagreement_raises(self, value, claims, message):
        with pytest.raises(RuntimeError) as err:
            equal_zero(_Constant(value, claims))
        assert str(err.value) == message

    def test_seed_roundtrip(self):
        old = check_seed()
        try:
            set_check_seed(12345)
            assert check_seed() == 12345
            assert equal_zero(X - X)
        finally:
            set_check_seed(old)


class TestDifferentiation:
    def test_power_rule(self):
        assert equal_zero(diff(X ** 4, "x") - 4 * X ** 3)

    def test_product_rule(self):
        e = X ** 2 * Y
        assert equal_zero(diff(e, "x") - 2 * X * Y)

    def test_quotient_rule(self):
        e = X / Y
        assert equal_zero(diff(e, "y") + X / Y ** 2)

    def test_constant_derivative(self):
        assert is_zero(diff(as_expr(Fraction(7, 3)), "x"))


class TestJets:
    def setup_method(self):
        self.h = OpaqueSymbol("h", ("x", "y"))
        self.hv = self.h.jet((0, 0))

    def test_first_partials_are_distinct(self):
        hx = diff(self.hv, "x")
        hy = diff(self.hv, "y")
        assert not equal_zero(hx - hy)

    def test_mixed_partials_commute(self):
        hxy = diff(diff(self.hv, "x"), "y")
        hyx = diff(diff(self.hv, "y"), "x")
        assert equal_zero(hxy - hyx)

    def test_independent_of_other_names(self):
        assert is_zero(diff(self.hv, "z"))

    def test_jet_identity_survives_normalization(self):
        # normalizing and rebuilding must keep the derivative structure alive
        e = (self.hv + X).normal().as_expr()
        assert equal_zero(diff(e, "x") - (diff(self.hv, "x") + ONE))

    def test_product_with_jet(self):
        e = self.hv * X
        assert equal_zero(diff(e, "x") - (diff(self.hv, "x") * X + self.hv))

    def test_substitute_into_dependency_rejected(self):
        with pytest.raises(CompositionError):
            substitute(self.hv + X, {"x": Y * Y})

    def test_substitute_unrelated_name_ok(self):
        g = OpaqueSymbol("g", ("x",))
        e = g.jet((0,)) + Var("u")
        out = substitute(e, {"u": X})
        assert equal_zero(out - (g.jet((0,)) + X))

    def test_bind_symbol_replaces_all_jets(self):
        e = diff(self.hv, "x") + self.hv
        bound = bind_symbol(e, self.h, X * X + Y)
        assert equal_zero(bound - (2 * X + X * X + Y))

    def test_bind_symbol_second_derivatives(self):
        e = diff(diff(self.hv, "x"), "x")
        assert equal_zero(bind_symbol(e, self.h, X ** 3) - 6 * X)


class TestEvaluation:
    def test_eval_num_exact(self):
        e = parse_expr("x/3 + y/6", ("x", "y"))
        assert eval_num(e, {"x": 1, "y": 1}) == Fraction(1, 2)

    def test_eval_float(self):
        e = parse_expr("x^2", ("x",))
        assert eval_float(e, {"x": 1.5}) == pytest.approx(2.25)

    def test_eval_jet_needs_assignment(self):
        h = OpaqueSymbol("h", ("x",))
        with pytest.raises(Exception):
            eval_num(h.jet((0,)), {"x": 1})


class TestSubstitution:
    def test_polynomial_substitution(self):
        e = X ** 2 + Y
        out = substitute(e, {"x": Y})
        assert equal_zero(out - (Y ** 2 + Y))

    def test_simultaneous(self):
        e = X * Y
        out = substitute(e, {"x": Y, "y": X})
        assert equal_zero(out - X * Y)


def _random_exprs(seed, operators, count=100):
    """Seeded random combinations of a fixed pool of small expressions."""
    import random

    rng = random.Random(seed)
    names = ("x", "y", "z")
    pool = ["x", "y", "z", "1", "2", "1/2", "x + y", "y - z", "x*z"]
    for _ in range(count):
        parts = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        ops = [rng.choice(operators) for _ in range(len(parts) - 1)]
        text = parts[0]
        for op, part in zip(ops, parts):
            text = f"({text}) {op} ({part})"
        yield parse_expr(text, names)


def test_normalize_idempotence_randomized():
    for e in _random_exprs(2024, ["+", "-", "*"]):
        first = normalize(e)
        second = normalize(first.as_expr())
        assert str(first) == str(second)


def test_compact_caches_the_canonical_form_randomized():
    uncached = 0
    for e in _random_exprs(2025, ["+", "-", "*", "/"]):
        nf = e.normal()
        rebuilt = nf.as_expr()
        fresh = normalize(nf.as_expr())
        c = compact(e)
        assert (c.normal().num, c.normal().den) == (fresh.num, fresh.den)
        assert str(c) == str(rebuilt)
        # as_expr builds a new, uncached tree, except when the form is 0 or
        # one bare atom: then it hands back the shared ZERO or that atom
        if rebuilt is not ZERO and all(rebuilt is not a for a in nf.atoms.values()):
            assert rebuilt._nf is None
            assert c.normal() is nf
            uncached += 1
    assert uncached > 50


def test_compact_keeps_an_existing_cache():
    x_nf = X.normal()
    assert compact(X + Y - Y) is X
    assert X.normal() is x_nf
    assert compact(X - X) is ZERO
    assert ZERO.normal().atoms == {}


def test_dot_matches_the_accumulating_loop():
    h = OpaqueSymbol("h", ("x", "y"))
    hv = h()
    xs = [diff(hv, "x"), ZERO, X * hv, ONE / (1 + Y * Y)]
    ys = [Y, X, diff(diff(hv, "x"), "y"), hv - X]
    total = ZERO
    for a, b in zip(xs, ys):
        total = total + a * b
    expected = total.normal().as_expr()
    got = dot(xs, ys)
    assert str(got) == str(expected)
    assert equal_zero(got - expected)
    # the rebuilt jets still differentiate as jets
    assert equal_zero(diff(got, "y") - diff(expected, "y"))
    assert dot([ZERO, X], [Y, ZERO]) is ZERO
