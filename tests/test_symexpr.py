"""Exact scalar expressions: parsing, normalization, calculus, jets."""

from fractions import Fraction

import pytest

from bilag import symexpr
from bilag.symexpr import (
    CompositionError,
    CrossCheckError,
    JetVar,
    NormalForm,
    OpaqueSymbol,
    ParseError,
    Poly,
    UnknownIdentifier,
    Var,
    ZeroDenominator,
    ONE,
    ZERO,
    Rat,
    as_expr,
    bind_symbol,
    check_seed,
    check_stream,
    compact,
    diff,
    directional,
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

    def _compile(self, names, num):
        value = super()._compile(names, num)

        def counted(p):
            self.evaluations += 1
            return value(p)
        return counted


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

    @pytest.mark.parametrize("text, message", [
        ("1.5", "decimal literals are not supported; use exact fractions "
                "(at position 1: '.5')"),
        ("2x", "missing operator between number and name (at position 1: 'x')"),
        ("x $ y", "unexpected character '$' (at position 2: '$ y')"),
        ("0^-1", "zero raised to a negative power (at position 3: '1')"),
        ("(x y", "expected ')' (at position 3: 'y')"),
        (")", "unexpected token ')' (at position 0: ')')"),
        ("x -> y", "trailing input after expression (at position 2: '-> y')"),
        ("x, y", "trailing input after expression (at position 1: ', y')"),
        ("x^-2", None),
    ])
    def test_syntax_error_messages(self, text, message):
        if message is None:
            # a negative exponent on a nonzero base is a reciprocal power
            assert str(parse_expr(text, ("x", "y"))) == "1/x^2"
            return
        with pytest.raises(ParseError) as err:
            parse_expr(text, ("x", "y"))
        assert str(err.value) == message


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

    @pytest.mark.parametrize("value", [0, 1, Fraction(-3, 7)])
    def test_literal_is_decided_by_its_value(self, value, monkeypatch):
        def never(self, names, num):
            raise AssertionError("a literal's zero test compiled the tree")

        monkeypatch.setattr(Rat, "_compile", never)
        state = symexpr._check_rng.getstate()
        literal = Rat(value)
        assert equal_zero(literal) is (value == 0)
        assert equal_zero(value) is (value == 0)
        assert symexpr._check_rng.getstate() == state
        assert literal._nf is None

    @pytest.mark.parametrize("value, claims, message", [
        (3, 0, "normal form claims zero but 3 evaluates to 3 at {}"),
        (0, 1, "normal form claims nonzero but 0 vanished at 20 random points"),
    ])
    def test_constant_tree_disagreement_raises(self, value, claims, message):
        with pytest.raises(RuntimeError) as err:
            equal_zero(_Constant(value, claims))
        assert str(err.value) == message
        assert isinstance(err.value, CrossCheckError)

    def test_denominator_vanishing_mod_p_falls_back_to_exact(self):
        # p*x is 0 modulo p at every point; resampling would never find a
        # point, so only exact evaluation can decide these
        import random

        inverse = ONE / (Rat(P) * X)
        small = Rat(Fraction(1, P)) * X
        old = check_seed()
        try:
            set_check_seed(3)
            reference = random.Random(3)
            for tree, verdict in (
                (inverse, False),
                (inverse - inverse, True),
                (small, False),
                (small - X / P, True),
            ):
                assert equal_zero(tree) is verdict
                # the points drawn are those of the exact loop alone
                assert _rational_equal_zero(tree, reference) is verdict
                assert symexpr._check_rng.getstate() == reference.getstate()
        finally:
            set_check_seed(old)

    def test_check_stream_is_derived_from_seed_and_label(self):
        old = check_seed()
        try:
            set_check_seed(7)
            outer = symexpr._check_rng.getstate()
            with check_stream("a"):
                first = symexpr._check_rng.getstate()
                equal_zero(X * Y - Y * X)
            assert symexpr._check_rng.getstate() == outer
            assert check_seed() == 7
            with check_stream("a"):
                assert symexpr._check_rng.getstate() == first
            with check_stream("b"):
                assert symexpr._check_rng.getstate() != first
        finally:
            set_check_seed(old)

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

    def test_directional_skips_literal_zero_components(self, monkeypatch):
        f = X ** 2 * Y + ONE / Y
        full = ONE * diff(f, "x") + ZERO * diff(f, "y")
        along = []

        def counting_diff(e, var):
            if e is f:
                along.append(var)
            return diff(e, var)

        monkeypatch.setattr(symexpr, "diff", counting_diff)
        got = directional((ONE, ZERO), ("x", "y"), f)
        assert along == ["x"]
        assert str(got) == str(full)


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

    def test_bind_symbol_through_a_reciprocal(self):
        e = ONE / self.hv + diff(ONE / self.hv, "x")
        bound = bind_symbol(e, self.h, 1 + X * X)
        assert bound.jet_atoms() == set()
        assert equal_zero(bound - (ONE / (1 + X * X) - 2 * X / (1 + X * X) ** 2))

    def test_substitute_keeps_a_jet_whose_dependencies_map_to_themselves(self):
        e = self.hv * X + ONE / (Y - self.h.jet((1, 1)))
        out = substitute(e, {"x": X, "y": Y, "u": X * X})
        assert str(out) == str(e)
        assert out.jet_atoms() == {self.hv, self.h.jet((1, 1))}

    @pytest.mark.parametrize("orders", [(0, 0), (1, 0), (0, 2), (2, 1), (1, 3)])
    def test_jet_name_reads_back(self, orders):
        jet = self.h.jet(orders)
        parsed = parse_expr(jet.name, ("x", "y"), (self.h,))
        assert isinstance(parsed, JetVar)
        assert parsed.orders == orders
        assert parsed.name == jet.name == str(jet)
        assert (jet.name == "h") == (not any(orders))

    def test_jet_is_not_a_coordinate(self):
        assert not isinstance(self.hv, Var)
        assert not isinstance(X, JetVar)


class TestAtoms:
    h = OpaqueSymbol("h", ("x", "y"))
    hv = h.jet((0, 0))
    hx = h.jet((1, 0))

    @pytest.mark.parametrize("tree, names, jets", [
        (X * X + X * Y + X, {"x", "y"}, set()),
        (ONE / (X + hv) ** 2, {"x", "h"}, {hv}),
        (Y * (X + hv) ** -1, {"x", "y", "h"}, {hv}),
        (hv * hx * hv, {"h", "h_x"}, {hv, hx}),
        (X - X, {"x"}, set()),
        (hx - hx + 3, {"h_x"}, {hx}),
        (Rat(3) / 4 + 2, set(), set()),
        (ZERO, set(), set()),
    ])
    def test_atoms_and_jet_atoms(self, tree, names, jets):
        assert tree.atoms() == names
        assert tree.jet_atoms() == jets
        assert all(isinstance(j, JetVar) for j in tree.jet_atoms())


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


P = symexpr._P


def _residue(value):
    return value.numerator * pow(value.denominator, -1, P) % P


def test_modular_evaluation_matches_exact_randomized():
    import random

    rng = random.Random(77)
    agreed = 0
    for e in _random_exprs(2026, ["+", "-", "*", "/"]):
        points = [
            {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for n in "xyz"}
            for _ in range(5)
        ]
        residues = []
        for point in points:
            try:
                exact = eval_num(e, point)
            except ZeroDenominator:
                # a true zero denominator is zero modulo p too
                with pytest.raises(symexpr._ModZero):
                    e._mod({n: [_residue(v)] for n, v in point.items()})
                residues = None
                continue
            assert e._mod({n: [_residue(v)] for n, v in point.items()}) == [_residue(exact)]
            if residues is not None:
                residues.append(_residue(exact))
            agreed += 1
        # the five points as the lanes of one walk
        lanes = {n: [_residue(point[n]) for point in points] for n in "xyz"}
        if residues is None:
            with pytest.raises(symexpr._ModZero):
                e._mod(lanes)
        else:
            assert e._mod(lanes) == residues
    assert agreed > 300


def _randint_points(names, rng, spread, count):
    """The points the zero test drew with randint, one name after another."""
    return [
        [(rng.randint(-spread, spread), rng.randint(1, 7)) for _ in names]
        for _ in range(count)
    ]


@pytest.mark.parametrize("spread", [12, 13, 25, 100])
def test_draw_points_match_randint(spread):
    import random

    for count in range(5):
        names = "abcd"[:count]
        for seed in range(3):
            reference, rng = random.Random(seed), random.Random(seed)
            expected = _randint_points(names, reference, spread, 20)
            assert symexpr._draw_points(names, rng, spread, 20) == expected
            assert rng.getstate() == reference.getstate()
            assert symexpr._draw_points(names, rng, spread, 1) == _randint_points(
                names, reference, spread, 1
            )
            assert rng.getstate() == reference.getstate()


class _CountingVar(Var):
    """A coordinate that counts its modular evaluations."""

    __slots__ = ("walks",)

    def __init__(self, name):
        super().__init__(name)
        self.walks = 0

    def _mod(self, env):
        self.walks += 1
        return super()._mod(env)


def test_zero_verdict_walks_the_tree_once():
    x, y = _CountingVar("x"), _CountingVar("y")
    tree = (x + y) * (x - y) - (x * x - y * y)
    assert equal_zero(tree) is True
    # x and y each occur four times in the tree; 20 walks would give 80
    assert (x.walks, y.walks) == (4, 4)


def _rational_equal_zero(e, rng, points=20):
    """Reference: the zero test's point loop on exact rationals alone."""
    verdict = e.normal().is_zero
    names = sorted(e.atoms())
    checked = 0
    saw_nonzero = False
    spread = 12
    attempts = 0
    while checked < points and attempts < 40 * points:
        attempts += 1
        env = {
            name: Fraction(rng.randint(-spread, spread), rng.randint(1, 7))
            for name in names
        }
        try:
            value = eval_num(e, env)
        except ZeroDenominator:
            spread += 1
            continue
        checked += 1 if names else points
        if value != 0:
            saw_nonzero = True
            if verdict:
                raise RuntimeError(
                    f"normal form claims zero but {e} evaluates to {value} at {env}"
                )
            break
    if checked == 0:
        raise RuntimeError(f"could not sample an evaluation point for {e}")
    if not verdict and not saw_nonzero and checked >= points:
        raise RuntimeError(
            f"normal form claims nonzero but {e} vanished at {checked} random points"
        )
    return verdict


def test_equal_zero_draws_like_the_rational_loop():
    import random

    old = check_seed()
    trees = []
    for e in _random_exprs(2027, ["+", "-", "*", "/"]):
        trees += [e, e - compact(e), ONE / (X - Y) - ONE / (X - Y)]
    try:
        for seed in (1, 2):
            set_check_seed(seed)
            reference = random.Random(seed)
            for e in trees:
                assert equal_zero(e) == _rational_equal_zero(e, reference)
                assert symexpr._check_rng.getstate() == reference.getstate()
    finally:
        set_check_seed(old)


class _LyingVar(Var):
    """A coordinate whose normal form claims it is zero."""

    __slots__ = ()

    def _normal(self):
        return ZERO.normal()


class _LyingAdd(symexpr.Add):
    """A sum whose normal form claims it is x."""

    __slots__ = ()

    def _normal(self):
        return X.normal()


@pytest.mark.parametrize("tree", [
    _LyingVar("x"),
    _LyingVar("x") + ONE / (X - Y) - ONE / (X - Y),
    _LyingAdd((X, -X)),
])
def test_disagreement_on_a_tree_with_atoms_raises(tree):
    import random

    old = check_seed()
    try:
        set_check_seed(11)
        reference = random.Random(11)
        with pytest.raises(RuntimeError) as expected:
            _rational_equal_zero(tree, reference)
        with pytest.raises(CrossCheckError) as err:
            equal_zero(tree)
        # a failed one-walk check leaves the stream as the loop alone would
        assert symexpr._check_rng.getstate() == reference.getstate()
    finally:
        set_check_seed(old)
    assert str(err.value) == str(expected.value)


def test_int_and_fraction_coefficients_are_interchangeable():
    xy = (("x", 1), ("y", 1))
    as_int = Poly({xy: 2, ((("x", 1),)): -3, (): 1})
    as_frac = Poly({xy: Fraction(2), ((("x", 1),)): Fraction(-6, 2), (): Fraction(1)})
    assert as_int == as_frac and hash(as_int) == hash(as_frac)
    assert str(as_int) == str(as_frac)
    one = Poly.const(1)
    a = NormalForm(as_int, one)
    b = NormalForm(as_frac, Poly.const(Fraction(2, 2)))
    assert a == b and hash(a) == hash(b) and str(a) == str(b)
    assert all(type(c) is int for c in Poly.const(Fraction(4, 2)).terms.values())
    for value in (3, Fraction(3), Fraction(1, 3)):
        got = Rat(value).normal().const_value()
        assert type(got) is Fraction and got == value
    assert type(Poly.const(Fraction(6, 3)).const_value()) is Fraction


# ---------------------------------------------------------------------------
# poly_gcd's coprimality certificate against the plain pseudo-remainder
# sequence, which is kept here as the reference


def _prs_content_in(p, var):
    coeffs = list(p.coeffs_in(var).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = prs_gcd(g, c)
    return g


def prs_gcd(a, b):
    """poly_gcd without the certificate: the primitive PRS alone."""
    prim, divexact = symexpr._int_primitive, symexpr._poly_divexact
    if a.is_zero and b.is_zero:
        return Poly({})
    if a.is_zero:
        return prim(b)
    if b.is_zero:
        return prim(a)
    if a.is_const or b.is_const:
        return Poly({(): 1})
    a, b = prim(a), prim(b)
    shared = a.variables() & b.variables()
    if not shared:
        return Poly({(): 1})
    var = sorted(shared)[0]
    ca, cb = _prs_content_in(a, var), _prs_content_in(b, var)
    g_cont = prs_gcd(ca, cb)
    pa, pb = prim(divexact(a, ca)), prim(divexact(b, cb))
    if pa.degree_in(var) < pb.degree_in(var):
        pa, pb = pb, pa
    while not pb.is_zero:
        r = symexpr._prem(pa, pb, var)
        if r.is_zero:
            pa = pb
            break
        pa, pb = pb, prim(divexact(r, _prs_content_in(r, var)))
    return prim(g_cont * pa)


def _poly(text, *shifted):
    """The numerator of `text`, each variable in `shifted` read as v - point(v).

    point is the certificate's fixed point, so call this inside a test.
    """
    shift = {v: parse_expr(f"{v} - {symexpr._gcd_point(v)}", (v,)) for v in shifted}
    return substitute(parse_expr(text, ("x", "y", "z", "h_x")), shift).normal().num


def _random_poly(rng, names, fractions=False):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple((v, e) for v in sorted(names) if (e := rng.randint(0, 2)))
        c = rng.randint(-4, 4) or 1
        if fractions and rng.random() < 0.5:
            c = Fraction(c, rng.randint(2, 9))
        terms[mono] = terms.get(mono, 0) + c
    return Poly(terms)


def _gcd_pool(seed=2031):
    import random

    rng = random.Random(seed)
    names = ("x", "y", "z", "h_x")
    for _ in range(25):
        fr = rng.random() < 0.3
        a, b = _random_poly(rng, names, fr), _random_poly(rng, names, fr)
        yield a, b                                      # mostly coprime
        g1 = _random_poly(rng, (rng.choice(names),))    # a factor in one variable
        yield a * g1, b * g1
        g2 = _random_poly(rng, rng.sample(names, 2), fr)
        yield a * g2 * g1, b * g2                       # in several, jets too
        yield a, a.scale(Fraction(-3, 7))               # scalar multiples
        yield a * b, b                                  # one divides the other
        yield a * b + Poly({(): 1}), g2                 # coprime, most often


def _assert_same_gcd(a, b):
    got, want = symexpr.poly_gcd(a, b), prs_gcd(a, b)
    assert got == want and str(got) == str(want), (str(a), str(b))
    return got


def test_poly_gcd_matches_the_plain_sequence_on_a_seeded_pool():
    proved = nontrivial = 0
    for a, b in _gcd_pool():
        shared = a.variables() & b.variables()
        if shared and not (a.is_const or b.is_const) and symexpr._coprime(a, b, shared):
            proved += 1
        if not _assert_same_gcd(a, b).is_const:
            nontrivial += 1
    assert proved > 20 and nontrivial > 40


def test_certificate_proves_simple_coprime_pairs():
    assert symexpr._coprime(_poly("x + 1"), _poly("x + 2"), {"x"})
    assert symexpr._coprime(_poly("x*y + h_x"), _poly("x - y^2"), {"x", "y"})
    assert not symexpr._coprime(_poly("x^2 - 1"), _poly("x + 1"), {"x"})


def test_certificate_points_are_fixed_by_name():
    # not hash(), which varies with PYTHONHASHSEED, nor the check stream
    assert symexpr._gcd_point("x") == pow(3, 121, P)
    assert symexpr._gcd_point("h_xy") == pow(
        3, 1 + (((104 * 131 + 95) * 131 + 120) * 131 + 121) % (P - 1), P)


def test_poly_gcd_leaves_the_check_stream_alone():
    set_check_seed(4)
    try:
        before = symexpr._check_rng.getstate()
        for a, b in _gcd_pool(7):
            symexpr.poly_gcd(a, b)
        assert symexpr._check_rng.getstate() == before
    finally:
        set_check_seed(symexpr._DEFAULT_CHECK_SEED)


# Each side is a Poly, or the arguments of _poly
@pytest.mark.parametrize("a, b, why", [
    # g = x*y + 1 after the shift: its leading coefficient in x vanishes at
    # y's point and in y at x's point, so every image of g is 1
    (("(x*y + 1)*x", "x", "y"), ("(x*y + 1)*(x + 1)", "x", "y"),
     "both leading coefficients vanish"),
    (("(x*y + 1)*x^2", "x", "y"), ("(x*y + 1)*(x + 1)", "x", "y"),
     "both leading coefficients vanish"),
    # a's image in x is 0; the surviving image then is its own gcd
    (("y*(x^2 + x)", "y"), ("x + 3",), "a zero image"),
    (("y*(x^2 + x)", "y"), ("x*y + 3",), "a zero image"),
    (Poly({(("x", 1),): Fraction(1, P), (): 1}), ("x + 1",),
     "a denominator 0 mod p"),
    (Poly({(("x", 1),): Fraction(1, P), (): Fraction(1, P)}), ("x + 1",),
     "a denominator 0 mod p"),
    # coprime in x, but (y + 1) is common: one variable is not every variable
    (("(y + 1)*x",), ("(y + 1)*(x + 2)",), "a positive image gcd"),
    (("(z + 1)*(x + y)",), ("(z + 1)*(x - y)",), "a positive image gcd"),
])
def test_inconclusive_certificates_fall_back_and_agree(a, b, why):
    a, b = (p if isinstance(p, Poly) else _poly(*p) for p in (a, b))
    shared = a.variables() & b.variables()
    assert not symexpr._coprime(a, b, shared), why
    _assert_same_gcd(a, b)
    _assert_same_gcd(b, a)


def test_hidden_common_factor_is_found():
    a = _poly("(x*y + 1)*x", "x", "y")
    b = _poly("(x*y + 1)*(x + 1)", "x", "y")
    assert str(symexpr.poly_gcd(a, b)) == str(_poly("x*y + 1", "x", "y"))


def test_compact_keeps_one_tree_per_form():
    e = (X + Y) * (X - Y) / (X + 1)
    nf = e.normal()
    first = compact(e)
    assert compact(e) is first and compact(first) is first
    assert symexpr._cached_tree(nf) is first
    # as_expr itself stays uncached, so renormalizing it tests canonicity
    fresh = nf.as_expr()
    assert fresh is not first and fresh is not nf.as_expr()
    assert fresh._nf is None
    assert str(fresh) == str(first)
