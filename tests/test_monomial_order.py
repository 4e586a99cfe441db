"""The monomial order and exact division against a reference copy of the
variable-set route they replace.

The reference orders monomials by their exponent vectors over the sorted
union of the variables in play, a key rebuilt from that set on each call,
and tests divisibility apart from dividing.  `_lex` keys a monomial alone.
Both must give the same leading terms, the same sorted monomials and
printing, and the same quotients: equal terms in the same dict order, with
equal coefficient types.  An inexact division raises the same ValueError.
Powers by squaring keep the terms, dict order and coefficient types of
repeated multiplication.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bilag import symexpr
from bilag.calculus import span_membership
from bilag.lift import lift_map, lift_structure, lifted_action_check
from bilag.structures import christoffels, curvature, push_structure
from bilag.symexpr import Poly, _lex, _poly_divexact, _qdiv
from test_structures import STRUCTURES, curved_structure

# ---------------------------------------------------------------------------
# reference: the variable-set key and the divisibility test


def ref_mono_divides(m1, m2):
    """Does monomial m1 divide m2?"""
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def ref_mono_div(m1, m2):
    """m1 / m2, assuming m2 divides m1."""
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps[var] - e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def ref_lex_key(variables):
    """Sort key of a monomial: its exponents over the sorted variables."""
    varlist = sorted(variables)

    def key(m):
        d = dict(m)
        return tuple(d.get(v, 0) for v in varlist)

    return key


def ref_poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ValueError if it does not divide."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return a
    if b.is_const:
        bc = b.terms[()]
        return Poly({m: _qdiv(c, bc) for m, c in a.terms.items()})
    key = ref_lex_key(a.variables() | b.variables())
    bm = max(b.terms, key=key)
    bc = b.terms[bm]
    quotient: dict = {}
    rem = a
    while not rem.is_zero:
        rm = max(rem.terms, key=key)
        rc = rem.terms[rm]
        if not ref_mono_divides(bm, rm):
            raise ValueError("inexact polynomial division")
        qm = ref_mono_div(rm, bm)
        qc = _qdiv(rc, bc)
        quotient[qm] = quotient.get(qm, 0) + qc
        rem = rem - b * Poly({qm: qc})
    return Poly(quotient)


def ref_leading(p: Poly):
    m = max(p.terms, key=ref_lex_key(p.variables()))
    return m, p.terms[m]


def ref_sorted_monos(p: Poly):
    return sorted(p.terms, key=ref_lex_key(p.variables()), reverse=True)


# ---------------------------------------------------------------------------
# comparison


def typed(p: Poly):
    """The terms in dict order, each with its coefficient's type."""
    return [(m, c, type(c)) for m, c in p.terms.items()]


def division(a, b):
    try:
        return typed(_poly_divexact(a, b))
    except ValueError as exc:
        return "ValueError", str(exc)


def ref_division(a, b):
    try:
        return typed(ref_poly_divexact(a, b))
    except ValueError as exc:
        return "ValueError", str(exc)


def same_order(p: Poly, monkeypatch):
    assert p.leading() == ref_leading(p)
    assert p._sorted_monos() == ref_sorted_monos(p)
    text = str(p)
    with monkeypatch.context() as m:
        m.setattr(Poly, "_sorted_monos", ref_sorted_monos)
        assert text == str(p)


# ---------------------------------------------------------------------------
# seeded random polynomials over names that sort awkwardly: upper case
# before '_' before lower case, and prefixes of one another

NAMES = ("x", "x1", "xi1", "X", "_a", "h_x", "h_xy")


def random_poly(rng, terms=None):
    out = {}
    for _ in range(rng.randint(1, 6) if terms is None else terms):
        names = rng.sample(NAMES, rng.randint(0, 3))
        m = tuple(sorted((v, rng.randint(1, 3)) for v in names))
        out[m] = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))
    return Poly(out)


@pytest.mark.parametrize("seed", range(20))
def test_random_order_and_printing(seed, monkeypatch):
    rng = random.Random(seed)
    for _ in range(50):
        p = random_poly(rng)
        if not p.is_zero:
            same_order(p, monkeypatch)


@pytest.mark.parametrize("seed", range(20))
def test_random_exact_divisions(seed):
    rng = random.Random(seed)
    for _ in range(10):
        b, q = random_poly(rng), random_poly(rng)
        if b.is_zero or q.is_zero:
            continue
        a = b * q
        got = division(a, b)
        assert got == ref_division(a, b)
        assert Poly({m: c for m, c, _ in got}) == q


@pytest.mark.parametrize("seed", range(20))
def test_random_inexact_divisions(seed):
    # a divisor of two or more terms divides no monomial, so b*q plus one
    # term is never a multiple of b
    rng = random.Random(seed)
    for _ in range(10):
        b, q, r = random_poly(rng), random_poly(rng), random_poly(rng, terms=1)
        if len(b.terms) < 2 or r.is_zero:
            continue
        a = b * q + r
        assert division(a, b) == ref_division(a, b) == (
            "ValueError", "inexact polynomial division")


@pytest.mark.parametrize("seed", range(4))
def test_powers_are_repeated_products(seed):
    p = random_poly(random.Random(seed))
    product = Poly({(): 1})
    for n in range(13):
        assert typed(p.pow_int(n)) == typed(product), n
        product = product * p


@pytest.mark.parametrize("n, products", [(0, 0), (1, 1), (2, 2), (5, 4), (64, 7)])
def test_powers_build_no_square_past_the_last_bit(n, products, monkeypatch):
    # one product per exponent bit, one square between consecutive bits
    calls = []
    mul = Poly.__mul__

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    Poly({(("x", 1),): 1, (("y", 1),): 1, (): 1}).pow_int(n)
    assert len(calls) == products


# ---------------------------------------------------------------------------
# divisions recorded from the structure pool and the transport pushes


def recorded(run, monkeypatch):
    """The (dividend, divisor) pairs of every exact division run() makes."""
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return _poly_divexact(a, b)

    monkeypatch.setattr(symexpr, "_poly_divexact", recording)
    run()
    return calls


def _workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_divisions_of_the_structure_pool(monkeypatch):
    def run():
        for name in sorted(STRUCTURES):
            curvature(christoffels(STRUCTURES[name]()))

    calls = recorded(run, monkeypatch)
    assert sum(len(b.terms) > 1 for _, b in calls) > 50
    for a, b in calls:
        assert division(a, b) == ref_division(a, b)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_divisions_of_the_transport_pushes(seed, monkeypatch):
    wl = _workloads()

    # each map also carries the curved structure, whose pushes and lifts
    # divide by non-monomial denominators of their own; a passing check
    # inverts its forward certificates, so the reverse eliminations, whose
    # divisions this test also covers, are replayed leaf by leaf
    def run():
        for kind, spec in wl.transport_specs(seed):
            s = wl.plane_structure(kind)
            psi = wl.build_map(s.chart, spec)
            for structure in (s, curved_structure()):
                christoffels(push_structure(psi, structure))
                r = lifted_action_check(psi, structure)
                span_membership(r.tilde.f1, r.hat.f1)
                span_membership(r.tilde.f2, r.hat.f2)

    calls = recorded(run, monkeypatch)
    assert sum(len(b.terms) > 1 for _, b in calls) > 200
    for a, b in calls:
        assert division(a, b) == ref_division(a, b)


# ---------------------------------------------------------------------------
# gcds over the variables both sides hold, against the sequence they skip


def ref_content_in(p, var):
    coeffs = list(p.coeffs_in(var).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = ref_poly_gcd(g, c)
    return g


def ref_poly_gcd(a: Poly, b: Poly) -> Poly:
    """The coprimality certificate, then the primitive PRS in the smallest
    shared variable, whatever variables only one side holds."""
    prim = symexpr._int_primitive
    if a.is_zero and b.is_zero:
        return Poly({})
    if a.is_zero:
        return prim(b)
    if b.is_zero:
        return prim(a)
    if a.is_const or b.is_const:
        return Poly({(): 1})
    shared = a.variables() & b.variables()
    if not shared or symexpr._coprime(a, b, shared):
        return Poly({(): 1})
    a, b = prim(a), prim(b)
    var = sorted(shared)[0]
    ca, cb = ref_content_in(a, var), ref_content_in(b, var)
    g_cont = ref_poly_gcd(ca, cb)
    pa, pb = prim(_poly_divexact(a, ca)), prim(_poly_divexact(b, cb))
    if pa.degree_in(var) < pb.degree_in(var):
        pa, pb = pb, pa
    while not pb.is_zero:
        r = symexpr._prem(pa, pb, var)
        if r.is_zero:
            pa = pb
            break
        pa, pb = pb, prim(_poly_divexact(r, ref_content_in(r, var)))
    return prim(g_cont * pa)


def lex_typed(p: Poly):
    """typed(p) in lex order: the terms and coefficient types, whatever the
    dict order."""
    return sorted(typed(p), key=lambda t: _lex(t[0]))


def one_sided_pairs(seed):
    """Seeded pairs g*u, g*v in which u or v uses a name the other lacks."""
    rng = random.Random(seed)
    while True:
        g, u, v = (random_poly(rng, terms=rng.randint(1, 3)) for _ in range(3))
        a, b = g * u, g * v
        if not (a.is_zero or b.is_zero) and a.variables() != b.variables():
            yield a, b


@pytest.mark.parametrize("seed", range(20))
def test_one_sided_gcds_are_the_sequence_gcds(seed):
    # the same polynomial with the same coefficient types; the dict order
    # may differ, as the sequence's follows the contents it divided out
    pairs = one_sided_pairs(seed)
    nontrivial = 0
    for _ in range(15):
        a, b = next(pairs)
        got, want = symexpr.poly_gcd(a, b), ref_poly_gcd(a, b)
        assert lex_typed(got) == lex_typed(want), (str(a), str(b))
        assert str(got) == str(want)
        assert symexpr.poly_gcd(b, a) == got
        nontrivial += not got.is_const
    assert nontrivial > 5


def same_set_pairs(seed):
    """Seeded pairs g*u, g*v whose two sides hold the same variables, so the
    sequence runs and takes its contents through the fold."""
    rng = random.Random(seed)
    while True:
        g, u, v = (random_poly(rng, terms=rng.randint(1, 3)) for _ in range(3))
        a, b = g * u, g * v
        if not (a.is_zero or a.is_const or b.is_zero) and a.variables() == b.variables():
            yield a, b


@pytest.mark.parametrize("seed", range(20))
def test_same_set_gcds_are_the_sequence_gcds(seed, monkeypatch):
    gcd_all = symexpr._gcd_all
    folds = []

    def spy(polys):
        polys = list(polys)
        folds.append(len(polys))
        return gcd_all(polys)

    monkeypatch.setattr(symexpr, "_gcd_all", spy)
    pairs = same_set_pairs(seed)
    for _ in range(15):
        a, b = next(pairs)
        got, want = symexpr.poly_gcd(a, b), ref_poly_gcd(a, b)
        assert lex_typed(got) == lex_typed(want), (str(a), str(b))
        assert str(got) == str(want)
    # the contents fold more than one coefficient
    assert sum(n > 1 for n in folds) > 5


def test_the_fold_stops_at_a_constant(monkeypatch):
    # the spy records the fold's own steps, not the gcds they recurse into
    gcd = symexpr.poly_gcd
    calls = []

    def spy(a, b):
        calls.append((str(a), str(b)))
        with monkeypatch.context() as m:
            m.setattr(symexpr, "poly_gcd", gcd)
            return gcd(a, b)

    monkeypatch.setattr(symexpr, "poly_gcd", spy)
    x, y = Poly({(("x", 1),): 1}), Poly({(("y", 1),): 1})
    xy = x * y
    # fewest terms first: x and y give 1, and x*y + 1 and x^2 are never read
    assert symexpr._gcd_all([xy + Poly({(): 1}), x, y, x * x]) == Poly({(): 1})
    assert calls == [("x", "y")]
    calls.clear()
    assert symexpr._gcd_all([xy, xy * x, xy * y.scale(2)]) == xy
    assert calls == [("x*y", "x^2*y"), ("x*y", "2*x*y^2")]


def test_prem_never_runs_on_a_one_sided_variable(monkeypatch):
    prem = symexpr._prem
    seen = []

    def spy(a, b, var):
        seen.append(var)
        return prem(a, b, var)

    monkeypatch.setattr(symexpr, "_prem", spy)
    pairs = one_sided_pairs(2031)
    reference_one_sided = 0
    for _ in range(100):
        a, b = next(pairs)
        one_sided = a.variables() ^ b.variables()
        seen.clear()
        symexpr.poly_gcd(a, b)
        assert not one_sided.intersection(seen), (str(a), str(b))
        seen.clear()
        ref_poly_gcd(a, b)
        reference_one_sided += bool(one_sided.intersection(seen))
    # the sequence does run on them, so the spy sees the step at work
    assert reference_one_sided > 10


def test_gcds_of_the_depth_3_action_check(monkeypatch):
    # every gcd the depth-3 action check asks for, recursive ones included,
    # has the terms, dict order and coefficient types of the sequence's
    wl = _workloads()
    gcd = symexpr.poly_gcd
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return gcd(a, b)

    kind, spec = wl.transport_specs(1)[4]
    s = wl.plane_structure(kind)
    psi = wl.build_map(s.chart, spec)
    for _ in range(2):
        psi, s = lift_map(psi, s.omega).map, lift_structure(s)
    monkeypatch.setattr(symexpr, "poly_gcd", recording)
    assert lifted_action_check(psi, s).equal
    monkeypatch.setattr(symexpr, "poly_gcd", gcd)
    pairs = list(dict.fromkeys(calls))
    one_sided = [(a, b) for a, b in pairs if a.variables() != b.variables()]
    assert len(one_sided) > 20
    assert sum(not ref_poly_gcd(a, b).is_const for a, b in one_sided) > 5
    for a, b in pairs:
        assert typed(gcd(a, b)) == typed(ref_poly_gcd(a, b)), (str(a), str(b))
