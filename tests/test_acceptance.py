"""End-to-end acceptance checks, one per criterion, in order.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every randomized block uses a fixed seed.
"""

import random
from fractions import Fraction

import pytest

from bilag.calculus import (
    Chart,
    KForm,
    SmoothMap,
    VectorField,
    d_coord,
    exterior_d,
    form_from_matrix,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    pullback_form,
    span_membership,
)
from bilag.lift import iterate_lift, lift_map, lift_structure, lifted_action_check
from bilag.structures import (
    christoffels,
    connections_equal,
    curvature,
    hess_nabla,
    is_flat,
    levi_civita_oracle,
    para_structure,
    push_connection,
    push_paracomplex,
    push_structure,
    validate_bilagrangian,
)
from bilag.symexpr import (
    CompositionError,
    ONE,
    ZERO,
    OpaqueSymbol,
    as_expr,
    diff,
    equal_zero,
    normalize,
    parse_expr,
)
from bilag.symplectic import poisson_bracket, validate_symplectic
from test_structures import torsion_witnesses

H = OpaqueSymbol("h", ("x", "y"))


def standard_structure():
    ch = Chart(("x", "y"))
    om = validate_symplectic(form_from_matrix(ch, [[ZERO, -ONE], [ONE, ZERO]]))
    return validate_bilagrangian(
        om,
        [VectorField(ch, (ONE, ZERO))],
        [VectorField(ch, (ZERO, ONE))],
    )


def parabola_structure(h_value=None):
    symbols = () if h_value is not None else (H,)
    ch = Chart(("x", "y"), symbols=symbols)
    x, y = ch.coords()
    hv = h_value if h_value is not None else H.jet((0, 0))
    om = validate_symplectic(form_from_matrix(ch, [[ZERO, -hv], [hv, ZERO]]))
    return validate_bilagrangian(
        om,
        [VectorField(ch, (ONE, 2 * x))],
        [VectorField(ch, (ZERO, ONE))],
        adapted=(x, y - x * x),
    )


def fields_equal(a, b):
    return all(equal_zero(p - q) for p, q in zip(a.components, b.components))


def forms_equal(a, b):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(equal_zero(a.coeffs.get(k, ZERO) - b.coeffs.get(k, ZERO)) for k in keys)


def random_rational(rng, lo=-4, hi=4, nonzero=False):
    while True:
        num = rng.randint(lo, hi)
        den = rng.randint(1, 3)
        if not nonzero or num != 0:
            return Fraction(num, den)


def random_unit_affine(rng, ch):
    """A random affine chart map with unit linear determinant."""
    x, y = ch.coords()
    a = random_rational(rng, nonzero=True)
    b = random_rational(rng)
    c = random_rational(rng)
    d = (1 + b * c) / a
    t1 = random_rational(rng)
    t2 = random_rational(rng)
    fa, fb, fc, fd = (as_expr(v) for v in (a, b, c, d))
    ft1, ft2 = as_expr(t1), as_expr(t2)
    comps = (fa * x + fb * y + ft1, fc * x + fd * y + ft2)
    inverse = (
        fd * (x - ft1) - fb * (y - ft2),
        -fc * (x - ft1) + fa * (y - ft2),
    )
    return SmoothMap(ch, ch, comps, inverse)


def random_poly(rng, coords, terms=3, max_deg=2):
    total = ZERO
    for _ in range(terms):
        term = as_expr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for c in coords:
            term = term * c ** rng.randint(0, max_deg)
        total = total + term
    return total


def report_line(num, label):
    print(f"acceptance {num:02d} [{label}]: PASS")


def test_criterion_01_christoffel_table_exact():
    s = parabola_structure()
    conn = christoffels(s)
    x = s.chart.coord(0)
    hv = H.jet((0, 0))
    hx, hy = diff(hv, "x"), diff(hv, "y")
    assert equal_zero(conn.coefficient(0, 0, 0) - (hx + 2 * x * hy) / hv)
    assert equal_zero(conn.coefficient(1, 1, 1) - hy / hv)
    for (i, j, k) in [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]:
        assert equal_zero(conn.coefficient(i, j, k)), (i, j, k)
    report_line(1, "christoffel table")


def test_criterion_02_curvature_table_exact():
    s = parabola_structure()
    conn = christoffels(s)
    r = curvature(conn)
    u, v = s.f1[0], s.f2[0]
    g111, g222 = conn.coefficient(0, 0, 0), conn.coefficient(1, 1, 1)
    expected = {
        (1, 0, 0, 0): v.apply(g111),
        (0, 1, 0, 0): -v.apply(g111),
        (0, 1, 1, 1): u.apply(g222),
        (1, 0, 1, 1): -u.apply(g222),
    }
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = expected.get((i, j, k, l), ZERO)
                    assert equal_zero(r.coefficient(i, j, k, l) - want), (i, j, k, l)
    assert not equal_zero(v.apply(g111))
    report_line(2, "curvature table")


def test_criterion_03_flatness_trichotomy():
    generic = is_flat(parabola_structure())
    assert not generic.flat
    assert generic.witnesses
    x = Chart(("x", "y")).coord(0)
    assert is_flat(parabola_structure(h_value=x)).flat
    assert is_flat(parabola_structure(h_value=ONE)).flat
    report_line(3, "flatness trichotomy")


def test_criterion_04_connection_axioms_pin_it_down():
    for s in (standard_structure(), parabola_structure()):
        assert torsion_witnesses(christoffels(s)) == []
        frame = s.frame
        for xf in frame:
            for yf in frame:
                for zf in frame:
                    lead = xf.apply(s.omega(yf, zf))
                    corr1 = s.omega(hess_nabla(s, xf, yf), zf)
                    corr2 = s.omega(yf, hess_nabla(s, xf, zf))
                    assert equal_zero(lead - corr1 - corr2)
        for xf in frame:
            for leaf in (s.f1, s.f2):
                for yf in leaf:
                    ok, _ = span_membership([hess_nabla(s, xf, yf)], leaf)[0]
                    assert ok
    report_line(4, "torsion-free, parallel form, leaf-preserving")


def test_criterion_05_matches_metric_connection():
    for s in (standard_structure(), parabola_structure()):
        assert connections_equal(christoffels(s), levi_civita_oracle(para_structure(s)))
    report_line(5, "agrees with metric connection")


def test_criterion_06_standard_lift_exact():
    s = standard_structure()
    lifted = lift_structure(s)
    assert lifted.chart.names == ("x", "y", "s", "t")

    def comps(f):
        return tuple(str(c.normal()) for c in f.components)

    assert comps(lifted.f1[0]) == ("1", "0", "0", "0")
    assert comps(lifted.f1[1]) == ("0", "0", "0", "1")
    assert comps(lifted.f2[0]) == ("0", "1", "0", "0")
    assert comps(lifted.f2[1]) == ("0", "0", "1", "0")
    assert tuple(str(a.normal()) for a in lifted.adapted) == ("x", "t", "y", "s")
    assert lifted.report.ok
    twice = iterate_lift(s, 2)
    assert twice.chart.dim == 8
    assert twice.report.ok
    report_line(6, "standard lift and double lift")


def test_criterion_07_lifted_maps_preserve_form():
    rng = random.Random(1101)
    s = standard_structure()
    lifted_omega = lift_structure(s).omega
    for trial in range(20):
        psi = random_unit_affine(rng, s.chart)
        lm = lift_map(psi, omega=s.omega)
        assert lm.preserves_form is True, trial

        pulled = pullback_form(lm.map, lifted_omega.form)
        assert forms_equal(pulled, lifted_omega.form), trial

        base_names = lm.map.source.names[:2]
        fiber_names = lm.map.source.names[2:]
        for base_comp in lm.map.components[:2]:
            for fn in fiber_names:
                assert equal_zero(diff(base_comp, fn)), trial
        for fiber_comp in lm.map.components[2:]:
            for bn in base_names:
                assert equal_zero(diff(fiber_comp, bn)), trial

        # recorded block against an independent derivative computation
        fiber_coords = [lm.map.source.coord(2 + i) for i in range(2)]
        for j, fiber_comp in enumerate(lm.map.components[2:]):
            expected = ZERO
            for i in range(2):
                partial = diff(psi.inverse_components[i], psi.target.names[j])
                expected = expected + fiber_coords[i] * psi.pull_scalar(partial)
            assert equal_zero(fiber_comp - expected), trial
            for i in range(2):
                assert equal_zero(diff(fiber_comp, fiber_coords[i].name) - lm.fiber_block[j][i]), trial
    report_line(7, "20 random lifted symplectomorphisms")


def test_criterion_08_action_commutes_with_lift():
    rng = random.Random(2202)
    s = standard_structure()
    for trial in range(20):
        psi = random_unit_affine(rng, s.chart)
        res = lifted_action_check(psi, s)
        assert res.omega_match, trial
        assert res.equal, trial
        assert all(v.passed for v in res.verdicts), trial
    report_line(8, "20 random action consistency checks")


def test_criterion_09_push_coherence_and_action_laws():
    rng = random.Random(3303)
    s = standard_structure()
    ch = s.chart
    x, y = ch.coords()
    ident = SmoothMap(ch, ch, (x, y), (x, y))
    shear = SmoothMap(ch, ch, (x, y + x * x), (x, y - x * x))

    out = push_structure(ident, s)
    assert fields_equal(out.f1[0], s.f1[0])
    assert fields_equal(out.f2[0], s.f2[0])

    for trial in range(10):
        psi = random_unit_affine(rng, ch)
        phi = shear if trial % 3 == 0 else random_unit_affine(rng, ch)

        pushed = push_structure(psi, s)
        assert pushed.report.ok, trial
        assert connections_equal(christoffels(pushed), push_connection(psi, christoffels(s))), trial

        f_pushed = push_paracomplex(psi, s)
        pk = para_structure(pushed)
        for i in range(2):
            for j in range(2):
                assert equal_zero(f_pushed[i][j] - pk.F[i][j]), trial

        both = phi.compose(psi)
        direct = push_structure(both, s)
        stepwise = push_structure(phi, pushed)
        assert fields_equal(direct.f1[0], stepwise.f1[0]), trial
        assert fields_equal(direct.f2[0], stepwise.f2[0]), trial

    with pytest.raises(CompositionError):
        push_structure(shear, parabola_structure())
    report_line(9, "push coherence and action laws")


def test_criterion_10_property_suite():
    rng = random.Random(4404)
    ch = Chart(("x", "y"))
    coords = ch.coords()
    om = validate_symplectic(form_from_matrix(ch, [[ZERO, -ONE], [ONE, ZERO]]))
    x = coords[0]
    scaled = validate_symplectic(
        form_from_matrix(ch, [[ZERO, -(x * x + ONE)], [x * x + ONE, ZERO]])
    )

    for _ in range(50):
        u = VectorField(ch, (random_poly(rng, coords), random_poly(rng, coords)))
        v = VectorField(ch, (random_poly(rng, coords), random_poly(rng, coords)))
        w = VectorField(ch, (random_poly(rng, coords), random_poly(rng, coords)))
        total = lie_bracket(u, lie_bracket(v, w))
        total = total + lie_bracket(v, lie_bracket(w, u))
        total = total + lie_bracket(w, lie_bracket(u, v))
        assert all(equal_zero(c) for c in total.components)

    for i in range(50):
        form = om if i % 2 == 0 else scaled
        f = random_poly(rng, coords)
        g = random_poly(rng, coords)
        k = random_poly(rng, coords)
        total = poisson_bracket(form, f, poisson_bracket(form, g, k))
        total = total + poisson_bracket(form, g, poisson_bracket(form, k, f))
        total = total + poisson_bracket(form, k, poisson_bracket(form, f, g))
        assert equal_zero(total)

    ch3 = Chart(("x", "y", "z"))
    coords3 = ch3.coords()
    for _ in range(50):
        f = random_poly(rng, coords3)
        zero_form = KForm(ch3, 0, {(): f})
        assert exterior_d(exterior_d(zero_form)).is_zero()
        alpha = d_coord(ch3, 0).scale(random_poly(rng, coords3))
        alpha = alpha + d_coord(ch3, 2).scale(random_poly(rng, coords3))
        assert exterior_d(exterior_d(alpha)).is_zero()

    for _ in range(50):
        vf = VectorField(ch, (random_poly(rng, coords), random_poly(rng, coords)))
        alpha = d_coord(ch, 0).scale(random_poly(rng, coords))
        alpha = alpha + d_coord(ch, 1).scale(random_poly(rng, coords))
        lhs = lie_derivative_form(vf, alpha)
        rhs = interior_product(vf, exterior_d(alpha)) + exterior_d(interior_product(vf, alpha))
        assert forms_equal(lhs, rhs)

    pool = ["x", "y", "1", "2", "1/2", "x + y", "x - y", "x*y", "x^2"]
    for _ in range(100):
        parts = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        ops = [rng.choice(["+", "-", "*"]) for _ in range(len(parts) - 1)]
        text = parts[0]
        for op, part in zip(ops, parts[1:]):
            text = f"({text}) {op} ({part})"
        e = parse_expr(text, ("x", "y"))
        first = normalize(e)
        second = normalize(first.as_expr())
        assert str(first) == str(second)
    report_line(10, "300 randomized identity checks")
