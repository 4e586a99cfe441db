"""Charts, fields, forms, maps, and exact linear algebra."""

import random

import pytest

from bilag import calculus, symexpr
from bilag.calculus import (
    CalculusError,
    Chart,
    ChartMismatch,
    DegreeError,
    FrameBasis,
    SingularFrame,
    SmoothMap,
    VectorField,
    basis_form,
    coordinate_frame,
    d_coord,
    exterior_d,
    form_from_matrix,
    frame_rank_full,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    pullback_form,
    pushforward_field,
    span_membership,
    sym_det,
    sym_inverse,
    sym_solve,
    wedge,
    zero_field,
)
from bilag.symexpr import ONE, ZERO, Var, as_expr, check_stream, equal_zero, is_zero
from test_elimination import _workloads

CH = Chart(("x", "y"))
X, Y = CH.coords()


def fields_equal(a, b):
    return all(equal_zero(p - q) for p, q in zip(a.components, b.components))


def forms_equal(a, b):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(equal_zero(a.coeffs.get(k, ZERO) - b.coeffs.get(k, ZERO)) for k in keys)


class TestChart:
    def test_basics(self):
        assert CH.dim == 2
        assert CH.names == ("x", "y")
        assert CH.index("y") == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Chart(("x", "x"))

    def test_extend(self):
        big = CH.extend(("s", "t"))
        assert big.names == ("x", "y", "s", "t")

    def test_extend_collision_rejected(self):
        with pytest.raises(ValueError):
            CH.extend(("x",))


class TestVectorField:
    def test_apply_is_directional_derivative(self):
        v = VectorField(CH, (Y, X))
        out = v.apply(X * X + Y)
        assert equal_zero(out - (2 * X * Y + X))

    def test_chart_mismatch(self):
        other = Chart(("u", "v"))
        v = VectorField(CH, (ONE, ZERO))
        w = VectorField(other, (ONE, ZERO))
        with pytest.raises(ChartMismatch):
            lie_bracket(v, w)

    def test_component_count_checked(self):
        with pytest.raises(ValueError):
            VectorField(CH, (ONE,))


class TestBracket:
    def test_coordinate_fields_commute(self):
        dx, dy = coordinate_frame(CH)
        assert lie_bracket(dx, dy).is_zero()

    def test_golden_bracket(self):
        dx, _ = coordinate_frame(CH)
        w = VectorField(CH, (ZERO, X))
        br = lie_bracket(dx, w)
        assert fields_equal(br, VectorField(CH, (ZERO, ONE)))

    def test_antisymmetry(self):
        v = VectorField(CH, (X * Y, Y))
        w = VectorField(CH, (X, X + Y))
        lhs = lie_bracket(v, w)
        rhs = lie_bracket(w, v)
        assert all(equal_zero(p + q) for p, q in zip(lhs.components, rhs.components))

    def test_jacobi_identity(self):
        u = VectorField(CH, (X, Y * Y))
        v = VectorField(CH, (Y, X))
        w = VectorField(CH, (X * Y, ONE))
        total = lie_bracket(u, lie_bracket(v, w))
        total = total + lie_bracket(v, lie_bracket(w, u))
        total = total + lie_bracket(w, lie_bracket(u, v))
        assert all(equal_zero(c) for c in total.components)


class TestForms:
    def test_wedge_anticommutes_on_one_forms(self):
        dx = d_coord(CH, 0)
        dy = d_coord(CH, 1)
        assert forms_equal(wedge(dx, dy), wedge(dy, dx).scale(-ONE))

    def test_one_form_pairing(self):
        dx = d_coord(CH, 0)
        v = VectorField(CH, (X, Y))
        assert equal_zero(dx(v) - X)

    def test_two_form_evaluation(self):
        om = wedge(d_coord(CH, 1), d_coord(CH, 0))
        dxf, dyf = coordinate_frame(CH)
        assert equal_zero(om(dxf, dyf) + ONE)

    def test_d_squared_zero_on_function_form(self):
        f = X ** 3 * Y + Y ** 2
        alpha = d_coord(CH, 0).scale(f)
        assert exterior_d(exterior_d(alpha)).is_zero()

    def test_d_of_scaled_form_golden(self):
        # d(f dx) carries -f_y on the dx^dy slot
        f = X * Y
        alpha = d_coord(CH, 0).scale(f)
        da = exterior_d(alpha)
        assert equal_zero(da.coefficient((0, 1)) + X)

    def test_interior_product_golden(self):
        om = wedge(d_coord(CH, 0), d_coord(CH, 1))
        v = VectorField(CH, (X, Y))
        ia = interior_product(v, om)
        # i_V (dx^dy) = x dy - y dx
        assert equal_zero(ia.coefficient((1,)) - X)
        assert equal_zero(ia.coefficient((0,)) + Y)

    def test_cartan_formula(self):
        v = VectorField(CH, (Y, X * X))
        alpha = d_coord(CH, 0).scale(X * Y) + d_coord(CH, 1).scale(Y)
        lhs = lie_derivative_form(v, alpha)
        rhs = interior_product(v, exterior_d(alpha)) + exterior_d(interior_product(v, alpha))
        assert forms_equal(lhs, rhs)

    def test_degree_mismatch(self):
        dx = d_coord(CH, 0)
        om = wedge(dx, d_coord(CH, 1))
        with pytest.raises(DegreeError):
            dx + om

    def test_form_from_matrix_roundtrip(self):
        om = form_from_matrix(CH, [[ZERO, -ONE], [ONE, ZERO]])
        mat = om.matrix()
        assert equal_zero(mat[0][1] + ONE)
        assert equal_zero(mat[1][0] - ONE)

    def test_basis_form(self):
        f = basis_form(CH, (0, 1))
        dxf, dyf = coordinate_frame(CH)
        assert equal_zero(f(dxf, dyf) - ONE)


class TestSmoothMap:
    def affine(self):
        two = as_expr(2)
        three = as_expr(3)
        return SmoothMap(
            CH, CH,
            (two * X + three * Y + ONE, X + two * Y - ONE),
            (two * X - three * Y - as_expr(5), -X + two * Y + as_expr(3)),
        )

    def test_bad_inverse_rejected(self):
        with pytest.raises(CalculusError):
            SmoothMap(CH, CH, (X + Y, Y), (X + Y, Y))

    def test_dimension_mismatch_rejected(self):
        line = Chart(("u",))
        with pytest.raises(ValueError):
            SmoothMap(CH, line, (X,), (Var("u"), ZERO))

    def test_distinct_name_charts(self):
        uv = Chart(("u", "v"))
        u, v = uv.coords()
        psi = SmoothMap(CH, uv, (X + Y, Y), (u - v, v))
        assert equal_zero(psi.push_scalar(X) - (u - v))
        assert equal_zero(psi.pull_scalar(u) - (X + Y))

    def test_pushforward_on_distinct_charts(self):
        uv = Chart(("u", "v"))
        u, v = uv.coords()
        psi = SmoothMap(CH, uv, (X + Y, Y), (u - v, v))
        dxf, _ = coordinate_frame(CH)
        out = pushforward_field(psi, dxf)
        assert fields_equal(out, VectorField(uv, (ONE, ZERO)))

    def test_pullback_scales_area_form(self):
        psi = self.affine()
        om = wedge(d_coord(CH, 0), d_coord(CH, 1))
        pulled = pullback_form(psi, om)
        # the map has unit Jacobian determinant, so the area form is preserved
        assert forms_equal(pulled, om)

    def test_compose_functorial_on_fields(self):
        psi = self.affine()
        phi = SmoothMap(CH, CH, (X, Y + X * X), (X, Y - X * X))
        both = psi.compose(phi)
        v = VectorField(CH, (Y, X))
        direct = pushforward_field(both, v)
        stepwise = pushforward_field(psi, pushforward_field(phi, v))
        assert fields_equal(direct, stepwise)

    def test_inverse_roundtrip(self):
        psi = self.affine()
        inv = psi.inverse()
        v = VectorField(CH, (X * Y, ONE))
        back = pushforward_field(inv, pushforward_field(psi, v))
        assert fields_equal(back, v)


class TestEveryMapIsProved:
    """`SmoothMap(...)` proves its map, round trips then determinant; an
    inverse or a composite is built from proved maps and proves nothing."""

    def shear(self):
        return SmoothMap(CH, CH, (X, Y + X * X), (X, Y - X * X))

    @staticmethod
    def spied(monkeypatch):
        # every zero test and determinant the map code makes
        calls = []
        for name in ("equal_zero", "sym_det"):
            real = getattr(calculus, name)
            monkeypatch.setattr(calculus, name,
                                lambda e, real=real: calls.append(e) or real(e))
        return calls

    def test_construction_proves_the_round_trips_and_the_determinant(self, monkeypatch):
        calls = self.spied(monkeypatch)
        self.shear()
        # two coordinates, each round-tripped both ways, then one determinant
        assert len(calls) == 5
        assert isinstance(calls[-1], tuple)

    def test_a_wrong_inverse_is_refused_on_construction(self):
        with pytest.raises(CalculusError, match="inverse components do not invert the map"):
            SmoothMap(CH, CH, (X + Y, Y), (X + Y, Y))

    def test_there_is_no_switch_to_skip_the_proof(self):
        with pytest.raises(TypeError):
            SmoothMap(CH, CH, (X + Y, Y), (X + Y, Y), _validate=False)

    def test_an_inverse_proves_nothing(self, monkeypatch):
        psi = self.shear()
        calls = self.spied(monkeypatch)
        inv = psi.inverse()
        assert calls == []
        assert inv.inverse() is psi and psi.inverse() is inv
        assert inv.components == psi.inverse_components

    def test_a_composite_proves_nothing(self, monkeypatch):
        psi = SmoothMap(CH, CH, (X + 2 * Y, Y), (X - 2 * Y, Y))
        shear = self.shear()
        calls = self.spied(monkeypatch)
        both = psi.compose(shear)
        both.inverse()
        assert calls == []
        assert both.components == (X + 2 * (Y + X * X), Y + X * X)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_transport_composites_pass_a_proof(self, seed):
        # every composite of the transport plan, and its bump control, is
        # a map SmoothMap(...) proves afresh
        wl = _workloads()
        for kind, spec in wl.transport_specs(seed):
            psi = wl.build_map(CH, spec)
            wrong = psi.compose(wl.bump_map(CH, spec["shear"]))
            for composite in (psi, wrong):
                SmoothMap(composite.source, composite.target, composite.components,
                          composite.inverse_components)


class TestLinearAlgebra:
    def test_det_golden(self):
        d = sym_det([[X, ONE], [ONE, X]])
        assert equal_zero(d - (X * X - ONE))

    def test_det_singular(self):
        d = sym_det([[X, Y], [X, Y]])
        assert is_zero(d)

    def test_det_permutation_sign(self):
        d = sym_det([[ZERO, ONE], [ONE, ZERO]])
        assert equal_zero(d + ONE)

    def test_solve_golden(self):
        sol = sym_solve([[X, ZERO], [ZERO, ONE]], [X * Y, X])
        assert equal_zero(sol[0] - Y)
        assert equal_zero(sol[1] - X)

    def test_solve_singular_raises(self):
        with pytest.raises(SingularFrame):
            sym_solve([[X, X], [X, X]], [ONE, ONE])

    def test_inverse_golden(self):
        inv = sym_inverse([[ONE, X], [ZERO, ONE]])
        assert equal_zero(inv[0][1] + X)
        assert equal_zero(inv[0][0] - ONE)

    def test_inverse_times_matrix_is_identity(self):
        mat = [[X + ONE, Y], [ONE, X]]
        inv = sym_inverse(mat)
        for i in range(2):
            for j in range(2):
                entry = sum((inv[i][k] * mat[k][j] for k in range(2)), ZERO)
                target = ONE if i == j else ZERO
                assert equal_zero(entry - target)

    def test_rank_full_detects_dependence(self):
        dep = [VectorField(CH, (X, Y)), VectorField(CH, (X + X, Y + Y))]
        assert not frame_rank_full(dep)

    def test_rank_full_on_symbolic_frame(self):
        frame = [VectorField(CH, (ONE, 2 * X)), VectorField(CH, (ZERO, ONE))]
        assert frame_rank_full(frame)

    def test_rank_tall_matrix(self):
        ch4 = Chart(("a", "b", "c", "d"))
        a, b, c, _ = ch4.coords()
        ok = [VectorField(ch4, (a, ZERO, ONE, ZERO)), VectorField(ch4, (ZERO, b, ZERO, ONE))]
        assert frame_rank_full(ok)
        bad = [VectorField(ch4, (a, b, ZERO, ZERO)), VectorField(ch4, (c * a, c * b, ZERO, ZERO))]
        assert not frame_rank_full(bad)

    def test_frame_decompose_golden(self):
        u = VectorField(CH, (ONE, 2 * X))
        v = VectorField(CH, (ZERO, ONE))
        coeffs = FrameBasis((u, v)).decompose(VectorField(CH, (ONE, ZERO)))
        assert equal_zero(coeffs[0] - ONE)
        assert equal_zero(coeffs[1] + 2 * X)

    def test_span_membership_positive(self):
        u = VectorField(CH, (ONE, 2 * X))
        ok, cert = span_membership([VectorField(CH, (Y, 2 * X * Y))], (u,))[0]
        assert ok
        assert equal_zero(cert[0] - Y)

    def test_span_membership_negative_names_witness(self):
        u = VectorField(CH, (ONE, ZERO))
        ok, witness = span_membership([VectorField(CH, (ZERO, ONE))], (u,))[0]
        assert not ok
        assert witness == 1


def _random_poly(rng):
    """Zero, a small constant, or a small linear polynomial in x, y."""
    kind = rng.random()
    if kind < 0.25:
        return ZERO
    if kind < 0.5:
        return as_expr(rng.choice((1, -1, 2, -2)))
    return rng.choice((1, -1, 2)) * rng.choice((X, Y)) + rng.randint(-2, 2)


def _random_square(rng, n):
    rows = [[_random_poly(rng) for _ in range(n)] for _ in range(n)]
    kind = rng.choice(("generic", "zero-first-column", "singular"))
    if kind == "zero-first-column":
        # force a non-first pivot row in column 0
        for i in range(rng.randint(1, n - 1)):
            rows[i][0] = ZERO
    elif kind == "singular":
        a, b = rng.sample(range(n), 2)
        f = _random_poly(rng)
        rows[b] = [f * e for e in rows[a]]
    return rows


def _rank_two_frame(rng):
    """Three fields on a 5-dimensional chart, supported on two rows and so of
    rank 2; returns the chart, the support, two independent fields and all three."""
    ch = Chart(("x", "y", "z", "u", "v"))
    support = sorted(rng.sample(range(5), 2))
    block = [[rng.choice((1, -1, 2)), _random_poly(rng)], [0, rng.choice((1, -2))]]
    a, b = _random_poly(rng), _random_poly(rng)

    def field(col0, col1):
        comps = [ZERO] * 5
        comps[support[0]], comps[support[1]] = as_expr(col0), as_expr(col1)
        return VectorField(ch, comps)

    base = [field(block[0][j], block[1][j]) for j in range(2)]
    return ch, support, base, base + [base[0].scale(a) + base[1].scale(b)]


def _spanned_target(rng, ch, support, base, bumps=None):
    """A field in the span of `base`, plus x + 1 on `bumps` (default: 0 to 2)
    rows outside the support; returns it and the bumped rows."""
    target = base[0].scale(_random_poly(rng)) + base[1].scale(_random_poly(rng))
    outside = [i for i in range(5) if i not in support]
    if bumps is None:
        bumps = rng.randint(0, 2)
    bumped = sorted(rng.sample(outside, bumps))
    comps = list(target.components)
    for i in bumped:
        comps[i] = comps[i] + (X + 1)
    return VectorField(ch, comps), bumped


def _one_vector_membership(x, fields):
    """Reference: span membership of one vector by its own elimination."""
    r = len(fields)
    rows = [[f.components[i] for f in fields] + [x.components[i]] for i in range(x.chart.dim)]
    pivots, unused = calculus._eliminate(rows, r)
    for i in unused:
        if not equal_zero(calculus._entry_tree(rows[i][r])):
            return False, i
    return True, tuple(c[0] for c in calculus._back_substitute(rows, pivots, r))


class TestEliminationKernel:
    """Seeded random matrices against independent references."""

    CASES = [(seed, n) for n in (2, 3, 4) for seed in range(8)]

    @pytest.mark.parametrize("seed,n", CASES)
    def test_det_matches_cofactor_expansion(self, seed, n):
        from bilag.calculus import _small_det

        rows = _random_square(random.Random(seed * 10 + n), n)
        assert equal_zero(sym_det(rows) - _small_det(rows))

    @pytest.mark.parametrize("seed,n", CASES)
    def test_inverse_and_solve(self, seed, n):
        rng = random.Random(seed * 10 + n)
        rows = _random_square(rng, n)
        rhs = [_random_poly(rng) for _ in range(n)]
        if is_zero(sym_det(rows)):
            with pytest.raises(SingularFrame):
                sym_inverse(rows)
            with pytest.raises(SingularFrame):
                sym_solve(rows, rhs)
            return
        inv = sym_inverse(rows)
        for i in range(n):
            for j in range(n):
                entry = sum((inv[i][k] * rows[k][j] for k in range(n)), ZERO)
                assert is_zero(entry - (ONE if i == j else ZERO))
        sol = sym_solve(rows, rhs)
        for i in range(n):
            residual = sum((rows[i][k] * sol[k] for k in range(n)), ZERO) - rhs[i]
            assert is_zero(residual)

    @pytest.mark.parametrize("seed", range(12))
    def test_span_membership_rank_deficient(self, seed):
        # the rows outside the support are never pivots, and their residual
        # is the target's own component
        rng = random.Random(seed)
        ch, support, base, fields = _rank_two_frame(rng)
        target, bumped = _spanned_target(rng, ch, support, base)

        ok, cert = span_membership([target], fields)[0]
        if bumped:
            assert not ok
            assert cert == bumped[0]
        else:
            assert ok
            recombined = zero_field(ch)
            for c, f in zip(cert, fields):
                recombined = recombined + f.scale(c)
            assert fields_equal(recombined, target)

    @pytest.mark.parametrize("seed", range(12))
    def test_span_membership_batch_matches_single_calls(self, seed):
        # one elimination for the batch gives every vector the verdict, the
        # certificate and the cross-check draws of its own elimination
        rng = random.Random(seed)
        ch, support, base, fields = _rank_two_frame(rng)
        bumps = [0, 1, 2, 0, 1][:rng.randint(2, 5)]
        rng.shuffle(bumps)
        targets = []
        for count in bumps:
            target, _ = _spanned_target(rng, ch, support, base, count)
            # a zero that is not the literal ZERO, so that every residual
            # tested draws points
            targets.append(VectorField(ch, [c + (Y - Y) for c in target.components]))

        def text(verdict):
            ok, cert = verdict
            return ok, tuple(str(c) for c in cert) if ok else cert

        runs = {}
        for label, verdicts in (
            ("batch", lambda: span_membership(targets, fields)),
            ("single", lambda: [span_membership([t], fields)[0] for t in targets]),
            ("reference", lambda: [_one_vector_membership(t, fields) for t in targets]),
        ):
            with check_stream("batch"):
                runs[label] = [text(v) for v in verdicts()], symexpr._check_rng.getstate()
        assert {ok for ok, _ in runs["batch"][0]} == {True, False}
        assert runs["batch"] == runs["single"] == runs["reference"]

    def test_span_membership_empty_batch_eliminates_nothing(self, monkeypatch):
        def eliminate(*args, **kwargs):
            raise AssertionError("an empty batch needs no elimination")

        monkeypatch.setattr(calculus, "_eliminate", eliminate)
        state = symexpr._check_rng.getstate()
        assert span_membership([], (VectorField(CH, (ONE, X)),)) == ()
        assert symexpr._check_rng.getstate() == state

    def test_det_text_is_canonical_on_odd_pivot_path(self):
        # reports print determinants: a determinant whose pivot rows form an
        # odd permutation prints as the canonical tree of its value, not as
        # a negated pivot product
        assert str(sym_det([[ZERO, ONE], [X + 1, Y]])) == "(-1)*x - 1"
        odd = [[ZERO, ONE, X], [ZERO, ONE, Y], [ONE, ZERO, ZERO]]
        assert str(sym_det(odd)) == "(-1)*x + y"

    def test_zero_pivot_row_entry_still_compacts_the_entry(self):
        # the pivot row's middle entry is 0, so row 1's middle entry is not
        # updated; it still reads as its canonical tree, whose form is the
        # entry's own
        raw = X * X + X * Y - X * X
        rows = [[ONE, ZERO, ONE], [X, raw, Y]]
        assert str(raw) == "x*x + x*y + (-1)*x*x" and raw._nf is None
        pivots, unused = calculus._eliminate(rows, 1)
        assert [(c, i) for c, i, _ in pivots] == [(0, 0)] and unused == [1]
        trees = [calculus._entry_tree(e) for e in rows[1]]
        assert [str(e) for e in trees] == ["0", "x*y", "(-1)*x + y"]
        assert trees[0] is ZERO
        assert trees[1].normal() is raw.normal()


class TestFrameBasis:
    def test_structure_functions(self):
        u = VectorField(CH, (ONE, 2 * X))
        v = VectorField(CH, (ZERO, ONE))
        basis = FrameBasis((u, v))
        # [U, V] = 0 for this pair
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert equal_zero(basis.structure.coefficient(i, j, k))

    def test_structure_functions_nontrivial(self):
        dx = VectorField(CH, (ONE, ZERO))
        w = VectorField(CH, (ZERO, X))
        # [dx, w] = w / x, so c^1_01 = 1/x on the w leg
        basis = FrameBasis((dx, w))
        assert equal_zero(basis.structure.coefficient(0, 1, 1) - ONE / X)

    def test_decompose_roundtrip(self):
        u = VectorField(CH, (ONE, 2 * X))
        v = VectorField(CH, (ZERO, ONE))
        basis = FrameBasis((u, v))
        target = VectorField(CH, (X, Y))
        coeffs = basis.decompose(target)
        rebuilt = zero_field(CH)
        for c, e in zip(coeffs, (u, v)):
            rebuilt = rebuilt + e.scale(c)
        assert fields_equal(rebuilt, target)


def test_pullback_functorial_randomized():
    import random

    rng = random.Random(7)
    uv = Chart(("u", "v"))
    u, v = uv.coords()
    psi = SmoothMap(CH, uv, (X + Y, Y), (u - v, v))
    chi = SmoothMap(uv, CH, (u, v + u * u), (X, Y - X * X))
    both = chi.compose(psi)
    for _ in range(10):
        coeff = as_expr(rng.randint(-3, 3))
        om = form_from_matrix(CH, [[ZERO, coeff * X + ONE], [-(coeff * X + ONE), ZERO]])
        direct = pullback_form(both, om)
        stepwise = pullback_form(psi, pullback_form(chi, om))
        keys = set(direct.coeffs) | set(stepwise.coeffs)
        assert all(
            equal_zero(direct.coeffs.get(k, ZERO) - stepwise.coeffs.get(k, ZERO))
            for k in keys
        )
