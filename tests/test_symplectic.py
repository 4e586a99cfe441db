"""Symplectic forms, Hamiltonian fields, Poisson brackets, bundle forms."""

import pytest

from bilag import symexpr
from bilag.calculus import (
    Chart,
    KForm,
    exterior_d,
    form_from_matrix,
    sym_det,
)
from bilag.symexpr import (
    ONE,
    ZERO,
    OpaqueSymbol,
    as_expr,
    check_stream,
    equal_zero,
    is_zero,
)
from bilag.symplectic import (
    SymplecticError,
    hamiltonian_field,
    pfaffian,
    poisson_bracket,
    tautological_theta,
    trivial_bundle_symplectic,
    validate_symplectic,
)

CH = Chart(("x", "y"))
X, Y = CH.coords()


def standard():
    return validate_symplectic(form_from_matrix(CH, [[ZERO, -ONE], [ONE, ZERO]]))


def non_closed():
    """x^2 dy^ds + y^2 dx^dt + dx^dy + ds^dt: d of it has two nonconstant
    coefficients, 2x on dx^dy^ds and -2y on dx^dy^dt."""
    ch4 = Chart(("x", "y", "s", "t"))
    x, y, _, _ = ch4.coords()
    return KForm(ch4, 2, {(1, 2): x * x, (0, 3): y * y, (0, 1): ONE, (2, 3): ONE})


class TestValidation:
    def test_standard_matrix_and_inverse(self):
        om = standard()
        assert equal_zero(om.matrix[0][1] + ONE)
        assert equal_zero(om.matrix[1][0] - ONE)
        assert equal_zero(om.inverse_matrix[0][1] - ONE)
        assert equal_zero(om.inverse_matrix[1][0] + ONE)

    def test_witness_is_nonzero(self):
        om = standard()
        assert not is_zero(om.witness)

    def test_odd_dimension_rejected(self):
        ch3 = Chart(("a", "b", "c"))
        form = KForm(ch3, 2, {(0, 1): ONE})
        with pytest.raises(SymplecticError):
            validate_symplectic(form)

    def test_degenerate_rejected(self):
        form = form_from_matrix(CH, [[ZERO, ZERO], [ZERO, ZERO]])
        with pytest.raises(SymplecticError):
            validate_symplectic(form)

    def test_non_closed_rejected(self):
        ch4 = Chart(("a", "b", "c", "d"))
        coeff = ch4.coord(2)
        form = KForm(ch4, 2, {(0, 1): coeff, (2, 3): ONE})
        with pytest.raises(SymplecticError) as err:
            validate_symplectic(form)
        assert "closed" in str(err.value)

    @pytest.mark.parametrize("form, message", [
        (KForm(CH, 1, {(0,): ONE}), "expected a 2-form, got degree 1"),
        (KForm(Chart(("a", "b", "c")), 2, {(0, 1): ONE}), "chart dimension 3 is odd"),
        (non_closed(), "form is not closed"),
        (form_from_matrix(CH, [[ZERO, ZERO], [ZERO, ZERO]]),
         "form is degenerate (nondegeneracy witness is identically zero)"),
    ], ids=["degree", "odd-dimension", "not-closed", "degenerate"])
    def test_error_messages(self, form, message):
        with pytest.raises(SymplecticError) as err:
            validate_symplectic(form)
        assert str(err.value) == message

    def test_closedness_zero_tests_every_coefficient(self):
        # the check draws the points of a zero test on every coefficient of
        # d(omega), in order, even after the first one fails
        form = non_closed()
        coeffs = list(exterior_d(form).coeffs.values())
        assert len(coeffs) == 2
        with check_stream("closed"):
            assert [equal_zero(c) for c in coeffs] == [False, False]
            expected = symexpr._check_rng.getstate()
        with check_stream("closed"):
            with pytest.raises(SymplecticError):
                validate_symplectic(form)
            assert symexpr._check_rng.getstate() == expected

    def test_scaled_form_with_opaque_coefficient(self):
        h = OpaqueSymbol("h", ("x", "y"))
        chh = Chart(("x", "y"), symbols=(h,))
        hv = h.jet((0, 0))
        om = validate_symplectic(form_from_matrix(chh, [[ZERO, -hv], [hv, ZERO]]))
        assert equal_zero(om.inverse_matrix[0][1] - ONE / hv)


class TestHamiltonian:
    def test_coordinate_hamiltonians(self):
        om = standard()
        xf = hamiltonian_field(om, X)
        yf = hamiltonian_field(om, Y)
        assert equal_zero(xf.components[0])
        assert equal_zero(xf.components[1] + ONE)
        assert equal_zero(yf.components[0] - ONE)
        assert equal_zero(yf.components[1])

    def test_defining_identity(self):
        # the convention is i_{X_f} omega = -df
        om = standard()
        f = X * X * Y + Y
        xf = hamiltonian_field(om, f)
        from bilag.calculus import interior_product, exterior_d

        lhs = interior_product(xf, om.form)
        rhs = exterior_d(KForm(CH, 0, {(): f}))
        keys = set(lhs.coeffs) | set(rhs.coeffs)
        assert all(
            equal_zero(lhs.coeffs.get(k, ZERO) + rhs.coeffs.get(k, ZERO)) for k in keys
        )

    def test_conserves_its_hamiltonian(self):
        om = standard()
        f = X ** 3 - Y * X
        xf = hamiltonian_field(om, f)
        assert equal_zero(xf.apply(f))


class TestPoisson:
    def test_coordinate_bracket(self):
        om = standard()
        assert equal_zero(poisson_bracket(om, X, Y) + ONE)

    def test_scaled_coordinate_bracket(self):
        h = OpaqueSymbol("h", ("x", "y"))
        chh = Chart(("x", "y"), symbols=(h,))
        xh, yh = chh.coords()
        hv = h.jet((0, 0))
        om = validate_symplectic(form_from_matrix(chh, [[ZERO, -hv], [hv, ZERO]]))
        assert equal_zero(poisson_bracket(om, xh, yh) + ONE / hv)

    def test_antisymmetry(self):
        om = standard()
        f = X * Y
        g = X + Y * Y
        assert equal_zero(poisson_bracket(om, f, g) + poisson_bracket(om, g, f))

    def test_leibniz(self):
        om = standard()
        f, g, k = X * Y, X + Y, Y * Y
        lhs = poisson_bracket(om, f, g * k)
        rhs = poisson_bracket(om, f, g) * k + g * poisson_bracket(om, f, k)
        assert equal_zero(lhs - rhs)

    def test_jacobi(self):
        om = standard()
        f, g, k = X * X, X * Y, Y + ONE
        total = poisson_bracket(om, f, poisson_bracket(om, g, k))
        total = total + poisson_bracket(om, g, poisson_bracket(om, k, f))
        total = total + poisson_bracket(om, k, poisson_bracket(om, f, g))
        assert equal_zero(total)


class TestBundleForms:
    def test_tautological_theta_golden(self):
        bundle = CH.extend(("s", "t"))
        theta = tautological_theta(bundle)
        s = bundle.coord(2)
        t = bundle.coord(3)
        assert equal_zero(theta.coefficient((0,)) - s)
        assert equal_zero(theta.coefficient((1,)) - t)

    def test_lifted_form_matrix_golden(self):
        om = standard()
        lifted = trivial_bundle_symplectic(om, CH.extend(("s", "t")))
        mat = lifted.matrix
        expected = {
            (0, 1): -1, (1, 0): 1,
            (0, 2): -1, (2, 0): 1,
            (1, 3): -1, (3, 1): 1,
        }
        for i in range(4):
            for j in range(4):
                target = as_expr(expected.get((i, j), 0))
                assert equal_zero(mat[i][j] - target), (i, j)

    def test_fiber_name_collision_rejected(self):
        with pytest.raises(ValueError):
            CH.extend(("x", "t"))

    def test_fiber_count_checked(self):
        with pytest.raises(SymplecticError):
            trivial_bundle_symplectic(standard(), CH.extend(("s",)))
        with pytest.raises(ValueError):
            tautological_theta(CH.extend(("s",)))


class TestPfaffian:
    def test_block_golden(self):
        mat = [
            [ZERO, ONE, ZERO, ZERO],
            [-ONE, ZERO, ZERO, ZERO],
            [ZERO, ZERO, ZERO, X],
            [ZERO, ZERO, -X, ZERO],
        ]
        assert equal_zero(pfaffian(mat) - X)

    def test_squares_to_determinant(self):
        mat = [
            [ZERO, X + ONE, ZERO, Y],
            [-(X + ONE), ZERO, ONE, ZERO],
            [ZERO, -ONE, ZERO, X],
            [-Y, ZERO, -X, ZERO],
        ]
        pf = pfaffian(mat)
        assert equal_zero(pf * pf - sym_det(mat))

    def test_two_by_two(self):
        assert equal_zero(pfaffian([[ZERO, Y], [-Y, ZERO]]) - Y)
