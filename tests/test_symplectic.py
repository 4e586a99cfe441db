"""Symplectic forms, Hamiltonian fields, Poisson brackets, bundle forms."""

import random
from fractions import Fraction

import pytest

from bilag import symexpr, symplectic
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
    Add,
    JetVar,
    OpaqueSymbol,
    Pow,
    Rat,
    Var,
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
from test_structures import STRUCTURES, lifted

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


def _expansion_without_skips(matrix):
    """Reference: the first-row expansion that recurses into the minor of
    every entry, a literal zero included."""
    m = len(matrix)
    if m % 2 == 1:
        return ZERO
    if m == 0:
        return ONE
    if m == 2:
        return matrix[0][1]
    total = ZERO
    for j in range(1, m):
        keep = [i for i in range(1, m) if i != j]
        term = matrix[0][j] * _expansion_without_skips([[matrix[a][b] for b in keep] for a in keep])
        total = total + term if j % 2 == 1 else total - term
    return total


def _tree(e):
    """The node classes and leaves of an expression tree, nested."""
    if isinstance(e, Rat):
        return ("Rat", e.value)
    if isinstance(e, (Var, JetVar)):
        return (type(e).__name__, e.name)
    if isinstance(e, Pow):
        return ("Pow", _tree(e.base), e.exponent)
    children = e.terms if isinstance(e, Add) else e.factors
    return (type(e).__name__, tuple(_tree(c) for c in children))


def _seeded_antisymmetric(seed, m):
    rng = random.Random(seed)
    pool = [ZERO, ZERO, ZERO, Y - Y, (X + ONE) - X, ONE, as_expr(-2), X, X * Y,
            as_expr(Fraction(3, 2)) * Y, X - Y]
    mat = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            mat[i][j] = rng.choice(pool)
            mat[j][i] = -mat[i][j]
    return mat


class TestPfaffianSkipsLiteralZeros:
    """`pfaffian` passes over a literal-zero entry of the first row and
    returns the tree the full expansion builds, node class for node class."""

    def assert_same_tree(self, mat):
        new, old = pfaffian(mat), _expansion_without_skips(mat)
        assert str(new) == str(old)
        assert _tree(new) == _tree(old)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    @pytest.mark.parametrize("dim", [None, 4, 8])
    def test_structure_omegas(self, name, dim):
        s = STRUCTURES[name]()
        if dim is not None:
            if s.chart.dim > dim:
                pytest.skip(f"{name} is already above dim {dim}")
            s = lifted(s, dim)
        self.assert_same_tree(s.omega.matrix)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_matrices(self, m, seed):
        self.assert_same_tree(_seeded_antisymmetric(seed, m))

    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_odd_and_empty(self, m):
        self.assert_same_tree(_seeded_antisymmetric(0, m))
        assert pfaffian(_seeded_antisymmetric(0, m)) is (ONE if m == 0 else ZERO)

    def test_literal_zero_row_does_not_recurse(self, monkeypatch):
        calls = []
        inner = symplectic.pfaffian
        monkeypatch.setattr(symplectic, "pfaffian", lambda mat: calls.append(len(mat)) or inner(mat))
        assert symplectic.pfaffian([[ZERO] * 8 for _ in range(8)]) is ZERO
        assert calls == [8]

    def test_non_literal_zero_recurses(self, monkeypatch):
        mat = _seeded_antisymmetric(0, 4)
        mat[0] = [ZERO, Y - Y, ZERO, ZERO]
        mat[1][0] = -(Y - Y)
        calls = []
        inner = symplectic.pfaffian
        monkeypatch.setattr(symplectic, "pfaffian", lambda mat: calls.append(len(mat)) or inner(mat))
        symplectic.pfaffian(mat)
        assert calls == [4, 2]
        self.assert_same_tree(mat)
