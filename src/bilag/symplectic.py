"""Symplectic forms, Hamiltonian fields, Poisson brackets, tautological forms.

Sign conventions (fixed by the wedge convention in `calculus` and pinned by
substitute-back oracles in the test suite):

* the Hamiltonian field of f solves  i_{X_f} omega = -df,
* the Poisson bracket is  {f, g} = omega(X_f, X_g).

Nondegeneracy is certified by a symbolic witness: the Pfaffian of the
coefficient matrix for dimension <= 8, the determinant above that.  A witness
that is a nonconstant expression means the form degenerates on its zero set;
that is reported as a warning, not a failure.

The bundle M x R^2n has a plain `Chart`, `base.extend(fiber_names)`: the
base coordinates first, then the fiber coordinates, and the tautological
form pairs fiber coordinate i with base coordinate i.
"""

from __future__ import annotations

from .calculus import (
    Chart,
    KForm,
    VectorField,
    exterior_d,
    sym_det,
    sym_inverse,
)
from .symexpr import Expr, ONE, Rat, ZERO, Var, as_expr, compact, diff, dot, equal_zero

__all__ = [
    "SymplecticError",
    "SymplecticForm",
    "validate_symplectic",
    "hamiltonian_field",
    "poisson_bracket",
    "tautological_theta",
    "trivial_bundle_symplectic",
    "pfaffian",
]


class SymplecticError(Exception):
    """Validation failure; the message names the condition that failed."""


def pfaffian(matrix) -> Expr:
    """Pfaffian of an antisymmetric matrix by recursive first-row expansion."""
    m = len(matrix)
    if m % 2 == 1:
        return ZERO
    if m == 0:
        return ONE
    if m == 2:
        return matrix[0][1]
    total = ZERO
    for j in range(1, m):
        entry = matrix[0][j]
        if entry.__class__ is Rat and entry.value == 0:
            continue  # the term is ZERO, and adding it rebuilds the same sum
        keep = [i for i in range(1, m) if i != j]
        minor = [[matrix[a][b] for b in keep] for a in keep]
        term = entry * pfaffian(minor)
        total = total + term if j % 2 == 1 else total - term
    return total


class SymplecticForm:
    """A certified symplectic form: closed and nondegenerate 2-form.

    Construct through `validate_symplectic`.  Carries the nondegeneracy
    witness and any degeneracy-locus warnings, plus a cached inverse of the
    coefficient matrix for linear solves against the form.
    """

    __slots__ = ("form", "chart", "witness", "warnings", "_matrix", "_inverse")

    def __init__(self, form: KForm, witness: Expr, warnings=()):
        self.form = form
        self.chart = form.chart
        self.witness = witness
        self.warnings = tuple(warnings)
        self._matrix = None
        self._inverse = None

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = self.form.matrix()
        return self._matrix

    @property
    def inverse_matrix(self):
        if self._inverse is None:
            self._inverse = sym_inverse(self.matrix)
        return self._inverse

    def __call__(self, x: VectorField, y: VectorField) -> Expr:
        return self.form(x, y)

    def __repr__(self):
        return f"SymplecticForm({self.form})"


def validate_symplectic(form: KForm) -> SymplecticForm:
    """Check that a 2-form is symplectic; raise SymplecticError otherwise.

    Errors: odd chart dimension, degree != 2, non-closed, identically
    degenerate.  A witness vanishing only on a proper subset produces a
    warning on the returned form.
    """
    if form.degree != 2:
        raise SymplecticError(f"expected a 2-form, got degree {form.degree}")
    if form.chart.dim % 2 == 1:
        raise SymplecticError(f"chart dimension {form.chart.dim} is odd")
    # every coefficient is zero-tested, so the points drawn do not depend on
    # which one fails first
    if not all([equal_zero(c) for c in exterior_d(form).coeffs.values()]):
        raise SymplecticError("form is not closed")
    matrix = form.matrix()
    if form.chart.dim <= 8:
        witness = pfaffian(matrix)
    else:
        witness = sym_det(matrix)
    witness = compact(witness)
    witness_nf = witness.normal()
    if witness_nf.is_zero:
        raise SymplecticError("form is degenerate (nondegeneracy witness is identically zero)")
    warnings = []
    if not witness_nf.is_const():
        warnings.append(
            f"form degenerates where the witness vanishes: {witness_nf}"
        )
    return SymplecticForm(form, witness, warnings)


def hamiltonian_field(omega: SymplecticForm, f: Expr) -> VectorField:
    """The field X_f with i_{X_f} omega = -df."""
    chart = omega.chart
    f = as_expr(f)
    df = [diff(f, n) for n in chart.names]
    # (i_X omega)_j = omega(X, d/dx_j) = sum_i X^i Omega_ij = -(Omega X)_j,
    # so Omega X = df and X = Omega^{-1} df.
    return VectorField(chart, [dot(row, df) for row in omega.inverse_matrix])


def poisson_bracket(omega: SymplecticForm, f: Expr, g: Expr) -> Expr:
    """{f, g} = omega(X_f, X_g)."""
    xf = hamiltonian_field(omega, f)
    xg = hamiltonian_field(omega, g)
    return compact(omega(xf, xg))


def tautological_theta(chart: Chart) -> KForm:
    """theta = sum_i xi_i dx_i on a bundle chart.

    The chart lists the base coordinates x_1..x_n, then the fiber
    coordinates xi_1..xi_n; fiber coordinate i is paired with base
    coordinate i.
    """
    if chart.dim % 2:
        raise ValueError(f"a bundle chart has even dimension, got {chart.dim}")
    n = chart.dim // 2
    return KForm(chart, 1, {(i,): Var(chart.names[n + i]) for i in range(n)})


def trivial_bundle_symplectic(omega: SymplecticForm, chart: Chart) -> SymplecticForm:
    """The lifted form pi^* omega + d theta, validated on the bundle chart."""
    if chart.dim != 2 * omega.chart.dim or chart.names[:omega.chart.dim] != omega.chart.names:
        raise SymplecticError("bundle base chart does not match the form's chart")
    pulled = KForm(chart, 2, dict(omega.form.coeffs))
    lifted = pulled + exterior_d(tautological_theta(chart))
    return validate_symplectic(lifted)
