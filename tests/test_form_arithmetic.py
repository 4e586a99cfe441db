"""Normal-form arithmetic against a reference copy of its shortcut-free route.

`NormalForm.add`, `mul`, `neg` and `inv` combine constants as plain
rationals, hand back the other operand for 0 + f and 1 * f, and hand back
the shared forms of 0, 1 and -1.  The reference below always runs the
polynomial route.  Every pair from a pool of constants, forms that are
constant only after cancellation, variables, a jet and a quotient must give
the reference's pair, printing and coefficient types.  A non-constant
result carries the merged atom table of its operands; a constant one
carries none, and is the shared form where it is 0, 1 or -1.
"""

from fractions import Fraction

import pytest

from bilag import symexpr
from bilag.symexpr import (
    ONE,
    ZERO,
    ExprError,
    NormalForm,
    OpaqueSymbol,
    Rat,
    Var,
    ZeroDenominator,
    _POLY_ONE,
    _atom_same,
    _cancel,
    _merge_atoms,
    _poly_divexact,
    poly_gcd,
)

# ---------------------------------------------------------------------------
# reference: the polynomial route for every operand


def ref_add(f, g):
    atoms = _merge_atoms(f.atoms, g.atoms)
    if f.den.is_const and g.den.is_const:
        # both denominators are 1: the sum of the numerators is reduced
        return NormalForm(f.num + g.num, _POLY_ONE, atoms)
    gcd = poly_gcd(f.den, g.den)
    e1 = _poly_divexact(f.den, gcd)
    e2 = _poly_divexact(g.den, gcd)
    num, gcd = _cancel(f.num * e2 + g.num * e1, gcd)
    return NormalForm(num, gcd * e1 * e2, atoms)


def ref_mul(f, g):
    atoms = _merge_atoms(f.atoms, g.atoms)
    # a constant denominator is 1 and cancels against nothing
    n1, d2 = _cancel(f.num, g.den)
    n2, d1 = _cancel(g.num, f.den)
    return NormalForm(n1 * n2, d1 * d2, atoms)


def ref_neg(f):
    return NormalForm(-f.num, f.den, f.atoms)


def ref_inv(f):
    if f.num.is_zero:
        raise ZeroDenominator("division by an expression that normalizes to zero")
    # the pair is already reduced; only the new denominator needs scaling
    return NormalForm(f.den, f.num, f.atoms)


# ---------------------------------------------------------------------------

X, Y = Var("x"), Var("y")
H_X = OpaqueSymbol("h", ("x", "y")).jet((1, 0))

POOL = {
    "0": Rat(0),
    "1": Rat(1),
    "-1": Rat(-1),
    "3": Rat(3),
    "1/3": Rat(Fraction(1, 3)),
    "-2/5": Rat(Fraction(-2, 5)),
    "(x + 1) - x": (X + 1) - X,
    "y - y": Y - Y,
    "x": X,
    "h_x": H_X,
    "x/(x + 1)": X / (X + 1),
}

SHARED = {0: ZERO.normal(), 1: ONE.normal(), -1: Rat(-1).normal()}


def _forms():
    return {label: e.normal() for label, e in POOL.items()}


def _coefficient_types(p):
    return [(m, type(c)) for m, c in sorted(p.terms.items())]


def _same_atoms(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(_atom_same(a[k], b[k]) for k in a)


def _assert_matches(got, want, label):
    assert got.num == want.num and got.den == want.den, label
    assert str(got) == str(want), label
    assert _coefficient_types(got.num) == _coefficient_types(want.num), label
    assert _coefficient_types(got.den) == _coefficient_types(want.den), label
    if want.is_const():
        assert not got.atoms, label
        value = want.const_value()
        assert value not in SHARED or got is SHARED[value], label
    else:
        assert _same_atoms(got.atoms, want.atoms), label


def test_pool_has_cancelled_constants():
    forms = _forms()
    # x - x cancels on the polynomial route and keeps its atoms; adding the
    # constant 1 to it is a shortcut
    assert forms["y - y"].is_zero and forms["y - y"].atoms
    assert forms["(x + 1) - x"] is SHARED[1]
    assert not forms["x/(x + 1)"].den.is_const


@pytest.mark.parametrize("op, ref", [("add", ref_add), ("mul", ref_mul)])
def test_binary_ops_match_the_reference_on_every_pair(op, ref):
    forms = _forms()
    for la, a in forms.items():
        for lb, b in forms.items():
            _assert_matches(getattr(a, op)(b), ref(a, b), f"{la} {op} {lb}")


@pytest.mark.parametrize("op, ref", [("neg", ref_neg), ("inv", ref_inv)])
def test_unary_ops_match_the_reference(op, ref):
    for label, f in _forms().items():
        if op == "inv" and f.is_zero:
            continue
        _assert_matches(getattr(f, op)(), ref(f), f"{op} {label}")


@pytest.mark.parametrize("label", ["0", "y - y"])
def test_inverse_of_a_zero_form_raises(label):
    with pytest.raises(ZeroDenominator, match="normalizes to zero"):
        _forms()[label].inv()


def test_constants_normalize_to_the_shared_forms():
    for value, form in SHARED.items():
        assert Rat(value).normal() is form
        assert Rat(Fraction(value)).normal() is form
        assert not form.atoms
    assert symexpr.dot([ZERO, X], [Y, ZERO]) is ZERO


def test_unit_operand_hands_back_the_other_form():
    x = X.normal()
    assert x.add(ZERO.normal()) is x and ZERO.normal().add(x) is x
    assert x.mul(ONE.normal()) is x and ONE.normal().mul(x) is x


# ---------------------------------------------------------------------------
# the merge of atom tables runs before any shortcut

_CONFLICT = "the name 'h_x' denotes two different atoms"


def test_atom_conflict_raises_directly():
    with pytest.raises(ExprError, match=_CONFLICT):
        (Var("h_x") - H_X).normal()


def test_atom_conflict_raises_through_a_zero_operand():
    with pytest.raises(ExprError, match=_CONFLICT):
        ((Var("h_x") - Var("h_x")) + H_X).normal()
    zero = (Var("h_x") - Var("h_x")).normal()
    assert zero.is_zero
    for op in ("add", "mul"):
        with pytest.raises(ExprError, match=_CONFLICT):
            getattr(zero, op)(H_X.normal())
        with pytest.raises(ExprError, match=_CONFLICT):
            getattr(H_X.normal(), op)(zero)


def test_dot_multiplies_a_zero_y_that_carries_atoms():
    # a zero y with atoms is not skipped, so its atoms meet x's
    with pytest.raises(ExprError, match=_CONFLICT):
        symexpr.dot([H_X], [Var("h_x") - Var("h_x")])
    # the shared zero form is skipped, and the sum is that of the other pairs
    got = symexpr.dot([H_X, X], [ZERO, Y])
    assert str(got) == "x*y" and got.normal() == (X * Y).normal()

