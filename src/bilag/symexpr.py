"""Exact scalar expressions over coordinate charts.

Expressions are immutable trees built from rational constants, coordinate
variables, and jets of opaque function symbols (an opaque symbol ``h``
declared on coordinates ``(x, y)`` comes with the lazily generated family
``h, h_x, h_y, h_xx, h_xy, ...`` of partial-derivative variables; mixed
partials commute, so ``h_xy`` and ``h_yx`` are the same variable).
Coordinates and jets are the variables of the normal forms below, and they
share one leaf class: a named variable that prints, evaluates and
normalizes by its name.

Every expression has a canonical normal form: a reduced pair of multivariate
polynomials with exact rational coefficients (an ``int`` where integral, a
``Fraction`` otherwise), the denominator made monic under lexicographic
order.  ``NormalForm`` arithmetic is the one place where forms combine:
it takes the zero, constant and unit shortcuts (constants combine as plain
rationals) and holds the shared forms of 0, 1 and -1, which ``Rat`` constants
normalize to.  ``equal_zero`` decides equality through the normal form and
cross-checks the verdict by evaluating the original tree at random rational
points: modulo the prime 2^61 - 1 first, and exactly wherever the residue
contradicts the verdict or a denominator vanishes modulo the prime.  No
floating point enters any decision.

``poly_gcd`` first tries to prove a pair coprime, which most pairs that
reach it are: it maps both polynomials modulo 2^61 - 1 to univariate images
in each shared variable, the other variables fixed at residues that depend
on their names alone (Brown's modular gcd, used as a certificate only).  If
every image pair has a constant gcd and keeps a leading coefficient, no
common factor can exist, because one would survive into the images; the
gcd is then 1, exactly as the pseudo-remainder sequence would find it.  Any
other outcome runs that sequence, so a result never depends on the test.
A common factor is free of every variable only one side holds, so a pair
whose variable sets differ is reduced to the gcd of its coefficients in
those variables, and the sequence never runs on it (content and primitive
part, Knuth, TAOCP Vol. 2, 4.6.1).  One fold, ``_gcd_all``, takes that gcd
and the contents of both sides and of each remainder in the main variable.

``compact`` is the one way to shrink a tree: it rebuilds the tree from its
normal form and caches that (canonical) form on the result, so the rebuilt
tree is never normalized again; the form keeps the tree, so it is built
once.  ``dot`` is the compacted sum of products.  ``NormalForm.as_expr``
stays uncached, so renormalizing its tree still tests that the form is
canonical.
"""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction
from functools import reduce
from operator import itemgetter

__all__ = [
    "ExprError",
    "ParseError",
    "UnknownIdentifier",
    "ZeroDenominator",
    "CrossCheckError",
    "EvalError",
    "CompositionError",
    "OpaqueSymbol",
    "Expr",
    "Rat",
    "Var",
    "JetVar",
    "Add",
    "Mul",
    "Pow",
    "Poly",
    "NormalForm",
    "as_expr",
    "parse_expr",
    "tokenize",
    "uniquely_decodable",
    "diff",
    "directional",
    "coordinates",
    "normalize",
    "compact",
    "dot",
    "equal_zero",
    "is_zero",
    "eval_num",
    "eval_float",
    "compile_float",
    "substitute",
    "bind_symbol",
    "set_check_seed",
    "check_seed",
    "check_stream",
    "kept",
    "ZERO",
    "ONE",
]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax error while parsing an expression; carries the position."""

    def __init__(self, message: str, text: str, position: int):
        self.position = position
        self.text = text
        super().__init__(f"{message} (at position {position}: {text[position:position + 12]!r})")


class UnknownIdentifier(ParseError):
    """An identifier that is neither a coordinate nor a declared symbol jet."""


class ZeroDenominator(ExprError):
    """Division by something that is identically zero, or zero at a point."""


class CrossCheckError(RuntimeError):
    """The random-point cross-check contradicts the normal form.

    This means a defect in the engine, not in its input.
    """


class EvalError(ExprError):
    """Numeric evaluation failed (missing assignment)."""


class CompositionError(ExprError):
    """A substitution would need the composite of an opaque symbol."""


# The cross-check's modulus, the Mersenne prime 2^61 - 1, and the inverses
# modulo it of the point denominators 1..7.
_P = (1 << 61) - 1
_INVERSES = (None,) + tuple(pow(d, -1, _P) for d in range(1, 8))


class _ModZero(Exception):
    """A denominator vanishes modulo _P; exact evaluation must decide."""


# Each node's _mod(env) evaluates its tree modulo _P at several points at
# once.  env maps each name to its list of residues, one per point (a
# "lane"), and _mod returns the list of the tree's residues, lane by lane.
# It raises _ModZero when a denominator vanishes in any lane.


def _residue(c) -> int:
    """The rational c modulo _P; _ModZero when its denominator is 0 mod _P."""
    if c.__class__ is int:
        return c % _P
    if not c.denominator % _P:
        raise _ModZero
    return c.numerator * pow(c.denominator, -1, _P) % _P


# ---------------------------------------------------------------------------
# multivariate polynomials


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _mono_div(m1, m2):
    """m1 / m2, or None when m2 does not divide m1."""
    exps = dict(m1)
    for var, e in m2:
        d = exps.get(var, 0) - e
        if d < 0:
            return None
        exps[var] = d
    return tuple((v, e) for v, e in exps.items() if e)


# U+10FFFF is not a letter, so no name the parser admits starts with it
_LAST = ("\U0010ffff",)


def _lex(m):
    """Monomial sort key; the smallest is the lex leader over sorted names.

    At the first differing pair the larger exponent of a shared name wins,
    else the smaller name (the other has exponent 0 there), else the longer
    monomial, as _LAST sorts after every (name, exponent) pair.
    """
    return (*[(v, -e) for v, e in m], _LAST)


def _coef(c):
    """The rational c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map a monomial -- a sorted tuple of (variable, exponent) pairs with
    positive exponents -- to a nonzero coefficient: an ``int`` when it is
    integral, a ``Fraction`` otherwise.  An int and the equal Fraction
    compare and hash alike, so equality, hashing and printing do not depend
    on which of the two a coefficient is.  Monomials are ordered lex over
    the sorted names; ``_lex`` is the key, and its smallest is the leader.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {
            m: c if c.__class__ is int else _coef(c) for m, c in terms.items() if c
        }

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): Fraction(c)})

    @staticmethod
    def variable(name: str) -> "Poly":
        return Poly({((name, 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and () in terms)

    def const_value(self) -> Fraction:
        if not self.is_const:
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get((), 0))

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) - c
        return Poly(terms)

    def __mul__(self, other: "Poly") -> "Poly":
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    def scale(self, c) -> "Poly":
        c = _coef(Fraction(c))
        if not c:
            return Poly({})
        if c == 1:
            return self
        return Poly({m: k * c for m, k in self.terms.items()})

    def pow_int(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _POLY_ONE
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def degree_in(self, var: str) -> int:
        deg = 0
        for m in self.terms:
            deg = max(deg, dict(m).get(var, 0))
        return deg

    def coeffs_in(self, var: str) -> dict:
        """Collect as a univariate polynomial in `var`: degree -> Poly."""
        out: dict = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.pop(var, 0)
            rest = tuple(sorted(d.items()))
            bucket = out.setdefault(e, {})
            bucket[rest] = bucket.get(rest, 0) + c
        return {e: Poly(t) for e, t in out.items() if any(t.values())}

    def _sorted_monos(self):
        """Monomials in descending lexicographic order over sorted variables."""
        return sorted(self.terms, key=_lex)

    def leading(self):
        """(monomial, coefficient) of the lex-leading term; poly must be nonzero."""
        terms = self.terms
        if len(terms) == 1:
            return next(iter(terms.items()))
        m = min(terms, key=_lex)
        return m, terms[m]

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for m in self._sorted_monos():
            c = self.terms[m]
            factors = []
            for v, e in m:
                factors.append(v if e == 1 else f"{v}^{e}")
            if not factors:
                body = _frac_str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_frac_str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    __repr__ = __str__


_POLY_ONE = Poly({(): 1})


def _qdiv(a, b):
    """a / b for nonzero b, exactly."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return Fraction(a) / b


def _frac_str(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ValueError if it does not divide."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return a
    if b.is_const:
        bc = b.terms[()]
        return Poly({m: _qdiv(c, bc) for m, c in a.terms.items()})
    bm, bc = b.leading()
    tail = [(m, c) for m, c in b.terms.items() if m != bm]
    quotient: dict = {}
    rem = dict(a.terms)
    while rem:
        rm = min(rem, key=_lex)
        qm = _mono_div(rm, bm)
        if qm is None:
            raise ValueError("inexact polynomial division")
        # quotient monomials strictly decrease, so none repeats
        qc = quotient[qm] = _qdiv(rem.pop(rm), bc)
        # rem -= b * qm * qc in place; b's leading term cancels rm exactly
        for m, c in tail:
            m = _mono_mul(m, qm)
            c = rem.get(m, 0) - c * qc
            if c:
                rem[m] = c if c.__class__ is int else _coef(c)
            else:
                rem.pop(m, None)
    return Poly(quotient)


def _rational_content(p: Poly) -> Fraction:
    """c > 0 with p = c * (integer, content-free polynomial)."""
    if p.is_zero:
        return Fraction(1)
    nums = [c.numerator for c in p.terms.values()]
    dens = [c.denominator for c in p.terms.values()]
    return Fraction(reduce(math.gcd, nums), reduce(math.lcm, dens))


def _int_primitive(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and positive lex-leading coefficient."""
    if p.is_zero:
        return p
    q = p.scale(1 / _rational_content(p))
    _, lc = q.leading()
    return q if lc > 0 else -q


def _prem(a: Poly, b: Poly, var: str) -> Poly:
    """Pseudo-remainder of a by b, both viewed as univariate in `var`."""
    da, db = a.degree_in(var), b.degree_in(var)
    bc = b.coeffs_in(var)
    lb = bc[db]
    r = a
    e = da - db + 1
    while not r.is_zero:
        dr = r.degree_in(var)
        if dr < db:
            break
        lr = r.coeffs_in(var)[dr]
        shift = Poly({((var, dr - db),): 1}) if dr > db else _POLY_ONE
        r = lb * r - shift * lr * b
        e -= 1
    if e > 0:
        r = lb.pow_int(e) * r
    return r


def _gcd_point(name: str) -> int:
    """The nonzero residue modulo _P at which the certificate fixes a variable.

    A fixed function of the name's bytes: never drawn from the cross-check's
    random stream, and never from hash(), which varies with PYTHONHASHSEED.
    """
    k = 0
    for byte in name.encode():
        k = (k * 131 + byte) % (_P - 1)
    return pow(3, k + 1, _P)


def _image(residues, var: str, points: dict) -> list:
    """The univariate image in `var` modulo _P, constant term first.

    `residues` holds a polynomial's (monomial, coefficient mod _P) pairs,
    and every other variable v is fixed at points[v].  The list has one entry
    per degree up to the polynomial's degree in `var`, so a zero last entry
    means the leading coefficient vanished at the point.
    """
    coeffs: dict = {}
    for m, r in residues:
        k = 0
        for v, e in m:
            if v == var:
                k = e
            else:
                r = r * pow(points[v], e, _P) % _P
        coeffs[k] = coeffs.get(k, 0) + r
    image = [0] * (max(coeffs) + 1)
    for k, r in coeffs.items():
        image[k] = r % _P
    return image


def _gcd_degree_mod(f: list, g: list) -> int:
    """Degree of gcd(f, g) over the integers modulo _P, by Euclid.

    f and g are coefficient lists, constant term first, which the division
    consumes; trailing zeros are dropped first, and an empty list is the
    zero polynomial.
    """
    while f and not f[-1]:
        f.pop()
    while g and not g[-1]:
        g.pop()
    while g:
        dg = len(g) - 1
        inv = pow(g[-1], -1, _P)
        while len(f) > dg:
            q = f[-1] * inv % _P
            shift = len(f) - 1 - dg
            for i in range(dg):
                f[shift + i] = (f[shift + i] - q * g[i]) % _P
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _coprime(a: Poly, b: Poly, shared) -> bool:
    """A proof that gcd(a, b) is constant, or False when there is none.

    For each shared variable v, in sorted order, a and b are mapped modulo
    _P to univariate images in v, every other variable at its _gcd_point.
    The proof holds when, for every v, the images have a constant gcd and
    at least one of them keeps its full degree in v.  A gcd g of degree
    d >= 1 in v would have a leading coefficient in v dividing that image's
    (nonzero) leading coefficient, so the image of g would keep degree d
    and divide both images.  A denominator that is 0 mod _P, a pair of
    vanished leading coefficients or an image gcd of positive degree gives
    False, and the caller computes the gcd in full.
    """
    try:
        ra = [(m, _residue(c)) for m, c in a.terms.items()]
        rb = [(m, _residue(c)) for m, c in b.terms.items()]
    except _ModZero:
        return False
    points = {v: _gcd_point(v) for v in a.variables() | b.variables()}
    for var in sorted(shared):
        fa, fb = _image(ra, var, points), _image(rb, var, points)
        if not (fa[-1] or fb[-1]) or _gcd_degree_mod(fa, fb):
            return False
    return True


def _coeffs_outside(p: Poly, keep) -> list:
    """p's coefficients as a polynomial in the variables outside `keep`:
    polynomials in the variables of `keep`, one per monomial outside it."""
    out: dict = {}
    for m, c in p.terms.items():
        inner = tuple(ve for ve in m if ve[0] in keep)
        outer = tuple(ve for ve in m if ve[0] not in keep)
        out.setdefault(outer, {})[inner] = c
    return [Poly(t) for t in out.values()]


def _gcd_all(polys) -> Poly:
    """The gcd of nonzero polynomials, folded by poly_gcd fewest terms first.

    A constant ends the fold, as every later step would give 1; a single
    polynomial is returned as it is.
    """
    polys = sorted(polys, key=lambda p: len(p.terms))
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.is_const:
            break
    return g


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd via a primitive pseudo-remainder sequence.

    Returns an integer-primitive polynomial with positive leading
    coefficient (1 for nonzero constants).  A pair that _coprime proves
    coprime returns 1 before the sequence starts; the proof is exact, so
    the result is the one the sequence would give.  A pair whose variable
    sets differ goes to _gcd_all on its coefficients outside the shared
    variables; the sequence runs only on pairs with one variable set, and
    takes the contents of a, b and each remainder from _gcd_all too.
    Either way the gcd is unique up to a rational factor, which the
    normalization fixes, so the result is the same polynomial.
    """
    if a.is_zero and b.is_zero:
        return Poly({})
    if a.is_zero:
        return _int_primitive(b)
    if b.is_zero:
        return _int_primitive(a)
    if a.is_const or b.is_const:
        return _POLY_ONE
    va, vb = a.variables(), b.variables()
    shared = va & vb
    if not shared or _coprime(a, b, shared):
        return _POLY_ONE
    if va != vb:
        return _gcd_all(_coeffs_outside(a, shared) + _coeffs_outside(b, shared))
    a = _int_primitive(a)
    b = _int_primitive(b)
    var = sorted(shared)[0]
    ca, cb = (_gcd_all(p.coeffs_in(var).values()) for p in (a, b))
    g_cont = poly_gcd(ca, cb)
    pa = _int_primitive(_poly_divexact(a, ca))
    pb = _int_primitive(_poly_divexact(b, cb))
    if pa.degree_in(var) < pb.degree_in(var):
        pa, pb = pb, pa
    while not pb.is_zero:
        r = _prem(pa, pb, var)
        if r.is_zero:
            pa = pb
            break
        pa, pb = pb, _int_primitive(_poly_divexact(r, _gcd_all(r.coeffs_in(var).values())))
    return _int_primitive(g_cont * pa)


# ---------------------------------------------------------------------------
# normal forms


def _merge_atoms(a: dict, b: dict) -> dict:
    if not b:
        return a
    if not a:
        return b
    merged = dict(a)
    for name, atom in b.items():
        seen = merged.get(name)
        if seen is None:
            merged[name] = atom
        elif not _atom_same(seen, atom):
            raise ExprError(
                f"the name {name!r} denotes two different atoms in one expression"
            )
    return merged


def _atom_same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, JetVar):
        return a.symbol == b.symbol and a.orders == b.orders
    return a.name == b.name


class NormalForm:
    """Reduced numerator/denominator pair; the denominator is monic in lex order.

    Structural equality of normal forms is semantic equality of the
    expressions they came from.  The atom table remembers which polynomial
    variable names stand for jets of opaque symbols, so `as_expr` can
    rebuild a tree that still differentiates correctly.  The pair handed to
    the constructor must be reduced; only the denominator is made monic.

    `add` and `mul` merge the operands' atom tables first, so a name that
    denotes two different atoms raises whatever the operands are.  A
    constant operand takes a shortcut: constants combine as plain
    rationals, 0 + f and 1 * f give f with the merged table, and 0 * f
    gives 0.  A constant a shortcut returns has no atom table, and it is
    the shared form of 0, 1 or -1 where it has that value.
    """

    __slots__ = ("num", "den", "atoms", "_tree")

    def __init__(self, num: Poly, den: Poly, atoms=None):
        if den.is_zero:
            raise ZeroDenominator("denominator is identically zero")
        self.atoms = atoms or {}
        self._tree = None
        if num.is_zero:
            self.num, self.den = num, _POLY_ONE
            return
        _, lc = den.leading()
        if lc != 1:
            num = num.scale(Fraction(1) / lc)
            den = den.scale(Fraction(1) / lc)
        self.num, self.den = num, den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def __eq__(self, other):
        return isinstance(other, NormalForm) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def add(self, other: "NormalForm") -> "NormalForm":
        atoms = _merge_atoms(self.atoms, other.atoms)
        a, b = _constant(self), _constant(other)
        if a is not None and b is not None:
            return _const_form(a + b)
        if a == 0:
            return _with_atoms(other, atoms)
        if b == 0:
            return _with_atoms(self, atoms)
        if self.den.is_const and other.den.is_const:
            # both denominators are 1: the sum of the numerators is reduced
            return NormalForm(self.num + other.num, _POLY_ONE, atoms)
        g = poly_gcd(self.den, other.den)
        e1 = _poly_divexact(self.den, g)
        e2 = _poly_divexact(other.den, g)
        num, g = _cancel(self.num * e2 + other.num * e1, g)
        return NormalForm(num, g * e1 * e2, atoms)

    def mul(self, other: "NormalForm") -> "NormalForm":
        atoms = _merge_atoms(self.atoms, other.atoms)
        a, b = _constant(self), _constant(other)
        if a is not None and b is not None:
            return _const_form(a * b)
        if a == 0 or b == 0:
            return _CONST_FORMS[0]
        if a == 1:
            return _with_atoms(other, atoms)
        if b == 1:
            return _with_atoms(self, atoms)
        # a constant denominator is 1 and cancels against nothing
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return NormalForm(n1 * n2, d1 * d2, atoms)

    def neg(self) -> "NormalForm":
        v = _constant(self)
        if v is not None:
            return _const_form(-v)
        return NormalForm(-self.num, self.den, self.atoms)

    def inv(self) -> "NormalForm":
        if self.num.is_zero:
            raise ZeroDenominator("division by an expression that normalizes to zero")
        v = _constant(self)
        if v is not None:
            return _const_form(1 / Fraction(v))
        # the pair is already reduced; only the new denominator needs scaling
        return NormalForm(self.den, self.num, self.atoms)

    def pow_int(self, n: int) -> "NormalForm":
        if n < 0:
            return self.inv().pow_int(-n)
        return NormalForm(self.num.pow_int(n), self.den.pow_int(n), self.atoms)

    def as_expr(self) -> "Expr":
        num = _poly_to_expr(self.num, self.atoms)
        if self.den.is_const:
            return num
        return num / _poly_to_expr(self.den, self.atoms)

    def __str__(self):
        if self.den.is_const:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if _needs_parens_as_den(self.den):
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


# the forms of 0, 1 and -1, built once
_CONST_FORMS = {v: NormalForm(Poly({(): v}), _POLY_ONE) for v in (0, 1, -1)}


def _constant(f: NormalForm):
    """f's value, an int or a Fraction, when f is a constant, else None.
    A constant form's denominator is monic, so it is 1."""
    num = f.num.terms
    if not num:
        return 0
    den = f.den.terms
    return num.get(()) if len(num) == 1 and len(den) == 1 and () in den else None


def _const_form(v) -> NormalForm:
    """The form of the rational v; those of 0, 1 and -1 are shared."""
    return _CONST_FORMS.get(v) or NormalForm(Poly({(): v}), _POLY_ONE)


def _with_atoms(f: NormalForm, atoms) -> NormalForm:
    """f itself when the merged table atoms adds no name to f's, else f's
    pair with atoms."""
    return f if len(atoms) == len(f.atoms) else NormalForm(f.num, f.den, atoms)


def _cancel(a: Poly, b: Poly):
    """(a / g, b / g) for g = gcd(a, b); no gcd when either is constant."""
    if a.is_const or b.is_const:
        return a, b
    g = poly_gcd(a, b)
    if g.is_const:
        return a, b
    return _poly_divexact(a, g), _poly_divexact(b, g)


def _needs_parens_as_den(p: Poly) -> bool:
    # a single monomial like 2*x*h needs parens to parse back as one factor
    if len(p.terms) != 1:
        return True
    (m, c), = p.terms.items()
    nontrivial = len(m) + (0 if abs(c) == 1 else 1)
    return nontrivial > 1 or c < 0 or (len(m) == 0)


def _poly_to_expr(p: Poly, atoms=None) -> "Expr":
    atoms = atoms or {}
    terms = []
    for m in p._sorted_monos():
        c = p.terms[m]
        factors = [Rat(c)] if c != 1 or not m else []
        for v, e in m:
            base = atoms.get(v) or Var(v)
            factors.append(base if e == 1 else Pow(base, e))
        if len(factors) == 1:
            terms.append(factors[0])
        else:
            terms.append(Mul(tuple(factors)))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


# ---------------------------------------------------------------------------
# expression trees


class OpaqueSymbol:
    """An undetermined smooth function of a fixed list of coordinates."""

    __slots__ = ("name", "deps")

    def __init__(self, name: str, deps):
        self.name = name
        self.deps = tuple(deps)
        if len(set(self.deps)) != len(self.deps):
            raise ValueError(f"duplicate dependency in symbol {name}")

    def __call__(self) -> "JetVar":
        return JetVar(self, (0,) * len(self.deps))

    def jet(self, orders) -> "JetVar":
        return JetVar(self, tuple(orders))

    def __eq__(self, other):
        return (
            isinstance(other, OpaqueSymbol)
            and self.name == other.name
            and self.deps == other.deps
        )

    def __hash__(self):
        return hash((self.name, self.deps))

    def __repr__(self):
        return f"OpaqueSymbol({self.name}, deps={self.deps})"


class Expr:
    """Immutable scalar expression node."""

    __slots__ = ("_nf", "_coords")

    # _coords is left unset until `coordinates` first reads it: most nodes
    # are never differentiated, and a store per node shows on small inputs
    def __init__(self):
        self._nf = None

    # -- construction sugar -------------------------------------------------

    def __add__(self, other):
        return _make_add(self, as_expr(other))

    def __radd__(self, other):
        return _make_add(as_expr(other), self)

    def __sub__(self, other):
        return _make_add(self, _make_neg(as_expr(other)))

    def __rsub__(self, other):
        return _make_add(as_expr(other), _make_neg(self))

    def __neg__(self):
        return _make_neg(self)

    def __pos__(self):
        return self

    def __mul__(self, other):
        return _make_mul(self, as_expr(other))

    def __rmul__(self, other):
        return _make_mul(as_expr(other), self)

    def __truediv__(self, other):
        return _make_div(self, as_expr(other))

    def __rtruediv__(self, other):
        return _make_div(as_expr(other), self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        return _make_pow(self, n)

    # -- semantics ----------------------------------------------------------

    def normal(self) -> NormalForm:
        if self._nf is None:
            self._nf = self._normal()
        return self._nf

    def _normal(self) -> NormalForm:
        raise NotImplementedError

    def __eq__(self, other):
        try:
            other = as_expr(other)
        except TypeError:
            return NotImplemented
        return equal_zero(self - other)

    def __hash__(self):
        return hash(self.normal())

    def atoms(self) -> set:
        """All variable names occurring in the tree (coordinates and jets)."""
        return {leaf.name for leaf in _leaves(self)}

    def jet_atoms(self) -> set:
        """The jets occurring in the tree."""
        return {leaf for leaf in _leaves(self) if isinstance(leaf, JetVar)}

    def is_rational_const(self) -> bool:
        return isinstance(self, Rat)

    def __str__(self):
        return self._fmt(0)

    def __repr__(self):
        return self._fmt(0)

    def _fmt(self, prec: int) -> str:
        raise NotImplementedError


# precedence levels for printing: 0 sum, 1 product, 2 unary, 3 power, 4 atom


class Rat(Expr):
    """A rational constant; its value is an int when integral."""

    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = value if value.__class__ is int else _coef(Fraction(value))

    def _normal(self):
        return _const_form(self.value)

    def _coordinates(self):
        return frozenset()

    def _fmt(self, prec):
        s = _frac_str(self.value)
        if (self.value < 0 and prec >= 1) or ("/" in s and prec >= 1):
            return f"({s})"
        return s

    def _compile(self, names, num):
        try:
            c = num(self.value)
        except OverflowError:
            # raised by each call, so a plotted leaf ends there
            value = self.value
            return lambda p: num(value)
        return lambda p: c

    def _mod(self, env):
        return [_residue(self.value)] * len(next(iter(env.values())))


class _Leaf(Expr):
    """A variable of the normal forms, known by its name: a coordinate or a jet."""

    __slots__ = ("name",)

    def _normal(self):
        return NormalForm(Poly.variable(self.name), _POLY_ONE, {self.name: self})

    def _fmt(self, prec):
        return self.name

    def _compile(self, names, num):
        if self.name in names:
            return itemgetter(names.index(self.name))

        def missing(p, name=self.name):
            raise EvalError(f"missing assignment for {name!r}")
        return missing

    def _mod(self, env):
        return env[self.name]


class Var(_Leaf):
    """A coordinate variable."""

    __slots__ = ()

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _coordinates(self):
        return frozenset((self.name,))


class JetVar(_Leaf):
    """A jet of an opaque symbol: the symbol differentiated per a multi-index.

    Its name is the printable and re-parseable variable name, e.g. ``h_xxy``.
    """

    __slots__ = ("symbol", "orders")

    def __init__(self, symbol: OpaqueSymbol, orders):
        super().__init__()
        self.symbol = symbol
        self.orders = tuple(orders)
        if len(self.orders) != len(symbol.deps):
            raise ValueError("jet multi-index length does not match symbol arity")
        if any(o < 0 for o in self.orders):
            raise ValueError("negative differentiation order")
        suffix = "".join(dep * order for dep, order in zip(symbol.deps, self.orders))
        self.name = f"{symbol.name}_{suffix}" if suffix else symbol.name

    def bump(self, coord: str) -> "JetVar":
        i = self.symbol.deps.index(coord)
        orders = list(self.orders)
        orders[i] += 1
        return JetVar(self.symbol, orders)

    def _coordinates(self):
        return frozenset(self.symbol.deps)

    # JetVar is used in sets during traversal; identity there must be
    # structural, not semantic, so override the Expr comparison.
    def __eq__(self, other):
        if isinstance(other, JetVar):
            return self.symbol == other.symbol and self.orders == other.orders
        return Expr.__eq__(self, other)

    def __hash__(self):
        return hash((self.symbol, self.orders))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple(terms)

    def _normal(self):
        nf = self.terms[0].normal()
        for t in self.terms[1:]:
            nf = nf.add(t.normal())
        return nf

    def _coordinates(self):
        return _union(self.terms)

    def _fmt(self, prec):
        parts = [self.terms[0]._fmt(0)]
        for t in self.terms[1:]:
            s = t._fmt(0)
            parts.append("- " + s[1:].lstrip() if s.startswith("-") else "+ " + s)
        body = " ".join(parts)
        return f"({body})" if prec >= 1 else body

    def _compile(self, names, num):
        # sum, not a chain of +: it compensates float sums on Python 3.12+
        terms = [t._compile(names, num) for t in self.terms]
        return lambda p: sum([t(p) for t in terms])

    def _mod(self, env):
        return [sum(lane) % _P for lane in zip(*[t._mod(env) for t in self.terms])]


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        super().__init__()
        self.factors = tuple(factors)

    def _normal(self):
        nf = self.factors[0].normal()
        for f in self.factors[1:]:
            nf = nf.mul(f.normal())
        return nf

    def _coordinates(self):
        return _union(self.factors)

    def _fmt(self, prec):
        # negative-power factors print as division
        num, den = [], []
        for f in self.factors:
            if isinstance(f, Pow) and f.exponent < 0:
                den.append(f.base._fmt(3) if f.exponent == -1 else Pow(f.base, -f.exponent)._fmt(1))
            else:
                num.append(f._fmt(1))
        body = "*".join(num) if num else "1"
        for d in den:
            body += f"/{d}"
        return f"({body})" if prec >= 2 else body

    def _compile(self, names, num):
        factors = [f._compile(names, num) for f in self.factors]
        one = num(1)

        def mul(p):
            out = one
            for f in factors:
                out *= f(p)
            return out
        return mul

    def _mod(self, env):
        out = self.factors[0]._mod(env)
        for f in self.factors[1:]:
            out = [a * b % _P for a, b in zip(out, f._mod(env))]
        return out


def _power(b, n):
    if n < 0 and not b:
        raise ZeroDenominator("division by zero at the evaluation point")
    return b ** n


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        super().__init__()
        self.base = base
        self.exponent = exponent

    def _normal(self):
        return self.base.normal().pow_int(self.exponent)

    def _coordinates(self):
        return coordinates(self.base)

    def _fmt(self, prec):
        if self.exponent < 0:
            body = f"1/{Pow(self.base, -self.exponent)._fmt(3)}" if self.exponent != -1 else f"1/{self.base._fmt(3)}"
            return f"({body})" if prec >= 2 else body
        body = f"{self.base._fmt(3)}^{self.exponent}"
        return f"({body})" if prec >= 4 else body

    def _compile(self, names, num):
        base, n = self.base._compile(names, num), self.exponent
        return lambda p: _power(base(p), n)

    def _mod(self, env):
        lanes = self.base._mod(env)
        n = self.exponent
        if n < 0 and 0 in lanes:
            raise _ModZero
        return [pow(b, n, _P) for b in lanes]


ZERO = Rat(0)
ONE = Rat(1)
# compact may hand back the shared ZERO; its cache is set here, so compact
# never attaches another expression's atom table to it
ZERO.normal()


def as_expr(value) -> Expr:
    """Coerce ints, Fractions and strings-of-integers into expressions."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Rat(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


def _make_add(*parts: Expr) -> Expr:
    terms = []
    const = 0
    for p in parts:
        queue = list(p.terms) if isinstance(p, Add) else [p]
        for t in queue:
            if isinstance(t, Rat):
                const += t.value
            else:
                terms.append(t)
    if const:
        terms.append(Rat(const))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def _make_neg(e: Expr) -> Expr:
    if isinstance(e, Rat):
        return Rat(-e.value)
    return _make_mul(Rat(-1), e)


def _make_mul(*parts: Expr) -> Expr:
    factors = []
    const = 1
    for p in parts:
        queue = list(p.factors) if isinstance(p, Mul) else [p]
        for f in queue:
            if isinstance(f, Rat):
                const *= f.value
            else:
                factors.append(f)
    if not const:
        return ZERO
    if const != 1:
        factors.insert(0, Rat(const))
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _make_pow(base: Expr, n: int) -> Expr:
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Rat):
        if base.value == 0 and n < 0:
            raise ZeroDenominator("division by an expression that normalizes to zero")
        return Rat(Fraction(base.value) ** n)
    if isinstance(base, Pow):
        return _make_pow(base.base, base.exponent * n)
    if n < 0 and base.normal().is_zero:
        raise ZeroDenominator("division by an expression that normalizes to zero")
    return Pow(base, n)


def _make_div(a: Expr, b: Expr) -> Expr:
    return _make_mul(a, _make_pow(b, -1))


def _leaves(e: Expr) -> list:
    """The Var and JetVar nodes of the tree, each as often as it occurs.

    A list, not a set: hashing an Expr normalizes it.
    """
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, _Leaf):
            out.append(node)
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
    return out


def _rebuild(e: Expr, leaf) -> Expr:
    """The tree rebuilt through the _make_* constructors, each Var and JetVar
    node replaced by leaf(node), left to right."""

    def walk(node: Expr) -> Expr:
        if isinstance(node, _Leaf):
            return leaf(node)
        if isinstance(node, Add):
            return _make_add(*(walk(t) for t in node.terms))
        if isinstance(node, Mul):
            return _make_mul(*(walk(f) for f in node.factors))
        if isinstance(node, Pow):
            return _make_pow(walk(node.base), node.exponent)
        return node

    return walk(as_expr(e))


# ---------------------------------------------------------------------------
# parsing

def tokenize(text: str):
    """Split into (kind, value, position) tokens.

    Kinds: ``int``, ``name``, ``op``.  Raises ParseError on anything else.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and (text[j] == "." or text[j].isalpha()):
                if text[j] == ".":
                    raise ParseError("decimal literals are not supported; use exact fractions", text, j)
                raise ParseError("missing operator between number and name", text, j)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if text.startswith("->", i):
            tokens.append(("op", "->", i))
            i += 2
            continue
        if ch in "+-*/^(),;@|=":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    return tokens


def _split_jet_suffix(suffix: str, deps) -> tuple | None:
    """Decompose a differentiation suffix into dependency coordinates.

    Returns the multi-index, or None if no decomposition exists.  Raises
    ParseError-free ValueError on ambiguity (caller rephrases).  Right to
    left, splits[pos] holds up to two multi-indices that suffix[pos:] splits
    into: two tell one decomposition from many, in time linear in the suffix.
    """
    n = len(suffix)
    splits = [[] for _ in range(n)] + [[(0,) * len(deps)]]
    for pos in range(n - 1, -1, -1):
        found = splits[pos]
        for i, d in enumerate(deps):
            if suffix.startswith(d, pos):
                for t in splits[pos + len(d)]:
                    t = t[:i] + (t[i] + 1,) + t[i + 1:]
                    if t not in found and len(found) < 2:
                        found.append(t)
    if len(splits[0]) > 1:
        raise ValueError(f"ambiguous jet suffix {suffix!r}")
    return splits[0][0] if splits[0] else None


def uniquely_decodable(words) -> bool:
    """Does every concatenation of the words split back into them one way only?

    The Sardinas-Patterson test: follow the dangling suffixes, what is left
    of one word after another word or dangling suffix is cut off its front;
    the words are ambiguous exactly when some dangling suffix is a word, or
    when a word is listed twice.  A symbol's dependency names must pass it,
    or its jets' suffixes would split more than one way.
    """
    words = list(words)
    code = set(words)
    if len(code) < len(words):
        return False

    def dangling(heads, tails):
        return {t[len(h):] for h in heads for t in tails if len(t) > len(h) and t.startswith(h)}

    pending = dangling(code, code)
    seen = set()
    while pending:
        w = pending.pop()
        if w in code:
            return False
        if w not in seen:
            seen.add(w)
            pending |= dangling({w}, code) | dangling(code, {w})
    return True


def resolve_name(name: str, chart_names, symbols) -> Expr:
    """Map an identifier to a coordinate Var or a JetVar of a declared symbol."""
    if name in chart_names:
        return Var(name)
    by_name = {s.name: s for s in symbols}
    if name in by_name:
        return by_name[name]()
    if "_" in name:
        head, _, suffix = name.partition("_")
        if head in by_name and suffix:
            sym = by_name[head]
            try:
                orders = _split_jet_suffix(suffix, sym.deps)
            except ValueError as exc:
                raise KeyError(str(exc)) from None
            if orders is not None:
                return sym.jet(orders)
    raise KeyError(name)


def _scalar_combine(op: str, a: Expr, b: Expr) -> Expr:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def _no_extra_atom(parser, tok):
    return None


class _Parser:
    """Recursive-descent parser for scalar and geometric expressions.

    Grammar::

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := ('+' | '-')* power
        power  := atom ('^' ('-')? int)?      on a scalar
                | atom ('^' atom)*            on any other value
        atom   := int | name | '(' expr ')'

    Two hooks extend it beyond scalars.  ``extra_atom(parser, tok)`` is
    consulted for a name that is neither a coordinate nor a symbol jet, and
    for a token that starts no scalar atom; it returns a value, or None to
    let the parser report the token.  ``combine(op, a, b)`` applies a binary
    operator, including ``^`` after a non-scalar; it raises ExprError with
    a message when the operands do not combine, and the parser adds the
    operator's position.
    """

    def __init__(self, text: str, chart_names, symbols,
                 extra_atom=_no_extra_atom, combine=_scalar_combine):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.chart_names = tuple(chart_names)
        self.symbols = tuple(symbols)
        self.extra_atom = extra_atom
        self.combine = combine

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError("trailing input after expression", self.text, tok[2])
        return e

    def apply(self, tok, a, b):
        try:
            return self.combine(tok[1], a, b)
        except ZeroDenominator:
            raise ParseError("division by zero", self.text, tok[2]) from None
        except ExprError as exc:
            raise ParseError(str(exc), self.text, tok[2]) from None

    def expr(self):
        e = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.next()
                e = self.apply(tok, e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.next()
                e = self.apply(tok, e, self.factor())
            else:
                return e

    def factor(self):
        sign = 1
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.next()
                if tok[1] == "-":
                    sign = -sign
            else:
                break
        e = self.power()
        return e if sign > 0 else -e

    def power(self):
        e = self.atom()
        while True:
            tok = self.peek()
            if not (tok and tok[0] == "op" and tok[1] == "^"):
                return e
            self.next()
            if not isinstance(e, Expr):
                e = self.apply(tok, e, self.atom())
                continue
            neg = False
            t = self.next()
            if t[0] == "op" and t[1] == "-":
                neg = True
                t = self.next()
            if t[0] != "int":
                raise ParseError("exponent must be an integer literal", self.text, t[2])
            n = int(t[1])
            try:
                return e ** (-n if neg else n)
            except ZeroDenominator:
                raise ParseError("zero raised to a negative power", self.text, t[2]) from None

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return Rat(int(value))
        if kind == "name":
            try:
                return resolve_name(value, self.chart_names, self.symbols)
            except KeyError as exc:
                e = self.extra_atom(self, tok)
                if e is None:
                    # resolve_name's KeyError carries the bare name, or why
                    # the name's jet suffix could not be read
                    detail = exc.args[0]
                    message = f"unknown identifier {detail!r}" if detail == value else detail
                    raise UnknownIdentifier(message, self.text, pos) from None
                return e
        if kind == "op" and value == "(":
            e = self.expr()
            tok = self.next()
            if tok[0] != "op" or tok[1] != ")":
                raise ParseError("expected ')'", self.text, tok[2])
            return e
        e = self.extra_atom(self, tok)
        if e is None:
            raise ParseError(f"unexpected token {value!r}", self.text, pos)
        return e


def parse_expr(text: str, chart_names, symbols=()) -> Expr:
    """Parse a scalar expression over the given coordinate names and symbols."""
    return _Parser(text, chart_names, symbols).parse()


# ---------------------------------------------------------------------------
# calculus on scalars


def diff(e: Expr, var: str) -> Expr:
    """Partial derivative with respect to a coordinate name.

    Jets of opaque symbols differentiate by bumping the multi-index.  A tree
    or subtree whose `coordinates` leave out var is ZERO, unwalked."""
    if not isinstance(e, Expr):
        raise TypeError(f"cannot differentiate {e!r}")
    if var not in coordinates(e):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, JetVar):
        return e.bump(var)
    if isinstance(e, Add):
        return _make_add(*(diff(t, var) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = diff(f, var)
            if isinstance(df, Rat) and df.value == 0:
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            terms.append(_make_mul(df, *rest))
        return _make_add(*terms) if terms else ZERO
    # a Pow: the one node left that has coordinates
    db = diff(e.base, var)
    if isinstance(db, Rat) and db.value == 0:
        return ZERO
    return _make_mul(Rat(e.exponent), _make_pow(e.base, e.exponent - 1), db)


def directional(components, chart_names, f: Expr) -> Expr:
    """Derivative of f along a vector with the given components.

    Components pair with chart_names in order.  f is differentiated only
    along the names in its `coordinates` whose component is not the literal
    0, and a constant f is ZERO at once: every other term is ZERO anyway.
    """
    deps = coordinates(f)
    if not deps:
        return ZERO
    return _make_add(*(
        _make_mul(c, diff(f, name))
        for c, name in zip(components, chart_names)
        if name in deps and not (isinstance(c, Rat) and c.value == 0)
    ))


def normalize(e: Expr) -> NormalForm:
    """Canonical reduced numerator/denominator pair for the expression."""
    return as_expr(e).normal()


def _cached_tree(nf: NormalForm) -> Expr:
    """nf's canonical tree, built by nf.as_expr() once and kept on nf.

    nf is cached on the new tree unless the tree has a cache already.
    """
    out = nf._tree
    if out is None:
        out = nf._tree = nf.as_expr()
        if out._nf is None:
            out._nf = nf
    return out


def compact(e: Expr) -> Expr:
    """The tree rebuilt from e's normal form, which it keeps as its cache.

    The form keeps the tree in turn, so compacting a compacted tree, or
    any tree with the same form object, hands back the same tree.
    """
    return _cached_tree(as_expr(e).normal())


def dot(xs, ys) -> Expr:
    """compact(sum of x*y over paired entries), summed on normal forms.

    Each operand is a dense sequence or a sparse vector: a dict from index
    to each entry that is not the literal 0, in ascending index order, where
    a missing index reads as 0.  Entries pair by index and only the indices
    both operands hold are walked; the products are summed in ascending
    index order, so a sparse operand gives the sum its dense copy gives.  A
    pair whose x is zero is skipped before its y is normalized, and so is a
    pair whose y is zero with no atom table.  A zero y that carries atoms is
    still multiplied, so its atoms are checked against x's.
    """
    if isinstance(xs, dict):
        if not isinstance(ys, dict):
            pairs = ((x, ys[k]) for k, x in xs.items())
        elif len(xs) <= len(ys):
            pairs = ((x, ys[k]) for k, x in xs.items() if k in ys)
        else:
            pairs = ((xs[k], y) for k, y in ys.items() if k in xs)
    elif isinstance(ys, dict):
        pairs = ((xs[k], y) for k, y in ys.items())
    else:
        pairs = zip(xs, ys)
    total = None
    for x, y in pairs:
        a = as_expr(x).normal()
        if a.is_zero:
            continue
        b = as_expr(y).normal()
        if b.is_zero and not b.atoms:
            continue
        term = a.mul(b)
        total = term if total is None else total.add(term)
    return ZERO if total is None else _cached_tree(total)


def coordinates(e: Expr) -> frozenset:
    """The coordinate names e depends on: each Var's name and each jet's
    dependencies.  diff(e, v) is the literal 0 for every other name v.
    Each node computes its set once, from its children's, and keeps it."""
    e = as_expr(e)
    try:
        return e._coords
    except AttributeError:
        e._coords = e._coordinates()
        return e._coords


def _union(nodes) -> frozenset:
    """The union of the nodes' coordinates: the widest node's own set if it holds the rest."""
    sets = [coordinates(node) for node in nodes]
    widest = max(sets, key=len)
    return widest if all(s <= widest for s in sets) else widest.union(*sets)


_DEFAULT_CHECK_SEED = 97131
_check_seed_value = _DEFAULT_CHECK_SEED
_check_rng = random.Random(_DEFAULT_CHECK_SEED)


def set_check_seed(seed: int):
    """Reseed the random-point cross-check used by equal_zero."""
    global _check_rng, _check_seed_value
    _check_seed_value = int(seed)
    _check_rng = random.Random(_check_seed_value)


def check_seed() -> int:
    """The seed currently driving the random-point cross-check."""
    return _check_seed_value


@contextlib.contextmanager
def check_stream(label: str):
    """Within the block, draw cross-check points from a stream of their own.

    The stream is derived from (check seed, label), so the points drawn in
    the block do not depend on what was drawn before it.  The check seed is
    unchanged, and the outer stream resumes where it was after the block.
    """
    global _check_rng
    outer = _check_rng
    _check_rng = random.Random(f"{_check_seed_value}/{label}")
    try:
        yield
    finally:
        _check_rng = outer


def kept(owner, key, build):
    """The value `owner` keeps for `key` in this check stream, else `build()`.

    An owner keeps one value in its `_kept` slot, with the key it was built
    for and the check stream it was built in: a validation draws its points
    from that stream, so the value is reused only for the same key in the
    same stream.  Otherwise `build()` makes a value, which replaces the kept
    one.
    """
    stamp = key, _check_rng
    if owner._kept is None or owner._kept[0] != stamp:
        owner._kept = stamp, build()
    return owner._kept[1]


# the random points at which equal_zero evaluates a tree
_CHECK_POINTS = 20


def _draw_points(names, rng, spread, count):
    """`count` random rational points, each as (numerator, denominator) per name.

    The integers are those of ``rng.randint(-spread, spread),
    rng.randint(1, 7)`` per name and point, and rng ends in the same state:
    this is randint's own rejection loop on getrandbits, without its calls.
    """
    n = 2 * spread + 1
    k = n.bit_length()
    bits = rng.getrandbits
    points = []
    for _ in range(count):
        point = []
        for _ in names:
            a = bits(k)
            while a >= n:
                a = bits(k)
            d = bits(3)
            while d >= 7:
                d = bits(3)
            point.append((a - spread, d + 1))
        points.append(point)
    return points


def _lanes(names, points):
    """The residues of the points' coordinates, as one list per name."""
    return {
        name: [a * _INVERSES[d] % _P for a, d in column]
        for name, column in zip(names, zip(*points))
    }


def equal_zero(e: Expr) -> bool:
    """Decide whether the expression is identically zero.

    A literal (a plain `Rat`) is its value's verdict: it draws no point and
    builds no normal form, as its one exact evaluation below would draw none.
    Any other verdict comes from the normal form; it is then cross-checked by
    evaluating the original tree -- never the normal form -- at
    `_CHECK_POINTS` random rational points that avoid denominator zeros (a
    constant tree is evaluated once, exactly).  This is a Schwartz-Zippel
    identity test.
    At each point the tree is first evaluated modulo the prime 2^61 - 1;
    a residue that agrees with the verdict is accepted.  Exact ``Fraction``
    evaluation at the same point decides when the residue disagrees, or
    when a denominator (of a power or of a constant) vanishes modulo the
    prime, so the points drawn, the resampling after a true zero
    denominator and every message are those of exact evaluation alone.
    Disagreement raises CrossCheckError, since it would mean the normalizer
    itself is wrong.

    A zero verdict on a tree with atoms first takes one walk: it draws all
    `_CHECK_POINTS` points and evaluates the tree at all of them at once.
    When every residue is 0 those are the points the loop below would have
    drawn and accepted, so the verdict stands.  Otherwise the stream is
    restored to its state before the draws and the loop decides, point by
    point, as if the walk had not been made.
    """
    e = as_expr(e)
    if e.__class__ is Rat:
        return e.value == 0
    verdict = e.normal().is_zero
    names = sorted(e.atoms())
    rng = _check_rng
    spread = 12
    if verdict and names:
        state = rng.getstate()
        points = _draw_points(names, rng, spread, _CHECK_POINTS)
        try:
            if not any(e._mod(_lanes(names, points))):
                return True
        except _ModZero:
            pass
        rng.setstate(state)
    checked = 0
    saw_nonzero = False
    attempts = 0
    exact = None
    while checked < _CHECK_POINTS and attempts < 40 * _CHECK_POINTS:
        attempts += 1
        draws = _draw_points(names, rng, spread, 1)[0]
        if names:
            try:
                residue, = e._mod(_lanes(names, [draws]))
            except _ModZero:
                residue = None
            if residue is not None and (residue == 0) == verdict:
                checked += 1
                if residue:
                    saw_nonzero = True
                    break
                continue
        env = {name: Fraction(a, d) for name, (a, d) in zip(names, draws)}
        if exact is None:
            exact = e._compile(tuple(names), Fraction)
        try:
            value = exact(tuple(env.values()))
        except ZeroDenominator:
            spread += 1
            continue
        # A tree without atoms draws no point, so its one value stands for
        # all `_CHECK_POINTS` evaluations.
        checked += 1 if names else _CHECK_POINTS
        if value != 0:
            saw_nonzero = True
            if verdict:
                raise CrossCheckError(
                    f"normal form claims zero but {e} evaluates to {value} at {env}"
                )
            break
    if checked == 0:
        raise RuntimeError(f"could not sample an evaluation point for {e}")
    if not verdict and not saw_nonzero and checked >= _CHECK_POINTS:
        # Vanishing at many random rational points while the normal form is
        # nonzero would indicate a normalizer defect.
        raise CrossCheckError(
            f"normal form claims nonzero but {e} vanished at {checked} random points"
        )
    return verdict


def is_zero(e: Expr) -> bool:
    """Fast zero test through the normal form only (no random cross-check)."""
    return as_expr(e).normal().is_zero


def eval_num(e: Expr, assignment: dict) -> Fraction:
    """Exact evaluation at a rational point.

    The assignment maps variable names (coordinates and jet names such as
    ``h_x``) to ints or Fractions.  Every value is converted to a Fraction,
    whether the tree reads it or not, as ``eval_float`` converts every
    value to a float.  Missing assignments raise EvalError; division by
    zero at the point raises ZeroDenominator.
    """
    f = as_expr(e)._compile(tuple(assignment), Fraction)
    return f(tuple(map(Fraction, assignment.values())))


def compile_float(e: Expr, names):
    """The tree as a function of a tuple of floats, one per name in `names`.

    A sum is Python's ``sum`` of its terms, a product starts at 1.0 and
    multiplies left to right.  A pole (ZeroDenominator), a constant beyond
    the float range (OverflowError) or a name outside `names` (EvalError)
    raises when the function is called, not when it is built.
    """
    return as_expr(e)._compile(tuple(names), float)


def eval_float(e: Expr, assignment: dict) -> float:
    """Floating-point evaluation: ``compile_float`` at the values, as floats."""
    return compile_float(e, assignment)(tuple(map(float, assignment.values())))


def substitute(e: Expr, mapping: dict) -> Expr:
    """Simultaneous substitution of coordinate names by expressions.

    Substituting into a jet is only possible when every dependency of its
    symbol is either left alone or replaced by itself; anything else would
    require representing the composite of an opaque function, which this
    representation cannot do (CompositionError).
    """
    mapping = {name: as_expr(v) for name, v in mapping.items()}

    def leaf(node):
        if isinstance(node, Var):
            return mapping.get(node.name, node)
        for dep in node.symbol.deps:
            if dep in mapping:
                target = mapping[dep]
                if not (isinstance(target, Var) and target.name == dep):
                    raise CompositionError(
                        f"cannot substitute {dep!r} inside opaque symbol "
                        f"{node.symbol.name!r}: composites of opaque functions "
                        "are not representable"
                    )
        return node

    return _rebuild(e, leaf)


def bind_symbol(e: Expr, symbol: OpaqueSymbol, value: Expr) -> Expr:
    """Replace every jet of `symbol` by the matching derivative of `value`.

    `value` must not itself contain opaque symbols.
    """
    value = as_expr(value)
    if value.jet_atoms():
        raise CompositionError("binding value must be free of opaque symbols")

    def deriv(orders):
        out = value
        for dep, order in zip(symbol.deps, orders):
            for _ in range(order):
                out = diff(out, dep)
        return out

    def leaf(node):
        if isinstance(node, JetVar) and node.symbol == symbol:
            return deriv(node.orders)
        return node

    return _rebuild(e, leaf)
