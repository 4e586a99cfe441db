"""Vector fields, differential forms, and smooth maps on coordinate charts.

Conventions fixed throughout the package:

* A k-form stores one coefficient per strictly increasing index tuple.
* The wedge of 1-forms follows the determinant convention without 1/k!
  factors: ``(a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)``.
* Every smooth map is proved: it carries explicit inverse components,
  and construction proves the round trips to the identity and a
  nonvanishing Jacobian determinant.  Its inverse, a composite and a lift
  are built from proved maps, whose facts they follow from, so they are
  not proved again (a lift proves only its fiber round trips).

Linear algebra is exact, over the rational-function field.  Square
routines (determinants, solves, inverses) go block by block over the
matrix's block-triangular form; a block larger than one row (two, for a
determinant) goes to the one forward-elimination kernel, which updates
rows with `NormalForm` arithmetic and never scales a pivot row, and to
back substitution.  Rank and span tests eliminate the whole field matrix.
A frame that is singular only on a measure-zero set is usable away from
it, with its determinant showing up in denominators.

A `FrameBasis` caches a full frame's matrix, inverse and structure
functions; those functions, and a connection and its curvature, are
sparse `FrameTable`s holding only their nonzero entries.
"""

from __future__ import annotations

from .symexpr import (
    Expr,
    NormalForm,
    Rat,
    Var,
    ZERO,
    ONE,
    _cached_tree,
    as_expr,
    compact,
    diff,
    directional,
    dot,
    equal_zero,
    is_zero,
    resolve_name,
    substitute,
)

__all__ = [
    "CalculusError",
    "ChartMismatch",
    "DegreeError",
    "SingularFrame",
    "Chart",
    "VectorField",
    "KForm",
    "SmoothMap",
    "coordinate_frame",
    "zero_field",
    "basis_form",
    "d_coord",
    "form_from_matrix",
    "lie_bracket",
    "wedge",
    "exterior_d",
    "interior_product",
    "lie_derivative_form",
    "pushforward_field",
    "pullback_form",
    "span_membership",
    "membership_detail",
    "FrameTable",
    "FrameBasis",
    "frame_rank_full",
    "component_matrix",
    "sparse_rows",
    "sym_det",
    "sym_solve",
    "sym_inverse",
]


class CalculusError(Exception):
    pass


class ChartMismatch(CalculusError):
    pass


class DegreeError(CalculusError):
    pass


class SingularFrame(CalculusError):
    pass


class Chart:
    """An ordered tuple of coordinate names plus the opaque symbols in scope;
    no coordinate may hide a symbol or one of its jets by taking its name."""

    __slots__ = ("names", "symbols")

    def __init__(self, names, symbols=()):
        self.names = tuple(names)
        self.symbols = tuple(symbols)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate coordinate names in {self.names}")
        for sym in self.symbols:
            for dep in sym.deps:
                if dep not in self.names:
                    raise ValueError(f"symbol {sym.name!r} depends on {dep!r}, "
                                     "which is not a chart coordinate")
        for name in self.names:
            try:
                jet = resolve_name(name, (), self.symbols)
            except KeyError:
                continue
            kind = "symbol" if jet.name == jet.symbol.name else "a jet of symbol"
            raise ValueError(f"coordinate {name!r} is also the name of {kind} {jet.symbol.name!r}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def coord(self, i: int) -> Expr:
        return Var(self.names[i])

    def coords(self):
        return tuple(Var(n) for n in self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def extend(self, extra_names) -> "Chart":
        return Chart(self.names + tuple(extra_names), self.symbols)

    def __eq__(self, other):
        return isinstance(other, Chart) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Chart{self.names}"


def _require_same_chart(*objs):
    charts = {o.chart.names for o in objs}
    if len(charts) > 1:
        raise ChartMismatch(f"objects live on different charts: {sorted(charts)}")


def _literal_zero(c) -> bool:
    return c.__class__ is Rat and c.value == 0


class VectorField:
    """A vector field written in the coordinate frame of its chart.

    Only the components that are not the literal rational 0 are stored:
    `entries` maps each such index to its component, in ascending index
    order, and a missing index reads as ZERO.  A component that is zero only
    after normalization, such as x - x, is kept.  The constructor takes all
    chart.dim components, and `components` is that dense tuple again;
    `from_entries` builds a field from its nonzero components alone.
    Operations walk the stored components in ascending index order, so each
    builds the tree the dense loop over every index builds.
    """

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, components):
        # one pass with the zero test inline: dim-2 fields are built by
        # the thousand, and this keeps them as cheap as a dense tuple
        entries = {}
        n = 0
        for c in components:
            if not isinstance(c, Expr):
                c = as_expr(c)
            if c.__class__ is not Rat or c.value:
                entries[n] = c
            n += 1
        if n != chart.dim:
            raise ValueError(f"expected {chart.dim} components, got {n}")
        self.chart = chart
        self.entries = entries

    @classmethod
    def from_entries(cls, chart: Chart, entries) -> "VectorField":
        """The field with the given (index, component) pairs, which come in
        ascending index order; literal zeros among them are dropped."""
        field = object.__new__(cls)
        field.chart = chart
        field.entries = {i: c for i, c in entries if c.__class__ is not Rat or c.value}
        return field

    def component(self, i: int) -> Expr:
        return self.entries.get(i, ZERO)

    @property
    def components(self) -> tuple:
        """All chart.dim components, ZERO at each index not stored."""
        return tuple(self.entries.get(i, ZERO) for i in range(self.chart.dim))

    def _combine(self, other: "VectorField", op) -> "VectorField":
        _require_same_chart(self, other)
        a, b = self.entries, other.entries
        return VectorField.from_entries(self.chart, (
            (i, op(a.get(i, ZERO), b.get(i, ZERO))) for i in sorted(a.keys() | b.keys())
        ))

    def __add__(self, other: "VectorField") -> "VectorField":
        return self._combine(other, Expr.__add__)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self._combine(other, Expr.__sub__)

    def __neg__(self) -> "VectorField":
        return VectorField.from_entries(self.chart, ((i, -c) for i, c in self.entries.items()))

    def scale(self, f) -> "VectorField":
        f = as_expr(f)
        return VectorField.from_entries(self.chart, ((i, f * c) for i, c in self.entries.items()))

    def __rmul__(self, f):
        return self.scale(f)

    def _derivation(self):
        """The stored components and their coordinate names, for directional."""
        names = self.chart.names
        return list(self.entries.values()), [names[i] for i in self.entries]

    def apply(self, f: Expr) -> Expr:
        """Directional derivative of a scalar."""
        return directional(*self._derivation(), f)

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.entries.values())

    def __str__(self):
        names = self.chart.names
        parts = [f"({c})*@{names[i]}" for i, c in self.entries.items() if not is_zero(c)]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def zero_field(chart: Chart) -> VectorField:
    return VectorField.from_entries(chart, ())


def coordinate_frame(chart: Chart):
    """The tuple of coordinate vector fields."""
    return tuple(VectorField.from_entries(chart, ((i, ONE),)) for i in range(chart.dim))


def sparse_rows(matrix) -> list:
    """Each row as a dict of its entries that are not the literal 0, by column."""
    return [{j: e for j, e in enumerate(row) if not _literal_zero(e)} for row in matrix]


def component_matrix(fields) -> list:
    """The dense matrix, as fresh row lists, whose column j holds the
    components of fields[j]."""
    m = fields[0].chart.dim
    return [[f.entries.get(i, ZERO) for f in fields] for i in range(m)]


class KForm:
    """Differential k-form; coefficients indexed by increasing index tuples."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: dict):
        # degrees above the chart dimension are allowed; such forms are
        # necessarily zero since no strictly increasing index tuple exists
        if degree < 0:
            raise DegreeError(f"negative form degree {degree}")
        self.chart = chart
        self.degree = degree
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeError(f"index {idx} has wrong length for degree {degree}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValueError(f"index {idx} is not strictly increasing")
            if any(j < 0 or j >= chart.dim for j in idx):
                raise ValueError(f"index {idx} out of chart range")
            c = as_expr(c)
            if _literal_zero(c):
                continue
            clean[idx] = c
        self.coeffs = clean

    def coefficient(self, idx) -> Expr:
        """Fully antisymmetric coefficient for an arbitrary index tuple."""
        idx = tuple(idx)
        if len(set(idx)) != len(idx):
            return ZERO
        order = tuple(sorted(idx))
        sign = _perm_sign_to_sorted(idx)
        base = self.coeffs.get(order, ZERO)
        return base if sign == 1 else -base

    def __add__(self, other: "KForm") -> "KForm":
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, ZERO) + c
        return KForm(self.chart, self.degree, coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(-1)

    def __neg__(self) -> "KForm":
        return self.scale(-1)

    def scale(self, f) -> "KForm":
        f = as_expr(f)
        return KForm(self.chart, self.degree, {i: f * c for i, c in self.coeffs.items()})

    def __rmul__(self, f):
        return self.scale(f)

    def __call__(self, *fields: VectorField) -> Expr:
        """Evaluate on k vector fields (determinant convention)."""
        if len(fields) != self.degree:
            raise DegreeError(
                f"degree-{self.degree} form applied to {len(fields)} fields"
            )
        if self.degree == 0:
            return self.coeffs.get((), ZERO)
        _require_same_chart(self, *fields)
        # a minor with a row no field holds has the literal determinant 0
        held = set().union(*(f.entries for f in fields))
        total = ZERO
        for idx, c in self.coeffs.items():
            if held.issuperset(idx):
                minor = [[f.entries.get(i, ZERO) for f in fields] for i in idx]
                total = total + c * _small_det(minor)
        return total

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coeffs.values())

    def matrix(self):
        """For a 2-form: the full antisymmetric coefficient matrix."""
        if self.degree != 2:
            raise DegreeError("matrix() requires a 2-form")
        m, c = self.chart.dim, self.coeffs
        return tuple(tuple(ZERO if a == b else c.get((a, b), ZERO) if a < b
                           else -c.get((b, a), ZERO) for b in range(m)) for a in range(m))

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = self.chart.names
        parts = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            basis = "^".join(f"d{names[i]}" for i in idx) or "1"
            parts.append(f"({c})*{basis}" if idx else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__


def basis_form(chart: Chart, idx) -> KForm:
    """The basis form dx_{i1} ^ ... ^ dx_{ik} for an increasing index tuple."""
    return KForm(chart, len(tuple(idx)), {tuple(idx): ONE})


def d_coord(chart: Chart, i: int) -> KForm:
    return KForm(chart, 1, {(i,): ONE})


def form_from_matrix(chart: Chart, mat) -> KForm:
    """Build a 2-form from an antisymmetric coefficient matrix."""
    coeffs = {}
    m = chart.dim
    for a in range(m):
        for b in range(a + 1, m):
            coeffs[(a, b)] = as_expr(mat[a][b])
    return KForm(chart, 2, coeffs)


def _perm_sign_to_sorted(idx) -> int:
    sign = 1
    idx = list(idx)
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign


def _small_det(rows) -> Expr:
    """Determinant by cofactor expansion; fine for the k x k minors of forms."""
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = ZERO
    for j in range(n):
        entry = rows[0][j]
        if _literal_zero(entry):
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * _small_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


# ---------------------------------------------------------------------------
# operations


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^j = X(Y^j) - Y(X^j).

    Only the indices j where X^j or Y^j is not a constant are formed, in
    ascending order; at every other index both derivatives are 0.
    """
    _require_same_chart(x, y)
    xe, ye = x.entries, y.entries
    support = sorted({j for e in (xe, ye) for j, c in e.items() if not isinstance(c, Rat)})
    along_x, along_y = x._derivation(), y._derivation()
    return VectorField.from_entries(x.chart, (
        (j, directional(*along_x, ye.get(j, ZERO)) - directional(*along_y, xe.get(j, ZERO)))
        for j in support
    ))


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product under the determinant convention (no 1/k! factors)."""
    _require_same_chart(a, b)
    p, q = a.degree, b.degree
    coeffs: dict = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            if set(ia) & set(ib):
                continue
            merged = ia + ib
            sign = _perm_sign_to_sorted(merged)
            key = tuple(sorted(merged))
            term = ca * cb if sign == 1 else -(ca * cb)
            coeffs[key] = coeffs.get(key, ZERO) + term
    return KForm(a.chart, p + q, coeffs)


def exterior_d(a: KForm) -> KForm:
    """Exterior derivative.

    Each coefficient is differentiated along each coordinate not in its
    index, in ascending order; `diff` gives the literal 0, unwalked, along
    the coordinates the coefficient does not depend on.
    """
    chart = a.chart
    coeffs: dict = {}
    for idx, c in a.coeffs.items():
        for j, name in enumerate(chart.names):
            if j in idx:
                continue
            dc = diff(c, name)
            if is_zero(dc):
                continue
            pos = sum(1 for i in idx if i < j)
            new_idx = tuple(sorted(idx + (j,)))
            term = dc if pos % 2 == 0 else -dc
            coeffs[new_idx] = coeffs.get(new_idx, ZERO) + term
    return KForm(chart, a.degree + 1, coeffs)


def interior_product(x: VectorField, a: KForm) -> KForm:
    """Contraction i_X a in the first slot; degree 0 input is an error."""
    _require_same_chart(x, a)
    if a.degree == 0:
        raise DegreeError("interior product with a 0-form")
    held = x.entries
    coeffs: dict = {}
    for idx, c in a.coeffs.items():
        for r, i in enumerate(idx):
            key = idx[:r] + idx[r + 1:]
            if i not in held:
                # the product is 0: the key still takes its place in order
                coeffs.setdefault(key, ZERO)
                continue
            term = c * held[i]
            if r % 2 == 1:
                term = -term
            coeffs[key] = coeffs.get(key, ZERO) + term
    return KForm(a.chart, a.degree - 1, coeffs)


def lie_derivative_form(x: VectorField, a: KForm) -> KForm:
    """Lie derivative via the Cartan formula L_X = i_X d + d i_X."""
    _require_same_chart(x, a)
    if a.degree == 0:
        return KForm(a.chart, 0, {(): x.apply(a.coeffs.get((), ZERO))})
    part1 = interior_product(x, exterior_d(a))
    part2 = exterior_d(interior_product(x, a))
    return part1 + part2


class SmoothMap:
    """A chart-to-chart map with declared inverse components.

    Construction proves the map: both composites reduce to the identity
    coordinate tuple, and the Jacobian determinant is not identically zero.
    Maps built from proved maps -- an inverse, a composite, a lift -- go
    through `_derived`, which proves nothing: the round trips prove both
    directions, and a composite's round trips are its factors' composed.
    A lift proves its fiber round trips itself (see `lift.lift_map`).
    """

    __slots__ = ("source", "target", "components", "inverse_components", "_jac", "_inv")

    def __init__(self, source: Chart, target: Chart, components, inverse_components):
        self._fill(source, target, components, inverse_components)
        self._prove_round_trips(0)
        if is_zero(sym_det(self.jacobian())):
            raise CalculusError("Jacobian determinant is identically zero")

    @classmethod
    def _derived(cls, source: Chart, target: Chart, components, inverse_components):
        """A map whose facts follow from those of proved maps, built without proof."""
        psi = cls.__new__(cls)
        psi._fill(source, target, components, inverse_components)
        return psi

    def _fill(self, source, target, components, inverse_components):
        self.source = source
        self.target = target
        self.components = tuple(as_expr(c) for c in components)
        self.inverse_components = tuple(as_expr(c) for c in inverse_components)
        self._jac = self._inv = None
        if source.dim != target.dim:
            raise ValueError("a map with a declared inverse needs equal chart dimensions")
        if len(self.components) != target.dim:
            raise ValueError("component count does not match target dimension")
        if len(self.inverse_components) != source.dim:
            raise ValueError("inverse component count does not match source dimension")

    def _prove_round_trips(self, start: int):
        """Both composites give back every coordinate from index `start` on;
        CalculusError names the first that does not."""
        # components are functions of the source names, inverse components
        # of the target names; compose in both orders and demand identity
        for names, comps, round_trip, what in (
            (self.source.names, self.inverse_components, self.pull_scalar,
             "inverse components do not invert the map"),
            (self.target.names, self.components, self.push_scalar,
             "forward components do not invert the inverse"),
        ):
            for name, c in zip(names[start:], comps[start:]):
                back = round_trip(c)
                if not equal_zero(back - Var(name)):
                    raise CalculusError(f"{what}: coordinate {name!r} round-trips to {back}")

    def jacobian(self):
        """J[i][j] = d(components[i]) / d(source coordinate j)."""
        if self._jac is None:
            self._jac = tuple(
                tuple(diff(c, n) for n in self.source.names)
                for c in self.components
            )
        return self._jac

    def inverse(self) -> "SmoothMap":
        """The inverse map, built once; its own inverse is this map."""
        if self._inv is None:
            self._inv = SmoothMap._derived(self.target, self.source, self.inverse_components,
                                           self.components)
            self._inv._inv = self
        return self._inv

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        """self after inner (= self . inner)."""
        if inner.target.names != self.source.names:
            raise ChartMismatch("composition charts do not line up")
        comps = tuple(inner.pull_scalar(c) for c in self.components)
        inv_comps = tuple(self.push_scalar(c) for c in inner.inverse_components)
        return SmoothMap._derived(inner.source, self.target, comps, inv_comps)

    def push_scalar(self, f: Expr) -> Expr:
        """f . inverse, expressed in target coordinates."""
        sub = {n: c for n, c in zip(self.source.names, self.inverse_components)}
        return substitute(f, sub)

    def pull_scalar(self, f: Expr) -> Expr:
        """f . self, expressed in source coordinates."""
        sub = {n: c for n, c in zip(self.target.names, self.components)}
        return substitute(f, sub)

    def __repr__(self):
        comps = ", ".join(str(c) for c in self.components)
        return f"SmoothMap({self.source.names} -> {self.target.names}: {comps})"


def pushforward_field(psi: SmoothMap, x: VectorField) -> VectorField:
    """(psi_* X)^j = (J_psi X)^j . psi^{-1} in target coordinates."""
    if x.chart.names != psi.source.names:
        raise ChartMismatch("field does not live on the source chart")
    jac = psi.jacobian()
    pushed = []
    for i in range(psi.target.dim):
        total = ZERO
        for j, c in x.entries.items():
            total = total + jac[i][j] * c
        pushed.append(psi.push_scalar(total))
    return VectorField(psi.target, pushed)


def pullback_form(psi: SmoothMap, a: KForm) -> KForm:
    """psi^* a on the source chart."""
    if a.chart.names != psi.target.names:
        raise ChartMismatch("form does not live on the target chart")
    source = psi.source
    if a.degree == 0:
        return KForm(source, 0, {(): psi.pull_scalar(a.coeffs.get((), ZERO))})
    # d(psi^j) as 1-forms on the source: row j of the Jacobian
    d_comps = [KForm(source, 1, {(i,): dc for i, dc in enumerate(row) if not is_zero(dc)})
               for row in psi.jacobian()]
    result = KForm(source, a.degree, {})
    for idx, c in a.coeffs.items():
        block = d_comps[idx[0]]
        for i in idx[1:]:
            block = wedge(block, d_comps[i])
        result = result + block.scale(psi.pull_scalar(c))
    return result


# ---------------------------------------------------------------------------
# symbolic linear algebra


_ZERO_FORM = ZERO.normal()


def _entry_form(e) -> NormalForm:
    """The normal form of a matrix entry: a tree's own, or the form itself."""
    return e if e.__class__ is NormalForm else e.normal()


def _entry_tree(e) -> Expr:
    """The tree of a matrix entry: the input tree while elimination has not
    touched it, else the canonical tree of its form."""
    return e if e.__class__ is not NormalForm else _cached_tree(e)


def _eliminate(rows, ncols):
    """Forward elimination in place over the first `ncols` columns.

    Columns past `ncols` are augmented and ride along.  The rows not yet
    used as pivots are scanned in original row order; a pivot row leaves
    the scan, and no row moves.  A column's pivot is the first nonzero
    rational constant in scan order (an entry whose tree is a `Rat`:
    `(x + 1) - x` is not one while untouched), otherwise the first nonzero
    entry; a column without one is skipped.  Each row nonzero in the pivot
    column is eliminated with one multiplier, row[col] / pivot: its
    pivot-column entry becomes 0, every later entry its normal form, and,
    where the pivot row's entry p is nonzero, the form of entry -
    multiplier * p.  The pivot row is never scaled.  Every update is
    `NormalForm` arithmetic; each entry's form is taken at most once, and
    the rows hold each touched entry as its form, which `_entry_form` and
    `_entry_tree` read.  Square routines return canonical trees of their
    values, so which rows pivot shows only in a failed span test: its
    witness, and the zero-test draws of its residuals.

    Returns the pivots as (column, row, pivot form) in column order, and the
    unused rows in original order.
    """
    width = len(rows[0]) if rows else 0
    unused = list(range(len(rows)))
    pivots = []
    for col in range(ncols):
        found = None
        for q, i in enumerate(unused):
            entry = rows[i][col]
            if _entry_form(entry).is_zero:
                continue
            if entry.is_const() if entry.__class__ is NormalForm else entry.is_rational_const():
                found = q
                break
            if found is None:
                found = q
        if found is None:
            continue
        pivot_row = unused.pop(found)
        prow = rows[pivot_row]
        pivot = _entry_form(prow[col])
        pivots.append((col, pivot_row, pivot))
        tail = [(c, p) for c in range(col + 1, width)
                if not (p := _entry_form(prow[c])).is_zero]
        neg_inv = pivot.inv().neg()
        for i in unused:
            row = rows[i]
            factor = _entry_form(row[col])
            if factor.is_zero:
                continue
            m = factor.mul(neg_inv)  # minus the multiplier
            row[col:] = [_ZERO_FORM] + [_entry_form(e) for e in row[col + 1:]]
            for c, p in tail:
                row[c] = row[c].add(m.mul(p))
    return pivots, unused


def _back_substitute(rows, pivots, ncols):
    """Solve an eliminated system for every augmented column: each unknown
    is (augmented entry - the later unknowns times their row entries) /
    pivot, on normal forms.  Returns one list per unknown, by column, of
    the canonical trees of its values; unknowns without a pivot are 0."""
    naug = len(rows[0]) - ncols if rows else 0
    solution = [[_ZERO_FORM] * naug for _ in range(ncols)]
    for p in range(len(pivots) - 1, -1, -1):
        col, i, pivot = pivots[p]
        row = rows[i]
        later = [(c, f.neg()) for c, _, _ in pivots[p + 1:]
                 if not (f := _entry_form(row[c])).is_zero]
        inv = pivot.inv()
        for k in range(naug):
            total = _entry_form(row[ncols + k])
            for c, f in later:
                s = solution[c][k]
                if not s.is_zero:
                    total = total.add(f.mul(s))
            solution[col][k] = total.mul(inv)
    return [[_cached_tree(s) for s in values] for values in solution]


def _perfect_matching(pattern):
    """A column -> row matching that covers every row of the zero pattern
    (pattern[i] lists the columns where row i is nonzero, ascending), or
    None.  Each row in turn is matched along an augmenting path, found by a
    depth-first search kept on an explicit stack: a row on the path takes
    a free column of its own if it has one, else the path goes on through
    the row matched to its next column not yet visited in this search."""
    n = len(pattern)
    row_of = [-1] * n
    seen = [-1] * n  # the search that last visited each column
    for root in range(n):
        path, via, scan = [root], [], [0]  # via[k] joins path[k] to path[k + 1]
        free = next((c for c in pattern[root] if row_of[c] < 0), -1)
        while free < 0 and path:
            cols, k = pattern[path[-1]], scan[-1]
            while k < len(cols) and seen[cols[k]] == root:
                k += 1
            if k == len(cols):
                path.pop()
                scan.pop()
                if via:
                    via.pop()
                continue
            c = cols[k]
            seen[c] = root
            scan[-1] = k + 1
            row = row_of[c]
            via.append(c)
            path.append(row)
            scan.append(0)
            free = next((d for d in pattern[row] if row_of[d] < 0), -1)
        if free < 0:
            return None
        for r, c in zip(path, via + [free]):
            row_of[c] = r
    return row_of


def _diagonal_blocks(pattern, row_of):
    """The strongly connected components of the column graph, each as its
    ascending columns: column c points to each column d != c where c's
    matched row row_of[c] is nonzero.  Tarjan's algorithm, with the
    depth-first walk kept on an explicit stack; a column whose component is
    emitted gets index n, so no later edge lowers a low through it."""
    n = len(row_of)
    index, low = [-1] * n, [0] * n
    stack, blocks = [], []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        walk = [(root, 0)]
        while walk:
            v, k = walk[-1]
            succ = pattern[row_of[v]]
            if k < len(succ):
                walk[-1] = (v, k + 1)
                w = succ[k]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    walk.append((w, 0))
                elif index[w] < low[v]:
                    low[v] = index[w]
                continue
            walk.pop()
            if walk and low[v] < low[walk[-1][0]]:
                low[walk[-1][0]] = low[v]
            if low[v] == index[v]:
                block = []
                while True:
                    w = stack.pop()
                    index[w] = n
                    block.append(w)
                    if w == v:
                        break
                blocks.append(sorted(block))
    return blocks


def _block_det(rows) -> NormalForm:
    """Determinant of one diagonal block of forms: the entry or ad - bc for
    one or two rows, else the product of its elimination pivots, negated
    when their rows form an odd permutation."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a.mul(d).add(b.mul(c).neg())
    pivots, _ = _eliminate(rows, n)
    if len(pivots) < n:
        return _ZERO_FORM
    det = ONE.normal()
    for _, _, pivot in pivots:
        det = det.mul(pivot)
    return det.neg() if _perm_sign_to_sorted([i for _, i, _ in pivots]) == -1 else det


def _block_triangular(matrix):
    """The entries' forms, their zero pattern (pattern[i]: the columns where
    row i's form is nonzero, so y - y is zero) and the diagonal blocks as
    (rows, columns), both ascending, or None without a perfect matching.  A
    block is a strongly connected component of the column graph; in
    Tarjan's emission order its rows reach only its own and earlier columns."""
    forms = [[_entry_form(e) for e in r] for r in matrix]
    if any(len(r) != len(forms) for r in forms):
        raise ValueError("non-square matrix")
    pattern = [[c for c, f in enumerate(r) if not f.is_zero] for r in forms]
    row_of = _perfect_matching(pattern)
    return forms, pattern, None if row_of is None else [
        (sorted(row_of[c] for c in cols), cols) for cols in _diagonal_blocks(pattern, row_of)]


def sym_det(matrix) -> Expr:
    """Exact determinant, as the canonical tree of its value: 0 without a
    perfect matching (`_block_triangular`), else the product of the
    diagonal blocks' determinants (`_block_det`), negated when pairing each
    block's rows with its columns in order is an odd permutation.  Entries
    off the diagonal blocks are never touched, and both graph walks are
    iterative, so any size runs within the recursion limit."""
    forms, _, blocks = _block_triangular(matrix)
    if blocks is None:
        return ZERO
    det = ONE.normal()
    paired = [0] * len(forms)  # the row paired with each column
    for rows, cols in blocks:
        for r, c in zip(rows, cols):
            paired[c] = r
        value = _block_det([[forms[r][c] for c in cols] for r in rows])
        if value.is_zero:
            return ZERO
        det = det.mul(value)
    if _perm_sign_to_sorted(paired) == -1:
        det = det.neg()
    return _cached_tree(det)


def _block_solve(matrix, rhs):
    """Row c of X, a dict of its nonzero forms, for each unknown c of matrix
    X = B, where rhs[i] is row i of B as a dict of forms.  The blocks of
    `_block_triangular` are solved in order, each row's right-hand side less
    its terms in the unknowns already found: one row by one multiplication by
    its entry's inverse, more by `_eliminate` and `_back_substitute`.  No
    matching, or a block short of pivots, raises SingularFrame."""
    forms, pattern, blocks = _block_triangular(matrix)
    if blocks is None:
        raise SingularFrame("matrix determinant is identically zero")
    solution = [None] * len(forms)
    for rows, cols in blocks:
        reduced = [dict(rhs[r]) for r in rows]
        for r, acc in zip(rows, reduced):
            for d in pattern[r]:
                if solution[d]:  # an unknown already found, with a nonzero entry
                    f = forms[r][d].neg()
                    for k, x in solution[d].items():
                        acc[k] = acc[k].add(f.mul(x)) if k in acc else f.mul(x)
        if len(rows) == 1:
            inv = forms[rows[0]][cols[0]].inv()
            solution[cols[0]] = {k: v.mul(inv) for k, v in reduced[0].items() if not v.is_zero}
            continue
        ks = sorted(set().union(*reduced))
        block = [[forms[r][c] for c in cols] + [acc.get(k, _ZERO_FORM) for k in ks]
                 for r, acc in zip(rows, reduced)]
        pivots, _ = _eliminate(block, len(cols))
        if len(pivots) < len(cols):
            raise SingularFrame("matrix determinant is identically zero")
        for c, values in zip(cols, _back_substitute(block, pivots, len(cols))):
            solution[c] = {k: v.normal() for k, v in zip(ks, values) if not _literal_zero(v)}
    return solution


def sym_solve(matrix, rhs):
    """Solve a square system exactly, block by block (`_block_solve`).

    Raises SingularFrame when the matrix determinant is identically zero.
    Pivots that are singular only at points are fine symbolically: their
    reciprocals simply appear in the solution's denominators.
    """
    solution = _block_solve(matrix, [{0: _entry_form(b)} for b in rhs])
    return tuple(_cached_tree(x.get(0, _ZERO_FORM)) for x in solution)


def sym_inverse(matrix):
    """Exact matrix inverse, block by block (`_block_solve`)."""
    n = len(matrix)
    solution = _block_solve(matrix, [{i: ONE.normal()} for i in range(n)])
    return tuple(tuple(_cached_tree(x.get(k, _ZERO_FORM)) for k in range(n)) for x in solution)


def span_membership(xs, fields) -> tuple:
    """Is each x in xs in the pointwise span of the given fields?

    One verdict per x, in order: (True, coefficients) with a decomposition
    certificate, or (False, witness_component_index) naming an unmatchable
    component.  An x with no stored component is (True, r zeros) at once;
    the others are augmented columns of one exact elimination of the
    fields' whole component matrix.  Pivots come from the fields' columns
    only, so each verdict is the one a single-vector elimination gives: the
    witness is the first unused row, in original order, whose residual is
    nonzero.  Residuals are zero-tested x by x, each stopping at its
    witness, so the cross-check draws what one call per x would.  An empty
    xs gives ().
    """
    xs, fields = tuple(xs), tuple(fields)
    if not xs:
        return ()
    _require_same_chart(*xs, *fields)
    r = len(fields)
    verdicts = [(True, (ZERO,) * r)] * len(xs)
    held = [k for k, x in enumerate(xs) if x.entries]
    if held:
        rows = component_matrix(fields + tuple(xs[k] for k in held))
        pivots, unused = _eliminate(rows, r)
        witnesses = [next((i for i in unused if not equal_zero(_entry_tree(rows[i][r + q]))), None)
                     for q in range(len(held))]
        solution = _back_substitute(rows, pivots, r)
        for q, (k, w) in enumerate(zip(held, witnesses)):
            verdicts[k] = (True, tuple(c[q] for c in solution)) if w is None else (False, w)
    return tuple(verdicts)


def membership_detail(verdict, chart: Chart) -> str:
    """The text of one `span_membership` verdict: its coefficients, or the
    chart's name of its witness component."""
    ok, cert = verdict
    if ok:
        return "coefficients (" + ", ".join(str(c) for c in cert) + ")"
    return f"unmatched component {chart.names[cert]}"


def _dense(n, rank, entry, idx=()):
    """The table of nested tuples, `rank` deep over range(n), with entry(*idx) at idx."""
    if len(idx) == rank:
        return entry(*idx)
    return tuple(_dense(n, rank, entry, idx + (i,)) for i in range(n))


class FrameTable:
    """A sparse table of frame coefficients, `rank` indices deep: `entries`
    maps each index tuple whose entry has a nonzero normal form to that
    entry, in lexicographic order.  It is built from (index tuple, entry)
    pairs in any order.  The structure functions and a connection are
    rank-3 tables: c[i][j][k] is the k-th frame coefficient of [E_i, E_j],
    Gamma[i][j][k] that of nabla_{E_i} E_j.  A curvature table has rank 4,
    R[i][j][k][l] the l-th frame coefficient of R(E_i, E_j) E_k.
    """

    __slots__ = ("frame", "rank", "entries")

    def __init__(self, frame, rank: int, entries):
        self.frame = tuple(frame)
        self.rank = rank
        nonzero = [(idx, e) for idx, e in entries if not is_zero(e)]
        self.entries = {idx: as_expr(e) for idx, e in sorted(nonzero, key=lambda p: p[0])}

    def coefficient(self, *idx) -> Expr:
        """The entry at the given frame indices (0-based)."""
        return self.entries.get(idx, ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    @property
    def table(self):
        """A dense view: all n**rank slots rebuilt on each read (O(n^rank))."""
        return _dense(len(self.frame), self.rank, self.coefficient)


class FrameBasis:
    """A full frame with cached inverse matrix and structure functions.

    `inverse` keeps its rows sparse, as the fields do: each row is a dict
    from column index to each entry that is not the literal 0, in
    ascending column order.  A product of a row with a field sums
    over the indices both hold, in ascending order.  `known`, if given,
    maps pairs (i, j) with i < j to the frame coefficients of [E_i, E_j]
    already solved for, as a dict from k to c^k_{ij} that may leave out
    zeros; `structure` takes them instead of bracketing and decomposing
    those pairs, and then lets go of them.
    """

    __slots__ = ("chart", "fields", "_inverse", "_structure", "_known")

    def __init__(self, fields, known=None):
        self.fields = tuple(fields)
        if not self.fields:
            raise ValueError("empty frame")
        _require_same_chart(*self.fields)
        self.chart = self.fields[0].chart
        if len(self.fields) != self.chart.dim:
            raise ValueError(
                f"frame needs {self.chart.dim} fields, got {len(self.fields)}"
            )
        self._inverse = None
        self._structure = None
        self._known = known or {}

    @property
    def inverse(self):
        if self._inverse is None:
            try:
                self._inverse = tuple(sparse_rows(sym_inverse(component_matrix(self.fields))))
            except SingularFrame:
                raise SingularFrame("frame fields are linearly dependent") from None
        return self._inverse

    def decompose(self, x: VectorField) -> tuple:
        """The frame coefficients of x: one dot of each inverse row with
        x's stored components.  ChartMismatch unless x is on the frame's chart."""
        _require_same_chart(x, self)
        return tuple(dot(row, x.entries) for row in self.inverse)

    @property
    def structure(self) -> FrameTable:
        """The structure functions, [E_i, E_j] = sum_k c[i][j][k] E_k, as a
        rank-3 table: for each i < j and each k with c nonzero, (i, j, k)
        holds c and (j, i, k) its compacted negation.  Only the pairs not
        `known` are bracketed, and only the brackets with a stored component
        are decomposed: a frame whose brackets all vanish builds no inverse,
        so the frame's independence is validation's to prove, not this
        table's."""
        if self._structure is None:
            n = len(self.fields)
            entries = []
            for i in range(n):
                for j in range(i + 1, n):
                    coeffs = self._known.get((i, j))
                    if coeffs is None:
                        bracket = lie_bracket(self.fields[i], self.fields[j])
                        coeffs = dict(enumerate(self.decompose(bracket))) if bracket.entries else {}
                    for k, c in coeffs.items():
                        if not is_zero(c):
                            entries += (((i, j, k), c), ((j, i, k), compact(-c)))
            self._structure = FrameTable(self.fields, 3, entries)
            self._known = None
        return self._structure


def frame_rank_full(fields) -> bool:
    """Do the fields have full rank (as many independent directions as fields)?"""
    fields = tuple(fields)
    if not fields or len(fields) > fields[0].chart.dim:
        return not fields
    return len(_eliminate(component_matrix(fields), len(fields))[0]) == len(fields)
