"""Bi-Lagrangian structures: validation, the canonical connection, curvature.

A bi-Lagrangian structure is a symplectic form together with two transversal
Lagrangian foliations, each given here by a rank-n frame of vector fields.
The canonical (Hess) connection is, with D the derivative map characterized
by  i_{D(X,Y)} omega = L_X i_Y omega,

    nabla_X Y = D(X1, Y1) + [X2, Y1]_1 + D(X2, Y2) + [X1, Y2]_2

where subscripts denote the splitting along the two foliations.  The test
suite checks this connection against an independent Levi-Civita oracle for
the associated neutral metric G(X, Y) = omega(FX, Y), and against that
formula itself, split field by field, as a test-local reference.

In the foliation frame (the F1 fields, then the F2 fields) each E_i lies in
one leaf, so the formula is applied leaf-wise (Hess, LNM 836, 1980): across
leaves, the projected bracket, whose coefficients are the structure
functions c^k_{ij} for k in the leaf of E_j; within a leaf, D(E_i, E_j),
read off the L x L' block B of omega's frame matrix and its inverse (see
christoffels).  That connection is built once per structure and kept on
it; it is the one route to nabla.  The coordinate frame's symbols are it
re-expressed by a change of frame (`Connection.in_coordinates`), and
hess_nabla, which serves the `hess` task, is it applied to arbitrary
fields.  d_map, the D map itself, stays public but is on no route of the
package.  Curvature forms only the products of nonzero Christoffel symbols
and structure functions, for i < j only, and fills R(E_j, E_i) by negation.

Each operation takes one input shape.  A `Connection` is built over the
`FrameBasis` of its frame, `curvature` takes a `Connection`, and both are
sparse `FrameTable`s (rank 3 and 4), as are the basis's structure
functions.  A structure's foliations `f1` and `f2` are plain tuples of
frame fields.

A structure optionally carries "adapted functions": 2n scalar functions
(p_1..p_n, q_1..q_n) whose level sets straighten the two foliations (the
q's are constant along foliation 1 and the p's along foliation 2), with an
invertible Jacobian.  They default to the chart coordinates in declared
order and are what the bundle lift uses to split fiber directions; pushing
a structure forward transports them by composition with the inverse map.
"""

from __future__ import annotations

from .calculus import (
    Chart,
    FrameBasis,
    FrameTable,
    SingularFrame,
    SmoothMap,
    VectorField,
    component_matrix,
    coordinate_frame,
    frame_rank_full,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    membership_detail,
    pullback_form,
    pushforward_field,
    span_membership,
    sparse_rows,
    sym_det,
    sym_inverse,
)
from .symexpr import (
    Expr, ONE, ZERO, Rat, as_expr, compact, coordinates, diff, dot,
    equal_zero, is_zero, kept,
)
from .symplectic import SymplecticForm, validate_symplectic

__all__ = [
    "BiLagError",
    "CheckResult",
    "ValidationReport",
    "BiLagStructure",
    "FrameTable",
    "Connection",
    "FlatnessResult",
    "ParaKahler",
    "validate_bilagrangian",
    "d_map",
    "hess_nabla",
    "christoffels",
    "curvature",
    "is_flat",
    "para_structure",
    "levi_civita_oracle",
    "push_structure",
    "push_connection",
    "push_paracomplex",
    "connections_equal",
    "index_label",
]


class CheckResult:
    """Outcome of one validation condition."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


class ValidationReport:
    """A list of named check results with an overall verdict."""

    def __init__(self, checks=()):
        self.checks = list(checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __repr__(self):
        return "\n".join(repr(c) for c in self.checks)


class BiLagError(Exception):
    """Validation failure carrying the full report."""

    def __init__(self, message: str, report: ValidationReport):
        super().__init__(message + "\n" + repr(report))
        self.report = report


class BiLagStructure:
    """A certified bi-Lagrangian structure; build via validate_bilagrangian.

    `f1` and `f2` are the tuples of the two foliations' frame fields.
    `basis` is the combined frame (foliation-1 fields, then foliation-2
    fields); validate_bilagrangian hands over one that already holds the
    same-leaf structure functions its involutivity checks solved for.
    `christoffels` keeps the foliation-frame connection in `_connection`,
    and `push_structure` the last push in `_kept`.
    """

    __slots__ = ("omega", "f1", "f2", "chart", "n", "adapted", "report", "basis",
                 "_connection", "_kept")

    def __init__(self, omega: SymplecticForm, f1: tuple, f2: tuple,
                 adapted, report: ValidationReport, basis: FrameBasis):
        self.omega = omega
        self.f1 = f1
        self.f2 = f2
        self.chart = omega.chart
        self.n = len(f1)
        self.adapted = tuple(adapted)
        self.report = report
        self.basis = basis
        self._connection = None
        self._kept = None

    @property
    def frame(self) -> tuple:
        return self.f1 + self.f2

    def __repr__(self):
        return (
            f"BiLagStructure(chart={self.chart.names}, omega={self.omega.form}, "
            f"f1={[str(f) for f in self.f1]}, f2={[str(f) for f in self.f2]})"
        )


def validate_bilagrangian(omega: SymplecticForm, f1_fields, f2_fields,
                          adapted=None) -> BiLagStructure:
    """Validate (omega, F1, F2) and return the certified structure.

    `omega` is a SymplecticForm; pass a 2-form KForm through
    `validate_symplectic` first.  Checks: even rank split, frame
    independence, transversality of the combined frame, omega vanishing on
    each frame (Lagrangian), involutivity of each frame, and - when adapted
    functions are declared - invertibility of their Jacobian.  A nonzero
    determinant of the combined frame gives both frames full rank; only a
    zero one has each frame eliminated on its own.  Raises BiLagError with
    the full report on failure.
    """
    chart = omega.chart
    n2 = chart.dim
    n = n2 // 2
    report = ValidationReport()
    f1, f2 = tuple(f1_fields), tuple(f2_fields)
    if any(f.chart.names != chart.names for f in f1 + f2):
        raise ValueError("frame field lives on a different chart")
    if len(f1) != n or len(f2) != n:
        report.add(
            "rank", False,
            f"expected two rank-{n} frames, got {len(f1)} and {len(f2)}",
        )
        raise BiLagError("foliation frames have the wrong rank", report)
    report.add("rank", True, f"two rank-{n} frames on a {n2}-dimensional chart")

    combined = f1 + f2
    det = sym_det(component_matrix(combined))
    transversal = not is_zero(det)
    for label, fields in (("F1", f1), ("F2", f2)):
        ok = transversal or frame_rank_full(fields)
        report.add(f"{label} independent", ok,
                   "" if ok else "frame fields are linearly dependent")
    if not report.ok:
        raise BiLagError("foliation frames are degenerate", report)
    if not transversal:
        report.add("transversal", False, "combined frame determinant is identically zero")
        raise BiLagError("foliations are not transversal", report)
    report.add("transversal", True, f"combined frame determinant {det}")

    for label, fields in (("F1", f1), ("F2", f2)):
        for i in range(n):
            for j in range(i + 1, n):
                value = omega(fields[i], fields[j])
                ok = equal_zero(value)
                report.add(f"{label} Lagrangian [{i},{j}]", ok,
                           "" if ok else f"omega(E_{i}, E_{j}) = {value.normal()}")

    # one involutivity check per same-leaf pair i < j; each certificate is
    # the bracket's coefficients in its leaf's fields, which are its
    # structure functions (0 on the other leaf), kept by combined-frame index
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    known = {}
    for label, fields, offset in (("F1", f1, 0), ("F2", f2, n)):
        formed = [lie_bracket(fields[i], fields[j]) for i, j in pairs]
        verdicts = span_membership(formed, fields)
        for (i, j), bracket, verdict in zip(pairs, formed, verdicts):
            ok, cert = verdict
            detail = membership_detail(verdict, chart)
            report.add(f"{label} involutive [{i},{j}]", ok,
                       f"bracket decomposes with {detail}" if ok
                       else f"bracket {bracket} escapes the span ({detail})")
            if ok:
                known[offset + i, offset + j] = {
                    offset + k: c for k, c in enumerate(cert) if not is_zero(c)}

    if adapted is None:
        adapted = chart.coords()
    else:
        adapted = tuple(as_expr(a) for a in adapted)
        if len(adapted) != n2:
            report.add("adapted", False,
                       f"need {n2} adapted functions, got {len(adapted)}")
            raise BiLagError("adapted function declaration is malformed", report)
        for a in adapted:
            if a.jet_atoms():
                report.add("adapted", False,
                           f"adapted function {a} contains an opaque symbol")
        jac = [[diff(a, name) for name in chart.names] for a in adapted]
        jdet = sym_det(jac)
        ok = not is_zero(jdet)
        report.add("adapted", ok, f"adapted-function Jacobian determinant {jdet}"
                   if ok else "adapted-function Jacobian is singular")

    if not report.ok:
        raise BiLagError("bi-Lagrangian validation failed", report)
    return BiLagStructure(omega, f1, f2, adapted, report, FrameBasis(combined, known))


def d_map(s: BiLagStructure, x: VectorField, y: VectorField) -> VectorField:
    """The derivative map D(X, Y): the unique field with i_D omega = L_X i_Y omega.

    No route of the package calls it: the connection reads D off omega's
    frame matrix (see christoffels)."""
    beta = lie_derivative_form(x, interior_product(y, s.omega.form))
    # i_D omega = -(Omega D) as a coefficient vector, hence the sign
    bvec = {j: -c for (j,), c in sorted(beta.coeffs.items())}
    return VectorField.from_entries(
        s.chart, ((i, dot(row, bvec)) for i, row in enumerate(s.omega.inverse_matrix)))


def index_label(n: int, *idx) -> str:
    """Frame indices idx as printed in a key, 1-based: run together on at
    most 9 fields ("12"), comma-separated beyond, so "1,11" is not "11,1"."""
    return ("" if n <= 9 else ",").join(str(i + 1) for i in idx)


class Connection(FrameTable):
    """Christoffel data on a frame: nabla_{E_i} E_j = Gamma^k_{ij} E_k.

    `basis` is the FrameBasis over the frame, whose cached inverse and
    structure functions the connection shares; `entries` are
    ((i, j, k), Gamma^k_{ij}) pairs.  `curvature` keeps its table in
    `_curvature`.
    """

    __slots__ = ("basis", "_pairs", "_curvature")

    def __init__(self, basis: FrameBasis, entries):
        self.basis = basis
        self._curvature = None
        super().__init__(basis.fields, 3, entries)
        # (i, j): the (k, Gamma^k_{ij}) with a nonzero normal form, k ascending
        self._pairs = {}
        for (i, j, k), g in self.entries.items():
            self._pairs.setdefault((i, j), []).append((k, g))

    @property
    def chart(self) -> Chart:
        return self.basis.chart

    gamma = FrameTable.table  # Gamma[i][j][k], all n^3 slots per read

    def in_coordinates(self) -> "Connection":
        """The same connection on the coordinate frame: Gamma^c_{ab} is
        component c of nabla_{d_a} d_b.  The frame coefficients of each d_a
        are taken once; each pair is then assembled by the `_along` that
        serves `apply`, and only its stored components are handed over."""
        coords = coordinate_frame(self.chart)
        columns = [self._coefficients(d) for d in coords]
        return Connection(FrameBasis(coords), (
            ((a, b, c), g)
            for a, (x, cx) in enumerate(zip(coords, columns))
            for b, cy in enumerate(columns)
            for c, g in self._along(x, cx, cy).entries.items()
        ))

    def apply(self, x: VectorField, y: VectorField) -> VectorField:
        """nabla_X Y for arbitrary fields, by expanding in the frame: X and Y
        are decomposed once each, and `_along` assembles the result."""
        return self._along(x, self._coefficients(x), self._coefficients(y))

    def _coefficients(self, field: VectorField) -> dict:
        """The nonzero frame coefficients of field, by frame index."""
        return {k: c for k, c in enumerate(self.basis.decompose(field)) if not is_zero(c)}

    def _frame_coefficients(self, x: VectorField, cx: dict, cy: dict) -> dict:
        """The frame coefficients of nabla_X Y, uncompacted, from the nonzero
        frame coefficients of X and Y, dicts in ascending index order:
        X(cy_k) + sum cx_i cy_j Gamma^k_{ij} over the pairs both hold, by k
        ascending.  X of a constant is skipped, being the literal 0."""
        coeffs = {k: x.apply(c) for k, c in cy.items() if c.__class__ is not Rat}
        for i, ci in cx.items():
            for j, cj in cy.items():
                for k, g in self._pairs.get((i, j), ()):
                    coeffs[k] = coeffs.get(k, ZERO) + ci * cj * g
        return dict(sorted(coeffs.items()))

    def _along(self, x: VectorField, cx: dict, cy: dict) -> VectorField:
        """nabla_X Y: its frame coefficients scattered through the stored
        components of each E_k and summed per component as one dot."""
        coeffs = self._frame_coefficients(x, cx, cy)
        # rows[a][k] = component a of E_k, for the k that coeffs holds
        rows = {}
        for k in coeffs:
            for a, e in self.frame[k].entries.items():
                rows.setdefault(a, {})[k] = e
        return VectorField.from_entries(
            self.chart, ((a, dot(rows[a], coeffs)) for a in sorted(rows)))

    def __repr__(self):
        n = len(self.frame)
        entries = [
            f"Gamma^{k + 1}_{index_label(n, i, j)} = {g.normal()}"
            for (i, j, k), g in self.entries.items()
        ]
        return "Connection(" + ("; ".join(entries) or "flat coefficients") + ")"


def christoffels(s: BiLagStructure, frame: str = "foliation") -> Connection:
    """Christoffel coefficients of the canonical connection.

    `frame` is "foliation" (the combined F1+F2 frame) or "coordinate".

    In the foliation frame every E_i lies in one leaf, so Hess's formula
    needs no splitting and is assembled leaf by leaf.  Across leaves,
    Gamma^k_{ij} = c^k_{ij} for k in leaf(j), the projected bracket.  Within
    a leaf L, nabla_{E_i} E_j = D(E_i, E_j), and i_D omega = L_{E_i} i_{E_j}
    omega on each E_l of the other leaf L' gives, with B_ab = omega(E_a, E_b)
    for a in L and b in L' (the Lagrangian leaves zero the rest of omega's
    frame matrix),

        rhs_l = E_i(B_jl) - sum_{m in L'} c^m_{il} B_jm
        Gamma^k_{ij} = sum_l rhs_l (B^{-1})_lk,   k in L.

    B comes from one interior product per field and B^{-1} from one
    sym_inverse per leaf; rhs walks only the nonzero B and stored c, and
    each Gamma is one dot.  The entries are handed over as they are
    formed, so only the nonzero ones are ever held at once.

    The foliation-frame connection is built once per structure and kept on
    it.  The coordinate frame has no leaf structure; its symbols are that
    connection re-expressed by a change of frame
    (`Connection.in_coordinates`), on each call.
    """
    if frame not in ("foliation", "coordinate"):
        raise ValueError(f"unknown frame kind {frame!r}")
    if s._connection is None:
        s._connection = Connection(s.basis, _foliation_christoffels(s))
    conn = s._connection
    return conn if frame == "foliation" else conn.in_coordinates()


def hess_nabla(s: BiLagStructure, x: VectorField, y: VectorField) -> VectorField:
    """The canonical connection applied to arbitrary fields: the kept
    foliation-frame connection's `Connection.apply`."""
    return christoffels(s).apply(x, y)


def _foliation_christoffels(s: BiLagStructure):
    """((i, j, k), Gamma^k_{ij}) in the foliation frame, leaf by leaf."""
    n = s.n
    fields = s.frame
    struct = s.basis.structure.entries
    # i_{E_a} omega as a sparse covector, so Omega_ab = dot(covectors[a], E_b)
    covectors = [{c: v for (c,), v in sorted(interior_product(e, s.omega.form).coeffs.items())}
                 for e in fields]
    for leaf, other in ((range(n), range(n, 2 * n)), (range(n, 2 * n), range(n))):
        # B[a][b] = Omega_ab for a in the leaf and b in the other leaf, nonzero only
        B = {a: {b: w for b in other if not is_zero(w := dot(covectors[a], fields[b].entries))}
             for a in leaf}
        inverse = sym_inverse([[B[a].get(b, ZERO) for b in other] for a in leaf])
        columns = {k: dict(zip(other, column)) for k, column in zip(leaf, zip(*inverse))}
        # c^m_{il} for i in the leaf and l, m in the other leaf, by i
        terms = {}
        for (i, l, m), c in struct.items():
            if i in leaf and l in other and m in other:
                terms.setdefault(i, []).append((l, m, c))
        for i in leaf:
            for j in leaf:
                rhs = {l: fields[i].apply(w) for l, w in B[j].items()}
                for l, m, c in terms.get(i, ()):
                    if m in B[j]:
                        rhs[l] = rhs.get(l, ZERO) - c * B[j][m]
                rhs = {l: r for l, r in sorted(rhs.items()) if not is_zero(r)}
                if rhs:
                    for k in leaf:
                        yield (i, j, k), dot(rhs, columns[k])
    for (i, j, k), c in struct.items():
        if i // n != j // n == k // n:
            yield (i, j, k), c


def _curvature_terms(fields, gam, struct, i, j, k):
    """(l, term) for each product of R^l_{ijk} that is not structurally zero."""
    for l, g in gam[j][k]:
        yield l, fields[i].apply(g)
    for l, g in gam[i][k]:
        yield l, -fields[j].apply(g)
    for s, g in gam[j][k]:
        for l, h in gam[i][s]:
            yield l, g * h
    for s, g in gam[i][k]:
        for l, h in gam[j][s]:
            yield l, -(g * h)
    for s, c in struct:
        for l, h in gam[s][k]:
            yield l, -(c * h)


def curvature(conn: Connection) -> FrameTable:
    """Frame curvature R(E_i, E_j) E_k = R^l_{ijk} E_l.

    R^l_{ijk} = E_i(Gamma^l_{jk}) - E_j(Gamma^l_{ik})
              + Gamma^s_{jk} Gamma^l_{is} - Gamma^s_{ik} Gamma^l_{js}
              - c^s_{ij} Gamma^l_{sk}

    Only the products of nonzero Gamma entries and nonzero structure
    functions c are formed, and only for i < j: R is antisymmetric in i
    and j, so R^l_{jik} is the negated normal form and R^l_{iik} = 0.  Each
    term has a factor Gamma^._{jk}, Gamma^._{ik} or Gamma^._{sk} with
    c^s_{ij} nonzero, so only those k are visited, in ascending order.  The
    table stores only the entries with a nonzero normal form, and is built
    once per connection and kept on it.
    """
    if conn._curvature is not None:
        return conn._curvature
    n = len(conn.frame)
    # gam[i][j]: the (k, Gamma^k_{ij}) with a nonzero normal form
    gam = [[conn._pairs.get((i, j), ()) for j in range(n)] for i in range(n)]
    # ks[i]: the k with a nonzero Gamma^._{ik}
    ks = [set() for _ in range(n)]
    for i, k in conn._pairs:
        ks[i].add(k)
    # struct[i, j]: the (s, c^s_{ij}) with a nonzero normal form, for i < j
    struct = {}
    for (i, j, s), c in conn.basis.structure.entries.items():
        if i < j:
            struct.setdefault((i, j), []).append((s, c))
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            pair = struct.get((i, j), ())
            for k in sorted(ks[i].union(ks[j], *(ks[s] for s, _ in pair))):
                acc = {}
                for l, term in _curvature_terms(conn.frame, gam, pair, i, j, k):
                    acc[l] = acc.get(l, ZERO) + term
                for l, val in acc.items():
                    entry = compact(val)
                    entries += (((i, j, k, l), entry), ((j, i, k, l), compact(-entry)))
    conn._curvature = FrameTable(conn.frame, 4, entries)
    return conn._curvature


class FlatnessResult:
    """Flatness verdict with the connection and a curvature certificate."""

    __slots__ = ("flat", "connection", "curvature", "witnesses")

    def __init__(self, flat, connection, curvature, witnesses):
        self.flat = flat
        self.connection = connection
        self.curvature = curvature
        # wholly zero when flat; otherwise the nonzero R entries
        self.witnesses = tuple(witnesses)

    def __bool__(self):
        return self.flat

    def __repr__(self):
        if self.flat:
            return "FlatnessResult(flat=True)"
        n = len(self.curvature.frame)
        parts = ", ".join(
            f"R^{l + 1}_{index_label(n, i, j, k)} = {e.normal()}"
            for (i, j, k, l), e in self.witnesses
        )
        return f"FlatnessResult(flat=False, {parts})"


def is_flat(s: BiLagStructure) -> FlatnessResult:
    """Does the canonical connection have vanishing curvature?

    Every curvature entry the sparse table stores is put through the
    dual-route zero test, in lexicographic order; the entries it confirms
    nonzero are returned as the certificate.
    """
    conn = christoffels(s, "foliation")
    curv = curvature(conn)
    witnesses = [(idx, e) for idx, e in curv.entries.items() if not equal_zero(e)]
    return FlatnessResult(not witnesses, conn, curv, witnesses)


class ParaKahler:
    """The para-complex companion: F with F^2 = id and the neutral metric G."""

    __slots__ = ("chart", "F", "G")

    def __init__(self, chart: Chart, F, G):
        self.chart = chart
        self.F = tuple(tuple(as_expr(e) for e in row) for row in F)
        self.G = tuple(tuple(as_expr(e) for e in row) for row in G)

    def apply_F(self, x: VectorField) -> VectorField:
        return VectorField(self.chart, [dot(row, x.entries) for row in self.F])

    def g(self, x: VectorField, y: VectorField) -> Expr:
        return dot(x.entries, {i: dot(self.G[i], y.entries) for i in x.entries})

    def __repr__(self):
        return f"ParaKahler(F={self.F}, G={self.G})"


def para_structure(s: BiLagStructure) -> ParaKahler:
    """F = +id on foliation 1, -id on foliation 2; G(X, Y) = omega(FX, Y).

    F's columns and G's rows are sparse.  Column b of F is
    F(d_b) = sum_k +-P_kb E_k, + on foliation 1 and - on foliation 2, over
    the stored entries P_kb of the frame's inverse and the stored
    components of E_k; G[a][b] is formed only where column a of F meets
    column b of omega.  F^2 = id is checked through normal forms
    at each (a, b) where a product F[a][c] F[c][b] has a term or a = b, and
    G's symmetry at each stored entry.  Both are theorems for a valid
    structure, so a failure means a defect and raises, naming the first
    failing entry in row-major order.  ParaKahler gets the dense F and G.
    """
    chart, m = s.chart, s.chart.dim
    # signed[b] = {k: +-P_kb}; components[a] = {k: E_k's component a}
    signed = [{} for _ in range(m)]
    components = [{} for _ in range(m)]
    for k, (row, e) in enumerate(zip(s.basis.inverse, s.frame)):
        for b, p in row.items():
            signed[b][k] = p if k < s.n else -p
        for a, c in e.entries.items():
            components[a][k] = c
    columns = []
    for column in signed:
        support = sorted(set().union(*(s.frame[k].entries for k in column)))
        columns.append({a: f for a in support
                        if not is_zero(f := dot(column, components[a]))})
    F = [[columns[b].get(a, ZERO) for b in range(m)] for a in range(m)]
    rows, omega = sparse_rows(F), s.omega.matrix
    omega_rows, omega_columns = sparse_rows(omega), sparse_rows(zip(*omega))
    # G[a][b] = sum_c F[c][a] omega[c][b]: column a of F against column b of omega
    G = [{b: dot(column, omega_columns[b])
          for b in sorted(set().union(*(omega_rows[c] for c in column)))} for column in columns]
    failures = [((a, b), 0) for b, column in enumerate(columns)
                for a in sorted({b}.union(*(columns[c] for c in column)))
                if not is_zero(dot(rows[a], column) - (ONE if a == b else ZERO))]
    failures += [(pair, 1) for a, row in enumerate(G) for b, g in row.items()
                 if not is_zero(g - G[b].get(a, ZERO)) for pair in ((a, b), (b, a))]
    if failures:
        (a, b), kind = min(failures)
        message, name = (("para-complex structure is not an involution", "F^2 = id"),
                         ("neutral metric is not symmetric", "G symmetric"))[kind]
        raise BiLagError(message, ValidationReport([CheckResult(name, False, f"entry ({a},{b})")]))
    return ParaKahler(chart, F, [[row.get(b, ZERO) for b in range(m)] for row in G])


def levi_civita_oracle(para: ParaKahler) -> Connection:
    """Levi-Civita connection of G in the coordinate frame.

    Gamma^k_{ij} = G^{kl} Gamma_{ijl}, with the Christoffel symbols of the
    first kind  Gamma_{ijl} = (1/2)(d_i G_{jl} + d_j G_{il} - d_l G_{ij}).
    Both are symmetric in i and j, so each is formed once, for i <= j.
    Each d_a G_bc is taken once, only for the stored G_bc with coordinates
    and only along those, in chart order, and summed into the three
    first-kind symbols it enters; only the symbols with a term are
    compacted and raised, by one dot per row of G^{-1} with an entry in
    their support.  This is the metric formula and reads only G, never the
    foliations or the Hess route, so it stays the independent oracle.
    """
    chart = para.chart
    index = {name: a for a, name in enumerate(chart.names)}
    sums = {}
    for b, row in enumerate(sparse_rows(para.G)):
        for c, g in row.items():
            for a in sorted(index[name] for name in coordinates(g) if name in index):
                d = diff(g, chart.names[a])
                # d_a G_bc enters Gamma_{abc}, Gamma_{bac} and -Gamma_{bca}
                for key, term in (((a, b, c), d), ((b, a, c), d), ((b, c, a), -d)):
                    if key[0] <= key[1]:
                        sums[key] = sums.get(key, ZERO) + term
    first = {}
    for (i, j, l), total in sorted(sums.items()):
        first.setdefault((i, j), {})[l] = compact(total / 2)
    inverse = sym_inverse(para.G)
    # G^{-1} by rows, and by columns: the rows k with an entry in column l
    Ginv, columns = sparse_rows(inverse), sparse_rows(zip(*inverse))
    entries = []
    for (i, j), values in first.items():
        for k in sorted(set().union(*(columns[l] for l in values))):
            g = dot(Ginv[k], values)
            entries += (((i, j, k), g), ((j, i, k), g))
    return Connection(FrameBasis(coordinate_frame(chart)), entries)


# ---------------------------------------------------------------------------
# pushforwards


def push_structure(psi: SmoothMap, s: BiLagStructure) -> BiLagStructure:
    """Transport the whole structure along a diffeomorphism.

    omega goes to (psi^{-1})^* omega, frames to psi_* fields, adapted
    functions to a . psi^{-1}; the result is re-validated.  s keeps its last
    push (see `symexpr.kept`): the same map object in the same check stream
    gets the same structure, and any other push replaces it.
    """

    def build():
        omega = validate_symplectic(pullback_form(psi.inverse(), s.omega.form))
        f1, f2 = ([pushforward_field(psi, e) for e in f] for f in (s.f1, s.f2))
        adapted = [psi.push_scalar(a) for a in s.adapted]
        return validate_bilagrangian(omega, f1, f2, adapted)

    return kept(s, psi, build)


def push_connection(psi: SmoothMap, conn: Connection) -> Connection:
    """The image connection: pushed frame with composed coefficients."""
    new_frame = tuple(pushforward_field(psi, e) for e in conn.frame)
    return Connection(FrameBasis(new_frame),
                      [(idx, psi.push_scalar(g)) for idx, g in conn.entries.items()])


def push_paracomplex(psi: SmoothMap, s: BiLagStructure) -> tuple:
    """The induced para-complex structure F^psi(X) = psi_*(F(psi^{-1}_* X)).

    Returns the coordinate matrix of F^psi on the target chart.
    """
    para = para_structure(s)
    columns = [pushforward_field(psi, para.apply_F(pushforward_field(psi.inverse(), d)))
               for d in coordinate_frame(psi.target)]
    return tuple(tuple(compact(c) for c in row) for row in zip(*(f.components for f in columns)))


def connections_equal(c1: Connection, c2: Connection) -> bool:
    """Do two connections agree as geometric objects (frame independent)?

    They are compared in c1's frame E, on the pairs of c2's frame F.  Each
    F_k = sum_c A_ck E_c is decomposed once through E's cached inverse, and
    a zero det(A) raises SingularFrame, as a dependent E does.  For each
    pair, the E-coefficients of nabla1_{F_i} F_j (`_frame_coefficients`)
    and of nabla2_{F_i} F_j = sum_k Gamma2^k_ij A_ck are each one compacted
    sum, and their difference is zero-tested unless both are literal zeros;
    the first nonzero difference decides.  On one frame A is the constant
    identity: Gamma1 meets Gamma2 entry by entry, with no second inverse.
    """
    if c1.chart.names != c2.chart.names:
        return False
    columns = [c1._coefficients(f) for f in c2.frame]
    A = [[column.get(c, ZERO) for column in columns] for c in range(len(columns))]
    if is_zero(sym_det(A)):
        raise SingularFrame("frame fields are linearly dependent")
    for i, (f, ci) in enumerate(zip(c2.frame, columns)):
        for j, cj in enumerate(columns):
            lhs = c1._frame_coefficients(f, ci, cj)
            gamma = dict(c2._pairs.get((i, j), ()))
            rhs = {c: dot(gamma, A[c]) for c in {c for k in gamma for c in columns[k]}}
            for c in sorted(lhs.keys() | rhs.keys()):
                left, right = compact(lhs.get(c, ZERO)), rhs.get(c, ZERO)
                if not (is_zero(left) and is_zero(right)) and not equal_zero(left - right):
                    return False
    return True
