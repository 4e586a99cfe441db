"""Bi-Lagrangian structures: validation, connection, curvature, transport."""

import functools

import pytest

from bilag import structures, symexpr
from bilag.calculus import (
    Chart,
    ChartMismatch,
    FrameBasis,
    KForm,
    SingularFrame,
    SmoothMap,
    VectorField,
    coordinate_frame,
    form_from_matrix,
    frame_rank_full,
    lie_bracket,
    sym_inverse,
    zero_field,
)
from bilag.lift import lift_structure
from bilag.scene import _field_payload
from bilag.structures import (
    BiLagError,
    CheckResult,
    Connection,
    ParaKahler,
    ValidationReport,
    christoffels,
    connections_equal,
    curvature,
    d_map,
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
    ONE,
    ZERO,
    OpaqueSymbol,
    Rat,
    as_expr,
    bind_symbol,
    check_stream,
    compact,
    coordinates,
    diff,
    dot,
    equal_zero,
    is_zero,
)
from bilag.symplectic import validate_symplectic

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
    """Leaves tangent to U = d/dx + 2x d/dy and V = d/dy, area scaled by h."""
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


def rescaled_structure():
    """The parabola's leaves, framed by fields rescaled by non-constant functions.

    F1 = (1+y^2)(d/dx + 2x d/dy) and F2 = (1+x^2) d/dy do not commute, so
    the cross-leaf Gamma entries and the c^s_ij term of the curvature are
    nonzero; in the bundled scenes' frames both vanish.
    """
    ch = Chart(("x", "y"), symbols=(H,))
    x, y = ch.coords()
    hv = H.jet((0, 0))
    om = validate_symplectic(form_from_matrix(ch, [[ZERO, -hv], [hv, ZERO]]))
    return validate_bilagrangian(
        om,
        [VectorField(ch, ((1 + y * y), (1 + y * y) * 2 * x))],
        [VectorField(ch, (ZERO, 1 + x * x))],
        adapted=(x, y - x * x),
    )


def noncommuting_structure():
    """Dim 4, omega = dy1^dx1 + dy2^dx2, leaves framed by non-commuting fields.

    [E_1, E_2], [E_3, E_4] and [E_1, E_3] are nonzero, so the order of D's
    arguments and the cross-leaf projection both matter.
    """
    ch = Chart(("x1", "x2", "y1", "y2"))
    x1, _, y1, _ = ch.coords()
    om = validate_symplectic(form_from_matrix(ch, [
        [ZERO, ZERO, -ONE, ZERO],
        [ZERO, ZERO, ZERO, -ONE],
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ONE, ZERO, ZERO],
    ]))
    return validate_bilagrangian(
        om,
        [VectorField(ch, (ONE, ZERO, ZERO, ZERO)),
         VectorField(ch, (ZERO, 1 + x1 * x1, ZERO, ZERO))],
        [VectorField(ch, (ZERO, ZERO, 1 + x1 * x1, ZERO)),
         VectorField(ch, (ZERO, ZERO, y1, ONE))],
    )


def curved_structure():
    """omega = (1 + y^2) dx^dy on the parabola's leaves: not flat, and the
    Christoffel symbols are concrete rational functions."""
    ch = Chart(("x", "y"))
    x, y = ch.coords()
    h = 1 + y * y
    om = validate_symplectic(form_from_matrix(ch, [[ZERO, h], [-h, ZERO]]))
    return validate_bilagrangian(
        om,
        [VectorField(ch, (ONE, 2 * x))],
        [VectorField(ch, (ZERO, ONE))],
        adapted=(x, y - x * x),
    )


def lifted(s, dim):
    while s.chart.dim < dim:
        s = lift_structure(s)
    return s


STRUCTURES = {
    "parabola": parabola_structure,
    "standard": standard_structure,
    "parabola-dim4": lambda: lifted(parabola_structure(), 4),
    "standard-dim4": lambda: lifted(standard_structure(), 4),
    "rescaled": rescaled_structure,
    "noncommuting-dim4": noncommuting_structure,
}

NATIVE_DIM = {name: make().chart.dim for name, make in STRUCTURES.items()}


def dense_curvature(conn):
    """Reference: every R^l_{ijk} from all n^5 products, zero or not, with
    the structure functions decomposed afresh from each bracket."""
    n = len(conn.frame)
    fields = conn.frame
    gamma = conn.coefficient
    table = []
    for i in range(n):
        block = []
        for j in range(n):
            struct = conn.basis.decompose(lie_bracket(fields[i], fields[j]))
            plane = []
            for k in range(n):
                row = []
                for l in range(n):
                    val = fields[i].apply(gamma(j, k, l)) - fields[j].apply(gamma(i, k, l))
                    for sdx in range(n):
                        val = val + gamma(j, k, sdx) * gamma(i, sdx, l)
                        val = val - gamma(i, k, sdx) * gamma(j, sdx, l)
                        c = struct[sdx]
                        if not is_zero(c):
                            val = val - c * gamma(sdx, k, l)
                    row.append(val.normal().as_expr())
                plane.append(tuple(row))
            block.append(tuple(plane))
        table.append(tuple(block))
    return tuple(table)


def dense_is_flat(s):
    """Reference: the witnesses of the zero test on every curvature entry."""
    r = curvature(christoffels(s))
    n = len(r.frame)
    witnesses = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    e = r.coefficient(i, j, k, l)
                    if not equal_zero(e):
                        witnesses.append(((i, j, k, l), e))
    return witnesses


def per_pair_apply(conn, x, y):
    """Reference: nabla_X Y as a sum of scaled frame fields, compacted once."""
    cx = conn.basis.decompose(x)
    cy = conn.basis.decompose(y)
    out = zero_field(conn.chart)
    for e, c in zip(conn.frame, cy):
        out = out + e.scale(x.apply(c))
    for (i, j, k), g in conn.entries.items():
        if not (is_zero(cx[i]) or is_zero(cy[j])):
            out = out + conn.frame[k].scale(cx[i] * cy[j] * g)
    return VectorField(conn.chart, tuple(c.normal().as_expr() for c in out.components))


def per_pair_coordinate_table(conn):
    """Reference: one apply, with both decompositions, per coordinate pair."""
    coords = coordinate_frame(conn.chart)
    return tuple(tuple(per_pair_apply(conn, x, y) for y in coords) for x in coords)


def per_pair_connections_equal(c1, c2):
    """Reference: connections_equal over the per-pair tables."""
    t1 = per_pair_coordinate_table(c1)
    t2 = per_pair_coordinate_table(c2)
    return all(
        equal_zero(c)
        for r1, r2 in zip(t1, t2) for f1, f2 in zip(r1, r2) for c in (f1 - f2).components
    )


def coordinate_table(conn):
    """nabla_{d_a} d_b for every coordinate pair, as fields, read off
    conn.in_coordinates()."""
    coords = conn.in_coordinates()
    m = conn.chart.dim
    return tuple(
        tuple(VectorField(conn.chart, [coords.coefficient(a, b, c) for c in range(m)])
              for b in range(m))
        for a in range(m))


def dense_connections_equal(c1, c2):
    """Reference: connections_equal zero-testing every component of each
    coordinate-table difference, the literal zeros included."""
    t1 = coordinate_table(c1)
    t2 = coordinate_table(c2)
    m = c1.chart.dim
    diffs = (f1 - f2 for r1, r2 in zip(t1, t2) for f1, f2 in zip(r1, r2))
    return all(equal_zero(d.component(k)) for d in diffs for k in range(m))


def dense_oracle(para):
    """Reference: every Levi-Civita Gamma^k_{ij}, differentiating G m times each."""
    m = para.chart.dim
    G = para.G
    Ginv = sym_inverse([list(row) for row in G])
    names = para.chart.names
    gamma = []
    for i in range(m):
        block = []
        for j in range(m):
            row = []
            for k in range(m):
                total = ZERO
                for l in range(m):
                    term = (diff(G[j][l], names[i]) + diff(G[i][l], names[j])
                            - diff(G[i][j], names[l]))
                    total = total + Ginv[k][l] * term
                row.append((Rat(1) / 2 * total).normal().as_expr())
            block.append(tuple(row))
        gamma.append(tuple(block))
    return tuple(gamma)


def table_strings(table):
    return [[[str(c) for c in f.components] for f in row] for row in table]


def ref_split(s, x):
    """Reference: X = X1 + X2 along the two foliations, from X's frame
    coefficients summed leaf by leaf."""
    halves = [zero_field(s.chart), zero_field(s.chart)]
    for k, (c, e) in enumerate(zip(s.basis.decompose(x), s.frame)):
        halves[k // s.n] = halves[k // s.n] + e.scale(c)
    return tuple(halves)


def ref_hess_nabla(s, x, y):
    """Reference: Hess's formula on split fields,
    nabla_X Y = D(X1, Y1) + [X2, Y1]_1 + D(X2, Y2) + [X1, Y2]_2,
    with the D map and fresh brackets; it never reads a connection."""
    x1, x2 = ref_split(s, x)
    y1, y2 = ref_split(s, y)
    total = (d_map(s, x1, y1) + ref_split(s, lie_bracket(x2, y1))[0]
             + d_map(s, x2, y2) + ref_split(s, lie_bracket(x1, y2))[1])
    return VectorField.from_entries(s.chart, ((i, compact(c)) for i, c in total.entries.items()))


def fields_equal(a, b):
    return all(equal_zero(p - q) for p, q in zip(a.components, b.components))


def torsion_witnesses(conn):
    """The pairs i < j whose torsion
    T(E_i, E_j) = nabla_{E_i} E_j - nabla_{E_j} E_i - [E_i, E_j] is not zero.

    nabla comes from `Connection.apply` and the bracket from a fresh
    `lie_bracket`, so the check reads Gamma but never the stored structure
    functions."""
    frame = conn.frame
    return [(i, j) for i, x in enumerate(frame) for j, y in enumerate(frame[i + 1:], i + 1)
            if not fields_equal(conn.apply(x, y) - conn.apply(y, x), lie_bracket(x, y))]


def count_frame_rank_calls(monkeypatch):
    """Wrap validation's frame_rank_full; the returned list gets the number
    of fields of each call."""
    calls = []

    def counted(fields):
        fields = tuple(fields)
        calls.append(len(fields))
        return frame_rank_full(fields)

    monkeypatch.setattr(structures, "frame_rank_full", counted)
    return calls


class TestValidation:
    def test_both_bundled_structures_validate(self):
        assert standard_structure().report.ok
        assert parabola_structure().report.ok

    def test_adapted_functions_recorded(self):
        s = parabola_structure()
        x, y = s.chart.coords()
        assert equal_zero(s.adapted[0] - x)
        assert equal_zero(s.adapted[1] - (y - x * x))

    def test_non_transversal_rejected(self):
        ch = Chart(("x", "y"))
        om = validate_symplectic(form_from_matrix(ch, [[ZERO, -ONE], [ONE, ZERO]]))
        dx = VectorField(ch, (ONE, ZERO))
        with pytest.raises(BiLagError) as err:
            validate_bilagrangian(om, [dx], [dx])
        assert "transversal" in str(err.value)

    def test_wrong_rank_rejected(self):
        ch = Chart(("x", "y"))
        om = validate_symplectic(form_from_matrix(ch, [[ZERO, -ONE], [ONE, ZERO]]))
        dx = VectorField(ch, (ONE, ZERO))
        dy = VectorField(ch, (ZERO, ONE))
        with pytest.raises(BiLagError) as err:
            validate_bilagrangian(om, [dx, dy], [dy])
        assert "rank" in str(err.value)

    def test_field_on_another_chart_rejected_before_rank(self):
        ch = Chart(("x", "y"))
        om = validate_symplectic(form_from_matrix(ch, [[ZERO, -ONE], [ONE, ZERO]]))
        dx = VectorField(ch, (ONE, ZERO))
        du = VectorField(Chart(("u", "v")), (ZERO, ONE))
        # the second frame also has the wrong rank, which is checked later
        with pytest.raises(ValueError, match="frame field lives on a different chart"):
            validate_bilagrangian(om, [dx], [du, du])

    def test_frames_are_tuples_of_fields(self):
        s = parabola_structure()
        assert isinstance(s.f1, tuple) and isinstance(s.f2, tuple)
        assert s.frame == s.f1 + s.f2 == s.basis.fields

    def test_non_involutive_rejected(self):
        ch = Chart(("a", "b", "c", "d"))
        a = ch.coord(0)
        om = validate_symplectic(
            KForm(ch, 2, {(0, 2): -ONE, (1, 3): -ONE})
        )
        e1 = VectorField(ch, (ONE, ZERO, ZERO, ZERO))
        e2 = VectorField(ch, (ZERO, ONE, ZERO, a))
        f1 = VectorField(ch, (ZERO, ZERO, ONE, ZERO))
        f2 = VectorField(ch, (ZERO, ZERO, ZERO, ONE))
        with pytest.raises(BiLagError) as err:
            validate_bilagrangian(om, [e1, e2], [f1, f2])
        assert "involutive" in str(err.value)
        assert [(c.name, c.passed, c.detail) for c in err.value.report.checks
                if "involutive" in c.name] == [
            ("F1 involutive [0,1]", False, "bracket (1)*@d escapes the span (unmatched component d)"),
            ("F2 involutive [0,1]", True, "bracket decomposes with coefficients (0, 0)"),
        ]

    def test_involutivity_certificates_are_worded(self):
        s = noncommuting_structure()
        assert [(c.name, c.detail) for c in s.report.checks if "involutive" in c.name] == [
            ("F1 involutive [0,1]", "bracket decomposes with coefficients (0, 2*x1/(x1^2 + 1))"),
            ("F2 involutive [0,1]", "bracket decomposes with coefficients (1, 0)"),
        ]

    def test_non_lagrangian_rejected(self):
        ch = Chart(("a", "b", "c", "d"))
        om = validate_symplectic(
            KForm(ch, 2, {(0, 2): -ONE, (1, 3): -ONE})
        )
        e1 = VectorField(ch, (ONE, ZERO, ZERO, ZERO))
        e2 = VectorField(ch, (ZERO, ZERO, ONE, ZERO))
        f1 = VectorField(ch, (ZERO, ONE, ZERO, ZERO))
        f2 = VectorField(ch, (ZERO, ZERO, ZERO, ONE))
        with pytest.raises(BiLagError) as err:
            validate_bilagrangian(om, [e1, e2], [f1, f2])
        assert "Lagrangian" in str(err.value)

    @pytest.mark.parametrize("name, message, checks", [
        ("dependent F1", "foliation frames are degenerate",
         ["[FAIL] F1 independent: frame fields are linearly dependent",
          "[ok] F2 independent"]),
        ("dependent F2", "foliation frames are degenerate",
         ["[ok] F1 independent",
          "[FAIL] F2 independent: frame fields are linearly dependent"]),
        ("both dependent", "foliation frames are degenerate",
         ["[FAIL] F1 independent: frame fields are linearly dependent",
          "[FAIL] F2 independent: frame fields are linearly dependent"]),
        ("not transversal", "foliations are not transversal",
         ["[ok] F1 independent", "[ok] F2 independent",
          "[FAIL] transversal: combined frame determinant is identically zero"]),
    ])
    def test_degenerate_frames_keep_their_checks_and_messages(self, monkeypatch,
                                                              name, message, checks):
        ch = Chart(("a", "b", "c", "d"))
        a, b, _, _ = ch.coords()
        om = validate_symplectic(KForm(ch, 2, {(0, 2): -ONE, (1, 3): -ONE}))
        e1, e2, e3, e4 = coordinate_frame(ch)
        f1, f2 = {
            "dependent F1": ([e1, e1.scale(1 + a)], [e3, e4]),
            "dependent F2": ([e1, e2], [e3, e3.scale(b)]),
            "both dependent": ([e1, e1.scale(a)], [e4, e4.scale(2)]),
            "not transversal": ([e1, e2], [e1 + e3, e2]),
        }[name]
        calls = count_frame_rank_calls(monkeypatch)
        with pytest.raises(BiLagError) as err:
            validate_bilagrangian(om, f1, f2)
        assert str(err.value) == "\n".join(
            [message, "[ok] rank: two rank-2 frames on a 4-dimensional chart", *checks])
        # the combined determinant is zero, so each leaf is eliminated
        assert calls == [2, 2]

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_a_transversal_structure_eliminates_no_leaf(self, monkeypatch, name):
        calls = count_frame_rank_calls(monkeypatch)
        s = STRUCTURES[name]()
        assert calls == []
        assert [(c.name, c.passed, c.detail) for c in s.report.checks[1:3]] == [
            ("F1 independent", True, ""), ("F2 independent", True, "")]
        assert s.report.checks[3].name == "transversal" and s.report.checks[3].passed

    def test_opaque_adapted_function_rejected(self):
        ch = Chart(("x", "y"), symbols=(H,))
        x, y = ch.coords()
        hv = H.jet((0, 0))
        om = validate_symplectic(form_from_matrix(ch, [[ZERO, -ONE], [ONE, ZERO]]))
        with pytest.raises(BiLagError):
            validate_bilagrangian(
                om,
                [VectorField(ch, (ONE, ZERO))],
                [VectorField(ch, (ZERO, ONE))],
                adapted=(x, hv),
            )


class TestSplit:
    def test_split_of_coordinate_field(self):
        s = parabola_structure()
        x, _ = s.chart.coords()
        dx = VectorField(s.chart, (ONE, ZERO))
        x1, x2 = ref_split(s, dx)
        # d/dx = U - 2x V
        assert fields_equal(x1, s.f1[0])
        assert fields_equal(x2, s.f2[0].scale(-2 * x))

    def test_split_sums_back(self):
        s = parabola_structure()
        x, y = s.chart.coords()
        v = VectorField(s.chart, (x * y, ONE))
        x1, x2 = ref_split(s, v)
        assert fields_equal(x1 + x2, v)

    @pytest.mark.parametrize("call", [
        lambda s, x: s.basis.decompose(x),
        lambda s, x: hess_nabla(s, x, x),
        lambda s, x: christoffels(s).apply(x, x),
    ], ids=["decompose", "hess_nabla", "connection-apply"])
    def test_a_field_on_another_chart_is_refused(self, call):
        # (a, b) has the structure's dimension, so only the names tell
        s = parabola_structure()
        field = VectorField(Chart(("a", "b")), (ONE, ZERO))
        with pytest.raises(ChartMismatch, match="different charts"):
            call(s, field)

    def test_the_reference_reads_no_connection(self, monkeypatch):
        # ref_hess_nabla is the second route the connection is checked
        # against, so it must give nabla with the connection refused
        def frame_table(nabla, s):
            return [[_field_payload(nabla(s, x, y)) for y in s.frame] for x in s.frame]

        makers = (parabola_structure, curved_structure)
        expected = [frame_table(hess_nabla, make()) for make in makers]

        def refuse(*args, **kwargs):
            raise AssertionError("the reference read the connection")

        monkeypatch.setattr(structures, "christoffels", refuse)
        monkeypatch.setattr(Connection, "apply", refuse)
        for make, table in zip(makers, expected):
            s = make()
            with pytest.raises(AssertionError, match="read the connection"):
                hess_nabla(s, s.frame[0], s.frame[0])
            assert frame_table(ref_hess_nabla, s) == table


class TestConnection:
    def test_christoffel_table_clean_frame(self):
        s = parabola_structure()
        conn = christoffels(s)
        hv = H.jet((0, 0))
        x, _ = s.chart.coords()
        hx = diff(hv, "x")
        hy = diff(hv, "y")
        assert equal_zero(conn.coefficient(0, 0, 0) - (hx + 2 * x * hy) / hv)
        assert equal_zero(conn.coefficient(1, 1, 1) - hy / hv)
        for (i, j, k) in [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]:
            g = conn.coefficient(i, j, k)
            assert is_zero(g.normal().as_expr()) or equal_zero(g), (i, j, k)

    def test_standard_connection_vanishes(self):
        conn = christoffels(standard_structure())
        assert all(
            equal_zero(conn.coefficient(i, j, k))
            for i in range(2) for j in range(2) for k in range(2)
        )

    def test_coordinate_frame_table(self):
        s = standard_structure()
        conn = christoffels(s, frame="coordinate")
        assert all(
            equal_zero(conn.coefficient(i, j, k))
            for i in range(2) for j in range(2) for k in range(2)
        )

    def test_coordinate_table_matches_frame_change(self):
        s = parabola_structure()
        table = per_pair_coordinate_table(christoffels(s))
        table2 = per_pair_coordinate_table(christoffels(s, frame="coordinate"))
        for a in range(2):
            for b in range(2):
                assert fields_equal(table[a][b], table2[a][b])

    def test_d_map_reproduces_diagonal_derivatives(self):
        s = parabola_structure()
        conn = christoffels(s)
        u = s.f1[0]
        duu = d_map(s, u, u)
        expected = u.scale(conn.coefficient(0, 0, 0))
        assert fields_equal(duu, expected)

    def test_hess_matches_christoffels_on_frame(self):
        s = parabola_structure()
        conn = christoffels(s)
        frame = s.frame
        for i in range(2):
            for j in range(2):
                via_hess = ref_hess_nabla(s, frame[i], frame[j])
                rebuilt = (frame[0].scale(conn.coefficient(i, j, 0))
                           + frame[1].scale(conn.coefficient(i, j, 1)))
                assert fields_equal(via_hess, rebuilt)

    def test_torsion_free(self):
        for s in (standard_structure(), parabola_structure()):
            assert torsion_witnesses(christoffels(s)) == []

    def test_parallel_symplectic_form(self):
        # (nabla_X omega)(Y, Z) = X(omega(Y,Z)) - omega(DX Y, Z) - omega(Y, DX Z)
        for s in (standard_structure(), parabola_structure()):
            frame = s.frame
            for xf in frame:
                for yf in frame:
                    for zf in frame:
                        lead = xf.apply(s.omega(yf, zf))
                        corr1 = s.omega(hess_nabla(s, xf, yf), zf)
                        corr2 = s.omega(yf, hess_nabla(s, xf, zf))
                        assert equal_zero(lead - corr1 - corr2)

    def test_preserves_foliations(self):
        for s in (standard_structure(), parabola_structure()):
            from bilag.calculus import span_membership

            for xf in s.frame:
                for leaf in (s.f1, s.f2):
                    for yf in leaf:
                        out = hess_nabla(s, xf, yf)
                        ok, _ = span_membership([out], leaf)[0]
                        assert ok


class TestLeafwiseAssembly:
    """The leaf-wise Gamma and the sparse curvature against the general routes."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_gamma_matches_hess_nabla(self, name):
        s = STRUCTURES[name]()
        conn = christoffels(s)
        frame = s.frame
        for i, x in enumerate(frame):
            for j, y in enumerate(frame):
                via_hess = s.basis.decompose(ref_hess_nabla(s, x, y))
                for k in range(len(frame)):
                    assert conn.coefficient(i, j, k).normal() == via_hess[k].normal(), (i, j, k)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_curvature_matches_dense_loop(self, name):
        conn = christoffels(STRUCTURES[name]())
        sparse = curvature(conn)
        dense = dense_curvature(conn)
        n = len(conn.frame)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert sparse.coefficient(i, j, k, l).normal() == \
                            dense[i][j][k][l].normal(), (i, j, k, l)

    @pytest.mark.parametrize("build", [
        lambda: lifted(parabola_structure(), 4),
        lambda: lifted(parabola_structure(), 8),
        lambda: lifted(standard_structure(), 4),
        lambda: lifted(standard_structure(), 8),
        rescaled_structure,
    ], ids=["parabola-dim4", "parabola-dim8", "standard-dim4", "standard-dim8", "rescaled"])
    def test_is_flat_matches_dense_loop(self, build):
        # is_flat zero-tests only the nonzero entries: the same witnesses,
        # in the same order, from the same cross-check draws
        s = build()
        runs = []
        for flatness in (dense_is_flat, lambda s: is_flat(s).witnesses):
            with check_stream("flat"):
                witnesses = [(idx, str(e)) for idx, e in flatness(s)]
                runs.append((witnesses, symexpr._check_rng.getstate()))
        assert runs[0] == runs[1]

    def test_rescaled_frame_exercises_cross_leaf_terms(self):
        s = rescaled_structure()
        conn = christoffels(s)
        assert not is_zero(conn.coefficient(0, 1, 1))  # [E_1, E_2] projected to leaf 2
        assert not is_zero(conn.coefficient(1, 0, 0))  # [E_2, E_1] projected to leaf 1
        assert is_zero(conn.coefficient(0, 1, 0)) and is_zero(conn.coefficient(1, 0, 1))
        assert not is_zero(s.basis.structure.coefficient(0, 1, 0))
        assert curvature(conn).entries
        assert torsion_witnesses(conn) == []


def transport_pair():
    """The canonical connection of a pushed parabola and a differing pushed one.

    psi is a vertical cubic shear after an affine map; psi . bump, with the
    extra quadratic shear bump, pushes the base connection elsewhere.
    """
    x = Chart(("x", "y")).coord(0)
    s = parabola_structure(h_value=1 + x * x)
    x, y = s.chart.coords()
    shear = SmoothMap(s.chart, s.chart, (x, y + 2 * x ** 3), (x, y - 2 * x ** 3))
    affine = SmoothMap(s.chart, s.chart, (x + 1, 2 * x + y - 1), (x - 1, y + 1 - 2 * (x - 1)))
    psi = affine.compose(shear)
    bump = SmoothMap(s.chart, s.chart, (x, y + x * x), (x, y - x * x))
    pushed = christoffels(push_structure(psi, s))
    return pushed, push_connection(psi.compose(bump), christoffels(s))


CROSS_CHECKED = dict(STRUCTURES, **{
    "parabola-dim8": lambda: lifted(parabola_structure(), 8),
    "standard-dim8": lambda: lifted(standard_structure(), 8),
    "curved": curved_structure,
})


def verdict_and_draws(same, c1, c2, label):
    """same(c1, c2) in the check stream `label`, and the RNG state after it."""
    with check_stream(label):
        return same(c1, c2), symexpr._check_rng.getstate()


def assert_same_verdict_repeatable_draws(reference, c1, c2, label):
    """connections_equal gives the reference's verdict, and two runs in one
    check stream end in the same RNG state.  It compares in c1's frame,
    not in coordinate tables, so it zero-tests other differences than the
    reference and may draw other points."""
    verdict, state = verdict_and_draws(connections_equal, c1, c2, label)
    assert verdict is verdict_and_draws(reference, c1, c2, label)[0]
    assert verdict_and_draws(connections_equal, c1, c2, label) == (verdict, state)
    return verdict


class TestOnePassCrossCheck:
    """Coordinate tables, the oracle and connections_equal against the
    per-pair and per-entry routes they replace: the same trees and
    verdicts."""

    @pytest.mark.parametrize("name", sorted(CROSS_CHECKED))
    def test_oracle_matches_per_entry_formula(self, name):
        para = para_structure(CROSS_CHECKED[name]())
        oracle = levi_civita_oracle(para)
        reference = dense_oracle(para)
        m = len(reference)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    assert str(oracle.coefficient(i, j, k)) == str(reference[i][j][k]), (i, j, k)

    @pytest.mark.parametrize("name", sorted(CROSS_CHECKED))
    def test_tables_and_verdict_match_per_pair_route(self, name):
        s = CROSS_CHECKED[name]()
        hess = christoffels(s)
        oracle = levi_civita_oracle(para_structure(s))
        for conn in (hess, oracle):
            assert (table_strings(coordinate_table(conn))
                    == table_strings(per_pair_coordinate_table(conn)))
        assert assert_same_verdict_repeatable_draws(
            per_pair_connections_equal, hess, oracle, "oracle") is True

    @pytest.mark.parametrize("name", [*sorted(STRUCTURES), "pushed"])
    def test_sparse_walk_matches_dense_components(self, name):
        # connections_equal skips the differences of two literal zeros; the
        # dense walk zero-tests every component of the coordinate tables
        if name == "pushed":
            c1, c2 = transport_pair()
        else:
            s = STRUCTURES[name]()
            c1, c2 = christoffels(s), levi_civita_oracle(para_structure(s))
        assert assert_same_verdict_repeatable_draws(
            dense_connections_equal, c1, c2, "sparse-walk") is (name != "pushed")

    def test_differing_connections_same_false_verdict_and_draws(self):
        pushed, wrong = transport_pair()
        for conn in (pushed, wrong):
            assert (table_strings(coordinate_table(conn))
                    == table_strings(per_pair_coordinate_table(conn)))
        runs = []
        for same in (per_pair_connections_equal, connections_equal):
            with check_stream("control"):
                runs.append((same(pushed, wrong), symexpr._check_rng.getstate()))
        assert runs[0] == runs[1]
        assert runs[1][0] is False

    @pytest.mark.parametrize("name", ["parabola", "rescaled", "noncommuting-dim4"])
    def test_apply_matches_per_pair_route(self, name):
        s = STRUCTURES[name]()
        conn = christoffels(s)
        coords = s.chart.coords()
        bent = VectorField(s.chart, [c * c + ONE for c in reversed(coords)])
        fields = s.frame + (bent,)
        for x in fields:
            for y in fields:
                assert str(conn.apply(x, y)) == str(per_pair_apply(conn, x, y))


def transport_connections(seed, index, build=None):
    """The transport workload's op `index` at `seed`, on its own structure
    or on build(): the connection of the pushed structure, the pushed
    connection (equal to it) and the connection pushed by psi . bump (not
    equal)."""
    from test_elimination import _workloads

    wl = _workloads()
    kind, spec = wl.transport_specs(seed)[index]
    s = build() if build else wl.plane_structure(kind)
    psi = wl.build_map(s.chart, spec)
    base = christoffels(s)
    wrong = psi.compose(wl.bump_map(s.chart, spec["shear"]))
    return (christoffels(push_structure(psi, s)), push_connection(psi, base),
            push_connection(wrong, base))


def assert_same_verdict_as_references(c1, c2, expected):
    verdict = connections_equal(c1, c2)
    assert verdict is expected
    assert per_pair_connections_equal(c1, c2) is verdict
    assert dense_connections_equal(c1, c2) is verdict


class TestOneFrameComparison:
    """connections_equal compares in the first connection's frame; the
    coordinate-table routes it replaced must give the same verdicts.  The
    Hess connections of CROSS_CHECKED against their oracles are compared
    with the same references in TestOnePassCrossCheck."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("index", range(10))
    def test_transport_pushes_and_their_controls(self, seed, index):
        pushed, image, control = transport_connections(seed, index)
        assert_same_verdict_as_references(pushed, image, True)
        assert_same_verdict_as_references(pushed, control, False)

    @pytest.mark.parametrize("index", range(10))
    def test_pushes_of_the_curved_structure(self, index):
        pushed, image, control = transport_connections(1, index, curved_structure)
        assert_same_verdict_as_references(pushed, image, True)
        assert_same_verdict_as_references(pushed, control, False)

    def test_same_frame_needs_no_second_inverse(self):
        pushed, image, _ = transport_connections(1, 0)
        assert connections_equal(pushed, image)
        assert image.basis._inverse is None

    def test_charts_with_different_names_differ(self):
        conn = christoffels(standard_structure())
        renamed = standard_structure()
        uv = Chart(("u", "v"))
        x, y = renamed.chart.coords()
        u, v = uv.coords()
        psi = SmoothMap(renamed.chart, uv, (x, y), (u, v))
        other = push_connection(psi, conn)
        assert other.chart.names == ("u", "v")
        assert connections_equal(conn, other) is False
        assert connections_equal(other, conn) is False

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_dependent_frame_on_either_side_raises(self, side):
        conn = christoffels(parabola_structure(h_value=ONE))
        x, _ = conn.chart.coords()
        u = VectorField(conn.chart, (ONE, x))
        dependent = Connection(FrameBasis((u, u.scale(1 + x))), [((0, 0, 1), x)])
        pair = (dependent, conn) if side == 0 else (conn, dependent)
        for same in (connections_equal, per_pair_connections_equal, dense_connections_equal):
            with pytest.raises(SingularFrame, match="frame fields are linearly dependent"):
                same(*pair)


class TestCurvature:
    def test_parabola_nonzero_slots_exact(self):
        s = parabola_structure()
        r = curvature(christoffels(s))
        slots = sorted(r.entries)
        assert slots == [(0, 1, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 1, 1)]

    def test_parabola_values(self):
        s = parabola_structure()
        conn = christoffels(s)
        r = curvature(conn)
        u, v = s.f1[0], s.f2[0]
        g111 = conn.coefficient(0, 0, 0)
        g222 = conn.coefficient(1, 1, 1)
        assert equal_zero(r.coefficient(1, 0, 0, 0) - v.apply(g111))
        assert equal_zero(r.coefficient(0, 1, 0, 0) + v.apply(g111))
        assert equal_zero(r.coefficient(0, 1, 1, 1) - u.apply(g222))
        assert equal_zero(r.coefficient(1, 0, 1, 1) + u.apply(g222))

    def test_flatness_trichotomy(self):
        x = Chart(("x", "y")).coord(0)
        assert is_flat(standard_structure()).flat
        assert is_flat(parabola_structure(h_value=x)).flat
        assert is_flat(parabola_structure(h_value=ONE)).flat
        verdict = is_flat(parabola_structure())
        assert not verdict.flat
        assert verdict.witnesses

    def test_binding_curvature_matches_direct(self):
        # substituting a concrete area scale into the generic curvature agrees
        # with computing on the bound structure directly
        s = parabola_structure()
        x = s.chart.coord(0)
        r = curvature(christoffels(s))
        bound = bind_symbol(r.coefficient(1, 0, 0, 0), H, x * x + ONE)
        s2 = parabola_structure(h_value=x * x + ONE)
        r2 = curvature(christoffels(s2))
        assert equal_zero(bound - r2.coefficient(1, 0, 0, 0))


class TestParaStructure:
    def test_standard_golden(self):
        pk = para_structure(standard_structure())
        expected_f = [[1, 0], [0, -1]]
        expected_g = [[0, -1], [-1, 0]]
        for i in range(2):
            for j in range(2):
                assert equal_zero(pk.F[i][j] - as_expr(expected_f[i][j]))
                assert equal_zero(pk.G[i][j] - as_expr(expected_g[i][j]))

    def test_parabola_golden(self):
        pk = para_structure(parabola_structure())
        hv = H.jet((0, 0))
        x = Chart(("x", "y")).coord(0)
        assert equal_zero(pk.F[0][0] - ONE)
        assert equal_zero(pk.F[0][1])
        assert equal_zero(pk.F[1][0] - 4 * x)
        assert equal_zero(pk.F[1][1] + ONE)
        assert equal_zero(pk.G[0][0] - 4 * hv * x)
        assert equal_zero(pk.G[0][1] + hv)
        assert equal_zero(pk.G[1][0] + hv)
        assert equal_zero(pk.G[1][1])

    def test_f_squares_to_identity(self):
        for s in (standard_structure(), parabola_structure()):
            pk = para_structure(s)
            n = s.chart.dim
            for i in range(n):
                for j in range(n):
                    entry = sum((pk.F[i][k] * pk.F[k][j] for k in range(n)), ZERO)
                    assert equal_zero(entry - (ONE if i == j else ZERO))

    def test_g_pairs_form_with_f(self):
        # G(X, Y) = omega(F X, Y)
        for s in (standard_structure(), parabola_structure()):
            pk = para_structure(s)
            for xf in s.frame:
                for yf in s.frame:
                    assert equal_zero(pk.g(xf, yf) - s.omega(pk.apply_F(xf), yf))

    def test_eigenframes(self):
        s = parabola_structure()
        pk = para_structure(s)
        u = s.f1[0]
        v = s.f2[0]
        assert fields_equal(pk.apply_F(u), u)
        assert fields_equal(pk.apply_F(v), v.scale(-ONE))


class TestLeviCivitaOracle:
    def test_agrees_with_connection(self):
        for s in (standard_structure(), parabola_structure()):
            hess = christoffels(s)
            oracle = levi_civita_oracle(para_structure(s))
            assert connections_equal(hess, oracle)

    @pytest.mark.parametrize(
        "name", ["parabola-dim4", "standard-dim4", "rescaled", "noncommuting-dim4"])
    def test_agrees_on_lifts_and_rescaled_frame(self, name):
        s = STRUCTURES[name]()
        assert connections_equal(christoffels(s), levi_civita_oracle(para_structure(s)))


# ---------------------------------------------------------------------------
# sparse para_structure and oracle against the dense loops they replaced


def dense_para_structure(s):
    """Reference: F and G built densely, F^2 = id and G's symmetry checked
    at every (a, b) in row-major order, F^2 first."""
    m = s.chart.dim
    columns = [{a: compact(c) for a, c in (x1 - x2).entries.items()}
               for x1, x2 in (ref_split(s, d) for d in coordinate_frame(s.chart))]
    F = tuple(tuple(columns[b].get(a, ZERO) for b in range(m)) for a in range(m))
    omega_cols = tuple(zip(*s.omega.matrix))
    G = tuple(tuple(dot(columns[a], omega_cols[b]) for b in range(m)) for a in range(m))
    for a in range(m):
        for b in range(m):
            if not is_zero(dot(F[a], columns[b]) - (ONE if a == b else ZERO)):
                raise BiLagError("para-complex structure is not an involution", ValidationReport(
                    [CheckResult("F^2 = id", False, f"entry ({a},{b})")]))
            if not is_zero(G[a][b] - G[b][a]):
                raise BiLagError("neutral metric is not symmetric", ValidationReport(
                    [CheckResult("G symmetric", False, f"entry ({a},{b})")]))
    return ParaKahler(s.chart, F, G)


def dense_levi_civita_oracle(para):
    """Reference: the oracle walking every G entry and raising each
    first-kind symbol against every row of G^{-1}."""
    chart, G = para.chart, para.G
    Ginv = sym_inverse([list(row) for row in G])
    index = {name: a for a, name in enumerate(chart.names)}
    sums = {}
    for b, row in enumerate(G):
        for c, g in enumerate(row):
            for a in sorted(index[name] for name in coordinates(g) if name in index):
                d = diff(g, chart.names[a])
                for key, term in (((a, b, c), d), ((b, a, c), d), ((b, c, a), -d)):
                    if key[0] <= key[1]:
                        sums[key] = sums.get(key, ZERO) + term
    first = {}
    for (i, j, l), total in sorted(sums.items()):
        first.setdefault((i, j), {})[l] = compact(total / 2)
    entries = []
    for (i, j), values in first.items():
        for k, row in enumerate(Ginv):
            g = dot(row, values)
            entries += (((i, j, k), g), ((j, i, k), g))
    return Connection(FrameBasis(coordinate_frame(chart)), entries)


@functools.lru_cache(maxsize=None)
def para_family(name):
    """A pool structure ("pool:<name>"), a seed-1 transport push
    ("push:<index>"), or either lifted to dim 16 ("...@16")."""
    base, _, dim = name.partition("@")
    kind, _, key = base.partition(":")
    if kind == "pool":
        s = STRUCTURES[key]()
    else:
        from test_elimination import _workloads

        wl = _workloads()
        plane, spec = wl.transport_specs(1)[int(key)]
        s = wl.plane_structure(plane)
        s = push_structure(wl.build_map(s.chart, spec), s)
    return lifted(s, int(dim)) if dim else s


PARA_FAMILY = ([f"pool:{name}" for name in sorted(STRUCTURES)]
               + [f"pool:{name}@16" for name in ("parabola", "standard", "rescaled",
                                                "noncommuting-dim4")]
               + [f"push:{i}" for i in range(10)] + [f"push:{i}@16" for i in (0, 4, 9)])


def para_text(para):
    return [[str(e) for e in row] for row in para.F], [[str(e) for e in row] for row in para.G]


def raised(run):
    """run()'s BiLagError text, or None when it raises none."""
    try:
        run()
    except BiLagError as exc:
        return str(exc)
    return None


class TestSparseParaStructure:
    @pytest.mark.parametrize("name", PARA_FAMILY)
    def test_same_trees_and_oracle_verdicts_as_dense_loops(self, name):
        s = para_family(name)
        para, reference = para_structure(s), dense_para_structure(s)
        assert para_text(para) == para_text(reference)
        oracle = levi_civita_oracle(para)
        dense = dense_levi_civita_oracle(reference)
        assert [(idx, str(g)) for idx, g in oracle.entries.items()] == \
            [(idx, str(g)) for idx, g in dense.entries.items()]
        hess = christoffels(s)
        assert connections_equal(hess, oracle) is connections_equal(hess, dense) is True

    @pytest.mark.parametrize("name", ["pool:parabola", "pool:noncommuting-dim4",
                                      "push:4", "pool:rescaled@16"])
    def test_a_perturbed_f_column_raises_as_the_dense_loops(self, name, monkeypatch):
        # F's column b reads column b of the frame's inverse, so one bumped
        # inverse entry P_kb moves that column in both routes alike
        s = para_family(name)
        m = s.chart.dim
        inverse = s.basis.inverse
        seen = []
        for k, b in ((0, 0), (m - 1, 0), (1, m - 1), (m // 2, (m // 2 + 1) % m)):
            rows = [dict(row) for row in inverse]
            rows[k][b] = rows[k].get(b, ZERO) + s.chart.coord(b) + 1
            rows[k] = dict(sorted(rows[k].items()))
            # a bump that keeps F an involution with G symmetric raises in neither
            monkeypatch.setattr(s.basis, "_inverse", tuple(rows))
            want = raised(lambda: dense_para_structure(s))
            assert raised(lambda: para_structure(s)) == want
            seen.append(want)
        assert any(w and "para-complex structure is not an involution" in w for w in seen)
        monkeypatch.setattr(s.basis, "_inverse", inverse)
        assert raised(lambda: para_structure(s)) is None

    @pytest.mark.parametrize("name", ["pool:parabola", "pool:standard-dim4",
                                      "push:2", "pool:standard@16"])
    def test_a_perturbed_g_entry_raises_as_the_dense_loops(self, name, monkeypatch):
        # one entry of omega's matrix changes without its antisymmetric
        # partner, so G = F^T omega may lose its symmetry there
        s = para_family(name)
        m = s.chart.dim
        matrix = s.omega.matrix
        seen = set()
        for c, b in ((0, 1), (m - 1, 0), (1, 1), (m // 2, m - 1)):
            rows = [list(row) for row in matrix]
            rows[c][b] = rows[c][b] + s.chart.coord(c)
            monkeypatch.setattr(s.omega, "_matrix", tuple(tuple(row) for row in rows))
            want = raised(lambda: dense_para_structure(s))
            assert raised(lambda: para_structure(s)) == want
            seen.add(want)
        failures = {w for w in seen if w and "neutral metric is not symmetric" in w}
        # on dim 2 every bump that breaks G breaks it at (0,1) first
        assert len(failures) > 1 or m == 2 and failures
        monkeypatch.setattr(s.omega, "_matrix", matrix)
        assert raised(lambda: para_structure(s)) is None


@pytest.mark.parametrize("build, flat, witnesses", [
    (parabola_structure, False, 4),
    (standard_structure, True, 0),
])
def test_flatness_verdict_on_dim16_lift(build, flat, witnesses):
    verdict = is_flat(lifted(build(), 16))
    assert verdict.flat is flat
    assert len(verdict.witnesses) == witnesses


class TestPush:
    def shear(self, ch):
        x, y = ch.coords()
        return SmoothMap(ch, ch, (x, y + x * x), (x, y - x * x))

    def distinct_chart_map(self, ch):
        uv = Chart(("u", "v"), symbols=ch.symbols)
        u, v = uv.coords()
        x, y = ch.coords()
        return SmoothMap(ch, uv, (x + y, y), (u - v, v))

    def test_pushed_structure_validates(self):
        s = standard_structure()
        psi = self.shear(s.chart)
        out = push_structure(psi, s)
        assert out.report.ok

    def test_push_to_distinct_chart(self):
        s = standard_structure()
        psi = self.distinct_chart_map(s.chart)
        out = push_structure(psi, s)
        assert out.chart.names == ("u", "v")
        assert out.report.ok

    def test_connection_commutes_with_push(self):
        s = standard_structure()
        psi = self.shear(s.chart)
        pushed_structure_conn = christoffels(push_structure(psi, s))
        pushed_conn = push_connection(psi, christoffels(s))
        assert connections_equal(pushed_structure_conn, pushed_conn)

    def test_para_commutes_with_push(self):
        s = standard_structure()
        psi = self.shear(s.chart)
        f_pushed = push_paracomplex(psi, s)
        pk = para_structure(push_structure(psi, s))
        for i in range(2):
            for j in range(2):
                assert equal_zero(f_pushed[i][j] - pk.F[i][j])

    def test_identity_push_is_noop(self):
        s = standard_structure()
        x, y = s.chart.coords()
        ident = SmoothMap(s.chart, s.chart, (x, y), (x, y))
        out = push_structure(ident, s)
        assert fields_equal(out.f1[0], s.f1[0])
        assert fields_equal(out.f2[0], s.f2[0])

    def test_push_composes(self):
        s = standard_structure()
        psi = self.shear(s.chart)
        x, y = s.chart.coords()
        phi = SmoothMap(s.chart, s.chart, (x + y, y), (x - y, y))
        both = phi.compose(psi)
        direct = push_structure(both, s)
        stepwise = push_structure(phi, push_structure(psi, s))
        assert fields_equal(direct.f1[0], stepwise.f1[0])
        assert fields_equal(direct.f2[0], stepwise.f2[0])

    def test_push_through_opaque_dependency_rejected(self):
        from bilag.symexpr import CompositionError

        s = parabola_structure()
        psi = self.shear(s.chart)
        with pytest.raises(CompositionError):
            push_structure(psi, s)
