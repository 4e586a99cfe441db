"""The sparse frame tables: the structure functions c, Gamma and R store
only their nonzero entries."""

import itertools

import pytest

from bilag.calculus import Chart, FrameBasis, VectorField, lie_bracket
from bilag.structures import (
    Connection,
    christoffels,
    curvature,
    is_flat,
    levi_civita_oracle,
    para_structure,
)
from bilag.symexpr import ONE, ZERO, compact, is_zero
from test_frame_formula import transport_push
from test_structures import NATIVE_DIM, STRUCTURES, dense_curvature, lifted, parabola_structure

# every pool structure at its own dimension and lifted to dims 4 and 8
CASES = [(name, dim) for name in sorted(STRUCTURES) for dim in (2, 4, 8)
         if dim >= NATIVE_DIM[name]]


def build(name, dim):
    return lifted(STRUCTURES[name](), dim)


def tables(s):
    conn = christoffels(s)
    return {
        "structure": s.basis.structure,
        "gamma": conn,
        "gamma-coordinate": christoffels(s, "coordinate"),
        "curvature": curvature(conn),
        "oracle": levi_civita_oracle(para_structure(s)),
    }


def dense_cells(view, rank):
    """(index tuple, entry) for every slot of a nested-tuple view."""
    cells = [((), view)]
    for _ in range(rank):
        cells = [(idx + (i,), sub) for idx, t in cells for i, sub in enumerate(t)]
    return cells


@pytest.mark.parametrize("name, dim", CASES)
def test_tables_store_only_nonzero_entries_in_order(name, dim):
    for label, table in tables(build(name, dim)).items():
        keys = list(table.entries)
        assert keys == sorted(keys), label
        assert not any(is_zero(e) for e in table.entries.values()), label
        assert table.is_zero() == (not keys), label


@pytest.mark.parametrize("name, dim", CASES)
def test_coefficient_and_dense_views_agree(name, dim):
    for label, table in tables(build(name, dim)).items():
        n = len(table.frame)
        views = [table.table] + ([table.gamma] if isinstance(table, Connection) else [])
        for idx in itertools.product(range(n), repeat=table.rank):
            entry = table.coefficient(*idx)
            if idx not in table.entries:
                assert entry is ZERO, (label, idx)
            else:
                assert entry is table.entries[idx], (label, idx)
        for view in views:
            cells = dense_cells(view, table.rank)
            assert len(cells) == n ** table.rank, label
            for idx, entry in cells:
                assert entry is table.coefficient(*idx), (label, idx)


def assert_structure_is_fresh(basis):
    """basis.structure holds, for each i < j, the nonzero coefficients c of
    [E_i, E_j] decomposed afresh at (i, j, k) and their compacted negations
    at (j, i, k), and nothing else; so it is antisymmetric in i and j."""
    fields = basis.fields
    expected = {}
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            for k, c in enumerate(basis.decompose(lie_bracket(fields[i], fields[j]))):
                if not is_zero(c):
                    expected[i, j, k] = str(c)
                    expected[j, i, k] = str(compact(-c))
    entries = basis.structure.entries
    assert {idx: str(c) for idx, c in entries.items()} == expected
    for (i, j, k), c in entries.items():
        assert is_zero(c + entries[j, i, k]), (i, j, k)


@pytest.mark.parametrize("name, dim", CASES)
def test_structure_functions_are_antisymmetric_and_fresh(name, dim):
    assert_structure_is_fresh(build(name, dim).basis)


def test_table_constructor_sorts_and_drops_zero_forms():
    conn = christoffels(STRUCTURES["parabola"]())
    x = conn.chart.coords()[0]
    pairs = [((1, 1, 1), x), ((0, 0, 0), x - x), ((0, 1, 0), 2 * x)]
    rebuilt = type(conn)(conn.basis, pairs)
    assert list(rebuilt.entries) == [(0, 1, 0), (1, 1, 1)]
    assert rebuilt.coefficient(0, 0, 0) is ZERO


def test_dim16_parabola_flatness_stores_four_curvature_entries():
    verdict = is_flat(lifted(parabola_structure(), 16))
    assert not verdict.flat
    assert len(verdict.curvature.entries) == 4
    assert [idx for idx, _ in verdict.witnesses] == list(verdict.curvature.entries)


def assert_curvature_is_dense(conn):
    """curvature(conn) stores exactly the nonzero entries of the n^5 reference."""
    dense = {idx: e for idx, e in dense_cells(dense_curvature(conn), 4) if not is_zero(e)}
    sparse = curvature(conn).entries
    assert list(sparse) == sorted(dense)
    for idx, e in sparse.items():
        assert e.normal() == dense[idx].normal(), idx


# curvature visits only the k with a term; these are the frames where
# the restriction could drop one
@pytest.mark.parametrize("name", ["parabola", "standard", "noncommuting-dim4"])
def test_dim16_curvature_and_structure_match_the_references(name):
    s = build(name, 16)
    assert_structure_is_fresh(s.basis)
    assert_curvature_is_dense(christoffels(s))


def test_curvature_term_reached_only_through_the_structure_functions():
    # [E_1, E_2] = E_3 and Gamma^1_{33} = y is the only symbol, so
    # R^1_{123} = -c^3_{12} Gamma^1_{33} comes from neither Gamma_{1.} nor Gamma_{2.}
    chart = Chart(("x", "y", "z"))
    x, y, _ = chart.coords()
    frame = (VectorField(chart, (ONE, ZERO, ZERO)), VectorField(chart, (ZERO, ONE, x)),
             VectorField(chart, (ZERO, ZERO, ONE)))
    conn = Connection(FrameBasis(frame), [((2, 2, 0), y)])
    assert_curvature_is_dense(conn)
    assert is_zero(curvature(conn).coefficient(0, 1, 2, 0) + y)


@pytest.mark.parametrize("index", range(10))
def test_transport_push_curvature_and_structure_match_the_references(index):
    s = transport_push(1, index)
    assert_structure_is_fresh(s.basis)
    assert_curvature_is_dense(christoffels(s))
