"""The Hess connection by the frame formula, against the D-map routes it
replaced, and a non-flat family with known answers.

In the foliation frame, christoffels takes the same-leaf symbols from
omega's frame matrix and the nonzero structure functions.  The reference
below is the route it replaced: one d_map and one decomposition per
same-leaf pair.  In the coordinate frame, christoffels re-expresses that
connection by a change of frame; its reference is one ref_hess_nabla (split
fields, D map, split brackets) per coordinate pair.  Each pair of routes
must give the same entries, in the same order, with the same printed text.
hess_nabla, and so the `hess` task, is the kept connection applied to
arbitrary fields; it must print what ref_hess_nabla prints.
"""

import functools
import json

import pytest

from bilag.calculus import FrameBasis, VectorField, coordinate_frame
from bilag.cli import main
from bilag.lift import lifted_action_check
from bilag.scene import _field_payload
from bilag.structures import (
    Connection,
    christoffels,
    connections_equal,
    d_map,
    hess_nabla,
    is_flat,
    levi_civita_oracle,
    para_structure,
    push_connection,
    push_structure,
)
from bilag.symexpr import ZERO
from test_elimination import _workloads
from test_structures import (
    NATIVE_DIM,
    STRUCTURES,
    curved_structure,
    lifted,
    parabola_structure,
    ref_hess_nabla,
    standard_structure,
    torsion_witnesses,
)


def reference_christoffels(s):
    """The foliation-frame connection with every same-leaf entry taken from
    D(E_i, E_j) decomposed in the frame, and the cross-leaf entries from the
    structure functions."""
    n = s.n
    fields = s.frame
    basis = s.basis

    def entries():
        for i, x in enumerate(fields):
            for j, y in enumerate(fields):
                if i // n == j // n:
                    for k, g in enumerate(basis.decompose(d_map(s, x, y))):
                        yield (i, j, k), g
        for (i, j, k), c in basis.structure.entries.items():
            if i // n != j // n == k // n:
                yield (i, j, k), c

    return Connection(basis, entries())


def reference_coordinate_christoffels(s):
    """The coordinate-frame connection with every entry taken from
    nabla_{d_a} d_b by the D map (ref_hess_nabla), decomposed in the frame."""
    fields = coordinate_frame(s.chart)
    basis = FrameBasis(fields)
    return Connection(basis, (
        ((a, b, c), g)
        for a, x in enumerate(fields) for b, y in enumerate(fields)
        for c, g in enumerate(basis.decompose(ref_hess_nabla(s, x, y)))
    ))


@functools.lru_cache(maxsize=None)
def transport_push(seed, index):
    """The transport workload's push number `index` at `seed`."""
    wl = _workloads()
    kind, spec = wl.transport_specs(seed)[index]
    s = wl.plane_structure(kind)
    return push_structure(wl.build_map(s.chart, spec), s)


CASES = dict(STRUCTURES, **{
    "curved": curved_structure,
    "parabola-dim16": lambda: lifted(parabola_structure(), 16),
    "standard-dim16": lambda: lifted(standard_structure(), 16),
})


def assert_same_connection(s):
    fast, reference = christoffels(s), reference_christoffels(s)
    assert list(fast.entries) == list(reference.entries)
    assert repr(fast) == repr(reference)


def assert_same_coordinate_connection(s):
    fast, reference = christoffels(s, "coordinate"), reference_coordinate_christoffels(s)
    assert [str(f) for f in fast.frame] == [str(f) for f in reference.frame]
    assert ([(idx, str(g)) for idx, g in fast.entries.items()]
            == [(idx, str(g)) for idx, g in reference.entries.items()])
    assert repr(fast) == repr(reference)


@functools.lru_cache(maxsize=None)
def curved_push(index):
    """The curved structure pushed by the transport map number `index` at seed 1."""
    wl = _workloads()
    kind, spec = wl.transport_specs(1)[index]
    s = curved_structure()
    return push_structure(wl.build_map(s.chart, spec), s)


@pytest.mark.parametrize("name", sorted(CASES))
def test_coordinate_frame_matches_the_d_map_route(name):
    assert_same_coordinate_connection(CASES[name]())


@pytest.mark.parametrize("index", range(10))
def test_coordinate_frame_matches_the_d_map_route_on_the_curved_pushes(index):
    assert_same_coordinate_connection(curved_push(index))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("index", range(10))
def test_coordinate_frame_matches_the_d_map_route_on_the_transport_pushes(seed, index):
    assert_same_coordinate_connection(transport_push(seed, index))


@pytest.mark.parametrize("name", sorted(CASES))
def test_frame_formula_matches_the_d_map_route(name):
    assert_same_connection(CASES[name]())


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("index", range(10))
@pytest.mark.parametrize("dim", [2, 4])
def test_frame_formula_matches_the_d_map_route_on_the_transport_pushes(seed, index, dim):
    assert_same_connection(lifted(transport_push(seed, index), dim))


HESS_CASES = dict(STRUCTURES, curved=curved_structure, **{
    f"transport-{index}": functools.partial(transport_push, 1, index) for index in range(10)})


@pytest.mark.parametrize("name", sorted(HESS_CASES))
@pytest.mark.parametrize("dim", [None, 16], ids=["native", "dim16"])
def test_hess_nabla_prints_the_reference(name, dim):
    # every frame pair, a coordinate pair, and a field with non-constant
    # components on either side
    s = HESS_CASES[name]()
    if dim is not None:
        s = lifted(s, dim)
    coords = coordinate_frame(s.chart)
    names = s.chart.coords()
    wavy = VectorField(s.chart, names[1:] + names[:1])
    pairs = [(x, y) for x in s.frame for y in s.frame]
    pairs += [(coords[0], coords[-1]), (wavy, s.frame[-1]), (s.frame[0], wavy)]
    for x, y in pairs:
        assert _field_payload(hess_nabla(s, x, y)) == _field_payload(ref_hess_nabla(s, x, y))


def test_the_hess_task_on_the_parabola(capsys):
    assert main(["hess", "--scene", "parabola", "--format", "machine", "--seed", "5"]) == 0
    (task,) = json.loads(capsys.readouterr().out)["tasks"]
    assert task["payload"]["table"] == {
        "nabla_U U": ["(h_x + 2*h_y*x)/h", "(2*h_x*x + 4*h_y*x^2)/h"],
        "nabla_U V": ["0", "0"],
        "nabla_V U": ["0", "0"],
        "nabla_V V": ["0", "h_y/h"],
    }
    assert task["messages"] == [
        "nabla_U U = ((h_x + 2*h_y*x)/h, (2*h_x*x + 4*h_y*x^2)/h)",
        "nabla_U V = (0, 0)",
        "nabla_V U = (0, 0)",
        "nabla_V V = (0, h_y/h)",
    ]


@pytest.mark.parametrize("name, dim", [(name, dim) for name in sorted(STRUCTURES)
                                       for dim in (2, 4, 8, 16) if dim >= NATIVE_DIM[name]])
def test_torsion_free_on_the_pool_and_its_lifts(name, dim):
    assert torsion_witnesses(christoffels(lifted(STRUCTURES[name](), dim))) == []


@pytest.mark.parametrize("index", range(10))
def test_torsion_free_on_the_transport_pushes(index):
    assert torsion_witnesses(christoffels(transport_push(1, index))) == []


@pytest.mark.parametrize("name", ["rescaled", "noncommuting-dim4"])
def test_torsion_check_fails_on_a_mutated_cross_entry(name):
    # T(E_i, E_j) reads Gamma^k_ij and Gamma^k_ji once each, so negating or
    # dropping one stored entry with i != j leaves exactly that pair torsioned
    conn = christoffels(STRUCTURES[name]())
    mixed = [idx for idx in conn.entries if idx[0] != idx[1]]
    assert mixed
    for target in mixed:
        i, j, _ = target
        for mutate in (lambda g: -g, lambda g: ZERO):
            bad = Connection(conn.basis, ((idx, mutate(g) if idx == target else g)
                                          for idx, g in conn.entries.items()))
            assert torsion_witnesses(bad) == [(min(i, j), max(i, j))], target


class TestCurvedFamily:
    """omega = (1 + y^2) dx^dy with F1 = <d/dx + 2x d/dy>, F2 = <d/dy>: a
    structure that is not flat, and its pushes by the transport maps."""

    def test_christoffel_symbols(self):
        assert repr(christoffels(curved_structure())) == (
            "Connection(Gamma^1_11 = 4*x*y/(y^2 + 1); Gamma^2_22 = 2*y/(y^2 + 1))")

    def test_torsion_free(self):
        assert torsion_witnesses(christoffels(curved_structure())) == []

    @pytest.mark.parametrize("dim", [2, 4])
    def test_not_flat_and_agrees_with_the_oracle(self, dim):
        s = lifted(curved_structure(), dim)
        verdict = is_flat(s)
        assert not verdict.flat
        assert len(verdict.witnesses) == 4
        assert connections_equal(verdict.connection, levi_civita_oracle(para_structure(s)))

    @pytest.mark.parametrize("index", range(10))
    def test_transport_push_stays_curved_and_coherent(self, index):
        wl = _workloads()
        kind, spec = wl.transport_specs(1)[index]
        s = curved_structure()
        psi = wl.build_map(s.chart, spec)
        pushed = push_structure(psi, s)
        assert not is_flat(pushed).flat
        assert connections_equal(christoffels(pushed), push_connection(psi, christoffels(s)))
        action = lifted_action_check(psi, s)
        assert action.equal and action.omega_match
