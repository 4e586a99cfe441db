"""A structure keeps its foliation-frame connection and a connection its
curvature; the oracle's and the lift's loops that skip work build the trees
the full loops built."""

import pytest

from bilag import lift, structures
from bilag.calculus import FrameBasis, coordinate_frame, sym_inverse
from bilag.cli import find_scene
from bilag.scene import load_scene, run_task
from bilag.structures import (
    Connection,
    christoffels,
    curvature,
    is_flat,
    levi_civita_oracle,
    para_structure,
)
from bilag.symexpr import ZERO, compact, coordinates, diff, dot
from test_dependency_sets import shape
from test_structures import STRUCTURES, lifted


def same_trees(table):
    return {idx: (str(e), shape(e)) for idx, e in table.entries.items()}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_connection_and_curvature_are_built_once(name):
    s = STRUCTURES[name]()
    conn = christoffels(s)
    assert christoffels(s) is conn
    curv = curvature(conn)
    assert curvature(conn) is curv
    verdict = is_flat(s)
    assert verdict.connection is conn and verdict.curvature is curv
    # a connection of its own has a curvature of its own
    other = Connection(s.basis, conn.entries.items())
    assert curvature(other) is not curv
    assert same_trees(curvature(other)) == same_trees(curv)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_coordinate_frame_table_is_unchanged(name):
    s = STRUCTURES[name]()
    fresh = Connection(s.basis, structures._foliation_christoffels(s)).in_coordinates()
    christoffels(s)  # the kept connection serves the coordinate frame
    got = christoffels(s, "coordinate")
    assert got is not christoffels(s, "coordinate")
    assert same_trees(got) == same_trees(fresh)


def counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("scene_name", ["parabola", "standard"])
def test_report_tasks_build_one_connection_and_one_curvature(scene_name, monkeypatch):
    scene = load_scene(find_scene(scene_name))
    builds = counted(monkeypatch, structures, "_foliation_christoffels")
    terms = counted(monkeypatch, structures, "_curvature_terms")
    # the calls one curvature table makes, on a structure of its own
    curvature(christoffels(load_scene(find_scene(scene_name)).structure()))
    assert len(builds) == 1
    once = len(terms)
    operations = ("christoffels", "curvature", "flat")
    tasks = [t for t in scene.tasks if t.operation in operations]
    assert [t.operation for t in tasks] == list(operations)
    for task in tasks:
        assert run_task(scene, task).status in ("computed", "pass")
    assert len(builds) == 2
    assert len(terms) == 2 * once


def reference_oracle(para):
    """levi_civita_oracle with its loop over every (b, c, a) triple."""
    chart = para.chart
    m = chart.dim
    G = para.G
    Ginv = sym_inverse([list(row) for row in G])
    sums = {}
    for b in range(m):
        for c in range(m):
            deps = coordinates(G[b][c])
            for a, name in enumerate(chart.names):
                if name in deps:
                    d = diff(G[b][c], name)
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


def reference_lift_base_field(bundle, e, jac, kxi):
    """_lift_base_field with the field's derivation taken per entry."""
    n2 = len(jac)
    fiber = [(n2 + i, dot([e.apply(jac[l][i]) for l in range(n2)], kxi)) for i in range(n2)]
    return lift.VectorField.from_entries(bundle, list(e.entries.items()) + fiber)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_oracle_builds_the_full_loops_trees(name):
    for dim in (4, 16):
        para = para_structure(lifted(STRUCTURES[name](), dim))
        assert same_trees(levi_civita_oracle(para)) == same_trees(reference_oracle(para))


@pytest.mark.parametrize("name", ["parabola", "standard", "rescaled"])
def test_lift_builds_the_per_entry_trees(name, monkeypatch):
    s = lifted(STRUCTURES[name](), 8)
    got = lift.lift_structure(s)
    monkeypatch.setattr(lift, "_lift_base_field", reference_lift_base_field)
    want = lift.lift_structure(s)
    for f, g in zip(got.frame, want.frame):
        assert list(f.entries) == list(g.entries)
        assert [(str(e), shape(e)) for e in f.entries.values()] == \
            [(str(e), shape(e)) for e in g.entries.values()]
