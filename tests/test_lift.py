"""Cotangent-style lifts of structures and chart maps."""

import gc
import weakref

import pytest

from bilag import calculus, structures, symplectic
from bilag import lift as lift_module
from bilag.calculus import (
    CalculusError,
    Chart,
    SmoothMap,
    VectorField,
    form_from_matrix,
    lie_bracket,
    pullback_form,
    span_membership,
)
from bilag.lift import (
    LiftError,
    default_fiber_names,
    iterate_lift,
    lift_map,
    lift_structure,
    lifted_action_check,
)
from bilag.cli import find_scene
from bilag.scene import _structure_payload, load_scene
from bilag.structures import christoffels, curvature, push_structure, validate_bilagrangian
from bilag.symexpr import ONE, ZERO, OpaqueSymbol, as_expr, check_stream, coordinates, equal_zero
from bilag.symplectic import trivial_bundle_symplectic, validate_symplectic
from test_elimination import _workloads
from test_structures import STRUCTURES, curved_structure, noncommuting_structure
from test_structures import parabola_structure as concrete_parabola

H = OpaqueSymbol("h", ("x", "y"))


def standard_structure():
    ch = Chart(("x", "y"))
    om = validate_symplectic(form_from_matrix(ch, [[ZERO, -ONE], [ONE, ZERO]]))
    return validate_bilagrangian(
        om,
        [VectorField(ch, (ONE, ZERO))],
        [VectorField(ch, (ZERO, ONE))],
    )


def parabola_structure():
    ch = Chart(("x", "y"), symbols=(H,))
    x, y = ch.coords()
    hv = H.jet((0, 0))
    om = validate_symplectic(form_from_matrix(ch, [[ZERO, -hv], [hv, ZERO]]))
    return validate_bilagrangian(
        om,
        [VectorField(ch, (ONE, 2 * x))],
        [VectorField(ch, (ZERO, ONE))],
        adapted=(x, y - x * x),
    )


def affine_symplectomorphism(ch):
    x, y = ch.coords()
    two, three, five = as_expr(2), as_expr(3), as_expr(5)
    return SmoothMap(
        ch, ch,
        (two * x + three * y + ONE, x + two * y - ONE),
        (two * x - three * y - five, -x + two * y + three),
    )


def comp_strings(field):
    return tuple(str(c.normal()) for c in field.components)


class TestFiberNames:
    def test_two_dim_default(self):
        assert default_fiber_names(("x", "y"), 2) == ("s", "t")

    def test_collision_falls_back_to_numbered(self):
        names = default_fiber_names(("x", "s"), 2)
        assert "s" not in names
        assert len(names) == 2

    def test_higher_dim_numbered(self):
        names = default_fiber_names(("x", "y", "s", "t"), 4)
        assert len(names) == 4
        assert len(set(names)) == 4
        assert not set(names) & {"x", "y", "s", "t"}


class TestLiftStructure:
    def test_standard_lift_exact_frames(self):
        lifted = lift_structure(standard_structure())
        assert lifted.chart.names == ("x", "y", "s", "t")
        assert comp_strings(lifted.f1[0]) == ("1", "0", "0", "0")
        assert comp_strings(lifted.f1[1]) == ("0", "0", "0", "1")
        assert comp_strings(lifted.f2[0]) == ("0", "1", "0", "0")
        assert comp_strings(lifted.f2[1]) == ("0", "0", "1", "0")

    def test_standard_lift_adapted(self):
        lifted = lift_structure(standard_structure())
        assert tuple(str(a.normal()) for a in lifted.adapted) == ("x", "t", "y", "s")

    def test_standard_lift_omega_matrix(self):
        lifted = lift_structure(standard_structure())
        mat = lifted.omega.matrix
        expected = {
            (0, 1): -1, (1, 0): 1,
            (0, 2): -1, (2, 0): 1,
            (1, 3): -1, (3, 1): 1,
        }
        for i in range(4):
            for j in range(4):
                assert equal_zero(mat[i][j] - as_expr(expected.get((i, j), 0))), (i, j)

    def test_lift_revalidates(self):
        lifted = lift_structure(standard_structure())
        assert lifted.report.ok

    def test_parabola_lift_golden(self):
        lifted = lift_structure(parabola_structure())
        assert comp_strings(lifted.f1[0]) == ("1", "2*x", "-2*t", "0")
        assert comp_strings(lifted.f1[1]) == ("0", "0", "-2*x", "1")
        assert comp_strings(lifted.f2[0]) == ("0", "1", "0", "0")
        assert comp_strings(lifted.f2[1]) == ("0", "0", "1", "0")
        adapted = tuple(str(a.normal()) for a in lifted.adapted)
        assert adapted == ("x", "t", "-x^2 + y", "s + 2*t*x")

    def test_lifted_base_fields_commute_with_fiber_frame(self):
        lifted = lift_structure(parabola_structure())
        base_lift = lifted.f1[0]
        for fiber_field in (lifted.f1[1], lifted.f2[1]):
            br = lie_bracket(base_lift, fiber_field)
            assert br.is_zero() or all(equal_zero(c) for c in br.components)

    def test_explicit_fiber_names(self):
        lifted = lift_structure(standard_structure(), fiber_names=("p", "q"))
        assert lifted.chart.names == ("x", "y", "p", "q")

    def test_wrong_fiber_name_count(self):
        with pytest.raises((LiftError, ValueError)):
            lift_structure(standard_structure(), fiber_names=("p",))


class TestIterateLift:
    def test_two_steps_valid(self):
        lifted = iterate_lift(standard_structure(), 2)
        assert lifted.chart.dim == 8
        assert lifted.report.ok

    def test_zero_steps_identity(self):
        s = standard_structure()
        assert iterate_lift(s, 0) is s

    def test_dimension_cap_enforced(self):
        with pytest.raises(LiftError) as err:
            iterate_lift(standard_structure(), 4)
        assert "max_dim" in str(err.value)

    def test_cap_can_be_raised(self):
        lifted = iterate_lift(standard_structure(), 3, max_dim=16)
        assert lifted.chart.dim == 16
        assert lifted.report.ok

    def test_fiber_names_give_the_single_lift(self):
        s = standard_structure()
        lifted = iterate_lift(s, 1, fiber_names=("a", "b"))
        single = lift_structure(s, ("a", "b"))
        assert lifted.chart.names == single.chart.names == ("x", "y", "a", "b")
        assert _structure_payload(lifted) == _structure_payload(single)

    def test_fiber_names_obey_the_cap(self):
        with pytest.raises(LiftError) as err:
            iterate_lift(standard_structure(), 1, max_dim=2, fiber_names=("a", "b"))
        assert str(err.value) == ("lift 1 of 1 needs a 4-dimensional chart, above the cap "
                                  "of 2; raise max_dim to proceed")


class TestLiftMap:
    def test_affine_fiber_components_golden(self):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        lm = lift_map(psi, omega=s.omega)
        fiber = [str(c.normal()) for c in lm.map.components[2:]]
        assert fiber == ["2*s - t", "-3*s + 2*t"]

    def test_fiber_block_recorded(self):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        lm = lift_map(psi, omega=s.omega)
        expected = [[2, -1], [-3, 2]]
        for i in range(2):
            for j in range(2):
                assert equal_zero(lm.fiber_block[i][j] - as_expr(expected[i][j]))

    def test_preserves_lifted_form(self):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        lm = lift_map(psi, omega=s.omega)
        assert lm.preserves_form is True
        lifted_omega = lift_structure(s).omega
        pulled = pullback_form(lm.map, lifted_omega.form)
        keys = set(pulled.coeffs) | set(lifted_omega.form.coeffs)
        assert all(
            equal_zero(pulled.coeffs.get(k, ZERO) - lifted_omega.form.coeffs.get(k, ZERO))
            for k in keys
        )

    def test_without_omega_flag_is_none(self):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        assert lift_map(psi).preserves_form is None

    def test_non_symplectomorphism_flagged(self):
        s = standard_structure()
        x, y = s.chart.coords()
        two = as_expr(2)
        stretch = SmoothMap(s.chart, s.chart, (two * x, y), (x / two, y))
        assert lift_map(stretch, omega=s.omega).preserves_form is False

    def test_lift_of_inverse_is_inverse_of_lift(self):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        lm = lift_map(psi)
        lm_inv = lift_map(psi.inverse())
        composed = lm_inv.map.compose(lm.map)
        for name, comp in zip(composed.source.names, composed.components):
            assert equal_zero(comp - composed.source.coord(composed.source.index(name)))

    def test_lift_functorial(self):
        s = standard_structure()
        x, y = s.chart.coords()
        psi = affine_symplectomorphism(s.chart)
        phi = SmoothMap(s.chart, s.chart, (x, y + x * x), (x, y - x * x))
        direct = lift_map(psi.compose(phi))
        stepwise = lift_map(psi).map.compose(lift_map(phi).map)
        for a, b in zip(direct.map.components, stepwise.components):
            assert equal_zero(a - b)

    def test_jacobian_block_structure(self):
        # base coordinates of the lifted map never involve fiber variables
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        lm = lift_map(psi)
        from bilag.symexpr import diff, is_zero

        for base_comp in lm.map.components[:2]:
            for fiber_name in lm.map.source.names[2:]:
                assert is_zero(diff(base_comp, fiber_name))


class TestLiftMapProof:
    """A map is proved where it is made, so lift_map does not validate the
    lift afresh: it proves only the lift's fiber round trips."""

    @staticmethod
    def spied(monkeypatch):
        # every zero test the round trips and the form check make
        trees = []

        def recording(e):
            trees.append(e)
            return equal_zero(e)

        monkeypatch.setattr(calculus, "equal_zero", recording)
        monkeypatch.setattr(lift_module, "equal_zero", recording)
        return trees

    def test_a_lift_proves_only_its_fiber_round_trips(self, monkeypatch):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        trees = self.spied(monkeypatch)
        lm = lift_map(psi)
        fiber = set(lm.map.source.names[2:])
        # two fiber coordinates, each round-tripped both ways
        assert len(trees) == 4
        assert all(coordinates(t) & fiber for t in trees)
        # and the lift's inverse proves nothing
        lm.map.inverse()
        assert len(trees) == 4

    def test_a_lift_is_lifted_again_on_its_new_fibers_alone(self, monkeypatch):
        s = standard_structure()
        lm = lift_map(affine_symplectomorphism(s.chart))
        trees = self.spied(monkeypatch)
        again = lift_map(lm.map)
        fiber = set(again.map.source.names[4:])
        assert len(trees) == 8
        assert all(coordinates(t) & fiber for t in trees)

    def test_a_map_is_proved_on_its_own_charts_where_it_is_made(self, monkeypatch):
        s = standard_structure()
        x, y = s.chart.coords()
        trees = self.spied(monkeypatch)
        psi = SmoothMap(s.chart, s.chart, (x, y + x * x), (x, y - x * x))
        lm = lift_map(psi)
        fiber = set(lm.map.source.names[2:])
        # psi's four round trips on the base names, then the lift's four
        assert len(trees) == 8
        assert [bool(coordinates(t) & fiber) for t in trees] == [False] * 4 + [True] * 4

    @pytest.mark.parametrize("comps, invs, message", [
        (lambda x, y: (x + y * y, y), lambda x, y: (x - y, y),
         "coordinate 'x' round-trips to x + y*y + (-1)*y"),
        (lambda x, y: (x, y + x * x), lambda x, y: (x, y + x * x),
         "coordinate 'y' round-trips to y + x*x + x*x"),
        (lambda x, y: (x + 1, 2 * y), lambda x, y: (x - 1, y),
         "coordinate 'y' round-trips to 2*y"),
    ])
    def test_a_wrong_inverse_raises_where_the_map_is_made(self, comps, invs, message):
        # the first coordinate whose round trip fails is named, inverse
        # direction first
        s = standard_structure()
        x, y = s.chart.coords()
        with pytest.raises(CalculusError) as err:
            SmoothMap(s.chart, s.chart, comps(x, y), invs(x, y))
        assert str(err.value) == "inverse components do not invert the map: " + message


class TestActionCheck:
    def test_affine_action_consistent(self):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        res = lifted_action_check(psi, s)
        assert res.equal
        assert res.omega_match
        assert all(v.passed for v in res.verdicts)

    def test_shear_action_consistent(self):
        s = standard_structure()
        x, y = s.chart.coords()
        shear = SmoothMap(s.chart, s.chart, (x, y + x * x), (x, y - x * x))
        res = lifted_action_check(shear, s)
        assert res.equal
        assert res.omega_match

    def test_both_routes_recorded(self):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        res = lifted_action_check(psi, s)
        assert res.hat.chart.dim == 4
        assert res.tilde.chart.dim == 4
        # every generator of each route lies in the span of the other route
        for verdict in res.verdicts:
            assert verdict.passed, verdict.name


def eliminated(r):
    """(label, ok, detail, certificate) per verdict of the four-elimination
    route, each leaf's frames eliminated in both directions, on r's lifts."""
    out = []
    for leaf, hat_fol, tilde_fol in (("F1", r.hat.f1, r.tilde.f1), ("F2", r.hat.f2, r.tilde.f2)):
        pushed = (f"pushed-then-lifted {leaf}", hat_fol)
        lifted = (f"lifted-then-pushed {leaf}", tilde_fol)
        for (label_a, fields_a), (label_b, fields_b) in ((pushed, lifted), (lifted, pushed)):
            for idx, (ok, cert) in enumerate(span_membership(fields_a, fields_b)):
                detail = ("coefficients (" + ", ".join(str(c) for c in cert) + ")" if ok
                          else f"unmatched component {r.hat.chart.names[cert]}")
                out.append((f"{label_a} generator {idx + 1} in span {label_b}", ok, detail, cert))
    return out


def spy(monkeypatch, module, name, calls=None):
    """The argument tuples of every call to module.name from now on,
    appended to `calls` (default: a new list), which is returned."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


class TestDerivedReverseCertificates:
    """A passing leaf's reverse certificates are the rows of the inverse of
    its forward coefficient matrix; they are the ones elimination gives."""

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_inverted_rows_are_the_reverse_eliminations(self, seed, monkeypatch):
        wl = _workloads()
        inverted = []
        real = lift_module.sym_inverse
        monkeypatch.setattr(lift_module, "sym_inverse",
                            lambda matrix: inverted.append(real(matrix)) or inverted[-1])
        for kind, spec in wl.transport_specs(seed):
            plane = wl.plane_structure(kind)
            psi = wl.build_map(plane.chart, spec)
            deeper = lift_map(psi, plane.omega).map, lift_structure(plane)
            for p, s in ((psi, plane), (psi, curved_structure()), deeper):
                r = lifted_action_check(p, s)
                reference = eliminated(r)
                assert r.equal
                assert [(v.name, v.passed, v.detail) for v in r.verdicts] == \
                    [ref[:3] for ref in reference]
                # the check's own inverses come after the two lifts' K matrices
                n = r.hat.n
                reverse = [ref[3] for ref in reference[n:2 * n] + reference[3 * n:]]
                derived = [row for matrix in inverted[-2:] for row in matrix]
                assert [[c.normal() for c in row] for row in derived] == \
                    [[c.normal() for c in cert] for cert in reverse]

    def test_a_passing_check_eliminates_once_per_leaf(self, monkeypatch):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        calls = spy(monkeypatch, lift_module, "span_membership")
        res = lifted_action_check(psi, s)
        assert res.equal
        assert calls == [(res.hat.f1, res.tilde.f1), (res.hat.f2, res.tilde.f2)]

    def test_a_forward_failure_eliminates_the_reverse_direction(self, monkeypatch):
        # lift psi . bump but push along psi: the horizontal bump moves F2
        wl = _workloads()
        kind, spec = wl.transport_specs(1)[0]
        s = wl.plane_structure(kind)
        psi = wl.build_map(s.chart, spec)
        wrong = psi.compose(wl.bump_map(s.chart, spec["shear"]))
        real_lift_map = lift_module.lift_map
        monkeypatch.setattr(lift_module, "lift_map",
                            lambda _, omega, names: real_lift_map(wrong, omega, names))
        calls = spy(monkeypatch, lift_module, "span_membership")
        r = lifted_action_check(psi, s)
        assert not r.equal
        assert [(v.name, v.passed, v.detail) for v in r.verdicts] == \
            [ref[:3] for ref in eliminated(r)]
        assert [repr(v) for v in r.verdicts if not v.passed] == FAILING_WITNESSES
        # F1 passes forward and takes the inverse; F2 is eliminated both ways
        assert calls == [(r.hat.f1, r.tilde.f1), (r.hat.f2, r.tilde.f2), (r.tilde.f2, r.hat.f2)]


# the failures the four-elimination route reported for the forward-failure
# control above
FAILING_WITNESSES = [
    "[FAIL] pushed-then-lifted F2 generator 1 in span lifted-then-pushed F2: "
    "unmatched component x",
    "[FAIL] pushed-then-lifted F2 generator 2 in span lifted-then-pushed F2: "
    "unmatched component t",
    "[FAIL] lifted-then-pushed F2 generator 1 in span pushed-then-lifted F2: "
    "unmatched component x",
    "[FAIL] lifted-then-pushed F2 generator 2 in span pushed-then-lifted F2: "
    "unmatched component t",
]


class TestValidatedOnce:
    """The lifted form and a pushed structure are validated once per input
    and check stream: a repeat gets the same object, other inputs or another
    stream a fresh one, which replaces the one kept."""

    def test_the_bundle_form_is_kept_per_chart_and_stream(self):
        s = standard_structure()
        first = trivial_bundle_symplectic(s.omega, s.chart.extend(("s", "t")))
        assert trivial_bundle_symplectic(s.omega, s.chart.extend(("s", "t"))) is first
        with check_stream("elsewhere"):
            assert trivial_bundle_symplectic(s.omega, s.chart.extend(("s", "t"))) is not first
        other = trivial_bundle_symplectic(s.omega, s.chart.extend(("a", "b")))
        assert other.chart.names == ("x", "y", "a", "b")

    def test_a_chart_with_other_symbols_gets_its_own_form(self):
        s = parabola_structure()
        plain = Chart(s.chart.names)
        x, y = plain.coords()
        lift_map(SmoothMap(plain, plain, (x, y), (x, y)), s.omega)
        assert lift_structure(s).chart.symbols == (H,)

    def test_the_lifted_map_and_the_lifted_structure_share_the_form(self, monkeypatch):
        s = standard_structure()
        lift_map(affine_symplectomorphism(s.chart), s.omega)
        validated = spy(monkeypatch, symplectic, "validate_symplectic")
        lifted = lift_structure(s)
        assert validated == []
        assert lifted.omega is trivial_bundle_symplectic(s.omega, lifted.chart)

    def test_a_push_is_kept_per_map_and_stream(self):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        first = push_structure(psi, s)
        assert push_structure(psi, s) is first
        assert push_structure(affine_symplectomorphism(s.chart), s) is not first
        with check_stream("elsewhere"):
            assert push_structure(psi, s) is not first

    def test_an_owner_keeps_one_value(self):
        # a structure keeps only its last push and a form its last bundle
        # lift; the first push's report, which nothing else holds, is freed
        wl = _workloads()
        s = wl.plane_structure("parabola")
        maps = [wl.build_map(s.chart, spec)
                for seed in (1, 2, 3, 4) for _, spec in wl.transport_specs(seed)]
        assert len(maps) == 40
        first = weakref.ref(push_structure(maps[0], s).report)
        for psi in maps[1:]:
            push_structure(psi, s)
        gc.collect()
        assert first() is None
        (key, _), last = s._kept
        assert key is maps[-1] and push_structure(maps[-1], s) is last
        trivial_bundle_symplectic(s.omega, s.chart.extend(("s", "t")))
        form = trivial_bundle_symplectic(s.omega, s.chart.extend(("a", "b")))
        (key, _), kept = s.omega._kept
        assert key == (("x", "y", "a", "b"), s.chart.symbols) and kept is form

    @pytest.mark.parametrize("pushed_first, validated", [(False, 4), (True, 3)])
    def test_the_check_reuses_the_callers_push(self, monkeypatch, pushed_first, validated):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        if pushed_first:
            push_structure(psi, s)
        calls = spy(monkeypatch, structures, "validate_bilagrangian")
        spy(monkeypatch, lift_module, "validate_bilagrangian", calls)
        assert lifted_action_check(psi, s).equal
        assert len(calls) == validated


def _pushed_concrete_parabola():
    """The parabola with h = 1 + x^2, pushed along affine-action's shear."""
    scene = load_scene(find_scene("affine-action"))
    x = scene.chart.coord(0)
    return push_structure(scene.maps["shear"], concrete_parabola(h_value=1 + x * x))


TWO_DIMENSIONAL = ("parabola", "rescaled", "standard")

SELF_SIMILAR = {
    **{name: STRUCTURES[name] for name in TWO_DIMENSIONAL},
    **{f"scene-{name}": (lambda name=name: load_scene(find_scene(name)).structure())
       for name in ("standard", "parabola", "lifted-standard", "affine-action")},
    "pushed-parabola": _pushed_concrete_parabola,
}


def _tables(s):
    """The Gamma and R entries, each as {index tuple: normal form}."""
    conn = christoffels(s)
    return [{idx: e.normal() for idx, e in table.entries.items()}
            for table in (conn, curvature(conn))]


class TestLiftSelfSimilarity:
    """From depth 1 on, lifting a structure on a 2-dimensional chart doubles
    every index of its Gamma and R tables: the entry at (i, j, l) at depth k
    reappears at (2i, 2j, 2l) at depth k + 1 with an equal normal form, and
    no other entry appears.  Checked at k = 1 and 2 (dims 4 -> 8 -> 16); an
    observation on these structures, not a theorem."""

    def test_pool_holds_every_two_dimensional_structure(self):
        two = {name for name, build in STRUCTURES.items() if build().chart.dim == 2}
        assert two == set(TWO_DIMENSIONAL)

    @pytest.mark.parametrize("name", sorted(SELF_SIMILAR))
    def test_every_index_doubled(self, name):
        s = lift_structure(SELF_SIMILAR[name]())
        previous = _tables(s)
        for _ in (1, 2):
            s = lift_structure(s)
            current = _tables(s)
            for before, after in zip(previous, current):
                assert {tuple(2 * i for i in idx): e for idx, e in before.items()} == after
            previous = current

    def test_doubling_fails_on_a_four_dimensional_base(self):
        # on noncommuting-dim4 the dim-8 entry (0, 1, 1) stays put at dim 16
        s8 = lift_structure(noncommuting_structure())
        g8 = christoffels(s8).entries
        g16 = christoffels(lift_structure(s8)).entries
        assert str(g8[(0, 1, 1)]) == "2*x1/(x1^2 + 1)"
        assert str(g16[(0, 1, 1)]) == "2*x1/(x1^2 + 1)"
        assert (0, 2, 2) not in g16
