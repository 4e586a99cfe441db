"""Cotangent-style lifts of structures and chart maps."""

import pytest

from bilag import calculus
from bilag import lift as lift_module
from bilag.calculus import (
    CalculusError,
    Chart,
    SmoothMap,
    VectorField,
    form_from_matrix,
    lie_bracket,
    pullback_form,
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
from bilag.scene import load_scene
from bilag.structures import christoffels, curvature, push_structure, validate_bilagrangian
from bilag.symexpr import ONE, ZERO, OpaqueSymbol, as_expr, coordinates, equal_zero
from bilag.symplectic import validate_symplectic
from test_structures import STRUCTURES, noncommuting_structure
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


class TestLiftMapCertificate:
    """lift_map certifies the lift without validating it afresh: it proves
    psi's round trips only when psi is not certified, and then only the
    fiber round trips of the lift."""

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

    def test_a_certified_map_proves_only_the_fiber_round_trips(self, monkeypatch):
        s = standard_structure()
        psi = affine_symplectomorphism(s.chart)
        assert psi._certified
        trees = self.spied(monkeypatch)
        lm = lift_map(psi)
        fiber = set(lm.map.source.names[2:])
        # two fiber coordinates, each round-tripped both ways
        assert len(trees) == 4
        assert all(coordinates(t) & fiber for t in trees)
        assert lm.map._certified and lm.map.inverse()._certified

    def test_a_lift_is_lifted_again_on_its_new_fibers_alone(self, monkeypatch):
        s = standard_structure()
        lm = lift_map(affine_symplectomorphism(s.chart))
        trees = self.spied(monkeypatch)
        again = lift_map(lm.map)
        fiber = set(again.map.source.names[4:])
        assert len(trees) == 8
        assert all(coordinates(t) & fiber for t in trees)

    def test_an_uncertified_map_is_validated_on_its_own_charts(self, monkeypatch):
        s = standard_structure()
        x, y = s.chart.coords()
        psi = SmoothMap(s.chart, s.chart, (x, y + x * x), (x, y - x * x), _validate=False)
        trees = self.spied(monkeypatch)
        lm = lift_map(psi)
        fiber = set(lm.map.source.names[2:])
        # psi's four round trips on the base names, then the lift's four
        assert len(trees) == 8
        assert [bool(coordinates(t) & fiber) for t in trees] == [False] * 4 + [True] * 4
        assert psi._certified and lm.map._certified

    @pytest.mark.parametrize("comps, invs, message", [
        (lambda x, y: (x + y * y, y), lambda x, y: (x - y, y),
         "coordinate 'x' round-trips to x + y*y + (-1)*y"),
        (lambda x, y: (x, y + x * x), lambda x, y: (x, y + x * x),
         "coordinate 'y' round-trips to y + x*x + x*x"),
        (lambda x, y: (x + 1, 2 * y), lambda x, y: (x - 1, y),
         "coordinate 'y' round-trips to 2*y"),
    ])
    def test_a_wrong_inverse_raises_as_the_bundle_validation_did(self, comps, invs, message):
        # the text the lift's validation on the bundle charts gave, which
        # checked the base coordinates first
        s = standard_structure()
        x, y = s.chart.coords()
        psi = SmoothMap(s.chart, s.chart, comps(x, y), invs(x, y), _validate=False)
        with pytest.raises(CalculusError) as err:
            lift_map(psi, omega=s.omega)
        assert str(err.value) == "inverse components do not invert the map: " + message
        assert not psi._certified


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
