"""Leaf plots: numeric integration quarantine and SVG rendering."""

import math

import pytest

from bilag.calculus import Chart, VectorField
from bilag.plot import PlotError, Window, bind_field, integral_curve, leaf_plot
from bilag.symexpr import ONE, ZERO, OpaqueSymbol

CH = Chart(("x", "y"))
X, Y = CH.coords()


class TestWindow:
    def test_contains(self):
        w = Window(-1.0, 1.0, -2.0, 2.0)
        assert w.contains(0.0, 0.0)
        assert not w.contains(1.5, 0.0)
        assert not w.contains(0.0, -2.5)

    def test_margin(self):
        w = Window(-1.0, 1.0, -1.0, 1.0)
        assert w.contains(1.05, 0.0, margin=0.1)
        assert not w.contains(1.05, 0.0)


    @pytest.mark.parametrize("bounds", [
        (0, math.inf, 0, 1), (-math.inf, 0, 0, 1), (0, 1, 0, math.nan),
    ])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(PlotError, match="window bounds must be finite"):
            Window(*bounds)

    @pytest.mark.parametrize("bounds", [
        (-1e308, 1e308, -1, 1), (0, 1, -1e308, 1e308),
        (0, 1.7e308, 0, 1.7e308),
    ])
    def test_non_finite_extent_rejected(self, bounds):
        with pytest.raises(PlotError, match="window extent must be finite"):
            Window(*bounds)


class TestBindField:
    def test_binds_opaque_symbol(self):
        h = OpaqueSymbol("h", ("x", "y"))
        ch = Chart(("x", "y"), symbols=(h,))
        x, _ = ch.coords()
        v = VectorField(ch, (h.jet((0, 0)), ZERO))
        bound = bind_field(v, {"h": x * x + ONE})
        from bilag.symexpr import equal_zero

        assert equal_zero(bound.components[0] - (x * x + ONE))

    def test_unknown_binding_rejected(self):
        v = VectorField(CH, (ONE, ZERO))
        with pytest.raises(PlotError):
            bind_field(v, {"nope": ONE})

    def test_leftover_jet_rejected(self):
        h = OpaqueSymbol("h", ("x", "y"))
        g = OpaqueSymbol("g", ("x", "y"))
        ch = Chart(("x", "y"), symbols=(h, g))
        v = VectorField(ch, (h.jet((0, 0)) + g.jet((0, 0)), ZERO))
        with pytest.raises(PlotError):
            bind_field(v, {"h": ONE})


class TestIntegralCurve:
    def test_straight_line_field(self):
        v = VectorField(CH, (ONE, ZERO))
        pts = integral_curve(v, (0.0, 0.0), Window(-2.0, 2.0, -2.0, 2.0), steps=50)
        ys = {round(p[1], 6) for p in pts}
        assert ys == {0.0}
        xs = [p[0] for p in pts]
        assert min(xs) < -1.5 and max(xs) > 1.5

    def test_curves_stay_near_window(self):
        v = VectorField(CH, (ONE, 2 * X))
        w = Window(-1.0, 1.0, -1.0, 1.0)
        pts = integral_curve(v, (0.0, 0.0), w, steps=100)
        for x, y in pts:
            assert w.contains(x, y, margin=0.2)

    def test_zero_field_is_a_point(self):
        v = VectorField(CH, (ZERO, ZERO))
        pts = integral_curve(v, (0.25, 0.25), Window(), steps=40)
        assert all(p == (0.25, 0.25) for p in pts)


class TestLeafPlot:
    def leaf_fields(self):
        return VectorField(CH, (ONE, 2 * X)), VectorField(CH, (ZERO, ONE))

    def test_svg_structure(self):
        f1, f2 = self.leaf_fields()
        svg = leaf_plot(f1, f2, leaves=5, steps=60)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "#1f77b4" in svg
        assert "#d62728" in svg

    def test_deterministic(self):
        f1, f2 = self.leaf_fields()
        a = leaf_plot(f1, f2, leaves=5, steps=60)
        b = leaf_plot(f1, f2, leaves=5, steps=60)
        assert a == b

    def test_bindings_applied(self):
        h = OpaqueSymbol("h", ("x", "y"))
        ch = Chart(("x", "y"), symbols=(h,))
        x, _ = ch.coords()
        f1 = VectorField(ch, (h.jet((0, 0)), ZERO))
        f2 = VectorField(ch, (ZERO, ONE))
        svg = leaf_plot(f1, f2, leaves=3, steps=40, bindings={"h": ONE})
        assert svg.startswith("<svg")

    def test_unbound_symbol_rejected(self):
        h = OpaqueSymbol("h", ("x", "y"))
        ch = Chart(("x", "y"), symbols=(h,))
        f1 = VectorField(ch, (h.jet((0, 0)), ZERO))
        f2 = VectorField(ch, (ZERO, ONE))
        with pytest.raises(PlotError):
            leaf_plot(f1, f2, leaves=3, steps=40)

    @pytest.mark.parametrize("bindings, missing", [(None, "g, h"), ({"g": ONE}, "h")])
    def test_unbound_symbols_listed_for_the_whole_field(self, bindings, missing):
        g, h = OpaqueSymbol("g", ("x", "y")), OpaqueSymbol("h", ("x", "y"))
        ch = Chart(("x", "y"), symbols=(g, h))
        f1 = VectorField(ch, (h.jet((0, 0)), g.jet((0, 0))))
        f2 = VectorField(ch, (ZERO, ONE))
        with pytest.raises(PlotError) as err:
            leaf_plot(f1, f2, leaves=3, steps=40, bindings=bindings)
        assert str(err.value) == f"cannot plot with unbound opaque symbols: {missing}"

    def test_non_planar_chart_rejected(self):
        ch4 = Chart(("a", "b", "c", "d"))
        f1 = VectorField(ch4, (ONE, ZERO, ZERO, ZERO))
        f2 = VectorField(ch4, (ZERO, ONE, ZERO, ZERO))
        with pytest.raises(PlotError):
            leaf_plot(f1, f2)
