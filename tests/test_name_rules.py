"""Names: fiber coordinates, symbols and jets never shadow one another, and
argument values are judged when the scene loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bilag
from bilag.calculus import Chart
from bilag.cli import find_scene, main
from bilag.lift import lift_map, lift_structure, lifted_action_check
from bilag.scene import SceneError, load_scene, loads, run_task
from bilag.symexpr import OpaqueSymbol, parse_expr, uniquely_decodable

BODY = """
omega: {omega}
foliation U: {u}
foliation V: {v}
structure: U | V
"""

# a plane scene whose symbol is named like the classical fiber coordinate s
S_SCENE = """
chart: x y
symbol: s(x)
""" + BODY.format(omega="s * dy^dx", u="@x", v="@y") + """
map shear: x, y + x^2 inverse x, y - x^2
task up: lift
"""

XI_SCENE = """
chart: x1 x2 y1 y2
symbol: xi1(x1)
""" + BODY.format(omega="xi1 * dy1^dx1 + dy2^dx2", u="@x1; @x2", v="@y1; @y2")

PARABOLA = """
chart: x y
symbol: h(x y)
""" + BODY.format(omega="h * dy^dx", u="@x + 2*x*@y", v="@y")


class TestFiberNamesAvoidSymbols:
    def test_lift_skips_a_symbol_named_s(self):
        scene = loads(S_SCENE)
        lifted = lift_structure(scene.structure())
        assert lifted.chart.names == ("x", "y", "xi1", "xi2")

    def test_lift_skips_a_symbol_named_xi1(self):
        lifted = lift_structure(loads(XI_SCENE).structure())
        assert lifted.chart.names[4:] == ("xi2", "xi3", "xi4", "xi5")

    def test_lift_map_and_action_check_skip_the_symbol(self):
        scene = loads(S_SCENE)
        s = scene.structure()
        psi = scene.maps["shear"]
        assert lift_map(psi, s.omega).map.source.names == ("x", "y", "xi1", "xi2")
        result = lifted_action_check(psi, s)
        assert result.hat.chart.names == ("x", "y", "xi1", "xi2")
        assert result.equal

    def test_lifted_omega_payload_reparses(self):
        scene = loads(S_SCENE)
        outcome = run_task(scene, scene.task("up"))
        assert outcome.status == "computed"
        chart = lift_structure(scene.structure()).chart
        assert outcome.payload["lifted"]["chart"] == list(chart.names)
        for row in outcome.payload["lifted"]["omega"]:
            for text in row:
                parsed = parse_expr(text, chart.names, chart.symbols)
                assert str(parsed.normal()) == text

    def test_chart_rejects_a_coordinate_named_like_a_symbol(self):
        with pytest.raises(ValueError, match="coordinate 's' is also the name of symbol 's'"):
            Chart(("x", "y", "s", "t"), (OpaqueSymbol("s", ("x",)),))

    def test_chart_rejects_a_coordinate_named_like_a_jet(self):
        with pytest.raises(ValueError, match="'h_x' is also the name of a jet of symbol 'h'"):
            Chart(("x", "y", "h_x"), (OpaqueSymbol("h", ("x", "y")),))

    def test_explicit_fiber_named_like_a_symbol_is_a_task_error(self):
        scene = loads(S_SCENE + "task named: lift fibers=s,t\n")
        outcome = run_task(scene, scene.task("named"))
        assert outcome.status == "error"
        assert "coordinate 's' is also the name of symbol 's'" in outcome.messages[0]


class TestFiberArgumentIsTyped:
    def test_scene_rejects_invalid_fiber_names(self):
        with pytest.raises(SceneError, match="fibers must be comma-separated coordinate "
                                             "names, got '1a,b'"):
            loads(PARABOLA + "task up: lift fibers=1a,b\n")

    @pytest.mark.parametrize("fibers", ["1a,b", "a,", "a b"])
    def test_cli_rejects_invalid_fiber_names(self, capsys, fibers):
        code = main(["lift", "--scene", "parabola", "--fibers", fibers])
        assert code == 2
        assert capsys.readouterr().err == (
            f"bilag: task 'cli-lift': fibers must be comma-separated coordinate "
            f"names, got {fibers!r}\n")

    def test_valid_fiber_names_still_lift(self, capsys):
        code = main(["lift", "--scene", "parabola", "--fibers", "a,b", "--format", "machine"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tasks"][0]["payload"]["lifted"]["chart"] == ["x", "y", "a", "b"]


class TestNamesThatWouldNotReparse:
    @pytest.mark.parametrize("chart, symbol, message", [
        ("x y", "h_1(x y)",
         "line 3: symbol name 'h_1' contains '_', which would split its jets' printed names"),
        ("x y h_x", "h(x y)", "line 3: coordinate 'h_x' is also the name of a jet of symbol 'h'"),
        ("x y", "x(y)", "line 3: coordinate 'x' is also the name of symbol 'x'"),
        ("a aa", "h(a aa)",
         "line 3: symbol 'h': its dependency names a aa concatenate ambiguously, "
         "so its jets' printed names would not re-parse"),
    ])
    def test_clash_is_a_malformed_scene(self, capsys, tmp_path, chart, symbol, message):
        text = f"\nchart: {chart}\nsymbol: {symbol}\n" + BODY.format(
            omega="dy^dx", u="@x", v="@y")
        with pytest.raises(SceneError) as info:
            loads(text)
        assert str(info.value) == message
        path = tmp_path / "clash.scene"
        path.write_text(text)
        assert main(["report", "--scene", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"bilag: {message}\n"
        assert captured.out == ""

    def test_a_coordinate_that_is_no_jet_is_kept(self):
        # h_z is no jet of h(x y), so it cannot hide one
        scene = loads("\nchart: x y h_z z\nsymbol: h(x y)\n" + BODY.format(
            omega="dy^dx + dz^dh_z", u="@x; @h_z", v="@y; @z"))
        assert scene.chart.names == ("x", "y", "h_z", "z")

    @pytest.mark.parametrize("deps, decodable", [
        (["a", "aa"], False),
        (["a", "ab", "ba"], False),  # aba = a.ba = ab.a
        (["x", "x1"], True),
        (["0", "01", "11"], True),  # no prefix code, yet decodable
        (["x", "y"], True),
        (["x", "x"], False),
    ])
    def test_sardinas_patterson(self, deps, decodable):
        assert uniquely_decodable(deps) is decodable

    def test_a_long_ambiguous_suffix_is_refused_in_linear_time(self):
        # scene files refuse h(x xx), but code may build it; every split of
        # a suffix into x and xx is a decomposition, and there are
        # exponentially many, so it runs in a child that a timeout can end
        script = (
            "from bilag.symexpr import OpaqueSymbol, ParseError, parse_expr\n"
            "h = OpaqueSymbol('h', ('x', 'xx'))\n"
            "try:\n"
            "    parse_expr('h_' + 'x' * 400, ('x', 'xx'), (h,))\n"
            "except ParseError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(bilag.__file__).resolve().parent.parent)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=10, env={**os.environ, "PYTHONPATH": src})
        assert result.stdout.startswith(f"ambiguous jet suffix {'x' * 400!r} ")

    def test_decodable_dependencies_load_and_their_jets_reparse(self, capsys, tmp_path):
        text = "\nchart: x x1\nsymbol: h(x x1)\n" + BODY.format(
            omega="h * dx1^dx", u="@x", v="@x1") + "task g: christoffels\n"
        path = tmp_path / "suffix.scene"
        path.write_text(text)
        assert main(["report", "--scene", str(path), "--format", "machine"]) == 0
        table = json.loads(capsys.readouterr().out)["tasks"][0]["payload"]["table"]
        assert (table["Gamma^1_11"], table["Gamma^2_22"]) == ("h_x/h", "h_x1/h")
        chart = loads(text).chart
        for value in table.values():
            parse_expr(value, chart.names, chart.symbols)

    def test_every_bundled_scene_loads(self):
        for name in ("standard", "parabola", "lifted-standard", "affine-action"):
            load_scene(find_scene(name))


class TestPlotBindingsJudgedAtLoad:
    @pytest.mark.parametrize("value, reason", [
        ("1+", "unexpected end of input (at position 2: '')"),
        ("h", "unknown identifier 'h' (at position 0: 'h')"),
    ])
    def test_scene_binding_that_does_not_parse(self, value, reason):
        with pytest.raises(SceneError) as info:
            loads(PARABOLA + f"task p: plot h={value} out=p.svg\n")
        assert str(info.value) == f"line 9: task 'p': binding h={value!r}: {reason}"

    def test_cli_binding_that_does_not_parse(self, capsys, tmp_path):
        out = tmp_path / "p.svg"
        code = main(["plot", "--scene", "parabola", "--bind", "h=1+", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "bilag: task 'cli-plot': binding h='1+': unexpected end of input "
            "(at position 2: '')\n")
        assert not out.exists()

    def test_binding_over_coordinates_still_plots(self, capsys, tmp_path):
        out = tmp_path / "p.svg"
        code = main(["plot", "--scene", "parabola", "--bind", "h=1+x^2", "--out", str(out)])
        assert code == 0
        assert out.exists()
