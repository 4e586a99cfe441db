"""Scene files, task execution, machine reports, and the command line."""

import json
import os
import re
from pathlib import Path

import pytest

from bilag import scene as scene_module
from bilag import symexpr
from bilag.calculus import Chart, KForm
from bilag.cli import _adhoc_task, build_parser, bundled_scene_dir, find_scene, main
from bilag.scene import (
    OPERATIONS,
    REPORT_FORMAT,
    SceneError,
    load_scene,
    loads,
    parse_geometric,
    run_task,
    run_tasks,
)
from bilag.symexpr import (
    ONE,
    Expr,
    OpaqueSymbol,
    ParseError,
    check_seed,
    equal_zero,
    parse_expr,
)
from bilag.structures import christoffels, index_label

MINIMAL = """
chart: x y
omega: dy^dx
foliation Fx: @x
foliation Fy: @y
structure: Fx | Fy
task check: validate
"""

PARABOLA_TEXT = """
chart: x y
symbol: h(x y)
omega: h * dy^dx
foliation U: @x + 2*x*@y
foliation V: @y
structure: U | V
adapted: x | y - x^2
task gammas: christoffels
"""


# the parabola lifted to dim 4; validation draws points, and only the
# first task needs it in a full report
LIFTED_PARABOLA_TEXT = """
chart: x y s t
symbol: h(x y)
omega: h*dy^dx + ds^dx + dt^dy
foliation F1: @x + 2*x*@y - 2*t*@s ; -2*x*@s + @t
foliation F2: @y ; @s
structure: F1 | F2
adapted: x ; t | y - x^2 ; s + 2*t*x
task gammas: christoffels
task flatness: flat
task check: validate
"""

# the structure of the bundled lifted-standard scene, with no adapted line
LIFTED_STANDARD = """
chart: x y s t
omega: dy^dx + ds^dx + dt^dy
foliation F1: @x ; @t
foliation F2: @y ; @s
structure: F1 | F2
"""



def clashing_symbol_scene(name):
    """A plane scene whose foliation U needs the symbol `name` bound to plot."""
    return (f"chart: x y\nsymbol: {name}(x y)\nomega: dy^dx\n"
            f"foliation U: @x + {name}*@y\nfoliation V: @y\nstructure: U | V\n")


# omega is not closed: d omega = dx^dy^ds
NON_CLOSED = LIFTED_STANDARD.replace("dy^dx + ds^dx + dt^dy", "x*dy^ds + dx^dy + ds^dt")


class TestParsing:
    def test_minimal_scene(self):
        scene = loads(MINIMAL)
        assert scene.chart.names == ("x", "y")
        assert len(scene.tasks) == 1
        assert scene.tasks[0].operation == "validate"
        assert scene.structure().report.ok

    def test_geometric_grammar_wedge_and_scale(self):
        scene = loads(PARABOLA_TEXT)
        s = scene.structure()
        hv = scene.chart.symbols[0].jet((0, 0))
        assert equal_zero(s.omega.matrix[1][0] - hv)

    def test_field_grammar(self):
        scene = loads(PARABOLA_TEXT)
        u = scene.structure().f1[0]
        x = scene.chart.coord(0)
        assert equal_zero(u.components[0] - ONE)
        assert equal_zero(u.components[1] - 2 * x)

    def test_adapted_functions_parsed(self):
        scene = loads(PARABOLA_TEXT)
        s = scene.structure()
        x, y = scene.chart.coords()
        assert equal_zero(s.adapted[1] - (y - x * x))

    def test_scalar_power_vs_form_wedge(self):
        scene = loads(
            "chart: x y\n"
            "omega: (x^2 + 1) * dy^dx\n"
            "foliation A: @x\n"
            "foliation B: @y\n"
            "structure: A | B\n"
        )
        s = scene.structure()
        x = scene.chart.coord(0)
        assert equal_zero(s.omega.matrix[1][0] - (x * x + ONE))

    def test_missing_chart(self):
        with pytest.raises(SceneError):
            loads("omega: dy^dx\n")

    def test_duplicate_chart(self):
        with pytest.raises(SceneError):
            loads("chart: x y\nchart: u v\n")

    def test_unknown_coordinate_in_frame(self):
        with pytest.raises(SceneError):
            loads("chart: x y\nomega: dy^dx\nfoliation A: @z\n")

    def test_unknown_directive(self):
        with pytest.raises(SceneError) as err:
            loads("chart: x y\nwibble: 3\n")
        assert err.value.line == 2

    def test_unknown_operation(self):
        with pytest.raises(SceneError):
            loads(MINIMAL + "task bad: frobnicate\n")

    def test_structure_references_unknown_foliation(self):
        with pytest.raises(SceneError):
            loads("chart: x y\nomega: dy^dx\nfoliation A: @x\nstructure: A | B\n")

    def test_map_without_inverse(self):
        with pytest.raises(SceneError):
            loads(MINIMAL + "map bad: x + y, y\n")

    def test_task_referencing_unknown_map(self):
        with pytest.raises(SceneError) as err:
            loads(MINIMAL + "map ok: x, y inverse x, y\ntask t: push map=missing\n")
        assert "missing" in str(err.value)

    @pytest.mark.parametrize("text, message", [
        (MINIMAL.replace("omega:", "omega oops:"), "line 3: omega takes no name"),
        (MINIMAL.replace("structure:", "structure whatever:"),
         "line 6: structure takes no name"),
        (MINIMAL + "adapted junk: x | y\n", "line 8: adapted takes no name"),
    ], ids=["omega", "structure", "adapted"])
    def test_a_name_on_a_nameless_directive_is_refused(self, capsys, tmp_path,
                                                       text, message):
        with pytest.raises(SceneError) as err:
            loads(text)
        assert str(err.value) == message
        path = tmp_path / "named.scene"
        path.write_text(text)
        assert main(["report", "--scene", str(path)]) == 2
        assert capsys.readouterr().err == f"bilag: {message}\n"

    @pytest.mark.parametrize("text", ["@x/0", "dx/(x-x)"])
    def test_geometric_division_by_zero_has_position(self, text):
        with pytest.raises(ParseError) as err:
            parse_geometric(text, Chart(("x", "y")))
        assert err.value.position == text.index("/")
        assert str(err.value).startswith("division by zero")

    @pytest.mark.parametrize("text", ["dx^x", "@x^2"])
    def test_geometric_power_of_non_scalar_rejected(self, text):
        with pytest.raises(ParseError):
            parse_geometric(text, Chart(("x", "y")))

    @pytest.mark.parametrize("name, message", [
        ("h_aa", "ambiguous jet suffix 'aa'"),
        ("foo", "unknown identifier 'foo'"),
    ])
    def test_unresolved_name_messages(self, name, message):
        # on chart (a, aa) the suffix "aa" reads as a twice or as aa once
        symbol = OpaqueSymbol("h", ("a", "aa"))
        text = f"{name} + a"
        with pytest.raises(ParseError) as err:
            parse_expr(text, ("a", "aa"), (symbol,))
        assert str(err.value) == f"{message} (at position 0: {text!r})"

    def test_unknown_identifier_in_scene_line(self):
        # a scene refuses h(a aa) itself (tests/test_name_rules.py), so the
        # scene half pins an unknown name under a symbol that loads
        line = "foo * daa^da"
        with pytest.raises(SceneError) as err:
            loads(f"chart: a aa\nsymbol: h(a)\nomega: {line}\n")
        assert err.value.line == 3
        assert str(err.value) == f"line 3: unknown identifier 'foo' (at position 0: {line!r})"

    def test_coordinate_named_like_a_form_wins(self):
        chart = Chart(("x", "dx"))
        assert str(parse_geometric("dx", chart)) == "dx"
        form = parse_geometric("ddx", chart)
        assert isinstance(form, KForm) and form.coeffs == {(1,): ONE}

    @pytest.mark.parametrize("task, key, known", [
        ("flat expct=false", "expct", "expect"),
        ("validate frame=foliation", "frame", "none"),
        ("lift k=1 fiber=a,b", "fiber", "k, fibers"),
        ("plot g=1 out=p.svg", "g", "out, window, leaves, steps, h"),
    ])
    def test_unknown_task_argument_rejected(self, task, key, known):
        text = PARABOLA_TEXT + f"task bad: {task}\n"
        line = text.splitlines().index(f"task bad: {task}") + 1
        with pytest.raises(SceneError) as err:
            loads(text)
        op = task.split()[0]
        assert str(err.value) == (
            f"line {line}: task 'bad': unknown {op} argument {key!r} (known: {known})"
        )

    @pytest.mark.parametrize("task, key", [
        ("flat expect=false expect=true", "expect"),
        ("plot h=1 out=a.svg h=2", "h"),
    ])
    def test_repeated_task_argument_rejected(self, task, key):
        text = PARABOLA_TEXT + f"task bad: {task}\n"
        line = text.splitlines().index(f"task bad: {task}") + 1
        with pytest.raises(SceneError) as err:
            loads(text)
        op = task.split()[0]
        assert str(err.value) == f"line {line}: task 'bad': {op} argument {key!r} given twice"

    @pytest.mark.parametrize("task, key, kind, raw", [
        ("flat expect=maybe", "expect", "true or false", "maybe"),
        ("act-check map=shear expect=2", "expect", "true or false", "2"),
        ("christoffels frame=weird", "frame", "foliation or coordinate", "weird"),
        ("lift k=1.5", "k", "an integer", "1.5"),
        ("lift k=", "k", "an integer", ""),
        ("plot leaves=abc out=p.svg", "leaves", "an integer", "abc"),
        ("plot steps=1e3 out=p.svg", "steps", "an integer", "1e3"),
        ("plot window=0,1,0 out=p.svg", "window", "x0,x1,y0,y1", "0,1,0"),
        ("plot window=0,1,a,2 out=p.svg", "window", "x0,x1,y0,y1", "0,1,a,2"),
    ])
    def test_malformed_task_argument_value_rejected(self, task, key, kind, raw):
        text = PARABOLA_TEXT + f"task bad: {task}\n"
        line = text.splitlines().index(f"task bad: {task}") + 1
        with pytest.raises(SceneError) as err:
            loads(text)
        assert str(err.value) == f"line {line}: task 'bad': {key} must be {kind}, got {raw!r}"

    @pytest.mark.parametrize("text, line, message", [
        ("chart: x y\nomega dy^dx\n", 2, "missing ':' in directive 'omega dy^dx'"),
        ("chart: x y\nfoliation A B: @x\n", 2, "malformed directive head 'foliation A B'"),
        ("chart C: x y\n", 1, "chart takes no name"),
        ("chart:\n", 1, "chart needs at least one coordinate name"),
        ("chart: x 2y\n", 1, "bad coordinate name '2y'"),
        ("chart: x y x\n", 1, "duplicate coordinate names"),
        ("chart: x y\nsymbol h: h(x y)\n", 2, "symbol takes no name before ':'"),
        ("chart: x y\nsymbol: h(x y)\nsymbol: h(x)\n", 3, "symbol 'h' declared twice"),
        ("chart: x y\nomega: dx\n", 2, "expected a 2-form, got 1-form: 'dx'"),
        ("chart: x y\nfoliation A: dx\n", 2, "expected a vector field, got 1-form: 'dx'"),
        (MINIMAL + "omega: dx^dy\n", 8, "omega declared twice"),
        (MINIMAL + "foliation Fx: @y\n", 8, "foliation 'Fx' declared twice"),
        (MINIMAL + "structure: Fy | Fx\n", 8, "structure declared twice"),
        (MINIMAL + "adapted: x | y\nadapted: x | y\n", 9, "adapted declared twice"),
        (MINIMAL + "map m: x, y inverse x, y\nmap m: x, y inverse x, y\n", 9,
         "map 'm' declared twice"),
        (MINIMAL + "task check: flat\n", 8, "task 'check' declared twice"),
        (MINIMAL + "foliation: @x\n", 8, "foliation needs a name: 'foliation NAME: ...'"),
        (MINIMAL + "map: x, y inverse x, y\n", 8, "map needs a name: 'map NAME: ...'"),
        (MINIMAL + "task: validate\n", 8, "task needs a name: 'task NAME: operation ...'"),
        (MINIMAL + "foliation E: ;\n", 8, "foliation 'E' has no fields"),
        ("chart: x y\nstructure: A\n", 2, "structure must read 'NAME | NAME'"),
        (MINIMAL + "adapted: x\n", 8, "adapted must read 'p; ... | q; ...'"),
        (MINIMAL + "adapted: x | y ; x\n", 8,
         "adapted needs equally many p's and q's, got 1 and 2"),
        (MINIMAL + "map m: x inverse x, y\n", 8,
         "map 'm' needs 2 forward and inverse components"),
        (MINIMAL + "map m: x + y, y inverse x, y\n", 8,
         "map 'm': inverse components do not invert the map: "
         "coordinate 'x' round-trips to x + y"),
        (MINIMAL + "task t:\n", 8, "task 't' names no operation"),
        (MINIMAL + "task t: lift 2\n", 8, "task argument '2' must be key=value"),
        ("chart: x y\nfoliation A: @x\nstructure: A | A\n", None, "scene declares no omega"),
        ("chart: x y\nomega: dy^dx\n", None, "scene declares no structure line"),
        (MINIMAL + "map m: x, y inverse x, y\ntask t: push\n", 9,
         "task 't' needs a map=NAME argument"),
    ], ids=[
        "missing-colon", "three-word-head", "named-chart", "empty-chart",
        "bad-coordinate", "duplicate-coordinates", "named-symbol", "repeated-symbol",
        "omega-not-2-form", "field-not-vector", "omega-twice", "foliation-twice",
        "structure-twice", "adapted-twice", "map-twice", "task-twice",
        "foliation-unnamed", "map-unnamed", "task-unnamed", "empty-foliation",
        "malformed-structure", "malformed-adapted", "unequal-adapted",
        "map-component-count", "map-not-inverse", "task-no-operation",
        "task-argument-not-key-value", "no-omega", "no-structure", "push-without-map",
    ])
    def test_malformed_scene_messages(self, text, line, message):
        with pytest.raises(SceneError) as err:
            loads(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("text, line, message", [
        (MINIMAL + "task bad: flat bogus=1 stray\n", 8,
         "task 'bad': unknown flat argument 'bogus' (known: expect)"),
        (MINIMAL + "task bad: flat stray bogus=1\n", 8,
         "task argument 'stray' must be key=value"),
        (MINIMAL + "task bad: flat expect=maybe expect=true\n", 8,
         "task 'bad': expect must be true or false, got 'maybe'"),
        (MINIMAL + "task bad: flat expect=true expect=maybe\n", 8,
         "task 'bad': flat argument 'expect' given twice"),
        (MINIMAL + "task bad: flat expect=maybe\nwibble: 3\n", 8,
         "task 'bad': expect must be true or false, got 'maybe'"),
        (MINIMAL + "wibble: 3\ntask bad: flat expect=maybe\n", 8,
         "unknown directive 'wibble'"),
        ("chart: x y\nfoliation A: @x\nstructure: A | A\ntask bad: lift k=two\n", 4,
         "task 'bad': k must be an integer, got 'two'"),
        ("chart: x y\nfoliation A: @x\nstructure: A | A\ntask t: push\n", None,
         "scene declares no omega"),
    ], ids=[
        "unknown-key-before-stray-word", "stray-word-before-unknown-key",
        "bad-value-before-repeat", "repeat-before-bad-value",
        "bad-argument-before-unknown-directive", "unknown-directive-before-bad-argument",
        "bad-argument-before-missing-omega", "missing-omega-before-missing-map",
    ])
    def test_first_error_in_file_and_word_order_is_reported(self, text, line, message):
        with pytest.raises(SceneError) as err:
            loads(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("task", [
        "flat expect=No", "christoffels frame=coordinate", "lift k=-1",
        "plot steps=0 leaves=-3 window=0,inf,0,1 out=p.svg",
    ])
    def test_well_typed_task_argument_value_accepted(self, task):
        scene = loads(PARABOLA_TEXT + f"task ok: {task}\n")
        assert scene.task("ok").operation == task.split()[0]

    @pytest.mark.parametrize("name", ["out", "window", "leaves", "steps"])
    def test_binding_a_symbol_named_like_a_plot_argument_is_refused(self, name):
        # the key could be either, so the task line is malformed
        text = clashing_symbol_scene(name) + f"task bad: plot {name}=1 out=p.svg\n"
        with pytest.raises(SceneError) as err:
            loads(text)
        assert str(err.value) == (
            f"line 7: task 'bad': {name!r} names both a plot argument and a declared symbol")

    def test_operations_inventory(self):
        assert OPERATIONS == (
            "validate", "hess", "christoffels", "curvature", "flat",
            "para", "push", "lift", "act-check", "plot",
        )


class TestBundledScenes:
    @pytest.mark.parametrize(
        "name", ["standard", "parabola", "lifted-standard", "affine-action"]
    )
    def test_loads_and_validates(self, name):
        scene = load_scene(find_scene(name))
        assert scene.structure().report.ok

    def test_bundled_dir_contents(self):
        from pathlib import Path

        names = sorted(p.name for p in Path(bundled_scene_dir()).glob("*.scene"))
        assert names == [
            "affine-action.scene",
            "lifted-standard.scene",
            "parabola.scene",
            "standard.scene",
        ]


class TestRunTasks:
    def test_validate_passes(self):
        scene = loads(MINIMAL)
        report = run_tasks(scene)
        assert report.ok
        assert report.outcomes[0].status == "pass"

    def test_christoffels_payload_roundtrip(self):
        # strings in the machine payload parse back to the exact entries
        scene = loads(PARABOLA_TEXT)
        report = run_tasks(scene)
        outcome = report.outcomes[0]
        assert outcome.status == "computed"
        conn = christoffels(scene.structure())
        table = outcome.payload["table"]
        h = scene.chart.symbols[0]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    text = table[f"Gamma^{k + 1}_{i + 1}{j + 1}"]
                    parsed = parse_expr(text, scene.chart.names, (h,))
                    assert equal_zero(parsed - conn.gamma[i][j][k]), (i, j, k)

    def test_twelve_field_payload_keeps_every_index_triple(self):
        # run together, (0, 10) and (10, 0) would both print "111"
        xs = [f"x{i}" for i in range(1, 7)]
        ys = [f"y{i}" for i in range(1, 7)]
        scene = loads(
            "chart: " + " ".join(xs + ys) + "\n"
            + "omega: " + " + ".join(f"d{y}^d{x}" for x, y in zip(xs, ys)) + "\n"
            + "foliation F: " + " ; ".join(f"@{x}" for x in xs) + "\n"
            + "foliation G: " + " ; ".join(f"@{y}" for y in ys) + "\n"
            + "structure: F | G\ntask gammas: christoffels frame=coordinate\n")
        table = run_tasks(scene).outcomes[0].payload["table"]
        assert len(table) == len(set(table)) == 12 ** 3
        assert {"Gamma^1_1,11", "Gamma^1_11,1", "Gamma^12_12,12"} <= set(table)

    def test_index_labels_run_together_up_to_nine_fields(self):
        assert index_label(9, 0, 8) == "19"
        assert index_label(9, 8, 0, 4) == "915"
        assert index_label(10, 0, 9) == "1,10"
        assert (index_label(12, 0, 10), index_label(12, 10, 0)) == ("1,11", "11,1")

    def test_flat_expectation_pass_and_fail(self):
        base = loads(PARABOLA_TEXT.replace(
            "task gammas: christoffels", "task f: flat expect=false"))
        assert run_tasks(base).ok
        flipped = loads(PARABOLA_TEXT.replace(
            "task gammas: christoffels", "task f: flat expect=true"))
        report = run_tasks(flipped)
        assert not report.ok
        assert report.outcomes[0].status == "fail"

    def test_failed_validation_reports_checks(self):
        text = (
            "chart: x y\n"
            "omega: dy^dx\n"
            "foliation A: @x\n"
            "foliation B: @x\n"
            "structure: A | B\n"
            "task check: validate\n"
        )
        scene = loads(text)
        report = run_tasks(scene)
        assert not report.ok
        outcome = report.outcomes[0]
        assert outcome.status == "fail"
        assert any(not c["passed"] for c in outcome.payload["checks"])

    @pytest.mark.parametrize("text, status, messages", [
        (LIFTED_STANDARD.replace("@x ; @t", "@x ; 2*@x") + "task check: validate\n",
         "fail", ["[FAIL] F1 independent: frame fields are linearly dependent"]),
        (LIFTED_STANDARD + "adapted: x | y\ntask check: validate\n",
         "fail", ["[FAIL] adapted: need 4 adapted functions, got 2"]),
        (MINIMAL.replace("task check", "adapted: x | x\ntask check"),
         "fail", ["[FAIL] adapted: adapted-function Jacobian is singular"]),
        (MINIMAL + "task up: lift k=2 fibers=p,q\n",
         "error", ["SceneError: task 'up': explicit fibers only apply to k=1"]),
        (NON_CLOSED + "task check: validate\n", "fail", ["form is not closed"]),
        (NON_CLOSED + "task f: flat\n", "fail", ["form is not closed"]),
        (MINIMAL.replace("dy^dx", "(x-x)*dx^dy") + "task g: christoffels\n",
         "fail", ["form is degenerate (nondegeneracy witness is identically zero)"]),
        (LIFTED_STANDARD.replace("@x ; @t", "@x ; 2*@x") + "task f: flat\n",
         "fail", ["[FAIL] F1 independent: frame fields are linearly dependent"]),
    ], ids=["dependent-frame", "adapted-count", "singular-adapted", "lift-fibers",
            "non-closed-validate", "non-closed-flat", "degenerate-christoffels",
            "dependent-frame-flat"])
    def test_invalid_structure_outcomes(self, text, status, messages):
        outcome = run_tasks(loads(text)).outcomes[-1]
        assert (outcome.status, outcome.messages) == (status, messages)

    def test_non_symplectic_payloads(self):
        # validate's own payload says ok: false; a task that needs the
        # structure reports only the empty check list
        report = run_tasks(loads(NON_CLOSED + "task check: validate\ntask f: flat\n"))
        assert [o.payload for o in report.outcomes] == [{"ok": False, "checks": []},
                                                        {"checks": []}]

    def test_act_check_tasks(self):
        scene = load_scene(find_scene("affine-action"))
        report = run_tasks(scene, names=["action", "sheared-action"])
        assert report.ok
        for outcome in report.outcomes:
            assert outcome.status == "pass"

    def test_lift_task_respects_max_dim_option(self):
        scene = loads(MINIMAL + "task big: lift k=4\n")
        report = run_tasks(scene, names=["big"])
        assert not report.ok
        assert report.outcomes[0].status == "error"
        assert "max_dim" in report.outcomes[0].messages[0]

    @pytest.mark.parametrize("task", ["lift", "lift fibers=a,b"])
    def test_lift_with_and_without_fibers_respects_max_dim(self, task):
        scene = loads(MINIMAL + f"task up: {task}\n")
        outcome = run_task(scene, scene.task("up"), max_dim=2)
        assert outcome.status == "error"
        assert outcome.messages == [
            "LiftError: lift 1 of 1 needs a 4-dimensional chart, above the cap of 2; "
            "raise max_dim to proceed"]
        assert run_task(scene, scene.task("up"), max_dim=4).status == "computed"

    def test_run_task_takes_no_other_option(self):
        scene = loads(MINIMAL)
        with pytest.raises(TypeError):
            run_task(scene, scene.task("check"), out="elsewhere.svg")
        with pytest.raises(TypeError):
            run_tasks(scene, out="elsewhere.svg")

    def test_plot_task_writes_svg(self, tmp_path):
        out = tmp_path / "leaves.svg"
        scene = loads(MINIMAL + f"task figure: plot out={out}\n")
        outcome = run_task(scene, scene.task("figure"))
        assert outcome.status == "computed"
        content = out.read_text()
        assert content.startswith("<svg")

    def test_plot_task_without_out_errors(self):
        scene = loads(MINIMAL + "task figure: plot\n")
        outcome = run_task(scene, scene.task("figure"))
        assert outcome.status == "error"

    def test_task_arguments_are_read_once_at_load(self, monkeypatch, tmp_path):
        # count every call of a table parser and of the binding parser; the
        # task's own out=parabola.svg lands in tmp_path
        monkeypatch.chdir(tmp_path)
        calls = []

        def counted(parse):
            def count(raw, *rest):
                calls.append(raw)
                return parse(raw, *rest)
            return count

        for op, table in scene_module._TASK_ARGS.items():
            monkeypatch.setitem(scene_module._TASK_ARGS, op, {
                key: arg._replace(parse=counted(arg.parse)) for key, arg in table.items()})
        monkeypatch.setattr(scene_module, "parse_expr", counted(scene_module.parse_expr))
        scene = load_scene(find_scene("parabola"))
        args = scene.task("figure").args
        assert isinstance(args["h"], Expr) and args["h"] == ONE
        assert args["window"] == (-2.0, 2.0, -2.0, 2.0)
        assert [type(v) for v in args["window"]] == [float] * 4
        assert (args["leaves"], args["steps"]) == (9, 240)
        assert type(args["leaves"]) is int and type(args["steps"]) is int
        assert calls.count("parabola.svg") == 1
        calls.clear()
        outcome = run_task(scene, scene.task("figure"))
        assert outcome.status == "computed"
        assert calls == []

    def test_unknown_task_name(self):
        scene = loads(MINIMAL)
        with pytest.raises(SceneError):
            run_tasks(scene, names=["nope"])

    def test_cross_check_failure_is_a_typed_error(self, monkeypatch):
        class Lying(symexpr.Rat):
            __slots__ = ()

            def _normal(self):
                return symexpr.ZERO.normal()

        def contradicted(scene, task, options):
            equal_zero(Lying(3))

        monkeypatch.setitem(scene_module._RUNNERS, "validate", contradicted)
        outcome = run_task(loads(MINIMAL), loads(MINIMAL).task("check"))
        assert outcome.status == "error"
        assert outcome.messages == [
            "CrossCheckError: normal form claims zero but 3 evaluates to 3 at {}"
        ]

    def test_task_draws_the_same_points_alone_and_after_others(self, monkeypatch):
        # each task's stream is in the same state when its runner starts and
        # when it returns, alone or after others: structure validation, which
        # the first task that needs it runs, draws from a stream of its own
        states = {}
        for op, runner in list(scene_module._RUNNERS.items()):
            def recording(scene, task, options, runner=runner):
                entry = symexpr._check_rng.getstate()
                try:
                    return runner(scene, task, options)
                finally:
                    states.setdefault(task.name, []).append(
                        (entry, symexpr._check_rng.getstate()))

            monkeypatch.setitem(scene_module._RUNNERS, op, recording)
        for load in (lambda: load_scene(find_scene("affine-action")),
                     lambda: loads(LIFTED_PARABOLA_TEXT)):
            states.clear()
            names = [t.name for t in load().tasks]
            assert len(names) > 2
            run_tasks(load())
            for name in names:
                run_tasks(load(), names=[name])
            for name in names:
                (full_entry, full_exit), (alone_entry, alone_exit) = states[name]
                assert full_entry == alone_entry
                assert full_exit == alone_exit
            assert len({states[n][0][0] for n in names}) == len(names)


class TestMachineReport:
    def test_versioned_format_and_seed(self):
        scene = loads(MINIMAL)
        data = run_tasks(scene).to_dict()
        assert data["format"] == REPORT_FORMAT == "bilag-report/1"
        assert data["seed"] == check_seed()
        assert data["chart"] == ["x", "y"]
        assert data["ok"] is True

    def test_json_deterministic_up_to_timing(self):
        scene = loads(PARABOLA_TEXT)

        def snapshot():
            data = json.loads(run_tasks(scene).to_json())
            for task in data["tasks"]:
                task["timing_ms"] = 0
            return json.dumps(data, sort_keys=True)

        assert snapshot() == snapshot()

    def test_text_report_overall_line(self):
        scene = loads(MINIMAL)
        text = run_tasks(scene).to_text()
        assert text.splitlines()[-1] == "overall: pass"


class TestCli:
    def test_validate_standard(self, capsys):
        code = main(["validate", "--scene", "standard"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: pass" in out

    def test_machine_format(self, capsys):
        code = main(["christoffels", "--scene", "parabola", "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["format"] == "bilag-report/1"
        assert data["tasks"][0]["operation"] == "christoffels"

    def test_report_runs_all_scene_tasks(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["report", "--scene", "parabola", "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        ops = [t["operation"] for t in data["tasks"]]
        assert "validate" in ops and "lift" in ops and "plot" in ops

    def test_unknown_scene_is_usage_error(self, capsys):
        code = main(["validate", "--scene", "no-such-scene"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no-such-scene" in err

    def test_unknown_map_is_usage_error(self, capsys):
        code = main(["push", "--scene", "affine-action", "--map", "missing"])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing" in err

    def test_failed_expectation_exit_code(self, capsys):
        code = main(["flat", "--scene", "parabola", "--expect", "true"])
        assert code == 1

    def test_plot_writes_file(self, capsys, tmp_path):
        out = tmp_path / "图.svg"
        code = main([
            "plot", "--scene", "parabola", "--bind", "h=1", "--out", str(out)
        ])
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_plot_with_zero_steps_reports_error(self, capsys, tmp_path):
        scene = tmp_path / "zero-steps.scene"
        scene.write_text(MINIMAL + f"task figure: plot steps=0 out={tmp_path / 'p.svg'}\n")
        code = main(["report", "--scene", str(scene), "--format", "machine"])
        assert code == 1
        task = json.loads(capsys.readouterr().out)["tasks"][-1]
        assert task["status"] == "error"
        assert task["messages"] == [
            "PlotError: leaves and steps must be at least 1, got 9 and 0"
        ]

    @pytest.mark.parametrize("args, message", [
        ("window=0,inf,0,1", "window bounds must be finite"),
        ("window=-1e308,1e308,-1,1", "window extent must be finite on both axes"),
        ("window=0,1.7e308,0,1.7e308", "window extent must be finite on both axes"),
        ("leaves=0", "leaves and steps must be at least 1, got 0 and 240"),
        ("steps=-5", "leaves and steps must be at least 1, got 9 and -5"),
    ])
    def test_plot_arguments_out_of_range_report_error(self, capsys, tmp_path, args, message):
        svg = tmp_path / "p.svg"
        scene = tmp_path / "range.scene"
        scene.write_text(MINIMAL + f"task figure: plot {args} out={svg}\n")
        code = main(["report", "--scene", str(scene), "--format", "machine"])
        assert code == 1
        task = json.loads(capsys.readouterr().out)["tasks"][-1]
        assert task["status"] == "error"
        assert task["messages"] == [f"PlotError: {message}"]
        assert not svg.exists()

    @pytest.mark.parametrize("args, message", [
        ("", "SceneError: task 'figure': plot needs out=PATH or --out"),
        ("window=1,0,0,1", "PlotError: window must have positive extent on both axes"),
        ("out=p.svg", "PlotError: leaf plots need a 2-dimensional chart, got 4"),
    ])
    def test_plot_on_a_4_dimensional_chart_reports_its_first_error(
            self, capsys, tmp_path, monkeypatch, args, message):
        # the chart check is leaf_plot's, so a missing out or a bad window
        # is reported before it
        monkeypatch.chdir(tmp_path)
        bundled = Path(find_scene("lifted-standard")).read_text(encoding="utf-8")
        scene = tmp_path / "dim4.scene"
        scene.write_text("".join(line for line in bundled.splitlines(keepends=True)
                                 if not line.startswith("task "))
                         + f"task figure: plot {args}\n")
        code = main(["report", "--scene", str(scene), "--format", "machine"])
        assert code == 1
        task = json.loads(capsys.readouterr().out)["tasks"][-1]
        assert task["status"] == "error"
        assert task["messages"] == [message]
        assert not (tmp_path / "p.svg").exists()

    def test_flag_value_may_begin_with_a_dash(self, capsys, tmp_path):
        # argparse takes a unique prefix of a long flag, and so does the join
        for flag in ("--window", "--wind"):
            spaced, joined = tmp_path / "spaced.svg", tmp_path / "joined.svg"
            assert main(["plot", "--scene", "standard", flag, "-1,1,-1,1",
                         "--out", str(spaced)]) == 0
            assert main(["plot", "--scene", "standard", f"{flag}=-1,1,-1,1",
                         "--out", str(joined)]) == 0
            assert spaced.read_bytes() == joined.read_bytes(), flag

    def test_flag_followed_by_a_flag_is_still_missing_its_value(self, capsys, tmp_path):
        for out_flag in ("--out", "--ou"):
            with pytest.raises(SystemExit) as exc:
                main(["plot", "--scene", "standard", "--window", out_flag,
                      str(tmp_path / "w.svg")])
            assert exc.value.code == 2
            assert "argument --window: expected one argument" in capsys.readouterr().err
            assert not (tmp_path / "w.svg").exists()

    def test_ambiguous_abbreviation_is_still_refused(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--s", "standard", "--window", "-1,1,-1,1",
                  "--out", str(tmp_path / "w.svg")])
        assert exc.value.code == 2
        assert "ambiguous option: --s could match" in capsys.readouterr().err
        assert not (tmp_path / "w.svg").exists()

    def test_misspelled_task_argument_is_usage_error(self, capsys, tmp_path):
        scene = tmp_path / "typo.scene"
        scene.write_text(PARABOLA_TEXT + "task f: flat expct=false\n")
        code = main(["report", "--scene", str(scene)])
        assert code == 2
        assert "unknown flat argument 'expct'" in capsys.readouterr().err

    def test_repeated_task_argument_is_usage_error(self, capsys, tmp_path):
        scene = tmp_path / "twice.scene"
        scene.write_text(PARABOLA_TEXT + "task f: flat expect=false expect=true\n")
        code = main(["report", "--scene", str(scene)])
        assert code == 2
        assert "flat argument 'expect' given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("task, message", [
        ("f: flat expect=maybe", "task 'f': expect must be true or false, got 'maybe'"),
        ("c: christoffels frame=weird",
         "task 'c': frame must be foliation or coordinate, got 'weird'"),
        ("l: lift k=1.5", "task 'l': k must be an integer, got '1.5'"),
        ("p: plot leaves=abc out=p.svg", "task 'p': leaves must be an integer, got 'abc'"),
    ])
    def test_malformed_task_argument_value_is_usage_error(self, capsys, tmp_path,
                                                           task, message):
        scene = tmp_path / "bad-value.scene"
        scene.write_text(PARABOLA_TEXT + f"task {task}\n")
        line = (PARABOLA_TEXT + f"task {task}\n").splitlines().index(f"task {task}") + 1
        code = main(["report", "--scene", str(scene), "--format", "machine"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"bilag: line {line}: {message}\n"

    def test_malformed_window_flag_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "p.svg"
        code = main(["plot", "--scene", "parabola", "--bind", "h=1",
                     "--window", "0,1,0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "bilag: task 'cli-plot': window must be x0,x1,y0,y1, got '0,1,0'\n")
        assert not out.exists()

    def test_lift_with_negative_k_reports_error(self, capsys, tmp_path):
        scene = tmp_path / "negative-k.scene"
        scene.write_text(MINIMAL + "task up: lift k=-1\n")
        code = main(["report", "--scene", str(scene), "--format", "machine"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["tasks"][-1]["status"] == "error"

    def test_repeated_bind_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "p.svg"
        code = main(["plot", "--scene", "parabola", "--bind", "h=1", "--bind", "h=2",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "bilag: --bind 'h' given twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("scene, binds, named, declared", [
        ("parabola", ["z=1"], "z", "h"),
        ("parabola", ["h=1", "z=1", "a=2"], "a, z", "h"),
        ("parabola", ["steps=5"], "steps", "h"),
        ("standard", ["h=1"], "h", "none"),
    ])
    def test_undeclared_bind_is_usage_error(self, capsys, tmp_path, scene, binds,
                                            named, declared):
        out = tmp_path / "p.svg"
        argv = ["plot", "--scene", scene, "--out", str(out)]
        for b in binds:
            argv += ["--bind", b]
        code = main(argv)
        assert code == 2
        assert capsys.readouterr().err == (
            f"bilag: --bind names undeclared symbols: {named}; declared: {declared}\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["out", "window", "leaves", "steps"])
    def test_bind_named_like_a_plot_flag_is_usage_error(self, capsys, tmp_path, name):
        scene = tmp_path / "clash.scene"
        scene.write_text(clashing_symbol_scene(name))
        out = tmp_path / "p.svg"
        code = main(["plot", "--scene", str(scene), "--bind", f"{name}=1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"bilag: task 'cli-plot': {name!r} names both a plot argument and a declared symbol\n")
        assert not out.exists()

    def test_flag_named_like_an_unbound_symbol_reads_as_the_flag(self, capsys, tmp_path):
        # the symbol is declared but no foliation needs it, so the plot runs
        scene = tmp_path / "out-symbol.scene"
        scene.write_text(MINIMAL.replace("omega: dy^dx", "symbol: out(x y)\nomega: dy^dx"))
        out = tmp_path / "p.svg"
        assert main(["plot", "--scene", str(scene), "--out", str(out), "--steps", "5"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv, expected", [
        (["christoffels"], {"frame": "foliation"}),
        (["flat"], {}),
        (["flat", "--expect", "false"], {"expect": False}),
        (["push", "--map", "shear"], {"map": "shear"}),
        (["act-check", "--map", "shear", "--expect", "false"],
         {"map": "shear", "expect": False}),
        (["lift"], {"k": 1}),
        (["lift", "--k", "2", "--fibers", "a,b"], {"k": 2, "fibers": ("a", "b")}),
        (["plot", "--bind", "h=1", "--window", "0,1,0,1", "--leaves", "3",
          "--steps", "7", "--out", "p.svg"],
         {"h": ONE, "window": (0.0, 1.0, 0.0, 1.0), "leaves": 3, "steps": 7,
          "out": "p.svg"}),
        (["validate", "--out", "r.json"], {}),
        (["plot"], {"window": (-2.0, 2.0, -2.0, 2.0), "leaves": 9, "steps": 240}),
    ])
    def test_adhoc_task_copies_the_operation_flags(self, argv, expected):
        args = build_parser().parse_args(argv[:1] + ["--scene", "parabola"] + argv[1:])
        task = _adhoc_task(args, load_scene(find_scene("parabola")).chart)
        assert task.args == expected
        assert all(type(task.args[key]) is type(value) for key, value in expected.items())

    def test_plot_on_lifted_scene_rejected(self, capsys):
        code = main(["plot", "--scene", "lifted-standard", "--out", "/tmp/x.svg"])
        assert code == 1

    def test_seed_recorded_in_report(self, capsys):
        code = main([
            "validate", "--scene", "standard", "--format", "machine",
            "--seed", "4242",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["seed"] == 4242

    def test_out_writes_report_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main([
            "validate", "--scene", "standard", "--format", "machine",
            "--out", str(target),
        ])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["ok"] is True

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code = main(["validate", "--scene", "standard", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("bilag: ") and captured.err.count("\n") == 1
        assert str(target) in captured.err

    def test_scene_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bytes.scene"
        path.write_bytes(b"chart: x y\n\xff\xfe omega: dy^dx\n")
        with pytest.raises(SceneError, match="not UTF-8 text"):
            load_scene(path)
        code = main(["validate", "--scene", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"bilag: {path}: not UTF-8 text: byte 11 cannot be decoded\n"

    @pytest.mark.parametrize("fibers", [[], ["--fibers", "a,b"]])
    def test_lift_cap_holds_with_and_without_fibers(self, capsys, fibers):
        code = main(["lift", "--scene", "parabola", *fibers, "--max-dim", "2"])
        assert code == 1
        assert ("LiftError: lift 1 of 1 needs a 4-dimensional chart, above the cap of 2"
                in capsys.readouterr().out)
        assert main(["lift", "--scene", "parabola", *fibers, "--max-dim", "4"]) == 0

    def test_lift_cap_exit_code(self, capsys):
        code = main(["lift", "--scene", "standard", "--k", "4"])
        assert code == 1
        code = main(["lift", "--scene", "standard", "--k", "2", "--max-dim", "8"])
        assert code == 0

    def test_act_check_cli(self, capsys):
        code = main(["act-check", "--scene", "affine-action", "--map", "psiAB"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: pass" in out


@pytest.mark.parametrize("op, key, raw, kind", [
    ("flat", "expect", "yes", None),
    ("flat", "expect", "no", None),
    ("flat", "expect", "0", None),
    ("flat", "expect", "maybe", "true or false"),
    ("act-check", "expect", "False", None),
    ("act-check", "expect", "2", "true or false"),
    ("christoffels", "frame", "coordinate", None),
    ("christoffels", "frame", "weird", "foliation or coordinate"),
    ("lift", "k", "1", None),
    ("lift", "k", "-1", None),
    ("lift", "k", "1.5", "an integer"),
    ("lift", "k", "", "an integer"),
    ("lift", "fibers", "a,b", None),
    ("lift", "fibers", "1a,b", "comma-separated coordinate names"),
    ("plot", "window", "-1,1,-1,1", None),
    ("plot", "window", "0,1,0", "x0,x1,y0,y1"),
    ("plot", "leaves", "3", None),
    ("plot", "leaves", "abc", "an integer"),
    ("plot", "steps", "0", None),
    ("plot", "steps", "1e3", "an integer"),
])
def test_task_line_and_flag_read_a_value_alike(capsys, tmp_path, op, key, raw, kind):
    # a typed argument's value reads the same on a scene's task line and as
    # its subcommand's flag: the same exit code and the same message
    base = find_scene("affine-action")
    extra = {"act-check": {"map": "psiAB"}, "plot": {"out": str(tmp_path / "p.svg")}}
    task_args = {**extra.get(op, {}), key: raw}
    scene = tmp_path / "typed.scene"
    with open(base, encoding="utf-8") as fh:
        words = " ".join(f"{k}={v}" for k, v in task_args.items())
        scene.write_text(fh.read() + f"task t: {op} {words}\n")
    runs = []
    for argv in (["report", "--scene", str(scene), "--task", "t"],
                 [op, "--scene", base, *(f"--{k}={v}" for k, v in task_args.items())]):
        code = main(argv)
        err = capsys.readouterr().err
        runs.append((code, re.sub(r"^bilag: (line \d+: )?task '[^']*': ", "", err)))
    assert runs[0] == runs[1]
    if kind is None:
        assert runs[0][0] in (0, 1) and runs[0][1] == ""
    else:
        assert runs[0] == (2, f"{key} must be {kind}, got {raw!r}\n")


def test_find_scene_variants(tmp_path):
    by_name = find_scene("standard")
    with_ext = find_scene("standard.scene")
    assert by_name == with_ext
    copied = tmp_path / "local.scene"
    copied.write_text(MINIMAL)
    assert str(find_scene(str(copied))) == str(copied)


def test_directory_does_not_hide_bundled_scene(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "standard").mkdir()
    assert find_scene("standard") == find_scene("standard.scene") != "standard"
    assert main(["validate", "--scene", "standard"]) == 0
    capsys.readouterr()
    assert main(["validate", "--scene", "missing/standard.scene"]) == 2
    assert capsys.readouterr().err == (
        "bilag: no such scene file or bundled scene: 'missing/standard.scene'\n")
    # a path that is neither a file nor a directory is still a path
    assert find_scene(os.devnull) == os.devnull
