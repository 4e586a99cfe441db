"""Scene files: declarative problem descriptions plus task running.

A scene is a flat, line-oriented text format.  ``#`` starts a comment and
blank lines are skipped; every other line is ``<head>: <payload>`` where
the head is a directive keyword, optionally followed by a name:

    chart: x y                      # coordinate names, once, declared first
    symbol: h(x y)                  # opaque scalar symbol and dependencies
    omega: h * dy^dx                # the symplectic form (a 2-form)
    foliation U: @x + 2*x*@y        # frame fields, separated by ';'
    foliation V: @y
    structure: U | V                # which frames play F1 and F2
    adapted: x | y - x^2            # optional: p's | q's, ';'-separated
    map shear: x, y + x^2 inverse x, y - x^2
    task gammas: christoffels frame=foliation

Geometric expressions extend the scalar grammar with ``@name`` for the
coordinate vector field, ``dname`` for the coordinate 1-form, and ``^``
acting as a wedge between forms (it stays integer power on scalars).

Task lines name one of the operations validate, hess, christoffels,
curvature, flat, para, push, lift, act-check, plot, followed by
``key=value`` arguments.  ``make_task`` reads them once, at load, into the
typed values of ``Task.args``; the CLI builds its tasks from flags the same
way.  An argument the operation does not read, one given twice, or a value
that is not of its argument's type makes the scene malformed.  Running
tasks yields a report that prints as text or serializes to versioned,
deterministic JSON (the per-task ``timing_ms`` field is the documented
exception).
"""

from __future__ import annotations

import itertools
import json
import os
import re
import time
from typing import Callable, NamedTuple

from .calculus import (
    CalculusError,
    Chart,
    DegreeError,
    KForm,
    SmoothMap,
    VectorField,
    coordinate_frame,
    d_coord,
    wedge,
)
from .lift import (
    LiftError,
    iterate_lift,
    lifted_action_check,
    DEFAULT_MAX_DIM,
)
from .plot import Window, leaf_plot
from .structures import (
    BiLagError,
    christoffels,
    curvature,
    hess_nabla,
    index_label,
    is_flat,
    para_structure,
    push_structure,
    validate_bilagrangian,
)
from .symexpr import (
    Expr,
    ExprError,
    OpaqueSymbol,
    ParseError,
    Rat,
    _Parser,
    as_expr,
    check_seed,
    check_stream,
    parse_expr,
    uniquely_decodable,
)
from .symplectic import SymplecticError, validate_symplectic

__all__ = [
    "SceneError",
    "Task",
    "make_task",
    "Scene",
    "TaskOutcome",
    "SceneReport",
    "REPORT_FORMAT",
    "OPERATIONS",
    "loads",
    "load_scene",
    "run_task",
    "run_tasks",
]

REPORT_FORMAT = "bilag-report/1"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class SceneError(Exception):
    """Malformed scene file; carries the source line when known."""

    def __init__(self, message: str, line: int = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# geometric expressions: scalars, vector fields, and forms in one grammar


def _kind(value) -> str:
    if isinstance(value, VectorField):
        return "vector field"
    if isinstance(value, KForm):
        return f"{value.degree}-form"
    return "scalar"


def _geometric_combine(op, a, b):
    """Typed binary operators of the geometric grammar; ``^`` wedges forms."""
    tensor = (VectorField, KForm)
    try:
        if op in "+-":
            if (isinstance(a, Expr) and isinstance(b, Expr)
                    or isinstance(a, tensor) and type(a) is type(b)):
                return a + b if op == "+" else a - b
        elif op == "*":
            if isinstance(a, Expr) and isinstance(b, Expr):
                return a * b
            if isinstance(a, Expr) and isinstance(b, tensor):
                return b.scale(a)
            if isinstance(b, Expr) and isinstance(a, tensor):
                return a.scale(b)
            if isinstance(a, KForm) and isinstance(b, KForm):
                raise ExprError("use '^' to wedge forms")
        elif op == "/":
            if isinstance(b, Expr):
                return a / b if isinstance(a, Expr) else a.scale(Rat(1) / b)
        elif op == "^":
            if isinstance(a, KForm) and isinstance(b, KForm):
                return wedge(a, b)
    except DegreeError as exc:
        raise ExprError(str(exc)) from None
    raise ExprError(f"cannot apply {op!r} to {_kind(a)} and {_kind(b)}")


def parse_geometric(text: str, chart: Chart):
    """Parse a scalar, vector field or form over the chart.

    The scalar grammar plus ``@name`` for a coordinate vector field and
    ``dname`` for a coordinate 1-form (a coordinate literally named
    ``dname`` wins); ``^`` after a form wedges the next atom.
    """

    def geometric_atom(parser, tok):
        kind, value, pos = tok
        if kind == "name":
            if len(value) > 1 and value.startswith("d") and value[1:] in chart.names:
                return d_coord(chart, chart.index(value[1:]))
            return None
        if kind == "op" and value == "@":
            t = parser.next()
            if t[0] != "name" or t[1] not in chart.names:
                raise ParseError("'@' must be followed by a coordinate name", text, pos)
            return coordinate_frame(chart)[chart.index(t[1])]
        return None

    return _Parser(text, chart.names, chart.symbols,
                   geometric_atom, _geometric_combine).parse()


# ---------------------------------------------------------------------------
# scene model


class Task:
    """A named operation with its typed arguments, as `make_task` reads them."""

    __slots__ = ("name", "operation", "args", "line")

    def __init__(self, name: str, operation: str, args: dict, line: int = None):
        self.name = name
        self.operation = operation
        self.args = dict(args)
        self.line = line

    def __repr__(self):
        args = " ".join(f"{k}={v}" for k, v in self.args.items())
        return f"Task({self.name}: {self.operation}{' ' + args if args else ''})"


class Scene:
    """A loaded scene: chart, form, frames, maps, and declared tasks."""

    def __init__(self, name, chart, omega_form, foliations, f1_name, f2_name,
                 adapted, maps, tasks):
        self.name = name
        self.chart = chart
        self.omega_form = omega_form
        self.foliations = dict(foliations)
        self.f1_name = f1_name
        self.f2_name = f2_name
        self.adapted = adapted
        self.maps = dict(maps)
        self.tasks = list(tasks)
        self._structure = None

    def structure(self):
        """The validated bi-Lagrangian structure (cached); may raise."""
        if self._structure is None:
            # a stream of its own, so validation moves no task's stream; no
            # task name contains ':'
            with check_stream(":structure"):
                omega = validate_symplectic(self.omega_form)
                self._structure = validate_bilagrangian(
                    omega,
                    self.foliations[self.f1_name],
                    self.foliations[self.f2_name],
                    self.adapted,
                )
        return self._structure

    def task(self, name: str) -> Task:
        for t in self.tasks:
            if t.name == name:
                return t
        raise SceneError(f"scene has no task named {name!r}")

    def frame_labels(self):
        """One label per combined-frame field, derived from foliation names."""
        labels = []
        for fol_name in (self.f1_name, self.f2_name):
            fields = self.foliations[fol_name]
            if len(fields) == 1:
                labels.append(fol_name)
            else:
                labels.extend(f"{fol_name}{i + 1}" for i in range(len(fields)))
        return labels

    def __repr__(self):
        return f"Scene({self.name}, chart={self.chart.names})"


def _parse_symbol_decl(payload: str, chart_names, line: int) -> OpaqueSymbol:
    m = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*$", payload)
    if not m:
        raise SceneError(f"malformed symbol declaration {payload!r}; "
                         "expected name(dep dep ...)", line)
    name, deps_raw = m.group(1), m.group(2)
    deps = [d for d in re.split(r"[,\s]+", deps_raw.strip()) if d]
    if not deps:
        raise SceneError(f"symbol {name!r} needs at least one dependency", line)
    if "_" in name:
        raise SceneError(f"symbol name {name!r} contains '_', which would split "
                         "its jets' printed names", line)
    try:
        sym = OpaqueSymbol(name, deps)
        Chart(chart_names, (sym,))
    except ValueError as exc:
        raise SceneError(str(exc), line) from None
    if not uniquely_decodable(deps):
        raise SceneError(f"symbol {name!r}: its dependency names {' '.join(deps)} "
                         "concatenate ambiguously, so its jets' printed names "
                         "would not re-parse", line)
    return sym


def _split_head(stripped: str, line: int):
    head, sep, payload = stripped.partition(":")
    if not sep:
        raise SceneError(f"missing ':' in directive {stripped!r}", line)
    parts = head.split()
    if len(parts) == 1:
        return parts[0], None, payload.strip()
    if len(parts) == 2:
        return parts[0], parts[1], payload.strip()
    raise SceneError(f"malformed directive head {head!r}", line)


# Directive heads: these kinds take no name, and these need one (with the
# payload their message shows); a kind and name are declared once.
_NAMELESS = ("omega", "structure", "adapted")
_NAMED = {"foliation": "...", "map": "...", "task": "operation ..."}


def _key_value(word: str, line: int) -> tuple:
    key, sep, value = word.partition("=")
    if not sep or not key:
        raise SceneError(f"task argument {word!r} must be key=value", line)
    return key, value


def loads(text: str, name: str = "<scene>") -> Scene:
    """Parse a scene from a string.  See the module docstring for the format."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        records.append((lineno, *_split_head(stripped, lineno)))

    chart_rec = [r for r in records if r[1] == "chart"]
    if len(chart_rec) != 1:
        raise SceneError("scene needs exactly one chart declaration",
                         chart_rec[1][0] if len(chart_rec) > 1 else None)
    lineno, _, label, payload = chart_rec[0]
    if label is not None:
        raise SceneError("chart takes no name", lineno)
    chart_names = payload.split()
    if not chart_names:
        raise SceneError("chart needs at least one coordinate name", lineno)
    for n in chart_names:
        if not _NAME_RE.match(n):
            raise SceneError(f"bad coordinate name {n!r}", lineno)
    if len(set(chart_names)) != len(chart_names):
        raise SceneError("duplicate coordinate names", lineno)

    symbols = []
    for lineno, kind, label, payload in records:
        if kind != "symbol":
            continue
        if label is not None:
            raise SceneError("symbol takes no name before ':'", lineno)
        sym = _parse_symbol_decl(payload, chart_names, lineno)
        if any(s.name == sym.name for s in symbols):
            raise SceneError(f"symbol {sym.name!r} declared twice", lineno)
        symbols.append(sym)
    chart = Chart(chart_names, tuple(symbols))

    omega_form = None
    foliations = {}
    f1_name = f2_name = None
    adapted = None
    maps = {}
    tasks = []

    def geometric(payload, lineno, want):
        try:
            value = parse_geometric(payload, chart)
        except ExprError as exc:
            raise SceneError(str(exc), lineno) from None
        if want == "field" and not isinstance(value, VectorField):
            raise SceneError(f"expected a vector field, got "
                             f"{_kind(value)}: {payload!r}", lineno)
        if want == "2-form" and not (isinstance(value, KForm) and value.degree == 2):
            raise SceneError(f"expected a 2-form, got "
                             f"{_kind(value)}: {payload!r}", lineno)
        return value

    def scalar(payload, lineno):
        try:
            return parse_expr(payload, chart.names, chart.symbols)
        except ExprError as exc:
            raise SceneError(str(exc), lineno) from None

    declared = set()
    for lineno, kind, label, payload in records:
        if kind in ("chart", "symbol"):
            continue
        if kind in _NAMELESS and label is not None:
            raise SceneError(f"{kind} takes no name", lineno)
        if kind in _NAMED and label is None:
            raise SceneError(f"{kind} needs a name: '{kind} NAME: {_NAMED[kind]}'", lineno)
        if (kind, label) in declared:
            raise SceneError(f"{kind} {label!r} declared twice" if label
                             else f"{kind} declared twice", lineno)
        declared.add((kind, label))
        if kind == "omega":
            omega_form = geometric(payload, lineno, "2-form")
        elif kind == "foliation":
            fields = [geometric(p.strip(), lineno, "field")
                      for p in payload.split(";") if p.strip()]
            if not fields:
                raise SceneError(f"foliation {label!r} has no fields", lineno)
            foliations[label] = tuple(fields)
        elif kind == "structure":
            sides = [p.strip() for p in payload.split("|")]
            if len(sides) != 2 or not all(sides):
                raise SceneError("structure must read 'NAME | NAME'", lineno)
            f1_name, f2_name = sides
        elif kind == "adapted":
            sides = payload.split("|")
            if len(sides) != 2:
                raise SceneError("adapted must read 'p; ... | q; ...'", lineno)
            ps = [scalar(p.strip(), lineno) for p in sides[0].split(";") if p.strip()]
            qs = [scalar(q.strip(), lineno) for q in sides[1].split(";") if q.strip()]
            if len(ps) != len(qs):
                raise SceneError(
                    f"adapted needs equally many p's and q's, got {len(ps)} and {len(qs)}",
                    lineno)
            adapted = tuple(ps) + tuple(qs)
        elif kind == "map":
            halves = re.split(r"\binverse\b", payload)
            if len(halves) != 2:
                raise SceneError("map must read 'comps inverse comps'", lineno)
            comps = [scalar(c.strip(), lineno) for c in halves[0].split(",") if c.strip()]
            invs = [scalar(c.strip(), lineno) for c in halves[1].split(",") if c.strip()]
            if len(comps) != chart.dim or len(invs) != chart.dim:
                raise SceneError(
                    f"map {label!r} needs {chart.dim} forward and inverse components",
                    lineno)
            try:
                maps[label] = SmoothMap(chart, chart, comps, invs)
            except (CalculusError, ExprError) as exc:
                raise SceneError(f"map {label!r}: {exc}", lineno) from None
        elif kind == "task":
            words = payload.split()
            if not words:
                raise SceneError(f"task {label!r} names no operation", lineno)
            op = words[0]
            if op not in OPERATIONS:
                raise SceneError(
                    f"unknown operation {op!r}; expected one of {', '.join(OPERATIONS)}",
                    lineno)
            pairs = (_key_value(w, lineno) for w in words[1:])
            tasks.append(make_task(label, op, pairs, chart, lineno))
        else:
            raise SceneError(f"unknown directive {kind!r}", lineno)

    if omega_form is None:
        raise SceneError("scene declares no omega")
    if f1_name is None:
        raise SceneError("scene declares no structure line")
    for fol in (f1_name, f2_name):
        if fol not in foliations:
            raise SceneError(f"structure references undeclared foliation {fol!r}")
    for t in tasks:
        _check_references(t, maps)
    return Scene(name, chart, omega_form, foliations, f1_name, f2_name,
                 adapted, maps, tasks)


def load_scene(path) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SceneError(f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded") from None
    return loads(text, name=os.path.splitext(os.path.basename(str(path)))[0])


# ---------------------------------------------------------------------------
# running tasks


class TaskOutcome:
    """Result of one task: a status, a payload, and human-readable lines.

    Statuses: ``pass`` and ``fail`` for tasks that assert something,
    ``computed`` for tasks that only report a result, ``error`` when the
    operation could not run at all.  ``ok`` is true for pass/computed.
    """

    __slots__ = ("name", "operation", "status", "payload", "messages", "timing_ms")

    def __init__(self, name, operation, status, payload=None, messages=(), timing_ms=0):
        self.name = name
        self.operation = operation
        self.status = status
        self.payload = payload or {}
        self.messages = list(messages)
        self.timing_ms = timing_ms

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "computed")

    def to_dict(self):
        return {key: getattr(self, key) for key in self.__slots__}


class SceneReport:
    """All task outcomes for a scene, serializable as text or JSON."""

    def __init__(self, scene: Scene, outcomes):
        self.scene = scene
        self.outcomes = list(outcomes)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_dict(self):
        return {
            "format": REPORT_FORMAT,
            "scene": self.scene.name,
            "chart": list(self.scene.chart.names),
            "seed": check_seed(),
            "ok": self.ok,
            "tasks": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"scene {self.scene.name} (chart {' '.join(self.scene.chart.names)})"]
        for o in self.outcomes:
            lines.append(f"task {o.name} [{o.operation}]: {o.status}")
            for msg in o.messages:
                lines.append(f"  {msg}")
        lines.append(f"overall: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _fmt(e) -> str:
    return str(as_expr(e).normal())


def _field_payload(field: VectorField):
    return [_fmt(field.component(i)) for i in range(field.chart.dim)]


def _matrix_payload(mat):
    return [[_fmt(e) for e in row] for row in mat]


def _curvature_payload(n, pairs):
    return {f"R^{l + 1}_{index_label(n, i, j, k)}": _fmt(e) for (i, j, k, l), e in pairs}


def _structure_payload(s):
    return {
        "chart": list(s.chart.names),
        "omega": _matrix_payload(s.omega.form.matrix()),
        "f1": [_field_payload(f) for f in s.f1],
        "f2": [_field_payload(f) for f in s.f2],
        "adapted": [_fmt(a) for a in s.adapted],
    }


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _one_of(*words):
    def parse(raw: str) -> str:
        if raw not in words:
            raise ValueError(raw)
        return raw
    return parse


def _parse_names(raw: str) -> tuple:
    names = tuple(raw.split(","))
    if not all(_NAME_RE.match(n) for n in names):
        raise ValueError(raw)
    return names


def _parse_window(raw: str) -> tuple:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValueError(raw)
    return tuple(float(p) for p in parts)


class _Arg(NamedTuple):
    """A task argument: what a value must be, how a raw value parses
    (ValueError when it does not), its raw default, and whether a task must
    give it.  ``help`` replaces ``kind`` in ``--help`` when set."""

    kind: str
    parse: Callable
    default: str = None
    required: bool = False
    help: str = None

    def read(self, what: str, raw: str, line: int = None):
        try:
            return self.parse(raw)
        except ValueError:
            raise SceneError(f"{what} must be {self.kind}, got {raw!r}", line) from None


_MAP = _Arg("the name of a declared map", str, required=True)

# Each operation's task arguments, in the order that messages and --help
# list them; a plot task also takes one binding per declared symbol.  Scene
# task lines and CLI subcommands both read them through make_task.  A value
# that does not parse makes the input malformed; one that parses but lies
# outside the operation's range is the task's error when it runs.
_TASK_ARGS = {
    "validate": {},
    "hess": {},
    "christoffels": {"frame": _Arg("foliation or coordinate",
                                   _one_of("foliation", "coordinate"), "foliation")},
    "curvature": {},
    "flat": {"expect": _Arg("true or false", _parse_bool)},
    "para": {},
    "push": {"map": _MAP},
    "lift": {"k": _Arg("an integer", int, "1"),
             "fibers": _Arg("comma-separated coordinate names", _parse_names)},
    "act-check": {"map": _MAP, "expect": _Arg("true or false", _parse_bool, "true")},
    "plot": {"out": _Arg("a path", str),
             "window": _Arg("x0,x1,y0,y1", _parse_window, "-2,2,-2,2"),
             "leaves": _Arg("an integer", int, "9"), "steps": _Arg("an integer", int, "240")},
}

OPERATIONS = tuple(_TASK_ARGS)


def make_task(name: str, op: str, pairs, chart: Chart, line: int = None) -> Task:
    """The task that runs `op` with the given (key, raw value) pairs, read
    in order: each key must be one of the operation's arguments (or, for
    plot, a declared symbol) and come once.  A table argument parses by the
    table, a plot binding as an expression over the chart coordinates,
    without symbols; the table's defaults fill in the rest.  A key both an
    argument and a symbol could be either, so it is refused.  SceneError at
    `line` for the first pair that does not read."""
    table = _TASK_ARGS[op]
    symbols = tuple(s.name for s in chart.symbols) if op == "plot" else ()
    allowed = tuple(table) + symbols
    args = {}
    for key, raw in pairs:
        if key not in allowed:
            raise SceneError(f"task {name!r}: unknown {op} argument {key!r} "
                             f"(known: {', '.join(allowed) or 'none'})", line)
        if key in table and key in symbols:
            raise SceneError(f"task {name!r}: {key!r} names both a {op} argument "
                             f"and a declared symbol", line)
        if key in args:
            raise SceneError(f"task {name!r}: {op} argument {key!r} given twice", line)
        if key in table:
            args[key] = table[key].read(f"task {name!r}: {key}", raw, line)
            continue
        try:
            args[key] = parse_expr(raw, chart.names, ())
        except ExprError as exc:
            raise SceneError(f"task {name!r}: binding {key}={raw!r}: {exc}", line) from None
    for key, arg in table.items():
        if key not in args and arg.default is not None:
            args[key] = arg.parse(arg.default)
    return Task(name, op, args, line)


def _check_references(task: Task, maps) -> None:
    """SceneError unless the task gives its required arguments and its map
    is declared."""
    for key, arg in _TASK_ARGS[task.operation].items():
        if arg.required and not task.args.get(key):
            raise SceneError(f"task {task.name!r} needs a {key}=NAME argument", task.line)
    target = task.args.get("map")
    if target is not None and target not in maps:
        raise SceneError(f"task {task.name!r} references undeclared map {target!r}; "
                         f"available: {', '.join(sorted(maps)) or 'none'}", task.line)


def _checks_payload(report):
    return [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks]


def _run_validation(scene, task, max_dim):
    try:
        s = scene.structure()
    except BiLagError as exc:
        payload = {"ok": False, "checks": _checks_payload(exc.report)}
        return "fail", payload, [repr(c) for c in exc.report.failures()]
    except SymplecticError as exc:
        return "fail", {"ok": False, "checks": []}, [str(exc)]
    payload = {
        "ok": True,
        "checks": _checks_payload(s.report),
        "omega_witness": _fmt(s.omega.witness),
        "omega_warnings": list(s.omega.warnings),
    }
    messages = [f"{len(s.report.checks)} checks passed"]
    if s.omega.warnings:
        messages += [f"warning: {w}" for w in s.omega.warnings]
    return "pass", payload, messages


def _run_hess(scene, task, max_dim):
    s = scene.structure()
    labels = scene.frame_labels()
    fields = s.frame
    table = {}
    messages = []
    for i, ei in enumerate(fields):
        for j, ej in enumerate(fields):
            w = hess_nabla(s, ei, ej)
            key = f"nabla_{labels[i]} {labels[j]}"
            table[key] = _field_payload(w)
            messages.append(f"{key} = ({', '.join(table[key])})")
    payload = {
        "frame": {labels[i]: _field_payload(f) for i, f in enumerate(fields)},
        "table": table,
    }
    return "computed", payload, messages


def _run_christoffels(scene, task, max_dim):
    frame_kind = task.args["frame"]
    s = scene.structure()
    conn = christoffels(s, frame_kind)
    if frame_kind == "foliation":
        labels = scene.frame_labels()
    else:
        labels = list(scene.chart.names)
    n = len(conn.frame)
    table = {
        f"Gamma^{k + 1}_{index_label(n, i, j)}": _fmt(conn.coefficient(i, j, k))
        for i, j, k in itertools.product(range(n), repeat=3)
    }
    messages = [f"{key} = {value}" for key, value in table.items() if value != "0"]
    if not messages:
        messages.append("all coefficients vanish")
    payload = {
        "frame_kind": frame_kind,
        "frame": {labels[i]: _field_payload(f) for i, f in enumerate(conn.frame)},
        "table": table,
    }
    return "computed", payload, messages


def _run_curvature(scene, task, max_dim):
    s = scene.structure()
    curv = curvature(christoffels(s))
    entries = _curvature_payload(len(curv.frame), curv.entries.items())
    messages = [f"{key} = {value}" for key, value in entries.items()]
    if not entries:
        messages.append("curvature vanishes")
    payload = {"nonzero": entries, "zero": not entries}
    return "computed", payload, messages


def _run_flat(scene, task, max_dim):
    s = scene.structure()
    result = is_flat(s)
    payload = {"flat": result.flat,
               "witnesses": _curvature_payload(len(result.curvature.frame), result.witnesses)}
    messages = [f"flat: {result.flat}"]
    messages += [f"{k} = {v}" for k, v in sorted(payload["witnesses"].items())]
    expect = task.args.get("expect")
    if expect is not None:
        status = "pass" if result.flat == expect else "fail"
        messages.append(f"expected flat={expect}: {status}")
        return status, payload, messages
    return "computed", payload, messages


def _run_para(scene, task, max_dim):
    s = scene.structure()
    para = para_structure(s)
    payload = {"F": _matrix_payload(para.F), "G": _matrix_payload(para.G)}
    messages = ["F = " + json.dumps(payload["F"]), "G = " + json.dumps(payload["G"])]
    return "computed", payload, messages


def _run_push(scene, task, max_dim):
    s = scene.structure()
    psi = scene.maps[task.args["map"]]
    pushed = push_structure(psi, s)
    payload = {"map": task.args["map"], "pushed": _structure_payload(pushed)}
    messages = [
        f"pushed omega: {json.dumps(payload['pushed']['omega'])}",
        f"pushed F1: {json.dumps(payload['pushed']['f1'])}",
        f"pushed F2: {json.dumps(payload['pushed']['f2'])}",
        "revalidated: ok",
    ]
    return "computed", payload, messages


def _run_lift(scene, task, max_dim):
    k = task.args["k"]
    fibers = task.args.get("fibers")
    s = scene.structure()
    if fibers is not None and k != 1:
        raise SceneError(f"task {task.name!r}: explicit fibers only apply to k=1")
    lifted = iterate_lift(s, k, max_dim, fibers)
    payload = {"k": k, "lifted": _structure_payload(lifted)}
    messages = [
        f"lifted chart: {' '.join(lifted.chart.names)}",
        f"lifted omega: {json.dumps(payload['lifted']['omega'])}",
        "revalidated: ok",
    ]
    return "computed", payload, messages


def _run_act_check(scene, task, max_dim):
    s = scene.structure()
    if 2 * s.chart.dim > max_dim:
        raise LiftError(f"act-check needs a {2 * s.chart.dim}-dimensional chart, "
                        f"above the cap of {max_dim}; raise max_dim to proceed")
    psi = scene.maps[task.args["map"]]
    result = lifted_action_check(psi, s)
    payload = {
        "map": task.args["map"],
        "equal": result.equal,
        "omega_match": result.omega_match,
        "fiber_block": _matrix_payload(result.lifted_map.fiber_block),
        "preserves_form": result.lifted_map.preserves_form,
        "verdicts": [
            {"label": v.name, "ok": v.passed, "detail": v.detail}
            for v in result.verdicts
        ],
    }
    messages = repr(result).splitlines()
    status = "pass" if result.equal == task.args["expect"] else "fail"
    return status, payload, messages


def _run_plot(scene, task, max_dim):
    s = scene.structure()
    args = task.args
    bindings = {key: e for key, e in args.items() if key not in _TASK_ARGS["plot"]}
    window = Window(*args["window"])
    out = args.get("out")
    if not out:
        raise SceneError(f"task {task.name!r}: plot needs out=PATH or --out")
    svg = leaf_plot(s.f1[0], s.f2[0], window,
                    leaves=args["leaves"], steps=args["steps"], bindings=bindings)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    payload = {"out": str(out), "bytes": len(svg.encode("utf-8"))}
    return "computed", payload, [f"wrote {out} ({payload['bytes']} bytes)"]


_RUNNERS = {
    "validate": _run_validation,
    "hess": _run_hess,
    "christoffels": _run_christoffels,
    "curvature": _run_curvature,
    "flat": _run_flat,
    "para": _run_para,
    "push": _run_push,
    "lift": _run_lift,
    "act-check": _run_act_check,
    "plot": _run_plot,
}


def run_task(scene: Scene, task: Task, max_dim: int = DEFAULT_MAX_DIM) -> TaskOutcome:
    """Run one task; operation failures become fail/error outcomes.  A lift
    or act-check task's chart may grow to max_dim dimensions.

    The task's zero tests draw their points from a stream derived from the
    check seed and the task's name, so a task alone draws the same points as
    in a full report.
    """
    runner = _RUNNERS[task.operation]
    start = time.perf_counter()
    try:
        with check_stream(task.name):
            status, payload, messages = runner(scene, task, max_dim)
    except BiLagError as exc:
        status, payload = "fail", {"checks": _checks_payload(exc.report)}
        messages = [repr(c) for c in exc.report.failures()]
    except SymplecticError as exc:
        status, payload, messages = "fail", {"checks": []}, [str(exc)]
    except Exception as exc:
        status, payload, messages = "error", {}, [f"{type(exc).__name__}: {exc}"]
    ms = int((time.perf_counter() - start) * 1000)
    return TaskOutcome(task.name, task.operation, status, payload, messages, ms)


def run_tasks(scene: Scene, names=None, max_dim: int = DEFAULT_MAX_DIM) -> SceneReport:
    """Run the named tasks (default: all declared tasks, in order)."""
    if names is None:
        tasks = list(scene.tasks)
    else:
        tasks = [scene.task(n) for n in names]
    return SceneReport(scene, [run_task(scene, t, max_dim) for t in tasks])
