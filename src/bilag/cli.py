"""Command-line front end.

One subcommand per scene operation plus ``report``:

    bilag validate     --scene parabola.scene
    bilag christoffels --scene parabola.scene --frame foliation
    bilag flat         --scene parabola.scene --expect false
    bilag push         --scene affine-action.scene --map shear
    bilag lift         --scene standard.scene --k 2
    bilag act-check    --scene affine-action.scene --map psiAB
    bilag plot         --scene parabola.scene --bind h=1 --out leaves.svg
    bilag report       --scene parabola.scene [--task gammas ...]

An operation's flags are its task arguments, generated from
``scene._TASK_ARGS`` with the names and defaults of a task line;
``plot`` takes ``out`` as ``--out`` and each symbol binding as ``--bind``.
``scene.make_task`` reads the flags' values once, as it reads a task
line's, so a value is refused with the message the task line gets.
A subcommand builds only its own flags; its help and errors are the same
as with every subcommand built.

Common flags: ``--scene`` (a path, or the name of a bundled scene),
``--format text|machine``, ``--out`` (report destination; for ``plot``,
the SVG destination), ``--max-dim`` (chart-dimension cap for iterated
lifts), ``--seed`` (seed of the randomized zero-test cross-check).

Exit status: 0 when every verdict passes, 1 when any task fails or
errors, 2 for unusable input (bad scene file, bad flags or flag values)
or a report destination that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .calculus import Chart
from .lift import DEFAULT_MAX_DIM
from .scene import (
    OPERATIONS,
    SceneError,
    SceneReport,
    Task,
    _Arg,
    _TASK_ARGS,
    _check_references,
    _one_of,
    load_scene,
    make_task,
    run_task,
    run_tasks,
)
from .symexpr import set_check_seed

__all__ = ["main", "find_scene", "bundled_scene_dir"]


def bundled_scene_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "scenes")


def find_scene(spec: str) -> str:
    """Resolve a --scene value: a path but not a directory, or a bundled scene's name."""
    if os.path.exists(spec) and not os.path.isdir(spec):
        return spec
    base = spec if spec.endswith(".scene") else spec + ".scene"
    candidate = os.path.join(bundled_scene_dir(), base)
    if os.path.exists(candidate):
        return candidate
    raise SceneError(f"no such scene file or bundled scene: {spec!r}")


# The value flags every subcommand takes; they read like task arguments.
_COMMON_ARGS = {
    "format": _Arg("text or machine", _one_of("text", "machine"), "text",
                   help="report format: text or machine"),
    "max-dim": _Arg("an integer", int, str(DEFAULT_MAX_DIM),
                    help="chart-dimension cap for lifts"),
    "seed": _Arg("an integer", int, help="seed for the randomized zero-test cross-check"),
}


def _add_flags(p: argparse.ArgumentParser, flags: dict):
    for key, arg in flags.items():
        default = "" if arg.default is None else f" (default {arg.default})"
        p.add_argument(f"--{key}", default=arg.default, required=arg.required,
                       help=(arg.help or arg.kind) + default)


_COMMANDS = (*OPERATIONS, "report")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command``'s alone; its usage still
    names them all, as the 'unrecognized arguments' error prints it."""
    parser = argparse.ArgumentParser(
        prog="bilag",
        description="Construct and verify bi-Lagrangian structures on coordinate charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(_COMMANDS) if command else None)
    for op in (command,) if command else _COMMANDS:
        p = sub.add_parser(op, help=f"run the {op} operation on a scene" if op in _TASK_ARGS
                           else "run tasks declared in the scene file")
        p.add_argument("--scene", required=True, help="scene file path or bundled scene name")
        p.add_argument("--out", help="write the report here (for plot: the SVG)")
        _add_flags(p, _COMMON_ARGS)
        # each task argument is a flag of the same name; plot's out is --out
        _add_flags(p, {k: a for k, a in _TASK_ARGS.get(op, {}).items() if k != "out"})
        if op == "plot":
            p.add_argument("--bind", action="append", default=[], metavar="NAME=EXPR",
                           help="bind an opaque symbol for plotting (repeatable)")
        if op == "report":
            p.add_argument("--task", action="append",
                           help="run only this declared task (repeatable)")
    return parser


def _attach_values(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with each value-taking flag joined to a next token that starts
    with '-' (``--window -1,1,-1,1`` becomes ``--window=-1,1,-1,1``),
    unless that token names one of the subcommand's own flags.  argparse
    alone reads such a token as a flag and reports the value missing.  As
    in argparse, a token names a flag exactly or as a prefix of long
    flags; a flag is joined only when it names one flag, so an ambiguous
    prefix is left for argparse to refuse."""
    commands = parser._subparsers._group_actions[0].choices
    flags = next((commands[t]._option_string_actions for t in argv if t in commands), {})

    def named(tok):
        if tok in flags:
            return [tok]
        return [f for f in flags if tok.startswith("--") and f.startswith(tok)]

    out = []
    for tok in argv:
        prev = named(out[-1]) if out else []
        if (len(prev) == 1 and flags[prev[0]].nargs is None and tok.startswith("-")
                and not named(tok.partition("=")[0])):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _adhoc_task(args, chart: Chart) -> Task:
    """The subcommand's task: its --bind values, which must name declared
    symbols, then its operation's flags, read by make_task."""
    op = args.command
    binds = {}
    for binding in getattr(args, "bind", ()):
        key, sep, value = binding.partition("=")
        if not sep:
            raise SceneError(f"--bind needs NAME=EXPR, got {binding!r}")
        if key in binds:
            raise SceneError(f"--bind {key!r} given twice")
        binds[key] = value
    declared = [sym.name for sym in chart.symbols]
    unknown = sorted(set(binds) - set(declared))
    if unknown:
        raise SceneError(f"--bind names undeclared symbols: {', '.join(unknown)}; "
                         f"declared: {', '.join(declared) or 'none'}")
    flags = {key: getattr(args, key) for key in _TASK_ARGS[op]
             if getattr(args, key) is not None}
    # with only bound symbols in scope, a flag named like another one is the flag
    bound = Chart(chart.names, [sym for sym in chart.symbols if sym.name in binds])
    return make_task(f"cli-{op}", op, (*binds.items(), *flags.items()), bound)


def _emit(report: SceneReport, args, fmt: str) -> None:
    text = report.to_json() if fmt == "machine" else report.to_text()
    if args.out and args.command != "plot":  # plot's --out is the SVG
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # every token after a leading command goes to its subparser; other argv get the full tree
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(_attach_values(parser, argv))
    try:
        flags = {key: arg.read(f"--{key}", raw) for key, arg in _COMMON_ARGS.items()
                 if (raw := getattr(args, key.replace("-", "_"))) is not None}
        if "seed" in flags:
            set_check_seed(flags["seed"])
        scene = load_scene(find_scene(args.scene))
        if args.command == "report":
            report = run_tasks(scene, args.task, flags["max-dim"])
        else:
            task = _adhoc_task(args, scene.chart)
            _check_references(task, scene.maps)
            report = SceneReport(scene, [run_task(scene, task, flags["max-dim"])])
        _emit(report, args, flags["format"])
    except (SceneError, OSError) as exc:
        print(f"bilag: {exc}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
