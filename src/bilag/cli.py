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

Common flags: ``--scene`` (a path, or the name of a bundled scene),
``--format text|machine``, ``--out`` (report destination; for ``plot``,
the SVG destination), ``--max-dim`` (chart-dimension cap for iterated
lifts), ``--seed`` (seed of the randomized zero-test cross-check).

Exit status: 0 when every verdict passes, 1 when any task fails or
errors, 2 for unusable input (bad scene file, bad flags).
"""

from __future__ import annotations

import argparse
import os
import sys

from .lift import DEFAULT_MAX_DIM
from .scene import (
    OPERATIONS,
    SceneError,
    SceneReport,
    Task,
    _ARG_TYPES,
    _TASK_KEYS,
    _plot_binding,
    _typed_arg,
    load_scene,
    run_task,
    run_tasks,
)
from .symexpr import set_check_seed

__all__ = ["main", "find_scene", "bundled_scene_dir"]


def bundled_scene_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "scenes")


def find_scene(spec: str) -> str:
    """Resolve a --scene value: a real path, or the name of a bundled scene."""
    if os.path.exists(spec):
        return spec
    base = spec if spec.endswith(".scene") else spec + ".scene"
    candidate = os.path.join(bundled_scene_dir(), base)
    if os.path.exists(candidate):
        return candidate
    raise SceneError(f"no such scene file or bundled scene: {spec!r}")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--scene", required=True,
                   help="scene file path or bundled scene name")
    p.add_argument("--format", choices=("text", "machine"), default="text",
                   help="report format (default text)")
    p.add_argument("--out", default=None,
                   help="write the report here (for plot: the SVG)")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                   help=f"chart-dimension cap for lifts (default {DEFAULT_MAX_DIM})")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized zero-test cross-check")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilag",
        description="Construct and verify bi-Lagrangian structures on coordinate charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for op in OPERATIONS:
        p = sub.add_parser(op, help=f"run the {op} operation on a scene")
        _add_common(p)
        if op == "christoffels":
            p.add_argument("--frame", choices=("foliation", "coordinate"),
                           default="foliation")
        if op == "flat":
            p.add_argument("--expect", choices=("true", "false"), default=None,
                           help="turn the computation into a pass/fail assertion")
        if op in ("push", "act-check"):
            p.add_argument("--map", required=True, help="name of a declared map")
        if op == "act-check":
            p.add_argument("--expect", choices=("true", "false"), default=None)
        if op == "lift":
            p.add_argument("--k", type=int, default=1, help="number of lifts")
            p.add_argument("--fibers", default=None,
                           help="comma-separated fiber coordinate names (k=1 only)")
        if op == "plot":
            p.add_argument("--bind", action="append", default=[],
                           metavar="NAME=EXPR",
                           help="bind an opaque symbol for plotting (repeatable)")
            p.add_argument("--window", default=None, help="x0,x1,y0,y1")
            p.add_argument("--leaves", type=int, default=None)
            p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("report", help="run tasks declared in the scene file")
    _add_common(p)
    p.add_argument("--task", action="append", default=None,
                   help="run only this declared task (repeatable)")
    return parser


def _adhoc_task(args) -> Task:
    op = args.command
    task_args = {}
    if op == "plot":
        for binding in args.bind:
            key, sep, value = binding.partition("=")
            if not sep:
                raise SceneError(f"--bind needs NAME=EXPR, got {binding!r}")
            if key in task_args:
                raise SceneError(f"--bind {key!r} given twice")
            task_args[key] = value
    name = f"cli-{op}"
    for key in _TASK_KEYS[op]:
        if getattr(args, key) is not None:
            task_args[key] = str(getattr(args, key))
            if key in _ARG_TYPES:
                _typed_arg(name, key, task_args[key])
    return Task(name, op, task_args)


def _emit(report: SceneReport, args) -> None:
    text = report.to_json() if args.format == "machine" else report.to_text()
    out = args.out
    if args.command == "plot":
        out = None  # --out was the SVG destination
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None:
        set_check_seed(args.seed)
    options = {"max_dim": args.max_dim}
    try:
        scene = load_scene(find_scene(args.scene))
        if args.command == "report":
            report = run_tasks(scene, args.task, **options)
        else:
            task = _adhoc_task(args)
            if task.operation in ("push", "act-check") and task.args["map"] not in scene.maps:
                raise SceneError(
                    f"scene declares no map named {task.args['map']!r}; "
                    f"available: {', '.join(sorted(scene.maps)) or 'none'}"
                )
            if task.operation == "plot":
                declared = [sym.name for sym in scene.chart.symbols]
                unknown = sorted({b.partition("=")[0] for b in args.bind} - set(declared))
                if unknown:
                    raise SceneError(
                        f"--bind names undeclared symbols: {', '.join(unknown)}; "
                        f"declared: {', '.join(declared) or 'none'}"
                    )
                for key, _, raw in (b.partition("=") for b in args.bind):
                    _plot_binding(task.name, key, raw, scene.chart)
            report = SceneReport(scene, [run_task(scene, task, **options)])
    except SceneError as exc:
        print(f"bilag: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bilag: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
