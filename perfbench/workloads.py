"""The benchmark's three workloads, each a fixed list of ops with known answers.

An op's `run` does the timed work and returns its outputs; its `check`
compares them with the known answer and returns None, or a reason when they
are wrong.  Every op builds its scene, structure and map objects afresh,
because `Expr` caches normal forms per node and a reused object would make
a repeat cheaper than a user's single run.

* ``scenes``    every bundled scene as ``bilag report --format machine``
                through ``cli.main`` in-process, checked against goldens.
* ``ladder``    parabola and standard lifted to dim 4 and 8 (flatness plus
                the Levi-Civita-oracle cross-check), then to dim 16
                (revalidation only).
* ``transport`` seeded non-affine symplectomorphisms pushing standard and
                parabola (h = 1 + x^2): push and revalidate, connection
                coherence, the lifted action check, and a negative control
                whose known answer is false.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import time

# Traced functions are called through their modules, so that the tracer's
# patches of those module attributes see the benchmark's own calls too.
from bilag import cli, lift, scene, structures, symplectic
from bilag.calculus import Chart, SmoothMap, VectorField, form_from_matrix
from bilag.symexpr import ONE, ZERO, is_zero, set_check_seed

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens")


class Op:
    """One closed-loop request: timed `run()`, untimed `check(result, seed)`."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def op_seed(seed: int, index: int) -> int:
    """Zero-test seed of op `index`, independent of the order ops run in."""
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def run_op(op: Op, seed: int):
    """Time one op; returns (seconds, result, problem or None).

    An exception is a failed op, never an aborted run.
    """
    set_check_seed(seed)
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


def check_op(op: Op, result, seed: int):
    """The op's known-answer check; None, or why the answer is wrong."""
    try:
        return op.check(result, seed)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# scenes

SCENES = ("standard", "parabola", "lifted-standard", "affine-action")
# A pass reports the small standard scene twice: with five ops, op_p50 and
# op_p90 fall inside one scene's samples and not between two.
SCENE_PASS = SCENES + ("standard",)


def normalized_report(text: str) -> dict:
    """The machine report without its run-dependent fields (timing, seed)."""
    report = json.loads(text)
    report.pop("seed", None)
    for task in report.get("tasks", ()):
        task.pop("timing_ms", None)
    return report


def _run_scene(name: str, workdir: str) -> dict:
    # the plot tasks write their SVG into the working directory
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", "--scene", name, "--format", "machine"])
    finally:
        os.chdir(cwd)
    return {"code": code, "report": out.getvalue(), "workdir": workdir}


def _check_scene(name: str, goldens: str, result: dict, seed: int):
    if result["code"] != 0:
        return f"exit code {result['code']}"
    if json.loads(result["report"]).get("seed") != seed:
        return "report does not carry the op's zero-test seed"
    golden_dir = os.path.join(goldens, name)
    with open(os.path.join(golden_dir, "report.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    if normalized_report(result["report"]) != golden:
        return "machine report differs from the golden"
    wrote = sorted(os.listdir(result["workdir"]))
    expected = sorted(f for f in os.listdir(golden_dir) if f.endswith(".svg"))
    if wrote != expected:
        return f"wrote {wrote}, golden has {expected}"
    for fname in wrote:
        with open(os.path.join(result["workdir"], fname), "rb") as a, \
                open(os.path.join(golden_dir, fname), "rb") as b:
            if a.read() != b.read():
                return f"{fname} differs from the golden"
    return None


def scenes_ops(seed: int, workdir: str, goldens: str = GOLDENS) -> list:
    """One report per op; the seed only sets zero-test points."""
    return [
        Op(name,
           lambda name=name: _run_scene(name, os.path.join(workdir, name)),
           lambda result, s, name=name: _check_scene(name, goldens, result, s))
        for name in SCENE_PASS
    ]


# ---------------------------------------------------------------------------
# ladder

# The parabola's base chart is a rung too, and the dim-4 parabola rung runs
# three times a pass: op_p50 then falls in the middle of that rung's
# samples, not between two rungs, and is the median of three times as many.
LADDER = (("parabola", 2), ("parabola", 4), ("parabola", 8), ("standard", 4),
          ("parabola", 4), ("standard", 8), ("parabola", 16), ("parabola", 4),
          ("standard", 16))
# flat, nonzero Christoffel symbols, nonzero curvature entries (dims 2 to 8)
LADDER_EXPECT = {"parabola": (False, 2, 4), "standard": (True, 0, 0)}
# validation checks of a dim-16 lift
DIM16_CHECKS = 117


def _run_rung(name: str, dim: int) -> dict:
    s = scene.load_scene(cli.find_scene(name)).structure()
    while s.chart.dim < dim:
        s = lift.lift_structure(s)
    if dim == 16:
        return {"dim": s.chart.dim, "checks": len(s.report.checks), "ok": s.report.ok}
    start = time.perf_counter()
    flat = structures.is_flat(s)
    flat_s = time.perf_counter() - start
    oracle = structures.connections_equal(
        flat.connection, structures.levi_civita_oracle(structures.para_structure(s)))
    return {"dim": s.chart.dim, "flat": flat.flat, "connection": flat.connection,
            "curvature_nonzero": len(flat.witnesses), "oracle": oracle,
            "flat_s": flat_s}


def _check_rung(name: str, dim: int, result: dict, seed: int):
    if result["dim"] != dim:
        return f"lifted to dim {result['dim']}, not {dim}"
    if dim == 16:
        if result["checks"] != DIM16_CHECKS or not result["ok"]:
            return f"dim-16 validation: {result['checks']} checks, ok={result['ok']}"
        return None
    flat, n_gamma, n_curv = LADDER_EXPECT[name]
    gamma = result["connection"].gamma
    got_gamma = sum(1 for block in gamma for row in block for g in row if not is_zero(g))
    got = (result["flat"], got_gamma, result["curvature_nonzero"])
    if got != (flat, n_gamma, n_curv):
        return f"(flat, nonzero gamma, nonzero R) = {got}, expected {(flat, n_gamma, n_curv)}"
    if not result["oracle"]:
        return "canonical connection disagrees with the Levi-Civita oracle"
    return None


def ladder_ops(seed: int) -> list:
    """The lift ladder; its inputs do not depend on the seed."""
    return [
        Op(f"{name}-dim{dim}",
           lambda name=name, dim=dim: _run_rung(name, dim),
           lambda result, s, name=name, dim=dim: _check_rung(name, dim, result, s))
        for name, dim in LADDER
    ]


# ---------------------------------------------------------------------------
# transport

# (structure, shear direction, shear degree, affine factor).  A "vertical"
# shear is (x, y + p(x)), a "horizontal" one (x + q(y), y); the affine factor
# is (x + k y, y) ("upper") or (x, k x + y) ("lower") plus a translation.
# The plan is fixed so that every seed asks for about the same work; the
# seed draws every coefficient.  The five templates cost from about 0.2 s
# to 1.4 s each; each runs twice a pass, with two draws, so that op_p50 and
# op_p90 fall inside one template's samples and not between two.
TRANSPORT_PLAN = (
    ("standard", "horizontal", 2, "upper"),
    ("standard", "vertical", 3, "lower"),
    ("parabola", "vertical", 2, "lower"),
    ("standard", "vertical", 2, "upper"),
    ("parabola", "vertical", 2, "upper"),
)
TRANSPORT_DRAWS = 2


def plane_structure(kind: str):
    """standard (omega = dy^dx) or parabola with h = 1 + x^2, built afresh."""
    chart = Chart(("x", "y"))
    x, y = chart.coords()
    if kind == "standard":
        h, u, adapted = ONE, ZERO, None
    else:
        h, u, adapted = 1 + x * x, 2 * x, (x, y - x * x)
    omega = symplectic.validate_symplectic(
        form_from_matrix(chart, [[ZERO, -h], [h, ZERO]]))
    return structures.validate_bilagrangian(
        omega, [VectorField(chart, (ONE, u))], [VectorField(chart, (ZERO, ONE))],
        adapted=adapted,
    )


def draw_map(rng: random.Random, shear: str, degree: int, affine: str) -> dict:
    """Shear coefficients, the affine factor's k and the translation.

    Shear coefficients stay positive: a negative quadratic one can map the
    parabolas onto horizontal lines and make the op far cheaper.
    """
    nonzero = (-2, -1, 1, 2)
    return {"shear": shear, "affine": affine,
            "coeffs": [rng.choice((1, 2, 3)) for _ in range(2, degree + 1)],
            "k": rng.choice(nonzero), "t": (rng.choice(nonzero), rng.choice(nonzero))}


def build_map(chart: Chart, spec: dict) -> SmoothMap:
    """affine . shear, a unit-determinant symplectomorphism of the plane."""
    x, y = chart.coords()
    base = x if spec["shear"] == "vertical" else y
    p = ZERO
    for power, c in enumerate(spec["coeffs"], start=2):
        p = p + c * base ** power
    if spec["shear"] == "vertical":
        shear = SmoothMap(chart, chart, (x, y + p), (x, y - p))
    else:
        shear = SmoothMap(chart, chart, (x + p, y), (x - p, y))
    k, (t1, t2) = spec["k"], spec["t"]
    if spec["affine"] == "upper":
        affine = SmoothMap(chart, chart, (x + k * y + t1, y + t2),
                           (x - t1 - k * (y - t2), y - t2))
    else:
        affine = SmoothMap(chart, chart, (x + t1, k * x + y + t2),
                           (x - t1, y - t2 - k * (x - t1)))
    return affine.compose(shear)


def bump_map(chart: Chart, shear: str) -> SmoothMap:
    """A fixed quadratic shear; psi . bump pushes to a different connection."""
    x, y = chart.coords()
    if shear == "vertical":
        return SmoothMap(chart, chart, (x, y + x * x), (x, y - x * x))
    return SmoothMap(chart, chart, (x + y * y, y), (x - y * y, y))


def _run_transport(kind: str, spec: dict) -> dict:
    s = plane_structure(kind)
    psi = build_map(s.chart, spec)
    st = structures
    pushed = st.push_structure(psi, s)
    base = st.christoffels(s)
    coherent = st.connections_equal(st.christoffels(pushed), st.push_connection(psi, base))
    action = lift.lifted_action_check(psi, s)
    wrong = psi.compose(bump_map(s.chart, spec["shear"]))
    control = st.connections_equal(st.christoffels(pushed), st.push_connection(wrong, base))
    return {"revalidated": pushed.report.ok, "coherent": coherent,
            "action": action.equal, "omega_match": action.omega_match,
            "control": control}


TRANSPORT_EXPECT = {"revalidated": True, "coherent": True, "action": True,
                    "omega_match": True, "control": False}


def _check_transport(result: dict, seed: int):
    verdicts = {k: result[k] for k in TRANSPORT_EXPECT}
    if verdicts != TRANSPORT_EXPECT:
        return f"verdicts {verdicts}, expected {TRANSPORT_EXPECT}"
    return None


def transport_specs(seed: int) -> list:
    """(structure, map spec) per op of the plan, drawn from the seed."""
    rng = random.Random(seed)
    return [(kind, draw_map(rng, shear, degree, affine))
            for _ in range(TRANSPORT_DRAWS)
            for kind, shear, degree, affine in TRANSPORT_PLAN]


def transport_ops(seed: int) -> list:
    return [
        Op(f"{kind}-{spec['shear']}{len(spec['coeffs']) + 1}-{spec['affine']}",
           lambda kind=kind, spec=spec: _run_transport(kind, spec),
           _check_transport)
        for kind, spec in transport_specs(seed)
    ]


# ---------------------------------------------------------------------------


def build_ops(workload: str, seed: int, workdir: str) -> list:
    if workload == "scenes":
        return scenes_ops(seed, workdir)
    if workload == "ladder":
        return ladder_ops(seed)
    if workload == "transport":
        return transport_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def nonzero_ratio(tables, order: int) -> float:
    """Nonzero entries over n^order, pooled over every traced table."""
    nonzero = total = 0
    for table in tables:
        n = len(table.frame)
        entries = table.gamma if order == 3 else table.table
        flat = entries
        for _ in range(order - 1):
            flat = [e for block in flat for e in block]
        nonzero += sum(1 for e in flat if not is_zero(e))
        total += n ** order
    return nonzero / total if total else 0.0
