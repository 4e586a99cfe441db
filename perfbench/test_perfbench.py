"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import inspect
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_span_times_on_a_synthetic_tree():
    # a [0, 10] holds b [1, 4] (which holds a recursive b [2, 3]) and c [5, 9]
    names = [0, 1, 1, 2]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    self_s, total_s = tracing.span_times(names, starts, ends, parents, 3)
    assert self_s == [3.0, 3.0, 4.0]
    assert total_s == [10.0, 3.0, 4.0]
    assert sum(self_s) == total_s[0]


def _bilag_attributes():
    """Every callable attribute of the bilag modules and of their classes."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "bilag" or name.startswith("bilag."):
            for key, value in vars(module).items():
                if callable(value):
                    snapshot[(name, key)] = value
                if inspect.isclass(value) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        snapshot[(name, key, attr)] = member
    return snapshot


def _lookup(path):
    owner = sys.modules[path[0]]
    for part in path[1:]:
        owner = vars(owner)[part]
    return owner


def test_traced_run_restores_every_attribute(tmp_path):
    before = _bilag_attributes()
    ops = workloads.scenes_ops(1, str(tmp_path))[:1]
    tracer = tracing.Tracer()
    with tracer:
        assert workloads.cli.main is not before[("bilag.cli", "main")]
        result = run.measure(workloads, ops, 1, 0, passes=1, tracer=tracer)
    assert result.failed == 0
    assert all(_lookup(path) is value for path, value in before.items())
    calls = dict(zip(tracer.names, tracer.calls()))
    assert calls["cli.main"] == 1
    assert calls["symexpr.equal_zero"] > 0
    assert calls["symexpr.Expr.normal"] > 0


def test_traced_run_sees_copies_imported_by_other_modules():
    from bilag import calculus, structures, symexpr

    original = symexpr.equal_zero
    with tracing.Tracer():
        for module in (symexpr, calculus, structures):
            assert module.equal_zero is not original
            assert module.equal_zero.__wrapped__ is original
    assert structures.equal_zero is original


def test_corrupted_golden_is_a_failure_not_a_crash(tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(workloads.GOLDENS, goldens)
    (goldens / "standard" / "report.json").write_text('{"truncated": ', encoding="utf-8")
    svg = goldens / "parabola" / "parabola.svg"
    svg.write_bytes(svg.read_bytes().replace(b"<svg", b"<SVG", 1))
    ops = workloads.scenes_ops(1, str(tmp_path / "work"), goldens=str(goldens))[:2]
    result = run.measure(workloads, ops, 1, 0, passes=1)
    assert result.attempted == 2
    assert result.failed == 2
    assert "JSONDecodeError" in result.problems[0]
    assert "parabola.svg differs" in result.problems[1]


def test_seed_changes_transport_maps_only(tmp_path):
    assert workloads.transport_specs(1) != workloads.transport_specs(2)
    assert workloads.transport_specs(1) == workloads.transport_specs(1)

    reports = []
    for seed in (1, 2):
        op = workloads.scenes_ops(seed, str(tmp_path / str(seed)))[0]
        _, result, problem = workloads.run_op(op, workloads.op_seed(seed, 0))
        assert problem is None
        assert workloads.check_op(op, result, workloads.op_seed(seed, 0)) is None
        reports.append(workloads.normalized_report(result["report"]))
    assert reports[0] == reports[1]

    rungs = []
    for seed in (1, 2):
        op = workloads.ladder_ops(seed)[0]  # parabola on its base chart
        _, result, problem = workloads.run_op(op, workloads.op_seed(seed, 0))
        assert problem is None and workloads.check_op(op, result, 0) is None
        rungs.append((result["flat"], result["curvature_nonzero"], result["oracle"]))
    assert rungs[0] == rungs[1] == (False, 4, True)


def test_transport_op_and_negative_control():
    op = workloads.transport_ops(7)[0]
    _, result, problem = workloads.run_op(op, workloads.op_seed(7, 0))
    assert problem is None
    assert workloads.check_op(op, result, 0) is None
    assert result["control"] is False
    wrong = dict(result, control=True)
    assert "expected" in workloads.check_op(op, wrong, 0)


def test_op_times_are_scaled_by_the_reference_around_them(tmp_path, monkeypatch):
    import reference

    kernel_times = iter([0.004, 0.008, 0.002])
    monkeypatch.setattr(reference, "sample", lambda: next(kernel_times))
    ops = [workloads.Op("a", lambda: None, lambda result, seed: None),
           workloads.Op("b", lambda: None, lambda result, seed: None)]
    result = run.measure(workloads, ops, 1, 0, passes=1)
    for raw, scaled, (before, after) in zip(result.raw_seconds, result.seconds,
                                            [(0.004, 0.008), (0.008, 0.002)]):
        assert scaled[0] == raw[0] * reference.REFERENCE_S / ((before + after) / 2)
    assert result.reference == [0.008, 0.002]
