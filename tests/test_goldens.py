"""Bundled scene reports are byte-identical to the recorded goldens.

The goldens in ``perfbench/goldens/<scene>/`` hold each bundled scene's
machine report without its run-dependent fields (``timing_ms``, ``seed``)
and every SVG its plot tasks write.  They are read here, never rewritten.
"""

import json
from pathlib import Path

import pytest

from bilag.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"
SCENES = ("standard", "parabola", "lifted-standard", "affine-action")


@pytest.mark.parametrize("name", SCENES)
def test_report_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["report", "--scene", name, "--format", "machine"])
    assert code == 0

    report = json.loads(capsys.readouterr().out)
    report.pop("seed")
    for task in report["tasks"]:
        task.pop("timing_ms")
    golden_dir = GOLDENS / name
    golden = json.loads((golden_dir / "report.json").read_text(encoding="utf-8"))
    assert report == golden

    written = sorted(p.name for p in tmp_path.iterdir())
    expected = sorted(p.name for p in golden_dir.glob("*.svg"))
    assert written == expected
    for fname in written:
        assert (tmp_path / fname).read_bytes() == (golden_dir / fname).read_bytes()
