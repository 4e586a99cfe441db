#!/usr/bin/env python3
"""Re-record the goldens of the ``scenes`` workload.

    python3 perfbench/record_goldens.py

Runs every bundled scene report twice, with two zero-test seeds, refuses
to record when the two disagree, and writes ``goldens/<scene>/report.json``
(the machine report without ``timing_ms`` and ``seed``) plus every SVG the
report's plot tasks wrote.  Record only from a commit whose reports are
known to be right: the benchmark counts any later difference as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    scratch = os.path.join(HERE, "out", "record")
    for name in workloads.SCENES:
        outputs = []
        for seed in (1, 2):
            workloads.set_check_seed(seed)
            workdir = os.path.join(scratch, f"{name}-{seed}")
            result = workloads._run_scene(name, workdir)
            if result["code"] != 0:
                print(f"{name}: exit code {result['code']}", file=sys.stderr)
                return 1
            files = {}
            for fname in sorted(os.listdir(workdir)):
                with open(os.path.join(workdir, fname), "rb") as fh:
                    files[fname] = fh.read()
            outputs.append((workloads.normalized_report(result["report"]), files))
        if outputs[0] != outputs[1]:
            print(f"{name}: output depends on the zero-test seed", file=sys.stderr)
            return 1
        report, files = outputs[0]
        target = os.path.join(workloads.GOLDENS, name)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        with open(os.path.join(target, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for fname, data in files.items():
            with open(os.path.join(target, fname), "wb") as fh:
                fh.write(data)
        print(f"{name}: report.json {' '.join(files)}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
