"""Regenerate the reference CSVs that the analytic checks compare against.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every closed-form command of every workload once and stores its CSV as
``reference/<workload>/<command>.csv``. Only regenerate on a commit whose
analytic outputs are known to be right: the checks then hold every later
commit to these values within ``checks.ANALYTIC_ABS_TOL``.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, OUTPUT_FILES, WORK, environment, run_process
from workloads import WORKLOADS


def main() -> int:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        for cmd in workload.commands:
            if cmd.kind not in ("analytic", "sweep"):
                continue
            tmp = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
            try:
                argv = [sys.executable, "-m", "riscov.cli",
                        *cmd.argv(str(BENCH / "configs" / cmd.config), str(tmp), seed=0)]
                code, wall, _, _ = run_process(argv, environment(1), tmp / "log.txt")
                if code != 0:
                    print((tmp / "log.txt").read_text(), file=sys.stderr)
                    return 1
                dest = BENCH / "reference" / workload.name / f"{cmd.reference}.csv"
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(tmp / OUTPUT_FILES[cmd.kind], dest)
                print(f"{dest.relative_to(BENCH)} ({wall:.1f} s)")
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
