"""Record the expected reports the benchmark compares against at the
default seed.

Usage, from the repository root:

    python3 perfbench/record_expected.py [workload ...]

Runs each invocation of the named workloads (all by default) once at
the default seed and writes its report to
``perfbench/expected/<workload>/<invocation>.txt``.  A report is
written only if it passes every other check, so a broken program cannot
be recorded as expected.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import DEFAULT_SEED, HERE, Runner, expected_path
from workloads import INPUTS, WORKLOADS


def record(workload: str, root: str) -> int:
    work = os.path.join(HERE, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(workload, DEFAULT_SEED, root, work, compare_expected=False)
    if INPUTS[workload]:
        runner.plain_launch(
            "make inputs",
            [os.path.join(HERE, "make_inputs.py"), workload, str(DEFAULT_SEED), work],
        )
    reports = {}
    for k, inv in enumerate(runner.invocations):
        reports[inv] = runner.invoke(inv, False, f"0.{k}")[0].stdout
    if runner.failures:
        for failure in runner.failures:
            print(f"{workload}: {failure}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(HERE, "expected", workload), exist_ok=True)
    for inv, text in reports.items():
        with open(expected_path(workload, inv), "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"{workload}: recorded {len(reports)} reports")
    return 0


def main(argv: list[str]) -> int:
    status = 0
    for workload in argv or WORKLOADS:
        status |= record(workload, os.getcwd())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
