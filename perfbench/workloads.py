"""The benchmark's workloads: the input files each one needs and the
``sibsonmi`` invocations that make up one pass.

Why these three (see README.md for the full table):

- ``reference``: the six README commands on the 2x2x2 reference joint.
  Interpreter start-up and import are most of every invocation, so
  start-up work shows fully and compute-layer changes should not.
- ``selftest``: the deterministic property battery.  Thousands of tiny
  calls; the only path into ``oracles`` and most of ``divergences``.
- ``large``: the same commands at alphabet sizes 8, 32 and 64x64x256,
  where array work dominates instead of start-up.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("reference", "selftest", "large")

# Every command the CLI has; each becomes a cmd.<command>_s metric.
COMMANDS = ("measure", "bound", "sdpi", "simulate", "exponent", "selftest")

# Input files of each workload: file stem -> shape of the seeded
# random joint (None for the reference joint).  Shapes are drawn in
# this order from one generator seeded by the workload seed.
INPUTS = {
    "reference": {"ref": None},
    "selftest": {},
    "large": {
        "M": (64, 64, 256),
        "C": (32, 32, 32),
        "S": (8, 8, 8),
        "T": (4, 4, 3),
    },
}


@dataclass(frozen=True)
class Invocation:
    """One ``python -m sibsonmi.cli`` launch of a pass."""

    name: str  # unique within its workload; names the expected report
    command: str
    argv: tuple[str, ...]


def invocations(workload: str, seed: int, input_dir: str) -> list[Invocation]:
    """The invocations of one pass, in the order they run."""

    def path(stem: str) -> str:
        return f"{input_dir}/{stem}.json"

    def inv(name: str, command: str, *args: str) -> Invocation:
        return Invocation(name, command, (command, *args))

    if workload == "reference":
        ref = ("--input", path("ref"), "--seed", str(seed))
        return [
            inv("measure", "measure", *ref, "--alpha", "2", "--alpha", "one",
                "--alpha", "inf"),
            inv("bound_thm3", "bound", *ref, "--thm", "3", "--alpha", "2",
                "--event", "x==y"),
            inv("bound_leak", "bound", *ref, "--thm", "leak", "--event", "x==y"),
            inv("sdpi", "sdpi", *ref, "--alpha", "2", "--budget", "10000"),
            inv("simulate", "simulate", *ref, "--n", "3", "--tau", "0.5",
                "--alpha", "2", "--budget", "100000"),
            inv("exponent", "exponent", *ref),
        ]
    if workload == "selftest":
        return [inv("selftest", "selftest", "--seed", str(seed))]
    if workload == "large":
        event = ("--alpha", "2", "--event", "x==y or z=='0'")
        return [
            inv("measure_M", "measure", "--input", path("M"), "--alpha", "0.5",
                "--alpha", "2", "--alpha", "one", "--alpha", "inf"),
            inv("bound_thm1_M", "bound", "--input", path("M"), "--thm", "1",
                *event),
            inv("bound_thm3_M", "bound", "--input", path("M"), "--thm", "3",
                *event),
            inv("sdpi_S", "sdpi", "--input", path("S"), "--alpha", "2",
                "--alpha", "4", "--budget", "10000", "--seed", str(seed)),
            inv("simulate_T", "simulate", "--input", path("T"), "--n", "3",
                "--tau", "0.5", "--alpha", "2", "--grid-step", "0.05",
                "--budget", "100000", "--seed", str(seed)),
            inv("exponent_C", "exponent", "--input", path("C")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
