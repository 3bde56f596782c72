"""Benchmark of the sibsonmi command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload reference --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): ``reference``, ``selftest``
and ``large``.  Inputs are made from ``--seed``.  Each invocation is a
fresh ``python -m sibsonmi.cli`` process, timed from outside, one at a
time, with the BLAS and OpenMP thread counts pinned to 1.  Passes of
the workload's invocations repeat while another one fits in
``--seconds``; at least one pass always runs.  Every report is checked
(check.py); an invocation that fails a check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median wall time of a fresh interpreter importing
  ``sibsonmi.cli``, which every invocation pays before doing work;
- ``wall_s``: median wall time of one pass, start-up included;
- ``peak_rss_mb``: the largest max-RSS of any invocation.

``--trace 1`` prints the per-layer metrics (layers.py): each invocation
runs untraced and then traced (through tracer.py), plus ``-X
importtime`` launches for the start-up split.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it and
``perfbench/work/results/`` hold the details: per-command times, the
failures, call counts, the environment and a host-speed probe timed
before and after the run.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, for the probe below
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from check import check_invocation  # noqa: E402
from workloads import COMMANDS, INPUTS, WORKLOADS, Invocation, invocations  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_LAUNCHES = 3  # at the start of a run; more follow during it
SETUP_EVERY_S = 2.0  # a set-up launch follows an invocation this long after the last
STARTUP_LAUNCHES = 3
DEFAULT_SEED = 0
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed here
IMPORT_CLI = ("-c", "import sibsonmi.cli")


@dataclass
class Launch:
    wall_s: float
    maxrss_mb: float
    status: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    wall_s: float = 0.0
    command_s: dict[str, float] = field(default_factory=dict)
    invocation_s: dict[str, float] = field(default_factory=dict)
    span_docs: list[dict] = field(default_factory=list)


class Runner:
    """Launches the program, checks every report and keeps the tallies
    of one benchmark run."""

    def __init__(self, workload: str, seed: int, root: str, work: str,
                 compare_expected: bool):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        # An installed package has its bytecode compiled, so let children
        # cache it too; the warm-up launch fills the cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.invocations = invocations(workload, seed, os.path.relpath(work, root))
        self.expected = (
            load_expected(workload, self.invocations) if compare_expected else {}
        )
        self.first_stdout: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.peak_rss_mb = 0.0
        self.setup_s: list[float] = []
        self.last_setup = time.monotonic()

    def launch(self, args: list[str]) -> Launch:
        """Run ``python <args>`` to completion; wall time and max-RSS are
        those of the child process alone."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, env=self.env,
            )
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill
            )
            timer.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        return Launch(wall, rss_mb, proc.returncode, stdout, stderr)

    def time_out(self) -> bool:
        return time.monotonic() >= self.deadline

    def _record(self, what: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append({"invocation": what, "reasons": reasons})

    def plain_launch(self, what: str, args: list[str], stderr_ok=False) -> Launch:
        """A launch that must exit 0 and, unless ``stderr_ok``, write
        nothing to stderr."""
        run = self.launch(args)
        reasons = []
        if run.status != 0:
            reasons.append(f"exit status {run.status}")
        if run.stderr and not stderr_ok:
            reasons.append(f"stderr: {run.stderr.strip()[:200]!r}")
        self._record(what, reasons)
        return run

    def sample_setup(self) -> None:
        """Time one fresh interpreter importing ``sibsonmi.cli``."""
        self.setup_s.append(self.plain_launch("setup", list(IMPORT_CLI)).wall_s)
        self.last_setup = time.monotonic()

    def invoke(self, inv: Invocation, traced: bool, op: str) -> tuple[Launch, dict | None]:
        if traced:
            spans = os.path.join(self.work, "spans.json")
            args = [os.path.join(HERE, "tracer.py"), spans, op, *inv.argv]
        else:
            args = ["-m", "sibsonmi.cli", *inv.argv]
        run = self.launch(args)
        self.peak_rss_mb = max(self.peak_rss_mb, run.maxrss_mb)
        reasons = check_invocation(
            workload=self.workload,
            invocation=inv.name,
            status=run.status,
            stdout=run.stdout,
            stderr=run.stderr,
            first_stdout=self.first_stdout.get(inv.name),
            expected=self.expected.get(inv.name),
        )
        self.first_stdout.setdefault(inv.name, run.stdout)
        self._record(f"{inv.name}{' (traced)' if traced else ''}", reasons)
        doc = None
        if traced and not reasons:
            with open(spans, encoding="utf-8") as fh:
                doc = json.load(fh)
        return run, doc

    def run_pass(self, index: int, modes=(False,), sample_setup=False) -> list[Pass]:
        """One pass of the workload's invocations, one ``Pass`` per mode
        (traced or not).  Each invocation runs in every mode back to back,
        so paired runs see the same state of a shared host.  With
        ``sample_setup``, set-up launches are spread through the pass, so
        ``setup_s`` covers the same stretch of host time as ``wall_s``."""
        passes = [Pass(command_s={c: 0.0 for c in COMMANDS}) for _ in modes]
        for k, inv in enumerate(self.invocations):
            for p, traced in zip(passes, modes):
                if self.time_out():
                    self._record(inv.name, [f"run limit of {RUN_LIMIT_S} s reached"])
                    return passes
                run, doc = self.invoke(inv, traced, f"{index}.{k}")
                p.wall_s += run.wall_s
                p.command_s[inv.command] += run.wall_s
                p.invocation_s[inv.name] = run.wall_s
                if doc is not None:
                    p.span_docs.append(doc)
            if sample_setup and time.monotonic() - self.last_setup >= SETUP_EVERY_S:
                self.sample_setup()
        return passes


def expected_path(workload: str, inv: Invocation) -> str:
    return os.path.join(HERE, "expected", workload, f"{inv.name}.txt")


def load_expected(workload: str, invs: list[Invocation]) -> dict[str, str]:
    """The reports recorded at the default seed (record_expected.py)."""
    out = {}
    for inv in invs:
        with open(expected_path(workload, inv), encoding="utf-8") as fh:
            out[inv.name] = fh.read()
    return out


def probe_s() -> float:
    """Seconds for a fixed numpy-plus-Python computation (median of 3).
    Recorded before and after a run to tell host drift from a change in
    the program; the metrics are not rescaled by it."""
    base = np.random.default_rng(12345).random((256, 256))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        a = base
        for _ in range(32):
            a = np.tanh(a @ a / 256.0)
        acc = 0
        for i in range(800_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def upper_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def median_of(passes: list[Pass], key) -> float:
    return statistics.median(key(p) for p in passes)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    for _ in range(SETUP_LAUNCHES):
        runner.sample_setup()
    passes: list[Pass] = []
    start = time.monotonic()
    while not runner.failures and not runner.time_out():
        passes += runner.run_pass(len(passes), sample_setup=True)
        elapsed = time.monotonic() - start
        if elapsed + median_of(passes, lambda p: p.wall_s) > seconds:
            break
    walls = [p.wall_s for p in passes]
    metrics = {
        "setup_s": statistics.median(runner.setup_s),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": runner.peak_rss_mb,
    }
    detail = {
        "setup_samples_s": runner.setup_s,
        "passes": len(passes),
        "pass_wall_s": walls,
        "wall_upper_percentile": upper_percentile(walls),
        "command_s": {c: median_of(passes, lambda p: p.command_s[c])
                      for c in COMMANDS},
        "invocation_s": [p.invocation_s for p in passes],
    }
    return metrics, detail


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    interp = [runner.plain_launch("interpreter", ["-c", "pass"]).wall_s
              for _ in range(STARTUP_LAUNCHES)]
    splits = [
        layers.importtime_split(
            runner.plain_launch(
                "importtime", ["-X", "importtime", *IMPORT_CLI], stderr_ok=True
            ).stderr
        )
        for _ in range(STARTUP_LAUNCHES)
    ]
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.monotonic()
    while not runner.failures and not runner.time_out():
        untraced_pass, traced_pass = runner.run_pass(len(plain), modes=(False, True))
        plain.append(untraced_pass)
        traced.append(traced_pass)
        elapsed = time.monotonic() - start
        next_pass = median_of(plain, lambda p: p.wall_s) + median_of(
            traced, lambda p: p.wall_s
        )
        if elapsed + next_pass > seconds:
            break
    metrics = {"startup.interpreter_s": statistics.median(interp)}
    for part in ("numpy", "scipy", "sibsonmi"):
        metrics[f"startup.{part}_s"] = statistics.median(s[part] for s in splits)
    for c in COMMANDS:
        metrics[f"cmd.{c}_s"] = median_of(plain, lambda p: p.command_s[c])
    if not runner.failures:
        per_pass = [layers.span_metrics(p.span_docs) for p in traced]
        for name in per_pass[0]:  # median_low keeps counts whole
            metrics[name] = statistics.median_low(m[name] for m in per_pass)
        metrics["trace.overhead_s"] = (
            median_of(traced, lambda p: p.wall_s) - median_of(plain, lambda p: p.wall_s)
        )
    detail = {
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": {"untraced": [p.wall_s for p in plain],
                        "traced": [p.wall_s for p in traced]},
        "invocation_s": {"untraced": [p.invocation_s for p in plain],
                         "traced": [p.invocation_s for p in traced]},
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sibsonmi", "cli.py")):
        print("perfbench: run from the repository root; src/sibsonmi is missing",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(args.workload, args.seed, root, work, args.seed == DEFAULT_SEED)

    env = environment()
    load_start = os.getloadavg()
    probe_before = probe_s()
    if INPUTS[args.workload]:
        made = runner.plain_launch(
            "make inputs",
            [os.path.join(HERE, "make_inputs.py"), args.workload, str(args.seed), work],
        )
        if made.status != 0:
            print(f"perfbench: making inputs failed:\n{made.stderr}", file=sys.stderr)
            return 1
    runner.plain_launch("warm-up import", list(IMPORT_CLI))
    if args.trace:
        metrics, detail = per_layer(runner, args.seconds)
        units = layers.metric_units()
    else:
        metrics, detail = end_to_end(runner, args.seconds)
        units = END_TO_END_UNITS
    probe_after = probe_s()
    load_end = os.getloadavg()

    failed = len(runner.failures)
    correct = failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / max(runner.attempted, 1),
        "failures": runner.failures,
        "environment": env,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "probe_s": {"before": probe_before, "after": probe_after},
        "detail": detail,
        "result": result,
    }
    results = os.path.join(HERE, "work", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} launches, {failed} failed "
          f"(failed_frac {record['failed_frac']:.4g})")
    for failure in runner.failures[:10]:
        print(f"  FAILED {failure['invocation']}: {'; '.join(failure['reasons'])}")
    if not args.trace:
        print(f"passes {detail['passes']}; wall_s per pass {detail['pass_wall_s']}")
        print("median per pass: " + ", ".join(
            f"{c}_s {v:.4f}" for c, v in detail["command_s"].items() if v))
        if detail["wall_upper_percentile"]:
            pct, value = detail["wall_upper_percentile"]
            print(f"wall_s p{pct} {value:.4f}")
    print(f"probe_s before {probe_before:.4f} after {probe_after:.4f}; "
          f"loadavg {load_start[0]:.2f} -> {load_end[0]:.2f}; details in "
          f"{os.path.relpath(path, root)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
