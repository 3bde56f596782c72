"""Tests of the benchmark itself: the output checker must count each
kind of bad output as a failure, the layer arithmetic must hold on
known spans, and a short pass of every workload must print every metric
BENCHMARK.json names.

Run from the repository root:

    python3 -m pytest -q perfbench

The smoke passes launch the real workloads and take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from check import check_invocation
from layers import importtime_split, metric_units, span_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def expected(workload: str, name: str) -> str:
    with open(os.path.join(HERE, "expected", workload, f"{name}.txt"), encoding="utf-8") as fh:
        return fh.read()


def problems(stdout: str, *, workload="reference", invocation="measure",
             status=0, stderr="", first=None, want=None) -> list[str]:
    return check_invocation(
        workload=workload, invocation=invocation, status=status,
        stdout=stdout, stderr=stderr, first_stdout=first, expected=want,
    )


REF_MEASURE = expected("reference", "measure")


def test_recorded_reports_pass_their_own_checks():
    for workload in WORKLOADS:
        for name in os.listdir(os.path.join(HERE, "expected", workload)):
            name = name.removesuffix(".txt")
            text = expected(workload, name)
            assert problems(text, workload=workload, invocation=name,
                            first=text, want=text) == []


def test_one_changed_digit_fails():
    # cond_sibson_z at order 2 on the reference joint
    assert "0.376452812919" in REF_MEASURE
    changed = REF_MEASURE.replace("0.376452812919", "0.376452912919")
    # against the recorded report alone, and through the closed form
    assert any("value_nats" in p for p in problems(changed, want=REF_MEASURE))
    assert any("closed form" in p for p in problems(changed, invocation="measure"))


def test_digit_changed_in_non_closed_form_value_fails():
    text = expected("large", "exponent_C")
    line = next(l for l in text.splitlines() if l.startswith("ep_biconjugate"))
    value = line.split("\t")[2]
    bumped = ("1" if value[-1] != "1" else "2")
    changed = text.replace(line, line.replace(value, value[:2] + bumped + value[3:]))
    assert changed != text
    assert problems(changed, workload="large", invocation="exponent_C", want=text)


def test_nonzero_exit_fails():
    assert any("exit status 1" in p for p in problems(REF_MEASURE, status=1))


def test_stderr_json_line_fails():
    line = json.dumps({"error": "ValidationError", "message": "bad"}) + "\n"
    assert any("stderr" in p for p in problems(REF_MEASURE, stderr=line))


def test_non_identical_repeat_fails_even_within_tolerance():
    # a change in the 12th digit is inside the 1e-9 value tolerance,
    # but the report is promised to be byte-identical across repeats
    changed = REF_MEASURE.replace("0.376452812919", "0.376452812918")
    assert problems(changed, want=REF_MEASURE) == []
    assert any("differs" in p for p in problems(changed, first=REF_MEASURE))


def test_pass_false_and_selftest_fail_rows_fail():
    thm3 = expected("reference", "bound_thm3")
    falsified = thm3.replace("\tfalse\tfalse\ttrue\n", "\tfalse\tfalse\tfalse\n")
    assert any("pass cell" in p for p in problems(falsified, invocation="bound_thm3"))
    st = expected("selftest", "selftest")
    failed = st.replace("core.markov_idempotent\tPASS", "core.markov_idempotent\tFAIL")
    assert any("FAIL" in p for p in problems(failed, workload="selftest",
                                             invocation="selftest"))


def test_unreadable_report_fails():
    assert any("unreadable" in p for p in problems("Traceback (most recent call last)\n"))


def test_importtime_split_attributes_nested_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        10 |         10 |       numpy.core",
        "import time:        20 |         30 |     numpy",
        "import time:         5 |          5 |         numpy.testing",
        "import time:         7 |         12 |       scipy",
        "import time:         1 |         13 |     scipy.special",
        "import time:         3 |         46 |   sibsonmi",
        "import time:         4 |         50 | sibsonmi.cli",
    ])
    split = importtime_split(stderr)
    assert split == pytest.approx({"numpy": 30e-6, "scipy": 13e-6, "sibsonmi": 7e-6})


def test_span_metrics_self_time_and_errors():
    # cli.run (10 us) calls sibson.cond_sibson_z (6 us), which calls
    # core.Joint3.conditionals_given_z (2 us) that raises out of core and
    # through sibson
    spans = [
        [0, None, "0.0", "cli.run", 0, 10_000, 4_000, 1],
        [1, 0, "0.0", "sibson.cond_sibson_z", 1_000, 7_000, 4_000, 1],
        [2, 1, "0.0", "core.Joint3.conditionals_given_z", 2_000, 4_000, 2_000, 1],
        [3, 1, "0.0", "core.markov_product", 4_000, 4_500, 500, 0],
    ]
    extra = {"core.Joint3.conditionals_given_z.repeats": 0}
    m = span_metrics([{"spans": spans, "extra": extra}])
    assert m["cli.run.self_s"] == pytest.approx(4e-6)
    assert m["sibson.cond_sibson_z.calls"] == 1
    assert m["core.calls"] == 2
    assert m["core.self_s"] == pytest.approx(2.5e-6)
    assert (m["core.errors"], m["sibson.errors"], m["cli.errors"]) == (1, 1, 1)
    assert m["core.Joint3.conditionals_given_z.repeat_frac"] == 0.0


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_every_metric():
    spec = benchmark_spec()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def run_benchmark(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_prints_every_metric(workload, trace):
    spec = benchmark_spec()
    proc = run_benchmark("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }


def test_refuses_to_run_without_the_source_tree():
    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_benchmark("--workload", "reference", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
