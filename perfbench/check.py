"""Output checks behind the benchmark's ``failed`` count.

An invocation fails if any of these hold:

- its exit status is not 0;
- it wrote anything to stderr;
- a report ``pass`` cell is ``false``, or a selftest row is ``FAIL``;
- its stdout is not byte-identical to the first run of the same
  invocation in the benchmark run;
- an expected report is given (recorded at the default seed) and a
  header value or table cell differs from it.  Numbers, also those
  inside selftest detail text, may differ by 1e-9 relative (1e-12
  absolute near zero); everything else must match exactly.  The
  ``input:`` header line names the input path and is not compared.
  Rows, columns and header keys the expected report lacks are allowed;
- on the ``reference`` workload, a closed-form value of the reference
  joint is off by more than 1e-9 relative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

REL_TOL = 1e-9
ABS_TOL = 1e-12
UNCOMPARED_HEADER = ("input",)

_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])"
)

_SQRT2 = math.sqrt(2.0)
# (invocation, row key, column) -> value that does not depend on the code:
# the reference joint is a fair coin Z, X = Y a fair coin given Z = 0,
# X and Y independent fair coins given Z = 1.
REFERENCE_CLOSED_FORMS = {
    ("measure", ("cond_sibson_z", "2"), "value_nats"):
        2.0 * math.log((1.0 + _SQRT2) / 2.0),
    ("measure", ("cond_sibson_ygz", "2"), "value_nats"): math.log(1.5),
    ("bound_thm3", ("THM3", "2"), "lhs"): 0.75,
    ("bound_thm3", ("THM3", "2"), "rhs"): (2.0 + _SQRT2) / 4.0,
    ("bound_leak", ("COR_LEAK", "inf"), "rhs"): 1.0,
}


@dataclass
class Report:
    header: dict[str, str] = field(default_factory=dict)
    columns: list[str] = field(default_factory=list)
    rows: list[list[str]] = field(default_factory=list)

    def keyed_rows(self) -> dict[tuple, list[dict[str, str]]]:
        """Rows by key: the first cell, plus the order cell when the
        second column holds one.  Repeated keys keep their order."""
        width = 2 if self.columns[1:2] in (["alpha"], ["argument"]) else 1
        out: dict[tuple, list[dict[str, str]]] = {}
        for row in self.rows:
            out.setdefault(tuple(row[:width]), []).append(
                dict(zip(self.columns, row))
            )
        return out


def parse_report(text: str) -> Report:
    """Split a report into its header, columns and rows.  Raises
    ValueError if the text is not in the report format."""
    if not text.endswith("\n") or "\n\n" not in text:
        raise ValueError("no blank line after the header or no final newline")
    lines = text[:-1].split("\n")
    blank = lines.index("")
    rep = Report()
    for line in lines[:blank]:
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"header line without ': ': {line!r}")
        rep.header[key] = value
    table = lines[blank + 1 :]
    if table:
        rep.columns = table[0].split("\t")
        rep.rows = [row.split("\t") for row in table[1:]]
        for row in rep.rows:
            if len(row) != len(rep.columns):
                raise ValueError(f"row width differs from the header: {row!r}")
    return rep


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def cells_match(actual: str, expected: str) -> bool:
    """Text equal outside numbers, numbers within tolerance."""
    if _NUMBER.split(actual) != _NUMBER.split(expected):
        return False
    nums_a, nums_e = _NUMBER.findall(actual), _NUMBER.findall(expected)
    return len(nums_a) == len(nums_e) and all(
        close(float(a), float(e)) for a, e in zip(nums_a, nums_e)
    )


def compare_reports(actual: Report, expected: Report) -> list[str]:
    """Differences of ``actual`` from an expected report."""
    problems = []
    for key, value in expected.header.items():
        if key in UNCOMPARED_HEADER:
            continue
        got = actual.header.get(key)
        if got is None or not cells_match(got, value):
            problems.append(f"header {key}: {got!r}, expected {value!r}")
    missing_cols = [c for c in expected.columns if c not in actual.columns]
    if missing_cols:
        return problems + [f"missing columns {missing_cols}"]
    got_rows = actual.keyed_rows() if actual.columns else {}
    for key, rows in (expected.keyed_rows() if expected.columns else {}).items():
        have = got_rows.get(key, [])
        if len(have) < len(rows):
            problems.append(f"row {key}: {len(have)} present, expected {len(rows)}")
            continue
        for want, got in zip(rows, have):
            for col, value in want.items():
                if not cells_match(got[col], value):
                    problems.append(
                        f"row {key} column {col}: {got[col]!r}, expected {value!r}"
                    )
    return problems


def check_closed_forms(invocation: str, rep: Report) -> list[str]:
    problems = []
    rows = rep.keyed_rows() if rep.columns else {}
    for (inv, key, col), want in REFERENCE_CLOSED_FORMS.items():
        if inv != invocation:
            continue
        cells = rows.get(key)
        if not cells:
            problems.append(f"closed form: row {key} missing")
            continue
        got = float(cells[0][col])
        if not close(got, want):
            problems.append(f"closed form: row {key} {col} {got!r}, expected {want!r}")
    return problems


def check_invocation(
    *,
    workload: str,
    invocation: str,
    status: int,
    stdout: str,
    stderr: str,
    first_stdout: str | None = None,
    expected: str | None = None,
) -> list[str]:
    """Every reason the invocation counts as failed; empty if it passed."""
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]!r}")
    if first_stdout is not None and stdout != first_stdout:
        problems.append("stdout differs from the first run of this invocation")
    try:
        rep = parse_report(stdout)
    except ValueError as exc:
        return problems + [f"unreadable report: {exc}"]
    for row in rep.rows:
        cells = dict(zip(rep.columns, row))
        if cells.get("pass") == "false":
            problems.append(f"pass cell false in row {row[:2]}")
        if workload == "selftest" and cells.get("status") == "FAIL":
            problems.append(f"selftest row {row[0]} FAIL")
    if expected is not None:
        problems += compare_reports(rep, parse_report(expected))
    if workload == "reference":
        problems += check_closed_forms(invocation, rep)
    return problems
