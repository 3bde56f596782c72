"""Command-line front end: distribution ingestion, measure computation,
bound checking, contraction estimates, simulation runs, and the
selftest battery, all emitted as reproducible plain-text reports.

Reports are a header block of ``key: value`` lines followed by one
tab-separated table; every number is printed with 12 significant
digits, the seed is always echoed, and no timestamps appear, so two
runs with the same input, config and seed are byte-identical.

Input format (JSON): fields ``x_labels``, ``y_labels``, ``z_labels``
(arrays of strings) and ``probs`` (flat row-major array, x-major then
y then z).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import bound_cor_leakage, bound_thm1, bound_thm3
from .core import Alpha, EventMask, Joint3
from .errors import (
    EventSyntaxError,
    InputFormatError,
    SibsonmiError,
    ValidationError,
)
from .exponents import (
    default_alpha_grid,
    ep_biconjugate,
    ep_star_grid,
    eq_biconjugate,
    lambda_of_alpha,
)
from .hyptest import monte_carlo_errors, theorem6_checks, threshold_test
from .sdpi import contraction_search, sdpi_unconditional_check
from .selftest import INFO, run_selftest
from .sibson import (
    cond_maximal_leakage,
    cond_sibson_ygz,
    cond_sibson_z,
    maximal_leakage,
    sibson_mi,
)

MAX_EVENT_DEPTH = 100

EVENT_GRAMMAR = f"""\
Event grammar (7 productions):

    expr       := or_expr
    or_expr    := and_expr ( "or" and_expr )*
    and_expr   := not_expr ( "and" not_expr )*
    not_expr   := "not" not_expr | atom
    atom       := "(" expr ")" | comparison
    comparison := term ( "==" | "!=" ) term
    term       := "x" | "y" | "z" | quoted string literal

The variables bind to the label strings of each cell (str(label)), and
comparisons are exact string comparisons, for example
    x==y and not z=='0'
'not' and parentheses nest at most {MAX_EVENT_DEPTH} levels deep.
"""

REQUIRED_FIELDS = ("x_labels", "y_labels", "z_labels", "probs")
LOAD_MASS_TOL = 1e-9
# characters of ``probs`` decoded per json.loads call (a slice ends at a comma)
_SLICE_CHARS = 1 << 16
_JSON_WS = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


def load_joint(path: str) -> tuple[Joint3, str]:
    """Read and validate a distribution file; return the joint and the
    SHA-256 hex digest of exactly the bytes it was parsed from.

    The file is opened and read once. A well-formed file never holds one
    Python float per probability: ``probs`` is decoded in comma-aligned
    slices of about 64 K characters into one float64 array, so peak
    memory is about twice the file size (its bytes and its decoded text)
    plus the arrays. Any other file is parsed whole from the same text,
    which gives every file the same joint or the same message as one
    ``json.load``.

    A file that is not UTF-8 JSON, non-finite, negative and out-of-float-
    range entries, and total mass off 1 by more than 1e-9 are rejected as
    ``InputFormatError``; smaller deviations are renormalised away.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} at byte "
            f"position {exc.start}"
        ) from exc
    del raw
    try:
        fields = _walk_fields(text)
    except (ValueError, OverflowError, RecursionError):
        fields = None
    labels, probs = fields or _read_whole(path, text)
    # the text is freed before probs is validated, normalised and copied:
    # alive, it would overlap those file-sized copies and raise peak memory
    del text
    nx, ny, nz = map(len, labels)
    if len(probs) != nx * ny * nz:
        raise InputFormatError(
            f"{path}: probs has {len(probs)} entries, expected {nx * ny * nz}"
        )
    try:  # no copy of the sliced reader's array; only a list can overflow
        arr = np.asarray(probs, dtype=float)
    except OverflowError:
        for i, v in enumerate(probs):
            try:
                float(v)
            except OverflowError:
                raise InputFormatError(
                    f"{path}: integer entry at flat index {i} is out of the "
                    "float range"
                ) from None
    finite = np.isfinite(arr)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise InputFormatError(
            f"{path}: non-finite entry {float(arr[i])!r} at flat index {i}"
        )
    if np.any(arr < 0):
        i = int(np.argmin(arr))
        raise InputFormatError(
            f"{path}: negative entry {float(arr[i])!r} at flat index {i} "
            "violates nonnegativity"
        )
    total = float(arr.sum())
    if abs(total - 1.0) > LOAD_MASS_TOL:
        raise InputFormatError(
            f"{path}: total mass {total!r} deviates from 1 by more than "
            f"{LOAD_MASS_TOL}"
        )
    arr = arr / total
    return Joint3(*labels, arr.reshape(nx, ny, nz)), digest


def _skip_to(text: str, pos: int, char: str) -> int:
    """Index just past ``char``, which must follow JSON whitespace at ``pos``."""
    pos = _JSON_WS.match(text, pos).end()
    if not text.startswith(char, pos):
        raise ValueError(f"expected {char!r} at character {pos}")
    return pos + 1


def _walk_fields(text: str):
    """``(labels, probs array)`` of a well-formed document: the required
    fields and no other (a repeated one keeps its last value), labels
    arrays of strings, ``probs`` flat numbers in the float range. Anything
    else raises, and is left to ``_read_whole``. ``\\r`` may stay
    untranslated: JSON takes it as whitespace and rejects it in strings."""
    fields = {}
    pos = _skip_to(text, 0, "{")
    while len(fields) < len(REQUIRED_FIELDS):
        if fields:
            pos = _skip_to(text, pos, ",")
        key, pos = json.decoder.scanstring(text, _skip_to(text, pos, '"'))
        if key not in REQUIRED_FIELDS:
            raise ValueError(f"unknown field {key!r}")
        pos = _JSON_WS.match(text, _skip_to(text, pos, ":")).end()
        decode = _decode_probs if key == "probs" else _DECODER.raw_decode
        fields[key], pos = decode(text, pos)
    pos = _skip_to(text, pos, "}")
    if _JSON_WS.match(text, pos).end() != len(text):
        raise ValueError("data after the top-level object")
    labels = tuple(fields[k] for k in REQUIRED_FIELDS[:3])
    for vals in labels:
        if not isinstance(vals, list) or not all(isinstance(v, str) for v in vals):
            raise ValueError("labels must be arrays of strings")
    return tuple(map(tuple, labels)), fields["probs"]


def _decode_probs(text: str, pos: int):
    """Decode the flat number array at ``pos`` slice by slice into one
    float64 array preallocated from the comma count; return it and the
    index past its closing bracket.

    The array ends at the first ``]``: a string or nested array inside
    it leaves a slice that does not parse or holds a non-number, and an
    empty element leaves fewer numbers than commas allow.
    """
    lo = _skip_to(text, pos, "[")
    end = text.find("]", lo)
    if end < 0:
        raise ValueError("unterminated probs array")
    probs = np.empty(text.count(",", lo, end) + 1)
    filled = 0
    while True:
        hi = text.find(",", min(lo + _SLICE_CHARS, end), end)
        if hi < 0:
            hi = end
        values = json.loads("[" + text[lo:hi] + "]")
        if not set(map(type, values)) <= {int, float}:
            raise ValueError("probs holds a non-number")
        probs[filled:filled + len(values)] = values
        filled += len(values)
        if hi == end:
            break
        lo = hi + 1
    if filled != len(probs):
        raise ValueError("probs has an empty element")
    return probs, end + 1


def _read_whole(path: str, text: str):
    """``(labels, probs list)`` of the whole decoded document, with every
    rejection an ``InputFormatError``. Line ends are translated first, as
    by a text-mode read, so a parse error names the same line and column."""
    try:
        doc = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise InputFormatError(f"{path}: parse error: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path}: parse error: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: top level must be an object")
    missing = [k for k in REQUIRED_FIELDS if k not in doc]
    if missing:
        raise InputFormatError(f"{path}: missing fields {missing}")
    unknown = [k for k in doc if k not in REQUIRED_FIELDS]
    if unknown:
        raise InputFormatError(f"{path}: unknown fields {unknown}")
    labels = []
    for key in REQUIRED_FIELDS[:3]:
        vals = doc[key]
        if not isinstance(vals, list) or not all(isinstance(v, str) for v in vals):
            raise InputFormatError(f"{path}: field {key} must be an array of strings")
        labels.append(tuple(vals))
    probs = doc["probs"]
    if not isinstance(probs, list) or not set(map(type, probs)) <= {int, float}:
        raise InputFormatError(f"{path}: field probs must be an array of numbers")
    return tuple(labels), probs


def save_joint(j: Joint3, path: str) -> None:
    """Write a Joint3 in the input format (labels coerced to strings)."""
    doc = {
        "x_labels": [str(l) for l in j.x_labels],
        "y_labels": [str(l) for l in j.y_labels],
        "z_labels": [str(l) for l in j.z_labels],
        "probs": [float(v) for v in j.probs.ravel()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# --- event expressions -------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<op>==|!=|\(|\))|(?P<kw>and|or|not)\b|(?P<var>[xyz])\b"
    r"|'(?P<sq>[^']*)'|\"(?P<dq>[^\"]*)\")"
)


def _tokenize(expr: str):
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None:
            if expr[pos:].strip() == "":
                break
            raise EventSyntaxError(
                f"cannot read event expression at position {pos}: {expr[pos:]!r}"
            )
        if m.group("op"):
            tokens.append(("op", m.group("op")))
        elif m.group("kw"):
            tokens.append(("kw", m.group("kw")))
        elif m.group("var"):
            tokens.append(("var", m.group("var")))
        elif m.group("sq") is not None:
            tokens.append(("lit", m.group("sq")))
        else:
            tokens.append(("lit", m.group("dq")))
        pos = m.end()
    return tokens


class _EventParser:
    """Recursive-descent parser that evaluates an event expression
    straight to a boolean mask over the joint's cells.

    Every rule returns a numpy bool array that broadcasts against the
    joint's (nx, ny, nz) shape. A variable is the integer code of each of
    its axis labels' ``str(label)``, shaped to lie along its own axis; a
    literal is the code of its string. Labels and literals share one code
    table, so two codes are equal exactly when the strings are (numpy
    ``U`` arrays would not do: they drop trailing NULs). ``and``/``or``
    fold left in a loop, and ``not`` and parentheses may nest at most
    ``MAX_EVENT_DEPTH`` levels, so no expression reaches Python's
    recursion limit.
    """

    def __init__(self, expr: str, j: Joint3):
        self.tokens = _tokenize(expr)
        self.pos = 0
        self.depth = 0
        self.codes: dict[str, int] = {}
        self.axes = {}
        for axis, (var, labels) in enumerate(
            zip("xyz", (j.x_labels, j.y_labels, j.z_labels))
        ):
            shape = [1, 1, 1]
            shape[axis] = len(labels)
            codes = [self._code(str(l)) for l in labels]
            self.axes[var] = np.array(codes, dtype=np.intp).reshape(shape)

    def _code(self, s: str) -> int:
        return self.codes.setdefault(s, len(self.codes))

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise EventSyntaxError("unexpected end of event expression")
        self.pos += 1
        return tok

    def _nest(self):
        self.depth += 1
        if self.depth > MAX_EVENT_DEPTH:
            raise EventSyntaxError(
                "event expression nested too deeply: more than "
                f"{MAX_EVENT_DEPTH} levels of 'not' and parentheses"
            )

    def parse(self):
        mask = self._or()
        if self._peek() is not None:
            raise EventSyntaxError(
                f"trailing tokens in event expression: {self.tokens[self.pos:]!r}"
            )
        return mask

    def _or(self):
        left = self._and()
        while self._peek() == ("kw", "or"):
            self._next()
            left = left | self._and()
        return left

    def _and(self):
        left = self._not()
        while self._peek() == ("kw", "and"):
            self._next()
            left = left & self._not()
        return left

    def _not(self):
        if self._peek() == ("kw", "not"):
            self._next()
            self._nest()
            inner = self._not()
            self.depth -= 1
            return ~inner
        return self._atom()

    def _atom(self):
        if self._peek() == ("op", "("):
            self._next()
            self._nest()
            inner = self._or()
            if self._next() != ("op", ")"):
                raise EventSyntaxError("missing closing parenthesis")
            self.depth -= 1
            return inner
        return self._comparison()

    def _comparison(self):
        left = self._term()
        kind, op = self._next()
        if kind != "op" or op not in ("==", "!="):
            raise EventSyntaxError(f"expected == or != after a term, got {op!r}")
        right = self._term()
        if op == "==":
            return np.equal(left, right)
        return np.not_equal(left, right)

    def _term(self):
        kind, val = self._next()
        if kind == "var":
            return self.axes[val]
        if kind == "lit":
            return self._code(val)
        raise EventSyntaxError(f"expected a variable or literal, got {val!r}")


def parse_event(expr: str, j: Joint3) -> EventMask:
    """Evaluate an event expression into a mask over the joint's cells."""
    mask = _EventParser(expr, j).parse()
    return EventMask(np.broadcast_to(mask, j.shape))


# --- report assembly ---------------------------------------------------


def fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.12g}"
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


@dataclass
class Report:
    header: list[tuple[str, str]] = field(default_factory=list)
    columns: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.header.append((key, fmt(value)))

    def add_row(self, *values) -> None:
        self.rows.append(tuple(values))

    def render(self) -> str:
        lines = [f"{k}: {v}" for k, v in self.header]
        lines.append("")
        if self.columns:
            lines.append("\t".join(self.columns))
            for row in self.rows:
                lines.append("\t".join(fmt(v) for v in row))
        lines.append("")
        return "\n".join(lines)


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    alphas: tuple[Alpha, ...] = ()
    event: str | None = None
    thm: str | None = None
    seed: int = 0
    grid_step: float | None = None
    budget: int | None = None
    n: int | None = None
    tau: float | None = None
    claimed_rate: float | None = None
    output: str | None = None


def _base_report(config: RunConfig, digest: str | None) -> Report:
    rep = Report()
    rep.add("tool", f"sibsonmi {__version__}")
    rep.add("command", config.command)
    if config.input_path is not None:
        rep.add("input", config.input_path)
        rep.add("input_sha256", digest)
    if config.alphas:
        rep.add("alpha", ",".join(str(a) for a in config.alphas))
    for key in ("event", "thm", "grid_step", "budget", "n", "tau", "claimed_rate"):
        if getattr(config, key) is not None:
            rep.add(key, getattr(config, key))
    rep.add("seed", config.seed)
    return rep


def _cmd_measure(config: RunConfig, rep: Report, j: Joint3) -> int:
    jxy = j.marginal_xy()
    rep.columns = ("operation", "alpha", "value_nats")
    for a in config.alphas:
        rep.add_row("sibson_mi", str(a), sibson_mi(jxy, a).value_nats)
        rep.add_row("cond_sibson_z", str(a), cond_sibson_z(j, a).value_nats)
        rep.add_row("cond_sibson_ygz", str(a), cond_sibson_ygz(j, a).value_nats)
        if a.is_inf:
            rep.add_row("maximal_leakage", str(a), maximal_leakage(jxy))
            rep.add_row("cond_maximal_leakage", str(a), cond_maximal_leakage(j))
    return 0


def _cmd_bound(config: RunConfig, rep: Report, j: Joint3) -> int:
    if config.event is None:
        raise ValidationError("the bound command needs --event")
    e = parse_event(config.event, j)
    rep.columns = (
        "bound", "alpha", "lhs", "rhs", "slack", "vacuous", "uninformative", "pass",
    )
    status = 0
    reports = []
    if config.thm == "leak":
        reports.append(bound_cor_leakage(j, e))
    else:
        f = bound_thm1 if config.thm == "1" else bound_thm3
        if not config.alphas:
            raise ValidationError("the bound command needs --alpha")
        for a in config.alphas:
            reports.append(f(j, e, a))
    for b in reports:
        ok = b.holds
        status |= 0 if ok else 1
        rep.add_row(
            b.which, str(b.alpha), b.lhs, b.rhs, b.slack, b.vacuous,
            b.uninformative, ok,
        )
    return status


def _cmd_sdpi(config: RunConfig, rep: Report, j: Joint3) -> int:
    alphas = config.alphas or (Alpha(2.0),)
    budget = 10_000 if config.budget is None else config.budget
    jxy = j.marginal_xy()
    channel = jxy.kernel_y_given_x()
    if not np.all(channel.reachable):
        raise ValidationError(
            "the sdpi command needs every X symbol reachable in the XY marginal"
        )
    rep.columns = ("operation", "alpha", "value", "detail", "pass")
    status = 0
    for a in alphas:
        est = contraction_search(channel, a, budget=budget, seed=config.seed)
        ok_eta = est.eta_normalized <= 1 + 1e-9 and est.eta_ratio_lower <= 1 + 1e-9
        rep.add_row("contraction_search.eta_normalized", str(a),
                    est.eta_normalized, "lower bound on sup", ok_eta)
        rep.add_row("contraction_search.eta_ratio_lower", str(a),
                    est.eta_ratio_lower, "lower bound on sup", ok_eta)
        lhs, rhs = sdpi_unconditional_check(jxy, channel, a, est)
        ok = lhs <= rhs + 1e-9
        status |= 0 if ok and ok_eta else 1
        rep.add_row("sdpi_unconditional_check.lhs", str(a), lhs,
                    "information of channel-copied W with Y", ok)
        rep.add_row("sdpi_unconditional_check.rhs", str(a), rhs,
                    "log(eta)/(a-1) + information of X with Y", ok)
    return status


def _cmd_simulate(config: RunConfig, rep: Report, j: Joint3) -> int:
    if config.n is None or config.tau is None:
        raise ValidationError("the simulate command needs --n and --tau")
    test = threshold_test(j, config.tau, config.n)
    step = 0.01 if config.grid_step is None else config.grid_step
    rep.columns = (
        "operation", "alpha", "p1", "p2_worst", "rate", "lhs", "rhs",
        "certified", "halfwidth", "pass",
    )
    er, checks = theorem6_checks(j, test, config.alphas, step, config.claimed_rate)
    rep.add_row("exact_errors", "", er.p1, er.p2_worst, er.rate_R, "", "",
                "", "", True)
    status = 0
    for t6 in checks:
        ok = (not t6.certified) or t6.lhs <= t6.rhs + 1e-9
        status |= 0 if ok else 1
        rep.add_row(
            "theorem6_check", str(t6.alpha), er.p1, er.p2_worst, t6.claimed_rate,
            t6.lhs, t6.rhs, t6.certified, "", ok,
        )
    if config.budget is not None:
        pz = j.probs.sum(axis=(0, 1))
        mc = monte_carlo_errors(j, test, [pz], config.budget, seed=config.seed)
        rep.add_row(
            "monte_carlo_errors", "", mc.p1, mc.p2_worst, mc.rate_R, "", "",
            "", mc.p1_halfwidth, True,
        )
    return status


def _cmd_exponent(config: RunConfig, rep: Report, j: Joint3) -> int:
    agrid = default_alpha_grid()
    lgrid = [lambda_of_alpha(a) for a in agrid]
    cc = ep_star_grid(j, lgrid)
    rep.columns = ("quantity", "argument", "value", "alpha_star", "pass")
    for lam, v in cc.sample_grid:
        rep.add_row("ep_star", lam, v, "", "")
    viol = cc.max_convexity_violation()
    convex_ok = viol <= 1e-9
    rep.add_row("ep_star_convexity_defect", "", viol, "", convex_ok)
    bi = ep_biconjugate(j, 0.0, agrid)
    rep.add_row("ep_biconjugate", 0.0, bi.value, bi.alpha, "")
    eq = eq_biconjugate(j, 0.0, agrid)
    rep.add_row("eq_biconjugate", 0.0, eq.value, eq.alpha, "")
    return 0 if convex_ok else 1


def _cmd_selftest(config: RunConfig, rep: Report, j: Joint3 | None) -> int:
    rows = run_selftest(seed=config.seed)
    rep.columns = ("check", "status", "detail")
    status = 0
    for r in rows:
        rep.add_row(r.name, r.status, r.detail)
        if r.status not in ("PASS", INFO):
            status = 1
    rep.add("checks", len(rows))
    return status


_COMMANDS = {
    "measure": _cmd_measure,
    "bound": _cmd_bound,
    "sdpi": _cmd_sdpi,
    "simulate": _cmd_simulate,
    "exponent": _cmd_exponent,
    "selftest": _cmd_selftest,
}


def _check_request(command: str, input_path: str | None, seed: int) -> None:
    if command != "selftest" and not input_path:
        raise ValidationError("--input is required")
    if seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")


def run(config: RunConfig) -> int:
    """Dispatch a config, write the report, return the exit status.

    A file command without an input and a negative seed raise
    ValidationError first.  An input file is loaded once, before any
    other check, and handed to the command (``selftest`` only validates
    it)."""
    _check_request(config.command, config.input_path, config.seed)
    j = digest = None
    if config.input_path is not None:
        j, digest = load_joint(config.input_path)
    rep = _base_report(config, digest)
    status = _COMMANDS[config.command](config, rep, j)
    rep.add("exit_status", status)
    text = rep.render()
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def _parse_alpha_list(values) -> tuple[Alpha, ...]:
    return tuple(Alpha.coerce(v) for v in values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sibsonmi",
        description=(
            "Sibson alpha-mutual information, conditional variants, "
            "probability bounds, contraction estimates and testing "
            "simulations on finite alphabets."
        ),
        epilog=EVENT_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", help="distribution file (JSON)")
    parser.add_argument(
        "--alpha",
        action="append",
        default=[],
        help="order; repeatable; accepts numbers, 'one' and 'inf'",
    )
    parser.add_argument("--event", help="event expression over x, y, z")
    parser.add_argument(
        "--thm",
        choices=("1", "3", "leak"),
        default="3",
        help="which probability bound the bound command checks",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid-step", type=float, help="simplex grid step")
    parser.add_argument(
        "--budget",
        type=int,
        help="search budget (sdpi) or Monte Carlo trials (simulate)",
    )
    parser.add_argument("--n", type=int, help="sample length for simulate")
    parser.add_argument("--tau", type=float, help="per-symbol threshold")
    parser.add_argument(
        "--claimed-rate",
        type=float,
        help="explicit type-2 rate claim for the decay bound",
    )
    parser.add_argument("--output", help="report path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # before the orders are parsed, so these two errors come first
        _check_request(args.command, args.input, args.seed)
        config = RunConfig(
            command=args.command,
            input_path=args.input,
            alphas=_parse_alpha_list(args.alpha),
            event=args.event,
            thm=args.thm if args.command == "bound" else None,
            seed=args.seed,
            grid_step=args.grid_step,
            budget=args.budget,
            n=args.n,
            tau=args.tau,
            claimed_rate=args.claimed_rate,
            output=args.output,
        )
        return run(config)
    except SibsonmiError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
