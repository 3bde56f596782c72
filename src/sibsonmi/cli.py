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
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .bounds import bound_cor_leakage, bound_thm1, bound_thm3
from .core import CHECK_TOL, Alpha, EventMask, Joint3
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
# bytes read per call; each read's ``probs`` elements up to its last comma
# are decoded in one json.loads call
_SLICE_CHARS = 1 << 16
_PROBS_KEY = re.compile(rb'"probs"[ \t\n\r]*:[ \t\n\r]*\[')
# what may follow a '"probs"' that more bytes could still make a key match
_KEY_TAIL = re.compile(rb"[ \t\n\r]*(?::[ \t\n\r]*)?")


def load_joint(path: str) -> tuple[Joint3, str]:
    """Read and validate a distribution file; return the joint and the
    SHA-256 hex digest of exactly the bytes it was parsed from.

    The file is opened once and read in chunks of ``_SLICE_CHARS``
    bytes, each hashed as it comes. A well-formed file is never held
    whole and never holds one Python float per probability: the
    ``probs`` array is decoded as it streams past, in comma-aligned
    pieces, into one growable buffer of float64 bytes that becomes the
    array without a copy, is normalised in place and is handed to the
    joint as its read-only ``probs``, again without a copy; only the
    bytes around it become text, checked by the same ``_read_whole``
    as a whole file with ``[]`` in the array's place. So peak memory is
    that one array, with the slack the buffer grows by. Any other file
    is read again from the start of the same handle and parsed whole by
    one ``json.loads``, which holds one Python float per entry; no
    ``save_joint`` file takes this path. Either way every file gives the
    same joint or the same message as one ``json.load``. An input that
    cannot seek (a pipe) is read whole first.

    A file that is not UTF-8 JSON, non-finite, negative and out-of-float-
    range entries, and total mass off 1 by more than 1e-9 are rejected as
    ``InputFormatError``; smaller deviations are renormalised away.
    """
    try:
        with open(path, "rb") as fh:
            src = fh if fh.seekable() else io.BytesIO(fh.read())
            sha = hashlib.sha256()
            fields = _stream_fields(src, sha)
            if fields is None:
                src.seek(0)
                raw = src.read()
                sha = hashlib.sha256(raw)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    digest = sha.hexdigest()
    if fields is None:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} at byte "
                f"position {exc.start}"
            ) from exc
        # the bytes, and below the text, are freed before probs is
        # validated, normalised and copied: alive, they would overlap
        # those copies and raise peak memory
        del raw
        fields = _read_whole(path, text)
        del text
    labels, probs = fields
    nx, ny, nz = map(len, labels)
    if len(probs) != nx * ny * nz:
        raise InputFormatError(
            f"{path}: probs has {len(probs)} entries, expected {nx * ny * nz}"
        )
    try:  # no copy of the streamed array; only a list can overflow
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
    if not np.isfinite(arr).all():  # no joint-sized mask outlives a check
        i = int(np.argmin(np.isfinite(arr)))
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
    # this call's own array, the decoded buffer or a list's copy, becomes
    # the joint's without a copy
    arr /= total
    return Joint3(*labels, arr.reshape(nx, ny, nz), _copy=False), digest


def _stream_fields(fh, sha):
    """``(labels, probs array)`` of the document read from ``fh``, with
    its ``probs`` array decoded from the bytes as they stream past and
    only the bytes around the array decoded to text; None for a document
    the stream does not cover exactly. Every chunk read goes into
    ``sha``.

    The array ends at its first ``]`` and its commas are single bytes,
    as in the decoded text, so the pieces decoded between commas are
    the elements ``json.loads`` reads. The text around the array, with
    ``[]`` in its place, is then checked by ``_read_whole``, which also
    counts the ``probs`` keys of every object. Only a document that
    passes with exactly one such key keeps the decoded array: that key
    is the top-level one, so the ``[`` cut from the bytes opened its
    value. Anything else (no ``"probs": [`` in the bytes, a repeated or
    escaped ``probs`` key, or a document ``_read_whole`` rejects) gives
    None and leaves the file to the whole parse."""

    def read():
        chunk = fh.read(_SLICE_CHARS)
        sha.update(chunk)
        return chunk

    head, scan = bytearray(), 0
    try:
        while (m := _PROBS_KEY.search(head, scan)) is None:
            # past a failed search a match can start only at a '"probs"'
            # that more bytes could complete, or in the last 6 bytes
            last = head.rfind(b'"probs"', scan)
            if last >= 0 and _KEY_TAIL.fullmatch(head, last + 7):
                scan = last
            else:
                scan = max(scan, len(head) - 6)
            chunk = read()
            if not chunk:
                return None
            head += chunk
        # the text keeps the opening bracket, closed again after the array
        text = head[:m.end()].decode("utf-8")
        body = bytes(head[m.end():])
        del head
        probs = bytearray()
        while (end := body.find(b"]")) < 0:
            cut = body.rfind(b",")
            if cut >= 0:
                _decode_piece(body[:cut], probs)
                body = body[cut + 1:]
            chunk = read()
            if not chunk:
                return None
            body += chunk
        _decode_piece(body[:end], probs)
        rest = [body[end + 1:]]
        while chunk := read():
            rest.append(chunk)
        keys = []

        def count_probs(pairs):
            keys.extend(k for k, _ in pairs if k == "probs")
            return dict(pairs)

        text += "]" + b"".join(rest).decode("utf-8")
        labels, _ = _read_whole("", text, count_probs)
        return (labels, np.frombuffer(probs)) if len(keys) == 1 else None
    except (ValueError, OverflowError, RecursionError):
        return None


def _decode_piece(piece: bytes, probs: bytearray) -> None:
    """Append the numbers of ``piece``, one or more comma-separated
    elements of a flat array in UTF-8 bytes, to ``probs`` as float64
    bytes.

    The array ends at its first ``]``: a string or nested array inside
    it leaves a piece that does not parse or holds a non-number. A piece
    with no element (an empty array or element), bytes that are not
    UTF-8 and an integer past the float range raise too.
    """
    values = json.loads("[" + str(piece, "utf-8") + "]")
    if not values or not set(map(type, values)) <= {int, float}:
        raise ValueError("probs has an empty element or a non-number")
    probs += np.array(values, dtype=float).tobytes()


def _read_whole(path: str, text: str, object_pairs_hook=None):
    """``(labels, probs list)`` of the whole decoded document, with every
    rejection an ``InputFormatError``: the required fields and no other,
    labels arrays of strings and ``probs`` an array of numbers. Line ends
    are translated first, as by a text-mode read, so a parse error names
    the same line and column. ``object_pairs_hook`` goes to ``json.loads``
    and sees every object of the document, nested ones included."""
    try:
        doc = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"),
                         object_pairs_hook=object_pairs_hook)
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
    alphas: tuple = ()  # orders, as Alpha or anything Alpha.coerce reads
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
    rep.columns = ("operation", "alpha", "value", "detail", "pass")
    status = 0
    for a in alphas:
        est = contraction_search(channel, a, budget=budget, seed=config.seed)
        ok_eta = est.eta_normalized <= 1 + CHECK_TOL and est.eta_ratio_lower <= 1 + CHECK_TOL
        rep.add_row("contraction_search.eta_normalized", str(a),
                    est.eta_normalized, "lower bound on sup", ok_eta)
        rep.add_row("contraction_search.eta_ratio_lower", str(a),
                    est.eta_ratio_lower, "lower bound on sup", ok_eta)
        # the check raises unless it holds, so its rows pass
        lhs, rhs = sdpi_unconditional_check(jxy, channel, a, est)
        status |= 0 if ok_eta else 1
        rep.add_row("sdpi_unconditional_check.lhs", str(a), lhs,
                    "information of channel-copied W with Y", True)
        rep.add_row("sdpi_unconditional_check.rhs", str(a), rhs,
                    "log(eta)/(a-1) + information of X with Y", True)
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
    # theorem6_checks raises on a failing certified order, so its rows pass
    for t6 in checks:
        rep.add_row(
            "theorem6_check", str(t6.alpha), er.p1, er.p2_worst, t6.claimed_rate,
            t6.lhs, t6.rhs, t6.certified, "", True,
        )
    if config.budget is not None:
        pz = j.probs.sum(axis=(0, 1))
        mc = monte_carlo_errors(j, test, [pz], config.budget, seed=config.seed)
        rep.add_row(
            "monte_carlo_errors", "", mc.p1, mc.p2_worst, mc.rate_R, "", "",
            "", mc.p1_halfwidth, True,
        )
    return 0


def _cmd_exponent(config: RunConfig, rep: Report, j: Joint3) -> int:
    agrid = default_alpha_grid()
    lgrid = [lambda_of_alpha(a) for a in agrid]
    cc = ep_star_grid(j, lgrid)
    rep.columns = ("quantity", "argument", "value", "alpha_star", "pass")
    for lam, v in cc.sample_grid:
        rep.add_row("ep_star", lam, v, "", "")
    viol = cc.max_convexity_violation()
    convex_ok = viol <= CHECK_TOL
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
    ValidationError first, then an order that ``Alpha.coerce`` rejects;
    ``config.alphas`` may hold anything it reads (``main`` passes the
    ``--alpha`` strings).  An input file is loaded once, before any other
    check, and handed to the command (``selftest`` only validates it)."""
    _check_request(config.command, config.input_path, config.seed)
    config = replace(config, alphas=tuple(map(Alpha.coerce, config.alphas)))
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValidationError``,
    so ``main`` reports them as one JSON record with exit status 2."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        config = RunConfig(
            command=args.command,
            input_path=args.input,
            alphas=tuple(args.alpha),
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
