import ast
import builtins
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sibsonmi.cli as cli
from sibsonmi.cli import (
    LOAD_MASS_TOL,
    REQUIRED_FIELDS,
    RunConfig,
    fmt,
    load_joint,
    main,
    parse_event,
    run,
    save_joint,
)
import sibsonmi
from sibsonmi.core import Alpha, Joint3
from sibsonmi.errors import (
    EventSyntaxError,
    InputFormatError,
    SibsonmiError,
    ValidationError,
)
from sibsonmi.instances import random_joint3, reference_joint


@pytest.fixture
def ref_path(tmp_path):
    path = tmp_path / "ref.json"
    save_joint(reference_joint(), str(path))
    return str(path)


def write_doc(tmp_path, doc, name="j.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc():
    # flat row-major (x-major, then y, then z) layout of the reference joint
    return {
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "z_labels": ["0", "1"],
        "probs": [0.25, 0.125, 0.0, 0.125, 0.0, 0.125, 0.25, 0.125],
    }


class TestLoadJoint:
    def test_round_trip(self, ref_path):
        j, _ = load_joint(ref_path)
        assert np.allclose(j.probs, reference_joint().probs)
        assert j.x_labels == ("0", "1")

    def test_well_formed(self, tmp_path):
        j, _ = load_joint(write_doc(tmp_path, base_doc()))
        assert j.shape == (2, 2, 2)
        # row-major x-major ordering: flat index 3 is (x=0, y=1, z=1)
        assert j.probs[0, 1, 1] == 0.125

    def test_bad_mass_rejected(self, tmp_path):
        doc = base_doc()
        doc["probs"] = [v * 0.9 for v in doc["probs"]]
        with pytest.raises(InputFormatError, match="total mass"):
            load_joint(write_doc(tmp_path, doc))

    def test_small_mass_deviation_renormalised(self, tmp_path):
        doc = base_doc()
        doc["probs"][0] += 5e-10
        j, _ = load_joint(write_doc(tmp_path, doc))
        assert abs(j.probs.sum() - 1.0) <= 1e-12

    def test_negative_entry_rejected(self, tmp_path):
        doc = base_doc()
        doc["probs"][0] = -0.25
        with pytest.raises(InputFormatError, match="negative entry"):
            load_joint(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        doc = base_doc()
        doc["probs"][1] = bad
        with pytest.raises(InputFormatError, match="non-finite entry"):
            load_joint(write_doc(tmp_path, doc))

    def test_overflowing_literal_rejected(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(base_doc()).replace("0.125", "1e999", 1))
        with pytest.raises(InputFormatError, match="non-finite entry inf"):
            load_joint(str(path))

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"x_labels": [')
        with pytest.raises(InputFormatError, match="line 1"):
            load_joint(str(path))

    def test_missing_field(self, tmp_path):
        doc = base_doc()
        del doc["probs"]
        with pytest.raises(InputFormatError, match="missing"):
            load_joint(write_doc(tmp_path, doc))

    def test_unknown_field(self, tmp_path):
        doc = base_doc()
        doc["extra"] = 1
        with pytest.raises(InputFormatError, match="unknown"):
            load_joint(write_doc(tmp_path, doc))

    def test_wrong_length(self, tmp_path):
        doc = base_doc()
        doc["probs"] = doc["probs"][:-1]
        with pytest.raises(InputFormatError, match="entries"):
            load_joint(write_doc(tmp_path, doc))

    def test_non_utf8_byte_rejected_with_position(self, tmp_path):
        path = tmp_path / "latin1.json"
        raw = json.dumps(base_doc()).encode()
        path.write_bytes(raw.replace(b'"1"', b'"\xe9"', 1))
        at = raw.index(b'"1"') + 1
        with pytest.raises(InputFormatError, match=f"byte 0xe9 at byte position {at}$"):
            load_joint(str(path))

    @pytest.mark.parametrize("big", [10**400, -(10**400)])
    def test_out_of_range_integer_rejected(self, tmp_path, big):
        doc = base_doc()
        doc["probs"][5] = big
        with pytest.raises(InputFormatError, match="flat index 5 is out of the float range"):
            load_joint(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "text", ["[" * 100_000 + "]" * 100_000, '{"probs": [' + "1" * 5000 + "]}"]
    )
    def test_unparseable_json_rejected(self, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(InputFormatError, match="parse error"):
            load_joint(str(path))


_JSON_SCALARS = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(min_value=-(10**400), max_value=10**400)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_NEAR_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "x_labels": st.lists(st.text(max_size=3), max_size=3) | _JSON_VALUES,
        "y_labels": st.lists(st.text(max_size=3), max_size=3) | _JSON_VALUES,
        "z_labels": st.lists(st.text(max_size=3), max_size=3) | _JSON_VALUES,
        "probs": st.lists(
            st.floats(allow_nan=True) | st.integers(-(10**400), 10**400)
            | st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 1]),
            max_size=8,
        )
        | _JSON_VALUES,
        "extra": _JSON_VALUES,
    },
)
_DOC_BYTES = (
    _NEAR_DOCS.map(lambda d: json.dumps(d).encode())
    | _JSON_VALUES.map(lambda d: json.dumps(d).encode())
    | st.tuples(st.sampled_from(sorted(base_doc())), _JSON_VALUES).map(
        lambda kv: json.dumps({**base_doc(), kv[0]: kv[1]}).encode()
    )
    | st.binary(max_size=40)
    | st.tuples(st.binary(max_size=3), st.integers(0, 150)).map(
        lambda t: _splice(json.dumps(base_doc()).encode(), *t)
    )
)


def _splice(raw, junk, at):
    return raw[:at] + junk + raw[at + len(junk):]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw=_DOC_BYTES)
def test_load_joint_gives_joint_or_package_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            j, _ = load_joint(path)
        except SibsonmiError:
            return
    assert isinstance(j, Joint3)


# --- the sliced reader against the whole-document reader ------------------


def _reference_load_joint(path: str) -> tuple[Joint3, str]:
    """``load_joint`` as one ``json.load`` of the whole document and a
    separate hash of the file: the reference the one-read loader must
    match."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} at byte "
            f"position {exc.start}"
        ) from exc
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
    labels = {}
    for key in ("x_labels", "y_labels", "z_labels"):
        vals = doc[key]
        if not isinstance(vals, list) or not all(isinstance(v, str) for v in vals):
            raise InputFormatError(f"{path}: field {key} must be an array of strings")
        labels[key] = tuple(vals)
    probs = doc["probs"]
    if not isinstance(probs, list) or not set(map(type, probs)) <= {int, float}:
        raise InputFormatError(f"{path}: field probs must be an array of numbers")
    nx, ny, nz = (len(labels[k]) for k in ("x_labels", "y_labels", "z_labels"))
    if len(probs) != nx * ny * nz:
        raise InputFormatError(
            f"{path}: probs has {len(probs)} entries, expected {nx * ny * nz}"
        )
    try:
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
    j = Joint3(
        labels["x_labels"],
        labels["y_labels"],
        labels["z_labels"],
        arr.reshape(nx, ny, nz),
    )
    with open(path, "rb") as fh:
        return j, hashlib.sha256(fh.read()).hexdigest()


def _outcome(loader, path):
    """Labels, probability bytes and digest, or the error's type and
    message."""
    try:
        j, digest = loader(path)
    except SibsonmiError as exc:
        return type(exc), str(exc)
    return j.x_labels, j.y_labels, j.z_labels, j.probs.tobytes(), digest


def _assert_loaders_agree(path):
    assert _outcome(load_joint, path) == _outcome(_reference_load_joint, path)


_SPACE = st.sampled_from(["", " ", "\n", "\r\n", "\r", "\t", " \r\n  ", "\n\r"])
# cells of mass 1/k for k = 1, 2, 4, 8, spelled as ints, decimals and exponents
_SHARE = {
    1: ["1", "1.0", "1e0", "10E-1", "1.0e+0"],
    2: ["0.5", "5e-1", "0.50", "50E-2"],
    4: ["0.25", "2.5e-1", "25e-2"],
    8: ["0.125", "1.25E-1", "125e-3"],
}
_ZERO = ["0", "-0", "0.0", "-0.0", "0e5", "0E-3"]
_ODD_ENTRIES = [
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", str(10**400),
    str(-(10**400)), "1" + "0" * 5000, '"0.5"', '"]"', "true", "false", "null",
    "[0.5]", "[]", "{}", '{"a": 1}', "-0.25", "0.5000000001", "", "1 2", "0x1",
    ".5", "+1", "\ufeff0",
]


def _one_in(n):
    return st.sampled_from([True] + [False] * (n - 1))


@st.composite
def _documents(draw):
    """Document bytes near the input format: a valid distribution spelled
    with varied numbers and whitespace, then maybe one odd entry, odd
    label value, repeated, dropped or extra field, reordering, BOM or
    trailing junk."""
    shape = [draw(st.integers(1, 3)) for _ in range(3)]
    cells = math.prod(shape)
    k = draw(st.sampled_from([s for s in _SHARE if s <= cells]))
    mass = set(draw(st.permutations(range(cells)))[:k])
    entries = [
        draw(st.sampled_from(_SHARE[k] if i in mass else _ZERO))
        for i in range(cells)
    ]
    if draw(_one_in(3)):
        entries[draw(st.integers(0, cells - 1))] = draw(st.sampled_from(_ODD_ENTRIES))
    if draw(_one_in(10)):
        entries.append(draw(st.sampled_from(["0", ""])))
    fields = [
        (name, json.dumps(
            [str(i) for i in range(n)] if draw(st.booleans())
            else draw(st.lists(st.text(max_size=3), min_size=n, max_size=n,
                               unique=True)),
            ensure_ascii=draw(st.booleans()),
        ))
        for name, n in zip(REQUIRED_FIELDS[:3], shape)
    ]
    fields.append(("probs", "[" + ",".join(
        draw(_SPACE) + e + draw(_SPACE) for e in entries
    ) + "]"))
    change = draw(st.sampled_from(
        ["label", "repeat", "repeat-other", "drop", "extra"] + ["none"] * 5
    ))
    if change == "label":
        i = draw(st.integers(0, 2))
        fields[i] = (fields[i][0], draw(st.sampled_from(
            ['"ab"', "[1]", "null", '["a", ["b"]]', '["a\rb"]', '["\r"]', "[" * 3000]
        )))
    elif change == "repeat":
        fields.append(draw(st.sampled_from(fields)))
    elif change == "repeat-other":
        fields.append((REQUIRED_FIELDS[draw(st.integers(0, 3))], '["0"]'))
    elif change == "drop":
        del fields[draw(st.integers(0, 3))]
    elif change == "extra":
        fields.append(("extra", "1"))
    fields = draw(st.permutations(fields))
    text = draw(_SPACE) + "{" + ",".join(
        draw(_SPACE) + json.dumps(key) + draw(_SPACE) + ":" + draw(_SPACE) + value
        + draw(_SPACE)
        for key, value in fields
    ) + "}" + draw(_SPACE)
    ending = draw(st.sampled_from(["junk", "bom", "cut"] + ["none"] * 17))
    if ending == "junk":
        text += draw(st.sampled_from(["x", "{}", ",", "]"]))
    elif ending == "bom":
        text = "\ufeff" + text
    elif ending == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    return text.encode()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw=_documents(), slice_chars=st.sampled_from([1, 3, 8, 1 << 16]))
def test_sliced_reader_matches_whole_document_reader(raw, slice_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        with mock.patch.object(cli, "_SLICE_CHARS", slice_chars):
            _assert_loaders_agree(path)


def _write_probs_body(tmp_path, shape, body):
    doc = {k: [str(i) for i in range(n)] for k, n in zip(REQUIRED_FIELDS[:3], shape)}
    text = json.dumps(doc)[:-1] + ', "probs": [' + body + "]}"
    path = tmp_path / "body.json"
    path.write_text(text)
    return str(path)


def _walked(path):
    """The stream's ``(labels, probs)`` on the file's bytes, or None where
    ``load_joint`` falls back to the whole-document parse."""
    with open(path, "rb") as fh:
        return cli._stream_fields(fh, hashlib.sha256())


def _parsed(raw):
    """``(labels, probs)`` of the document bytes by one ``json.loads``."""
    doc = json.loads(raw.decode("utf-8"))
    labels = tuple(tuple(doc[k]) for k in REQUIRED_FIELDS[:3])
    return labels, np.array(doc["probs"], dtype=float)


class TestProbsSlices:
    @pytest.mark.parametrize("body", ["", " \r\n\t "])
    def test_empty_body(self, tmp_path, body):
        path = _write_probs_body(tmp_path, (1, 1, 1), body)
        _assert_loaders_agree(path)
        assert _walked(path) is None

    def test_one_element(self, tmp_path):
        path = _write_probs_body(tmp_path, (1, 1, 1), "1")
        _assert_loaders_agree(path)
        assert _walked(path)[1].tolist() == [1.0]

    def test_body_of_exactly_one_slice(self, tmp_path, monkeypatch):
        body = ",".join(["0.125"] * 8)
        monkeypatch.setattr(cli, "_SLICE_CHARS", len(body))
        path = _write_probs_body(tmp_path, (2, 2, 2), body)
        _assert_loaders_agree(path)
        assert _walked(path)[1].tolist() == [0.125] * 8

    def test_comma_at_slice_boundary(self, tmp_path, monkeypatch):
        # reads of 5 bytes: the ones ending at bytes 94 and 124 of the file
        # end exactly on a comma of the array
        monkeypatch.setattr(cli, "_SLICE_CHARS", len("0.125"))
        path = _write_probs_body(tmp_path, (2, 2, 2), ",".join(["0.125"] * 8))
        _assert_loaders_agree(path)
        assert _walked(path)[1].tolist() == [0.125] * 8

    @pytest.mark.parametrize("slice_chars", [1, 7, 64, 1 << 16])
    def test_many_slices(self, tmp_path, monkeypatch, slice_chars):
        monkeypatch.setattr(cli, "_SLICE_CHARS", slice_chars)
        probs = np.random.default_rng(3).dirichlet(np.ones(1500))
        body = ",\r\n ".join(map(repr, probs.tolist()))
        path = _write_probs_body(tmp_path, (10, 10, 15), body)
        _assert_loaders_agree(path)
        assert _walked(path)[1].tobytes() == probs.tobytes()


# --- the probs array streamed from the file's bytes ----------------------

# labels that look like the array's key, its bracket and commas, an
# escaped quote, and non-ASCII text
_SPLIT_LABELS = ['"probs": [', "]", ",", '"', '\\"', "é", "∑x", "\U0001f600", "a],[b"]
_SPLIT_SPACE = st.sampled_from(["", " ", "\t", "\r\n", "\r\n\t ", "\n"])


@st.composite
def _split_documents(draw):
    """``(document bytes, defect)``: a distribution with tricky labels,
    ``probs`` at any position, CRLF and tab whitespace, and maybe one
    defect the stream must leave to the whole-document parse."""
    shape = [draw(st.integers(1, 3)) for _ in range(3)]
    cells = math.prod(shape)
    k = draw(st.sampled_from([s for s in _SHARE if s <= cells]))
    mass = set(draw(st.permutations(range(cells)))[:k])
    entries = [
        draw(st.sampled_from(_SHARE[k] if i in mass else _ZERO)).encode()
        for i in range(cells)
    ]
    defect = draw(st.sampled_from(
        ["repeat", "byte-in", "byte-out", "big-int", "empty", "non-number",
         "nested-key", "escaped-key", "bom"] + ["none"] * 8
    ))
    if defect == "byte-in":
        i = draw(st.integers(0, cells - 1))
        entries[i] = draw(st.sampled_from([b"\xff", b" \xe9", b"0\x80"])) + entries[i]
    elif defect == "big-int":
        entries[draw(st.integers(0, cells - 1))] = str(
            draw(st.sampled_from([10**400, -(10**400)]))
        ).encode()
    elif defect == "non-number":
        entries[draw(st.integers(0, cells - 1))] = b'"0.5"'
    space = lambda: draw(_SPLIT_SPACE).encode()  # noqa: E731
    body = b",".join(space() + e + space() for e in entries)
    if defect == "empty":
        body = space()
    fields = []
    for name, n in zip(REQUIRED_FIELDS[:3], shape):
        labels = draw(st.lists(
            st.sampled_from(_SPLIT_LABELS) | st.text(max_size=2),
            min_size=n, max_size=n, unique=True,
        ))
        fields.append((json.dumps(name).encode(),
                       json.dumps(labels, ensure_ascii=draw(st.booleans())).encode()))
    if defect == "byte-out":
        i = draw(st.integers(0, 2))
        fields[i] = (fields[i][0], b'["\xe9"' + fields[i][1][1:])
    elif defect == "nested-key":
        # a "probs": [ match inside a label field, ahead of the real one
        i = draw(st.integers(0, 2))
        fields[i] = (fields[i][0], b'{"probs": [1]}')
    # an escaped key is the same "probs" to JSON, but not to the key match
    probs_key = b'"prob\\u0073"' if defect == "escaped-key" else b'"probs"'
    fields.insert(draw(st.integers(0, 3)), (probs_key, b"[" + body + b"]"))
    if defect == "repeat":
        # a later "probs": [] reads, in the text around the cut-out array,
        # like that array's own "[]"
        again = draw(st.sampled_from([b"[" + body + b"]", b"null", b"[1]", b"[]"]))
        repeat_key = draw(st.sampled_from([b'"probs"', b'"prob\\u0073"']))
        fields.insert(draw(st.integers(0, 4)), (repeat_key, again))
    raw = space() + b"{" + b",".join(
        space() + key + space() + b":" + space() + value
        + space() for key, value in fields
    ) + b"}" + space()
    if defect == "bom":
        raw = "\ufeff".encode() + raw
    return raw, defect


_LABELS_ONE = b'"x_labels": ["0"], "y_labels": ["0"], "z_labels": ["0"]'


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_split_documents(), read_size=st.sampled_from([1, 4, 1 << 16]))
@example(doc=(b'{"probs": [1], ' + _LABELS_ONE + b', "probs": []}', "repeat"),
         read_size=1 << 16)
@example(doc=(b'{"prob\\u0073": [], ' + _LABELS_ONE + b', "probs": [1]}', "repeat"),
         read_size=1 << 16)
def test_stream_matches_whole_text_reader(doc, read_size):
    # clean documents stream to json.loads's fields and the file's digest;
    # every defect leaves the stream to the whole-document parse
    raw, defect = doc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        with mock.patch.object(cli, "_SLICE_CHARS", read_size):
            _assert_loaders_agree(path)
            sha = hashlib.sha256()
            streamed = cli._stream_fields(io.BytesIO(raw), sha)
            if defect == "none":
                parsed = _parsed(raw)
                assert streamed[0] == parsed[0]
                assert streamed[1].tobytes() == parsed[1].tobytes()
                assert sha.hexdigest() == hashlib.sha256(raw).hexdigest()
            else:
                assert streamed is None


@pytest.mark.parametrize("read_size", [1, 4, 7, 1 << 16])
def test_stream_finds_a_key_spread_over_many_reads(read_size, monkeypatch):
    # whitespace inside the key and a '"probs"' label ahead of it: the key
    # match starts reads before it ends, and the stream still covers the file
    monkeypatch.setattr(cli, "_SLICE_CHARS", read_size)
    doc = {**base_doc(), "x_labels": ["probs", "1"]}
    text = json.dumps(doc).replace('"probs": [', '"probs"' + " " * 40 + ":\r\n\t [")
    raw = text.encode()
    streamed = cli._stream_fields(io.BytesIO(raw), hashlib.sha256())
    parsed = _parsed(raw)
    assert streamed[0] == parsed[0]
    assert streamed[1].tobytes() == parsed[1].tobytes()


# --- one read of the input per invocation ---------------------------------

_FILE_COMMANDS = [
    ["measure", "--alpha", "2"],
    ["bound", "--thm", "3", "--alpha", "2", "--event", "x==y"],
    ["sdpi", "--alpha", "2", "--budget", "100"],
    ["simulate", "--n", "2", "--tau", "0.5", "--alpha", "2"],
    ["exponent"],
]


def _fallback_doc(tmp_path):
    """A file the stream leaves (an earlier ``probs`` that is not an
    array) but the whole-document parse accepts (the last one counts)."""
    path = tmp_path / "repeat.json"
    path.write_text('{"probs": null, ' + json.dumps(base_doc())[1:])
    assert _walked(str(path)) is None
    return str(path)


def _count_opens(monkeypatch, path):
    opens = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == path:
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opens


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("args", _FILE_COMMANDS, ids=lambda a: a[0])
def test_each_command_opens_its_input_once(tmp_path, monkeypatch, args, fallback):
    path = _fallback_doc(tmp_path) if fallback else write_doc(tmp_path, base_doc())
    out = tmp_path / "r.txt"
    opens = _count_opens(monkeypatch, path)
    assert main([*args, "--input", path, "--output", str(out)]) == 0
    assert len(opens) == 1
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert f"input_sha256: {digest}\n" in out.read_text()


def _python(*args, stdin=b"", pycache=None):
    """A fresh interpreter on this package with RuntimeWarnings as errors,
    run to completion with ``stdin`` piped to it; it must exit 0. With
    ``pycache`` it keeps its bytecode under that directory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sibsonmi.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    if pycache is not None:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *map(str, args)],
        env=env, input=stdin, capture_output=True, check=True,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("fallback", [False, True])
def test_piped_input_gives_the_file_report(tmp_path, fallback):
    # a pipe cannot seek, so it is read whole first; the report differs
    # from the file's only in the input path it echoes
    path = _fallback_doc(tmp_path) if fallback else write_doc(tmp_path, base_doc())
    with open(path, "rb") as fh:
        raw = fh.read()
    args = ("-m", "sibsonmi.cli", "measure", "--alpha", "2", "--alpha", "one",
            "--input")
    piped = _python(*args, "/dev/stdin", stdin=raw)
    direct = _python(*args, path)
    assert piped.stderr == direct.stderr == b""
    assert piped.stdout.replace(b"input: /dev/stdin\n", f"input: {path}\n".encode()) == (
        direct.stdout
    )


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_malformed_document_line_ends_translated(tmp_path, eol):
    # a text-mode json.load counts a lone \r as a line end too
    text = json.dumps(base_doc(), indent=1).replace("0.125,", "0.125,,", 1)
    path = tmp_path / "eol.json"
    path.write_bytes(text.replace("\n", eol).encode())
    with pytest.raises(InputFormatError) as info:
        load_joint(str(path))
    assert str(info.value) == (
        f"{path}: parse error at line 16, column 9: Expecting value"
    )
    _assert_loaders_agree(str(path))


def test_selftest_validates_its_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"x_labels": [')
    assert main(["selftest", "--input", str(path)]) == 2
    record = _error_record(capsys)
    assert record["error"] == "InputFormatError"
    assert record["message"].startswith(f"{path}: parse error at line 1")


def test_cli_imports_no_private_package_name():
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "sibsonmi")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


# ru_maxrss of a child keeps the peak of the process that launched it
# across exec, so the probe reads the peak of its own address space
_RSS_PROBE = """
import sys
from sibsonmi.cli import load_joint, main

def peak():
    with open("/proc/self/status") as fh:
        line = next(l for l in fh if l.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

before = peak()
"""


@pytest.fixture(scope="module")
def warm_pycache(tmp_path_factory):
    # an import that compiles raises the peak before the probe's baseline
    # and hides growth after it, so every probe imports cached bytecode:
    # the same reading whether or not the source tree's cache is fresh
    pycache = tmp_path_factory.mktemp("pycache")
    _python("-c", _RSS_PROBE, pycache=pycache)
    return pycache


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads VmHWM from /proc"
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_load_joint_peak_memory_is_under_half_the_file(tmp_path, warm_pycache):
    # the streamed float64 array (8 bytes per cell against ~25 in the
    # file), which becomes the joint's own: about 0.36x; with the joint's
    # copy of it as well it took 0.71x, and holding the file's bytes too
    # 1.37x
    path = tmp_path / "big.json"
    save_joint(random_joint3(np.random.default_rng(0), (64, 64, 64)), str(path))
    probe = _RSS_PROBE + "load_joint(sys.argv[1])\nprint(peak() - before)\n"
    growth = int(_python("-c", probe, path, pycache=warm_pycache).stdout)
    size = path.stat().st_size
    assert growth <= 0.5 * size, f"peak RSS grew {growth / size:.2f}x the file size"


_COMMAND_RSS_PROBE = _RSS_PROBE + """
path, out = sys.argv[1:]
assert main(["measure", "--input", path, "--output", out, "--alpha", "0.5",
             "--alpha", "2", "--alpha", "one", "--alpha", "inf"]) == 0
assert main(["bound", "--input", path, "--output", out, "--thm", "3",
             "--alpha", "2", "--event", "x==y or z=='0'"]) == 0
print(peak() - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads VmHWM from /proc"
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_measure_and_bound_peak_memory_is_under_two_joints(tmp_path, warm_pycache):
    # measure, then bound, on a 64x64x160 file in one process: each holds
    # the loaded array as the joint and block-sized temporaries (about
    # 1.65x with the heap the first command leaves); the structure's own
    # P(.,.|z) and the joint's copy of the loaded array took 3.3x, and
    # with the file's bytes held while loading and the log of P(.,.|z)
    # kept in the structure 4.4x
    path = tmp_path / "big.json"
    j = random_joint3(np.random.default_rng(0), (64, 64, 160))
    save_joint(j, str(path))
    growth = int(_python("-c", _COMMAND_RSS_PROBE, path, tmp_path / "r.txt",
                         pycache=warm_pycache).stdout)
    size = j.probs.nbytes
    assert growth <= 2 * size, f"peak RSS grew {growth / size:.2f}x the joint"


_LARGE_COMMANDS = [
    RunConfig("measure", alphas=tuple(map(Alpha.coerce, ("0.5", "2", "one", "inf")))),
    RunConfig("bound", alphas=(Alpha(2.0),), event="x==y or z=='0'", thm="1"),
    RunConfig("bound", alphas=(Alpha(2.0),), event="x==y or z=='0'", thm="3"),
]


@pytest.fixture(scope="module")
def large_joint():
    # 655,360 cells, ten times the per-z kernels' block bound
    j = random_joint3(np.random.default_rng(0), (64, 64, 160))
    assert j.probs.size >= 10 * sibsonmi.core._BLOCK_CELLS
    return j


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "config", _LARGE_COMMANDS, ids=["measure", "bound_thm1", "bound_thm3"]
)
def test_commands_price_a_large_joint_in_blocks(large_joint, config):
    # the structure given z holds no joint-sized array, only per-z rows
    # and one block of P(.,.|z) while it is built: about 0.14x the joint
    # (with the whole P(.,.|z) it took 1.07x, with its log as well 2x);
    # the command then adds block-sized temporaries only (whole-joint
    # temporaries took 2x more) and never builds the whole P(.,.|z)
    j = Joint3(large_joint.x_labels, large_joint.y_labels, large_joint.z_labels,
               large_joint.probs)
    size = j.probs.nbytes
    tracemalloc.start()
    try:
        j._z_structure()
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        status = cli._COMMANDS[config.command](config, cli._base_report(config, None), j)
        command = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert status == 0
    assert j._z_structure().cxy is None
    assert built <= 0.35 * size, f"the structure took {built / size:.2f}x the joint"
    assert command <= 0.75 * size, f"the command took {command / size:.2f}x the joint"


class TestEventParser:
    def test_diagonal(self, ref):
        e = parse_event("x==y", ref)
        assert e.count() == 4
        assert e.mask[0, 0, 0] and not e.mask[0, 1, 0]

    def test_literals_and_precedence(self, ref):
        e = parse_event("x==y and not z=='0'", ref)
        assert e.count() == 2
        assert e.mask[0, 0, 1] and not e.mask[0, 0, 0]

    def test_or_and_parens(self, ref):
        a = parse_event("x=='0' or y=='0' and z=='0'", ref)
        b = parse_event("x=='0' or (y=='0' and z=='0')", ref)
        assert np.array_equal(a.mask, b.mask)

    def test_double_quotes(self, ref):
        e = parse_event('z!="1"', ref)
        assert e.count() == 4

    @pytest.mark.parametrize(
        "bad", ["x==", "x = y", "and x==y", "x==y)", "(x==y", "w=='0'", "x==y or"]
    )
    def test_syntax_errors(self, ref, bad):
        with pytest.raises(EventSyntaxError):
            parse_event(bad, ref)

    def test_nesting_at_the_limit_parses(self, ref):
        from sibsonmi.cli import MAX_EVENT_DEPTH

        half = MAX_EVENT_DEPTH // 2
        expr = "not " * half + "(" * (MAX_EVENT_DEPTH - half) + "x==y" + ")" * (MAX_EVENT_DEPTH - half)
        assert parse_event(expr, ref).count() == 4
        with pytest.raises(EventSyntaxError, match="nested too deeply"):
            parse_event("not " + expr, ref)

    def test_long_or_chain(self):
        labels = tuple(str(i) for i in range(6))
        j = Joint3(labels, labels, labels, np.full((6, 6, 6), 1 / 216))
        terms = [f"z=='{i % 7}' and x!='{i % 5}'" for i in range(1500)]
        e = parse_event(" or ".join(["x==y"] + terms), j)
        expected = np.zeros((6, 6, 6), dtype=bool)
        for ix in range(6):
            for iy in range(6):
                for iz in range(6):
                    expected[ix, iy, iz] = ix == iy or any(
                        iz == i % 7 and ix != i % 5 for i in range(1500)
                    )
        assert np.array_equal(e.mask, expected)

    def test_labels_compare_as_exact_strings(self):
        j = Joint3(("a", "a\x00"), (1, "01"), ("1.0", "é"), np.full((2, 2, 2), 1 / 8))
        assert parse_event("x=='a'", j).mask[:, 0, 0].tolist() == [True, False]
        assert parse_event("x=='a\x00'", j).mask[:, 0, 0].tolist() == [False, True]
        assert parse_event("y=='1'", j).mask[0, :, 0].tolist() == [True, False]
        assert parse_event("z=='1'", j).count() == 0
        assert parse_event("z=='é'", j).mask[0, 0, :].tolist() == [False, True]


# --- property: the mask evaluator against a per-cell reference -----------

_LABEL_POOL = ["0", "1", "01", "1.0", "é", "a", "a\x00", "", "x"]
_LABELS = st.sampled_from(_LABEL_POOL) | st.integers(-1, 11) | st.text(max_size=3)
_AXIS = st.lists(_LABELS, min_size=1, max_size=3, unique_by=lambda l: (type(l), l))
_LITERALS = (st.sampled_from(_LABEL_POOL) | st.text(max_size=3)).filter(
    lambda s: "'" not in s or '"' not in s
)
_TERMS = st.sampled_from(["x", "y", "z"]) | _LITERALS.map(lambda s: ("lit", s))
_COMPARISONS = st.tuples(st.just("cmp"), st.sampled_from(["==", "!="]), _TERMS, _TERMS)
_TREES = st.recursive(
    _COMPARISONS,
    lambda inner: st.tuples(st.just("not"), inner)
    | st.tuples(st.just("paren"), inner)
    | st.tuples(st.sampled_from(["and", "or"]), inner, inner),
    max_leaves=8,
)
_PRECEDENCE = {"or": 1, "and": 2, "not": 3, "paren": 4, "cmp": 4}


def _render_term(t):
    if isinstance(t, str):
        return t
    lit = t[1]
    return f"'{lit}'" if "'" not in lit else f'"{lit}"'


def _render(tree):
    """Source text whose parse is ``tree``: parentheses only where needed,
    plus the explicit ``paren`` nodes."""
    kind = tree[0]
    if kind == "cmp":
        return f"{_render_term(tree[2])} {tree[1]} {_render_term(tree[3])}"
    if kind == "paren":
        return f"({_render(tree[1])})"
    if kind == "not":
        inner = _render(tree[1])
        return f"not {inner}" if _PRECEDENCE[tree[1][0]] >= 3 else f"not ({inner})"
    left, right = _render(tree[1]), _render(tree[2])
    if _PRECEDENCE[tree[1][0]] < _PRECEDENCE[kind]:
        left = f"({left})"
    if _PRECEDENCE[tree[2][0]] <= _PRECEDENCE[kind]:
        right = f"({right})"
    return f"{left} {kind} {right}"


def _evaluate(tree, env):
    kind = tree[0]
    if kind == "cmp":
        a, b = (env[t] if isinstance(t, str) else t[1] for t in tree[2:])
        return a == b if tree[1] == "==" else a != b
    if kind == "paren":
        return _evaluate(tree[1], env)
    if kind == "not":
        return not _evaluate(tree[1], env)
    if kind == "and":
        return _evaluate(tree[1], env) and _evaluate(tree[2], env)
    return _evaluate(tree[1], env) or _evaluate(tree[2], env)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tree=_TREES, xs=_AXIS, ys=_AXIS, zs=_AXIS)
def test_event_mask_matches_per_cell_reference(tree, xs, ys, zs):
    shape = (len(xs), len(ys), len(zs))
    j = Joint3(xs, ys, zs, np.full(shape, 1 / math.prod(shape)))
    expected = np.zeros(shape, dtype=bool)
    for ix, lx in enumerate(xs):
        for iy, ly in enumerate(ys):
            for iz, lz in enumerate(zs):
                env = {"x": str(lx), "y": str(ly), "z": str(lz)}
                expected[ix, iy, iz] = _evaluate(tree, env)
    e = parse_event(_render(tree), j)
    assert e.shape == shape
    assert np.array_equal(e.mask, expected)


class TestFmt:
    def test_twelve_significant_digits(self):
        assert fmt(0.3764528129191953) == "0.376452812919"

    def test_specials(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        assert fmt(True) == "true"
        assert fmt(np.bool_(False)) == "false"
        assert fmt(np.float64(0.5)) == "0.5"


class TestCommands:
    def test_measure_reference_values(self, ref_path, tmp_path, capsys):
        out = tmp_path / "r.txt"
        status = main(
            [
                "measure", "--input", ref_path, "--alpha", "2",
                "--alpha", "one", "--alpha", "inf", "--output", str(out),
            ]
        )
        assert status == 0
        text = out.read_text()
        assert "cond_sibson_z\t2\t0.376452812919" in text
        assert "cond_sibson_ygz\t2\t0.405465108108" in text
        assert "seed: 0" in text

    def test_bound_worked_example(self, ref_path, tmp_path):
        out = tmp_path / "b.txt"
        status = main(
            [
                "bound", "--input", ref_path, "--thm", "3", "--alpha", "2",
                "--event", "x==y", "--output", str(out),
            ]
        )
        assert status == 0
        text = out.read_text()
        assert "THM3\t2\t0.75\t0.853553390593" in text
        assert text.rstrip().endswith("true")

    def test_bound_thm1_and_leak(self, ref_path, tmp_path):
        out = tmp_path / "b1.txt"
        assert (
            main(
                [
                    "bound", "--input", ref_path, "--thm", "1", "--alpha", "2",
                    "--event", "x==y", "--output", str(out),
                ]
            )
            == 0
        )
        assert "0.866025403784" in out.read_text()
        out2 = tmp_path / "bl.txt"
        assert (
            main(
                [
                    "bound", "--input", ref_path, "--thm", "leak",
                    "--event", "x==y", "--output", str(out2),
                ]
            )
            == 0
        )
        assert "COR_LEAK\tinf\t0.75\t1\t0.25" in out2.read_text()

    def test_simulate(self, ref_path, tmp_path):
        out = tmp_path / "s.txt"
        status = main(
            [
                "simulate", "--input", ref_path, "--n", "3", "--tau", "0.5",
                "--alpha", "2", "--budget", "5000", "--seed", "3",
                "--output", str(out),
            ]
        )
        assert status == 0
        text = out.read_text()
        assert "exact_errors" in text
        assert "theorem6_check" in text
        assert "monte_carlo_errors" in text
        assert "seed: 3" in text

    def test_sdpi(self, ref_path, tmp_path):
        out = tmp_path / "sd.txt"
        status = main(
            [
                "sdpi", "--input", ref_path, "--alpha", "2",
                "--budget", "1000", "--output", str(out),
            ]
        )
        assert status == 0
        text = out.read_text()
        assert "contraction_search.eta_normalized" in text
        assert "sdpi_unconditional_check.lhs" in text

    def test_exponent(self, ref_path, tmp_path):
        out = tmp_path / "e.txt"
        assert main(["exponent", "--input", ref_path, "--output", str(out)]) == 0
        text = out.read_text()
        assert "ep_star\t-" in text
        assert "ep_biconjugate\t0\t0.69314718056" in text
        assert "eq_biconjugate\t0\t0.34657359028" in text

    def test_missing_input_is_error_record(self, capsys):
        assert main(["measure", "--alpha", "2"]) == 2
        err = capsys.readouterr().err
        record = json.loads(err)
        assert record["error"] == "ValidationError"

    def test_nonexistent_file(self, capsys):
        assert main(["measure", "--input", "/no/such/file", "--alpha", "2"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputFormatError"

    def test_bad_event_is_error_record(self, ref_path, capsys):
        status = main(
            ["bound", "--input", ref_path, "--alpha", "2", "--event", "x=="]
        )
        assert status == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "EventSyntaxError"

    def test_invalid_file_rejected(self, tmp_path, capsys):
        doc = base_doc()
        doc["probs"][0] = -1.0
        path = write_doc(tmp_path, doc)
        assert main(["measure", "--input", path, "--alpha", "2"]) == 2

    def test_nan_file_is_error_record(self, tmp_path, capsys):
        doc = base_doc()
        doc["probs"][0] = math.nan
        path = write_doc(tmp_path, doc)
        assert main(["measure", "--input", path, "--alpha", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "InputFormatError"

    def test_bad_alpha_is_error_record(self, ref_path, capsys):
        assert main(["measure", "--input", ref_path, "--alpha", "abc"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ValidationError"
        assert "abc" in record["message"]

    @pytest.mark.parametrize(
        "flag, value", [("--tau", "nan"), ("--grid-step", "0"),
                        ("--grid-step", "nan"), ("--grid-step", "2"),
                        ("--claimed-rate", "nan")]
    )
    def test_bad_simulate_value_is_error_record(self, ref_path, capsys, flag, value):
        args = ["simulate", "--input", ref_path, "--n", "2", "--tau", "0.5",
                "--alpha", "2", flag, value]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ValidationError"

    def test_nan_claim_without_alpha_is_error_record(self, ref_path, capsys):
        args = ["simulate", "--input", ref_path, "--n", "2", "--tau", "0.5",
                "--claimed-rate", "nan"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "ValidationError",
            "message": "the claimed rate must be a number, got nan",
        }

    def test_alpha_one_point_zero_is_order_one(self, ref_path, tmp_path):
        outs = []
        for spelling in ("1.0", "one"):
            out = tmp_path / f"{spelling}.txt"
            args = ["measure", "--input", ref_path, "--alpha", spelling]
            assert main(args + ["--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_measure_prices_an_underflowing_product(tmp_path, capsys):
    # P(x|z)P(y|z) = 1e-600 is 0 in float64 under the cell of mass 1e-300:
    # I(X;Y|Z) is 1e-300 log 1e300 and the sup-order I^Z is log 1e300
    doc = {**base_doc(), "z_labels": ["0"], "probs": [1e-300, 0, 0, 1]}
    path = write_doc(tmp_path, doc)
    assert main(["measure", "--input", path, "--alpha", "one", "--alpha", "inf"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = dict(
        ((op, a), v) for op, a, v in (l.split("\t") for l in out.splitlines() if "\t" in l)
    )
    for op in ("sibson_mi", "cond_sibson_z", "cond_sibson_ygz"):
        assert rows[op, "one"] == fmt(1e-300 * math.log(1e300))
    assert rows["cond_sibson_z", "inf"] == fmt(math.log(1e300))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_scores_an_underflowing_product(tmp_path, capsys):
    # the same cell scores log(1e-300 / 1e-600) = log 1e300, which is
    # finite: the null keeps its mass on its own support
    doc = {**base_doc(), "z_labels": ["0"], "probs": [1e-300, 0, 0, 1]}
    path = write_doc(tmp_path, doc)
    argv = ["simulate", "--input", path, "--n", "2", "--tau", "0.5", "--alpha", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_measure_prices_an_overflowing_ratio(tmp_path):
    # P(x,y|z) / (P(x|z)P(y|z)) = 1e-320 / 1e-640 is past the float range
    # (and its product 0 in float64), but the sup-order I^Z is its log
    doc = {**base_doc(), "z_labels": ["0"], "probs": [1e-320, 0, 0, 1]}
    path = write_doc(tmp_path, doc)
    done = _python("-m", "sibsonmi.cli", "measure", "--input", path, "--alpha", "inf")
    assert done.stderr == b""
    rows = [l.split("\t") for l in done.stdout.decode().splitlines() if "\t" in l]
    assert ["cond_sibson_z", "inf", "736.827240891"] in rows


def test_loaded_joint_is_read_only(tmp_path):
    for path in (write_doc(tmp_path, base_doc()), _fallback_doc(tmp_path)):
        j, _ = load_joint(path)
        assert not j.probs.flags.writeable
        with pytest.raises(ValueError):
            j.probs[0, 0, 0] = 0.5


def test_cli_import_leaves_scipy_out():
    code = (
        "import sys, sibsonmi.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sibsonmi.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


class TestReproducibility:
    @pytest.mark.parametrize(
        "args",
        [
            ["measure", "--alpha", "2", "--alpha", "inf"],
            ["bound", "--thm", "3", "--alpha", "2", "--event", "x==y"],
            ["simulate", "--n", "2", "--tau", "0.5", "--alpha", "2",
             "--budget", "2000"],
            ["sdpi", "--alpha", "2", "--budget", "500"],
            ["exponent"],
        ],
    )
    def test_byte_identical_reports(self, ref_path, tmp_path, args):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--input", ref_path, "--seed", "7", "--output", str(out1)]) == 0
        assert main(args + ["--input", ref_path, "--seed", "7", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_config_equivalent(self, ref_path, tmp_path):
        out = tmp_path / "c.txt"
        from sibsonmi.core import Alpha

        status = run(
            RunConfig(
                command="measure",
                input_path=ref_path,
                alphas=(Alpha(2.0),),
                output=str(out),
            )
        )
        assert status == 0
        assert "cond_sibson_z" in out.read_text()


def test_simulate_prices_exact_errors_once_per_order(ref_path, tmp_path, monkeypatch):
    import sibsonmi.hyptest as hyptest

    calls = []
    fn = hyptest.exact_errors

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(hyptest, "exact_errors", counted)
    base = ["simulate", "--input", ref_path, "--n", "3", "--tau", "0.5"]
    assert main([*base, "--alpha", "2", "--output", str(tmp_path / "a.txt")]) == 0
    assert len(calls) == 1
    assert main([*base, "--output", str(tmp_path / "b.txt")]) == 0
    assert len(calls) == 2
    row = "exact_errors\t\t0.875\t0.125\t0.69314718056\t"
    assert row in (tmp_path / "a.txt").read_text()
    assert row in (tmp_path / "b.txt").read_text()


def test_simulate_order_at_most_one_is_error_record(ref_path, capsys):
    args = ["simulate", "--input", ref_path, "--n", "2", "--tau", "0.5"]
    assert main([*args, "--alpha", "2", "--alpha", "0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "ValidationError"


def test_simulate_claim_far_below_information_is_vacuous(ref_path, tmp_path):
    # exp(((a-1)/a) n (I^Z - R)) leaves the float range: the bound is +inf
    out = tmp_path / "s.txt"
    status = main(["simulate", "--input", ref_path, "--n", "3", "--tau", "0.5",
                   "--alpha", "2", "--claimed-rate", "-2000", "--output", str(out)])
    assert status == 0
    assert "theorem6_check\t2\t0.875\t0.125\t-2000\t0.125\tinf\tfalse" in out.read_text()


def test_simulate_prices_exact_errors_once_for_all_orders(ref_path, tmp_path, monkeypatch):
    import sibsonmi.hyptest as hyptest

    calls = []
    fn = hyptest.exact_errors

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(hyptest, "exact_errors", counted)
    out = tmp_path / "s.txt"
    args = ["simulate", "--input", ref_path, "--n", "3", "--tau", "0.5",
            "--alpha", "2", "--alpha", "4", "--alpha", "inf", "--output", str(out)]
    assert main(args) == 0
    assert len(calls) == 1
    assert out.read_text().count("theorem6_check\t") == 3


def _error_record(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    return json.loads(line)


def test_sdpi_budget_zero_is_error_record(ref_path, capsys):
    assert main(["sdpi", "--input", ref_path, "--budget", "0"]) == 2
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"] == "budget must be at least 1"


@pytest.mark.parametrize("alpha", ["200", "800"])
def test_sdpi_at_overflowing_orders_reports_quietly(ref_path, capsys, alpha):
    # the sampled integrals overflow for some pairs at these orders; those
    # pairs go unscored and the rest still give a positive finite estimate
    assert main(["sdpi", "--input", ref_path, "--alpha", alpha]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line][1:]
    assert [r[0] for r in rows] == [
        "contraction_search.eta_normalized",
        "contraction_search.eta_ratio_lower",
        "sdpi_unconditional_check.lhs",
        "sdpi_unconditional_check.rhs",
    ]
    assert all(r[1] == alpha and r[-1] == "true" for r in rows)
    assert 0.0 < float(rows[1][2]) <= 1.0


def test_sdpi_past_the_search_range_is_error_record(ref_path, capsys):
    # at this order every sampled input integral overflows, so no pair is
    # scored and the estimate is 0
    assert main(["sdpi", "--input", ref_path, "--alpha", "2000"]) == 2
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"].startswith(
        "the contraction estimate at order 2000 is 0.0, not a positive finite"
    )


def test_close_orders_keep_distinct_labels(ref_path, capsys):
    args = ["measure", "--input", ref_path, "--alpha", "1.0000001",
            "--alpha", "1.0000002"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "alpha: 1.0000001,1.0000002\n" in out
    table = out.split("\n\n", 1)[1].splitlines()[1:]
    labels = {line.split("\t")[1] for line in table}
    assert labels == {"1.0000001", "1.0000002"}


def test_simulate_budget_zero_is_error_record(ref_path, capsys):
    args = ["simulate", "--input", ref_path, "--n", "3", "--tau", "0.5",
            "--budget", "0"]
    assert main(args) == 2
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"] == "trials must be at least 1"


@pytest.mark.parametrize(
    "event", ["not " * 1200 + "x==y", "(" * 400 + "x==y" + ")" * 400]
)
def test_over_nested_event_is_error_record(ref_path, capsys, event):
    assert main(["bound", "--input", ref_path, "--alpha", "2", "--event", event]) == 2
    record = _error_record(capsys)
    assert record["error"] == "EventSyntaxError"
    assert "nested too deeply" in record["message"]


@pytest.mark.parametrize(
    "raw, message",
    [
        (json.dumps(base_doc()).replace('"0"', '"\u00e9"', 1).encode("latin-1"),
         "byte 0xe9 at byte position 15"),
        (json.dumps(base_doc()).replace("0.0", str(10**400), 1).encode(),
         "integer entry at flat index 2 is out of the float range"),
        (json.dumps(base_doc()).replace("0.0", str(-(10**400)), 1).encode(),
         "integer entry at flat index 2 is out of the float range"),
    ],
)
def test_unreadable_input_is_error_record(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["measure", "--input", str(path), "--alpha", "2"]) == 2
    record = _error_record(capsys)
    assert record["error"] == "InputFormatError"
    assert record["message"].endswith(message)


def test_negative_entry_record_prints_python_numbers(tmp_path, capsys):
    doc = base_doc()
    doc["probs"][1] = -0.1
    path = write_doc(tmp_path, doc)
    assert main(["measure", "--input", path, "--alpha", "2"]) == 2
    assert _error_record(capsys) == {
        "error": "InputFormatError",
        "message": f"{path}: negative entry -0.1 at flat index 1 violates "
        "nonnegativity",
    }


@pytest.mark.parametrize(
    "args",
    [
        ["sdpi", "--budget", "1000000000000"],
        ["simulate", "--n", "3", "--tau", "0.5", "--budget", "1000000000000"],
    ],
)
def test_sampling_past_cell_cap_is_error_record(ref_path, capsys, args):
    assert main([*args, "--input", ref_path]) == 2
    assert _error_record(capsys)["error"] == "ResourceLimitError"


@pytest.mark.parametrize(
    "args",
    [
        ["sdpi", "--budget", "10"],
        ["selftest"],
        ["simulate", "--n", "3", "--tau", "0.5", "--budget", "10"],
    ],
)
def test_negative_seed_is_error_record(ref_path, capsys, args):
    assert main([*args, "--input", ref_path, "--seed", "-1"]) == 2
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"] == "--seed must be nonnegative, got -1"


@pytest.mark.parametrize("command", ["measure", "bound", "sdpi", "simulate", "exponent"])
def test_run_without_input_raises_before_anything_runs(command, monkeypatch, capsys):
    # a library caller of run gets the CLI's ValidationError, not a traceback
    # from the command, and nothing is loaded or written
    monkeypatch.setattr(cli, "load_joint", None)
    with pytest.raises(ValidationError, match="^--input is required$"):
        run(RunConfig(command, alphas=(Alpha(2.0),), event="x==y", n=1, tau=0.5))
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "args, message",
    [
        (["bound", "--thm", "5"], "argument --thm: invalid choice: '5'"),
        # argparse takes -inf for an option, not a value (--tau=-inf reads it)
        (["simulate", "--n", "3", "--tau", "-inf"],
         "argument --tau: expected one argument"),
        (["measure", "--alpha", "2", "--bogus"], "unrecognized arguments: --bogus"),
        (["measure", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_error_is_one_error_record(ref_path, capsys, args, message):
    assert main([*args, "--input", ref_path]) == 2
    record = _error_record(capsys)
    assert set(record) == {"error", "message"}
    assert record["error"] == "ValidationError"
    assert record["message"].startswith(message)


@pytest.mark.parametrize(
    "args, error, message",
    [
        (["bound", "--alpha", "2"], "ValidationError", "the bound command needs --event"),
        (["bound", "--thm", "3", "--event", "x==y"], "ValidationError",
         "the bound command needs --alpha"),
        (["simulate", "--tau", "0.5"], "ValidationError",
         "the simulate command needs --n and --tau"),
        (["simulate", "--n", "3"], "ValidationError",
         "the simulate command needs --n and --tau"),
        (["bound", "--alpha", "2", "--event", "(x==y x==y"], "EventSyntaxError",
         "missing closing parenthesis"),
        (["bound", "--alpha", "2", "--event", "x y"], "EventSyntaxError",
         "expected == or != after a term, got 'y'"),
    ],
    ids=["no_event", "no_alpha", "no_n", "no_tau", "open_paren", "no_operator"],
)
def test_command_without_its_values_is_error_record(ref_path, capsys, args, error, message):
    assert main([*args, "--input", ref_path]) == 2
    assert _error_record(capsys) == {"error": error, "message": message}


def test_sdpi_names_an_unreachable_x_symbol(tmp_path, capsys):
    # the library's reachable-rows gate is the command's only one
    doc = dict(base_doc(), x_labels=["a", "b"], probs=[0.25] * 4 + [0.0] * 4)
    assert main(["sdpi", "--input", write_doc(tmp_path, doc)]) == 2
    assert _error_record(capsys) == {
        "error": "ValidationError",
        "message": "contraction search needs fully reachable rows, "
                   "got unreachable input symbols ['b']",
    }


@pytest.mark.parametrize(
    "args, message",
    [
        (["--alpha", "abc"], "--input is required"),
        (["--alpha", "abc", "--input", "/no/such/file", "--seed", "-1"],
         "--seed must be nonnegative, got -1"),
        (["--alpha", "abc", "--input", "/no/such/file"],
         "order must be a number, 'one' or 'inf', got 'abc'"),
    ],
)
def test_errors_come_request_then_order_then_load(capsys, args, message):
    assert main(["measure", *args]) == 2
    assert _error_record(capsys) == {"error": "ValidationError", "message": message}


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: sibsonmi") and err == ""
