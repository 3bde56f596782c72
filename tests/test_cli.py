import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sibsonmi.cli import (
    RunConfig,
    fmt,
    load_joint,
    main,
    parse_event,
    run,
    save_joint,
)
import sibsonmi
from sibsonmi.core import Joint3
from sibsonmi.errors import EventSyntaxError, InputFormatError, SibsonmiError
from sibsonmi.instances import reference_joint


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
        j = load_joint(ref_path)
        assert np.allclose(j.probs, reference_joint().probs)
        assert j.x_labels == ("0", "1")

    def test_well_formed(self, tmp_path):
        j = load_joint(write_doc(tmp_path, base_doc()))
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
        j = load_joint(write_doc(tmp_path, doc))
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
            j = load_joint(path)
        except SibsonmiError:
            return
    assert isinstance(j, Joint3)


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

    def test_alpha_one_point_zero_is_order_one(self, ref_path, tmp_path):
        outs = []
        for spelling in ("1.0", "one"):
            out = tmp_path / f"{spelling}.txt"
            args = ["measure", "--input", ref_path, "--alpha", spelling]
            assert main(args + ["--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


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
    import sibsonmi.cli as cli
    import sibsonmi.hyptest as hyptest

    calls = []
    fn = hyptest.exact_errors

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_errors", counted)
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
    import sibsonmi.cli as cli
    import sibsonmi.hyptest as hyptest

    calls = []
    fn = hyptest.exact_errors

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_errors", counted)
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
