"""Command line interface: spec files, subcommands, exit codes, determinism.

Exit code contract: 0 success/affirmative, 1 bad input, 2 negative verdict,
3 numerical trouble, 4 conjecture counterexample candidates.
"""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hvl import (
    CrossCheck,
    HarmonicMapSpec,
    IndeterminateProbeError,
    ParameterError,
    PolySeries,
    RationalDeriv,
    ResolutionError,
    SpecFileError,
    cross_check,
    presets,
    trace_circle,
    winding_number,
)
from hvl import cli, criterion, fncore, geometry, render, valence
from hvl.cli import (
    MAX_ORACLE_PROBES,
    MAX_TRIALS,
    SweepConfig,
    build_parser,
    load_input,
    main,
    parse_spec_doc,
    run_sweep,
    spec_to_doc,
)
from hvl.fncore import MAX_COEFFS, MAX_ORDER
from hvl.valence import MAX_PROBES

import oracles


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


POLY_DOC = {"schema_version": "1", "kind": "poly", "p": 2, "m": 4,
            "coeffs": [[1.0, 0.0]]}
RATIONAL_POLE_DOC = {"kind": "rational_hprime", "p": 1, "m": 2,
                     "numer": [[1.0, 0.0]], "denom": [[1.0, 0.0], [-2.0, 0.0]]}
# coefficients at the float limit: the series' n a_n overflow, so the spec is
# refused; the rational h' is accepted, but is not finite on or inside the circle
OVERFLOWING_DOCS = {
    "poly": {"kind": "poly", "p": 1, "m": 2, "coeffs": [[1, 0], [1e308, 0], [1e308, 1e308]]},
    "rational": {"kind": "rational_hprime", "p": 1, "m": 2,
                 "numer": [[1e308, 0], [1e308, 1e308], [1e308, 0]],
                 "denom": [[1, 0], [0.5, 0]]},
}


# ---------------------------------------------------------------------------
# Spec documents


def test_spec_doc_roundtrip():
    spec = presets.example2()
    doc = spec_to_doc(spec)
    back = parse_spec_doc(doc)
    assert back.h == spec.h
    assert back.m == spec.m
    assert back.g_coeffs == spec.g_coeffs
    rat = presets.octagon()
    back2 = parse_spec_doc(spec_to_doc(rat))
    assert back2.h == rat.h and back2.m == rat.m


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
_FINITE = st.integers(-3, 3) | st.floats(-2, 2)
_NUMBER = _FINITE | st.floats() | st.sampled_from([10 ** 400, True])
_PAIR = st.tuples(_FINITE, _FINITE).map(list) | st.lists(_NUMBER, max_size=3)
_PAIRS = st.lists(_PAIR, min_size=1, max_size=4).map(lambda rest: [[1, 0]] + rest) \
    | st.lists(_PAIR, max_size=4)
_ORDER = st.integers(-2, 6) | st.sampled_from([MAX_ORDER, MAX_ORDER + 1, 10 ** 400])
# plausible, edge and arbitrary values for every field of every kind
_FIELD_VALUES = {
    "schema_version": st.sampled_from(["1", "2", 1]),
    "kind": st.sampled_from(sorted(cli._FIELDS)) | _JSON,
    "p": _ORDER | _JSON,
    "m": _ORDER | _JSON,
    "coeffs": _PAIRS | _JSON,
    "numer": _PAIRS | _JSON,
    "denom": _PAIRS | _JSON,
    "name": st.sampled_from(sorted(cli.PRESETS)) | _JSON,
    "params": st.dictionaries(st.sampled_from(["p", "m", "c", "q"]),
                              _ORDER | _NUMBER | _PAIR | _JSON, max_size=3) | _JSON,
    "extra": _JSON,
}
_DOCS = st.one_of(
    [st.fixed_dictionaries(
        {"kind": st.just(kind),
         **{key: _FIELD_VALUES[key] for key in sorted(keys - {"kind", "schema_version"})}},
        optional={"schema_version": _FIELD_VALUES["schema_version"]})
     for kind, keys in sorted(cli._FIELDS.items())]
    + [st.fixed_dictionaries({}, optional=_FIELD_VALUES), _JSON])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=_DOCS)
def test_parse_spec_doc_returns_a_map_or_refuses(doc):
    try:
        spec = parse_spec_doc(doc)
    except (SpecFileError, ParameterError):
        return
    assert isinstance(spec, HarmonicMapSpec)


_COMPLEX = st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)
_NONZERO = _COMPLEX.filter(lambda c: c != 0)


@st.composite
def _maps(draw):
    p, m = draw(st.integers(1, MAX_ORDER)), draw(st.integers(2, MAX_ORDER))
    if draw(st.booleans()):
        h = PolySeries(p, [1 + 0j] + draw(st.lists(_COMPLEX, max_size=5)))
    else:
        numer = [0j] * (p - 1) + [draw(_NONZERO)] + draw(st.lists(_COMPLEX, max_size=3))
        h = RationalDeriv(p, numer, [draw(_NONZERO)] + draw(st.lists(_COMPLEX, max_size=4)))
    return HarmonicMapSpec(h, m)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spec=_maps())
def test_spec_doc_roundtrips_every_map(spec):
    """A map written as a spec file and read back is the same map."""
    assert parse_spec_doc(json.loads(json.dumps(spec_to_doc(spec)))) == spec


def test_spec_doc_strictness():
    with pytest.raises(SpecFileError, match="kind"):
        parse_spec_doc({"p": 1})
    with pytest.raises(SpecFileError, match="JSON object"):
        parse_spec_doc([1, 2])
    with pytest.raises(SpecFileError, match="schema_version"):
        parse_spec_doc({**POLY_DOC, "schema_version": "2"})
    with pytest.raises(SpecFileError, match="unexpected field 'extra'"):
        parse_spec_doc({**POLY_DOC, "extra": 1})
    with pytest.raises(SpecFileError, match="malformed"):
        parse_spec_doc({"kind": "preset", "name": "example2", "params": {"c": ["a", "b"]}})
    # ints must be real ints (bool is not an int here)
    with pytest.raises(SpecFileError):
        parse_spec_doc({**POLY_DOC, "p": True})
    with pytest.raises(SpecFileError):
        parse_spec_doc({**POLY_DOC, "coeffs": [[1.0]]})
    # an integer literal too large for a float names its field and entry
    with pytest.raises(SpecFileError, match="'coeffs' entry 1 is too large"):
        parse_spec_doc({**POLY_DOC, "coeffs": [[1.0, 0.0], [10 ** 400, 0]]})
    with pytest.raises(SpecFileError, match="'denom' entry 0 is too large"):
        parse_spec_doc({**RATIONAL_POLE_DOC, "denom": [[1, -10 ** 400]]})


def test_spec_doc_presets():
    doc = {"kind": "preset", "name": "example2",
           "params": {"p": 3, "m": 2, "c": [0.0, 1.0]}}
    spec = parse_spec_doc(doc)
    assert spec.p == 3 and spec.m == 2
    with pytest.raises(SpecFileError, match="unknown preset"):
        parse_spec_doc({"kind": "preset", "name": "nope"})
    with pytest.raises(SpecFileError, match="does not take"):
        parse_spec_doc({"kind": "preset", "name": "star", "params": {"c": [1, 0]}})
    with pytest.raises(SpecFileError, match="malformed"):
        parse_spec_doc({"kind": "preset", "name": "example2", "params": {"c": 1.0}})
    with pytest.raises(SpecFileError, match="malformed"):
        parse_spec_doc({"kind": "preset", "name": "example2", "params": {"p": "3"}})
    with pytest.raises(SpecFileError, match="unknown preset"):
        parse_spec_doc({"kind": "preset", "name": ["example2"]})


def test_load_input_preset_strings():
    spec = load_input("preset:example1,p=2,m=4")
    assert spec.p == 2 and spec.m == 4
    # both input forms of c build the same map
    want = presets.example2(c=0.1 + 0.2j)
    assert load_input("preset:example2,c=0.1+0.2j") == want
    assert parse_spec_doc({"kind": "preset", "name": "example2",
                           "params": {"c": [0.1, 0.2]}}) == want
    with pytest.raises(SpecFileError, match="malformed"):
        load_input("preset:example2,c=abc")
    with pytest.raises(SpecFileError):
        load_input("preset:unknown")
    with pytest.raises(SpecFileError):
        load_input("preset:example1,p")
    with pytest.raises(SpecFileError):
        load_input("preset:example1,q=3")


@pytest.mark.parametrize("arg", ["preset:example1,p=1_0", "preset:example1,p=\u0663",
                                 "preset:example1,p= 3 "])
def test_preset_integers_are_ascii_digits(arg):
    """A preset integer is [+-]?[0-9]+, as strict as a spec file's JSON
    integer: no digit separators, other scripts' digits or spaces."""
    with pytest.raises(SpecFileError, match="malformed"):
        load_input(arg)


def test_preset_signed_integers_and_repeated_keys():
    assert load_input("preset:example1,p=+3,m=04") == presets.example1(p=3, m=4)
    with pytest.raises(ParameterError, match="p must be"):
        load_input("preset:example1,p=-3")
    for arg in ("preset:example1,p=3,p=4", "preset:example2,c=1j,m=2,c=0.5"):
        with pytest.raises(SpecFileError, match="more than once"):
            load_input(arg)


def test_load_input_file_errors(tmp_path):
    with pytest.raises(SpecFileError, match="cannot read"):
        load_input(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError, match="not valid JSON"):
        load_input(str(bad))


# ---------------------------------------------------------------------------
# Subcommands through main()


def test_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["verify"])  # missing --input
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["verify", "--input", "preset:example1", "--tol", "1e-3"])  # no such flag
    assert info.value.code == 1
    capsys.readouterr()
    # spec files json cannot decode: an integer literal of over 4300 digits
    # (a plain ValueError from json.load) and bytes that are not UTF-8
    digits = tmp_path / "digits.json"
    digits.write_text('{"kind": "poly", "p": 1, "m": 2, "coeffs": [[1, 0], [%s, 0]]}' % ("1" * 5000))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kind": "poly", "p": \xe9}')
    for path in (digits, latin):
        assert main(["verify", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse spec file: ") and err.count("\n") == 1
    # fewer than one oracle probe: once 0 meant 20 and -3 passed on no probes
    for count in ("0", "-3"):
        assert main(["oracle", "--input", "preset:example1", "--samples", count]) == 1
        err = capsys.readouterr().err
        assert err == ("error: oracle probes (--samples) must be an integer "
                       f"from 1 to {MAX_ORACLE_PROBES}\n")
    # once 0 meant the default 4096 trace samples
    assert main(["valence", "--input", "preset:example1", "--samples", "0"]) == 1
    assert capsys.readouterr().err == (
        f"error: trace samples must be an integer from 256 to {geometry.MAX_SAMPLES}\n")
    # a NaN margin requirement once left the acceptance region empty (exit 3)
    assert main(["conjecture", "--margin-requirement", "nan", "--trials", "1"]) == 1
    assert "margin_requirement" in capsys.readouterr().err


def test_verify_affirmative(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--input", "preset:example1", "--report", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    assert doc["command"] == "verify"
    assert doc["criterion_satisfied"] is True
    assert doc["total_roots"] == 7
    assert len(doc["roots"]) == 7


def test_verify_negative_exit_2(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--input", "preset:star", "--report", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["criterion_satisfied"] is False
    assert "blows up" in doc["failure_reason"]


def test_verify_rejects_bad_grid(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started")

    # a grid above the limit is refused before any sample is taken
    for name in ("eval_h_prime_many", "eval_h_second_many", "eval_normalized_deriv_many"):
        monkeypatch.setattr(criterion, name, no_work)
    for samples in ("1000", "3000", str(2 ** 40)):
        code = main(["verify", "--input", "preset:example1", "--samples", samples])
        assert code == 1
    assert str(criterion.MAX_GRID) in capsys.readouterr().err


def test_sample_and_probe_counts_above_their_limits_exit_1(monkeypatch, capsys):
    """``trace``, ``render`` and ``valence`` refuse more than
    ``geometry.MAX_SAMPLES`` samples and ``oracle`` more than
    ``MAX_ORACLE_PROBES`` probes, each with one line naming its limit,
    before any sample is taken or probe placed."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a refused count")

    monkeypatch.setattr(geometry, "_clamped_primitive", no_work)  # every trace
    monkeypatch.setattr(render, "_curve_samples", no_work)
    monkeypatch.setattr(cli, "winding_numbers", no_work)
    for limit, argvs in ((geometry.MAX_SAMPLES, (["trace", "--points"], ["render", "--samples"],
                                                 ["valence", "--samples"])),
                         (MAX_ORACLE_PROBES, (["oracle", "--samples"],))):
        for argv in argvs:
            for count in (limit + 1, 2 ** 40):
                assert main([argv[0], "--input", "preset:example1", argv[1], str(count)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1
                assert err.endswith(f" to {limit}\n")


def test_orders_above_their_limit_exit_1(monkeypatch, capsys):
    """p, m and ``--max-degree`` above ``MAX_ORDER`` end in exit 1 with one
    line naming the limit, before a flat-sided denominator is built, the
    criterion runs or a sweep draws."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a refused order")

    monkeypatch.setattr(presets, "RationalDeriv", no_work)
    monkeypatch.setattr(cli, "check_criterion", no_work)
    monkeypatch.setattr(cli, "run_sweep", no_work)
    for order in (MAX_ORDER + 1, 10 ** 400):
        argvs = [["verify", "--input", f"preset:{name},{key}={order}"]
                 for name in ("example1", "example2", "star", "octagon") for key in ("p", "m")]
        argvs += [["conjecture", "--trials", "1", *flags]
                  for flags in (["--p", str(order), "--max-degree", str(order)],
                                ["--m", str(order)], ["--max-degree", str(order)])]
        for argv in argvs:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"to {MAX_ORDER}" in err


def test_spec_file_coefficients_above_their_limit_exit_1(tmp_path, monkeypatch, capsys):
    """A spec file whose ``coeffs``, ``numer`` or ``denom`` holds more than
    ``MAX_COEFFS`` entries ends in exit 1 with one line naming the limit,
    before any root is found; ``star`` at p = m = ``MAX_ORDER`` (a
    denominator of exactly ``MAX_COEFFS`` entries) still builds."""
    monkeypatch.setattr(fncore, "_roots", lambda c: pytest.fail("roots of a refused spec"))
    over = [[1.0, 0.0]] + [[0.5, 0.0]] * MAX_COEFFS
    docs = [{**POLY_DOC, "coeffs": over},
            {**RATIONAL_POLE_DOC, "numer": over},
            {**RATIONAL_POLE_DOC, "denom": over}]
    for i, doc in enumerate(docs):
        assert main(["verify", "--input", write_spec(tmp_path, doc, f"spec{i}.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at most {MAX_COEFFS} entries" in err
    assert len(presets.star(MAX_ORDER, MAX_ORDER).h.denom) == MAX_COEFFS
    assert len(PolySeries(1, [1.0] + [0.5] * (MAX_COEFFS - 1)).coeffs) == MAX_COEFFS


def test_products_that_overflow_end_in_one_error_line(tmp_path, capsys):
    """A map whose image reaches about 1e300 makes the winding and Newton
    products overflow: ``valence`` ends in the scan-quality error and
    ``oracle`` in the Newton-overflow error, each exit 3 with one line and
    no numpy warning (the suite turns every RuntimeWarning into an error),
    so no overflowed product becomes a count."""
    doc = {"kind": "poly", "p": 3, "m": 2, "coeffs": [[1, 0], [1e300, 0], [1e300, -1e300]]}
    path = write_spec(tmp_path, doc)
    for cmd, message in (("valence", "probes were indeterminate"),
                         ("oracle", "the Newton step overflows")):
        assert main([cmd, "--input", path, "--report", str(tmp_path / f"{cmd}.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
        assert not (tmp_path / f"{cmd}.json").exists()
    # a turn whose product overflows is NaN, not an angle
    assert np.isnan(valence._turn(np.array([1e200 + 1e200j]), np.array([1e200 - 1e200j]))).all()


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    """One parser serves every ``main`` call of a process: reports after a
    usage error and after other subcommands equal those of a first call."""
    def report(argv, name, fresh):
        if fresh:
            monkeypatch.setattr(cli, "_PARSER", None)
        path = tmp_path / name
        code = main(argv + ["--report", str(path)])
        return code, path.read_bytes()

    runs = [
        (["verify", "--input", "preset:example2"], "a.json"),
        (["verify", "--input", "preset:example1", "--samples", "2048"], "b.json"),
        (["conjecture", "--trials", "3", "--grid", "8x8", "--seed", "28"], "c.json"),
    ]
    first = [report(argv, "first-" + name, fresh=True) for argv, name in runs]
    built = []
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    assert report(*runs[0], fresh=False) == first[0]
    for bad in (["verify", "--samples", "4096"],
                ["verify", "--input", "preset:example1", "--samples", "many"]):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 1
    assert [report(argv, name, fresh=False) for argv, name in runs[1:]] == first[1:]
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()
    assert built == [1]


def test_verify_spec_file(tmp_path):
    path = write_spec(tmp_path, POLY_DOC)
    out = tmp_path / "r.json"
    assert main(["verify", "--input", path, "--report", str(out)]) == 0


def test_verify_rejects_denormalized_spec(tmp_path, capsys):
    doc = {**POLY_DOC, "coeffs": [[2.0, 0.0]]}
    code = main(["verify", "--input", write_spec(tmp_path, doc)])
    assert code == 1
    assert "normalization violated" in capsys.readouterr().err


def test_verify_rejects_inadmissible_preset_param(capsys):
    code = main(["verify", "--input", "preset:example2,c=3"])
    assert code == 1
    assert "admissible bound" in capsys.readouterr().err
    # NaN slips past |c| <= bound; the series refuses it instead
    for c, message in (("nan", "must be finite"), ("inf", "admissible bound"),
                       ("nanj", "must be finite")):
        code = main(["verify", "--input", f"preset:example2,c={c}"])
        err = capsys.readouterr().err
        assert code == 1, c
        assert message in err and err.count("\n") == 1, err


def test_verify_non_finite_boundary_exit_2(tmp_path):
    """Finite coefficients whose H overflows on the circle fail the
    boundary hypothesis: a report and exit 2, not a traceback, and no
    floating-point warning on the way.  (A series h with such coefficients
    is refused; a rational h' is not.)"""
    doc = OVERFLOWING_DOCS["rational"]
    out = tmp_path / "report.json"
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        code = main(["verify", "--input", write_spec(tmp_path, doc), "--report", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["failure_reason"] == "normalized derivative is not finite on the boundary"
    assert report["criterion_satisfied"] is False


@pytest.mark.parametrize("kind, command, want", [
    *[("poly", command, 1) for command in ("verify", "trace", "render", "valence", "oracle")],
    ("rational", "verify", 2), ("rational", "trace", 3), ("rational", "render", 1),
    ("rational", "valence", 3), ("rational", "oracle", 3),
])
def test_overflowing_coefficients_end_with_one_line(tmp_path, capsys, kind, command, want):
    """Coefficients at the float limit end with a documented exit code and
    one ``error:`` line, not a traceback or a floating-point warning; the
    criterion instead answers "no" (exit 2) with its reason in the report."""
    out = tmp_path / "out"
    argv = [command, "--input", write_spec(tmp_path, OVERFLOWING_DOCS[kind]), "--out", str(out)]
    assert main(argv) == want
    err = capsys.readouterr().err
    if want == 2:
        assert err == ""
        assert json.loads(out.read_text())["failure_reason"] is not None
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_trace_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["trace", "--input", "preset:example1", "--points", "512",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,re_f,im_f,clamped"
    assert len(lines) == 513
    t0, re0, im0, cl0 = lines[1].split(",")
    assert float(t0) == pytest.approx(-math.pi)
    # f(e^{-i pi}) = e^{-2 pi i} + 0.4 e^{5 pi i} = 1 - 0.4
    assert float(re0) == pytest.approx(0.6, abs=1e-12)
    assert cl0 == "0"
    # without --out the CSV goes to stdout
    assert main(["trace", "--input", "preset:example1", "--points", "256"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("t,re_f,im_f,clamped")


def test_trace_bytes_are_pinned(tmp_path):
    """``trace`` writes the bytes recorded in tests/data/trace_sha256.json:
    the four presets at 4,096 and at 65,536 samples (several formatting
    blocks), and star at r = 0.9999."""
    path = pathlib.Path(__file__).parent / "data" / "trace_sha256.json"
    pinned = json.loads(path.read_text())["sha256"]
    cases = {f"{name}@{n}": ["--input", f"preset:{name}", "--points", str(n)]
             for name in ("example1", "example2", "star", "octagon") for n in (4096, 65536)}
    cases["star@r0.9999,8192"] = ["--input", "preset:star", "--radius", "0.9999", "--points", "8192"]
    got = {}
    for key, argv in cases.items():
        out = tmp_path / "trace.csv"
        assert main(["trace", *argv, "--out", str(out)]) == 0
        got[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == pinned


def _seeded_spec_docs():
    """Eight seeded ``poly`` spec files and eight seeded ``rational_hprime``
    ones whose poles lie at modulus 1.05-1.5, keyed by name."""
    pairs = lambda cs: [[float(c.real), float(c.imag)] for c in cs]  # noqa: E731
    docs = {}
    for seed in range(8):
        rng = np.random.default_rng(seed)
        p, m, d = int(rng.integers(1, 6)), int(rng.integers(2, 5)), int(rng.integers(1, 5))
        scale = rng.uniform(0.05, 0.6)
        coeffs = [1 + 0j] + list(scale * (rng.normal(size=d) + 1j * rng.normal(size=d)))
        docs[f"poly{seed}"] = {"schema_version": "1", "kind": "poly", "p": p, "m": m,
                               "coeffs": pairs(coeffs)}
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        p, m, n = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
        poles = rng.uniform(1.05, 1.5, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
        denom = np.polynomial.polynomial.polyfromroots(poles)
        numer = [0j] * (p - 1) + [complex(p), complex(rng.normal(scale=0.3), rng.normal(scale=0.3))]
        docs[f"rational{seed}"] = {"schema_version": "1", "kind": "rational_hprime", "p": p,
                                   "m": m, "numer": pairs(numer), "denom": pairs(denom / denom[0])}
    return docs


def test_verify_bytes_are_pinned(tmp_path):
    """``verify --report`` writes the bytes recorded in
    tests/data/verify_sha256.json: the four presets, example1 at large p,
    example2 at two values of c, sixteen seeded spec files, and
    h = z**2 + 0.5 z**3 with m = 3 (a triple contact of F at t = pi) with
    that coefficient as given and moved by -2**-20 and +2**-20."""
    path = pathlib.Path(__file__).parent / "data" / "verify_sha256.json"
    pinned = json.loads(path.read_text())["sha256"]
    cases = {name: f"preset:{name}" for name in ("example1", "example2", "star", "octagon")}
    cases.update({f"example1@p{p},m{m}": f"preset:example1,p={p},m={m}"
                  for p in (50, 250, 800) for m in (2, 3)})
    cases["example2@c0.5+0.5j"] = "preset:example2,c=0.5+0.5j"
    cases["example2@p100,c-20+30j"] = "preset:example2,p=100,c=-20+30j"
    docs = _seeded_spec_docs()
    for shift in (0.0, -2.0 ** -20, 2.0 ** -20):
        docs[f"triple{shift:+.3g}"] = {"schema_version": "1", "kind": "poly", "p": 2, "m": 3,
                                       "coeffs": [[1, 0], [0.5 + shift, 0]]}
    for name, doc in docs.items():
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(doc))
        cases[name] = str(spec)
    got = {}
    for key, source in cases.items():
        out = tmp_path / "report.json"
        assert main(["verify", "--input", source, "--report", str(out)]) in (0, 2)
        got[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == pinned


def test_report_bytes_are_pinned(tmp_path):
    """``valence``, ``oracle`` and ``conjecture`` write the bytes recorded in
    tests/data/report_sha256.json: valence on the four presets, oracle on
    example1, example2 and star at seeds 42 and 7, and conjecture at its
    defaults and at p = 2, m = 3, max degree 5."""
    path = pathlib.Path(__file__).parent / "data" / "report_sha256.json"
    pinned = json.loads(path.read_text())["sha256"]
    cases = {f"valence:{name}": ["valence", "--input", f"preset:{name}"]
             for name in ("example1", "example2", "star", "octagon")}
    for name in ("example1", "example2", "star"):
        for seed in (42, 7):
            cases[f"oracle:{name}@seed{seed}"] = ["oracle", "--input", f"preset:{name}",
                                                  "--seed", str(seed)]
    cases["conjecture"] = ["conjecture"]
    cases["conjecture@p2,m3,max-degree5"] = ["conjecture", "--p", "2", "--m", "3",
                                             "--max-degree", "5"]
    got = {}
    for key, argv in cases.items():
        out = tmp_path / "report.json"
        assert main([*argv, "--report", str(out)]) == 0
        got[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == pinned


def test_trace_of_a_partly_non_finite_image(tmp_path, monkeypatch):
    """Rows with NaN, inf and |f| = 1e300 among finite ones: the CSV is the
    row oracle's; their block takes the % template, the next block does not."""
    n = 2 * geometry._CSV_BLOCK
    real = trace_circle(presets.example2(), 1.0, n)
    points = real.points.copy()
    points[[3, 40, 41, 500]] = [complex(math.nan, 0.5), complex(math.inf, -math.inf),
                                complex(-1e300, 2.0), complex(0.25, 1e300)]
    odd = geometry.CurveTrace(map=real.map, radius=1.0, t=real.t, points=points,
                              clamped=np.arange(n) % 3 == 0)
    monkeypatch.setattr(cli, "trace_circle", lambda *args: odd)
    calls = []
    percent_rows = geometry._percent_rows
    monkeypatch.setattr(geometry, "_percent_rows", lambda cols: calls.append(1) or percent_rows(cols))
    out = tmp_path / "trace.csv"
    assert main(["trace", "--input", "preset:example2", "--points", str(n), "--out", str(out)]) == 0
    assert calls == [1]
    assert oracles.first_difference(
        out.read_text(), oracles.trace_csv_ref(odd.t, odd.points, odd.clamped)) is None


def test_import_of_the_cli_loads_neither_fractions_nor_decimal():
    """Importing ``hvl.cli`` is part of every run's start-up; ``fractions``
    alone costs about 2 ms of it, and the trace formatter needs neither."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hvl.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[]\n"


def test_trace_bad_radius_exit_1():
    assert main(["trace", "--input", "preset:example1", "--radius", "1.5"]) == 1


def test_trace_through_interior_pole_exit_3(tmp_path, capsys):
    path = write_spec(tmp_path, RATIONAL_POLE_DOC)
    code = main(["trace", "--input", path, "--radius", "0.7", "--points", "256"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_render_svg(tmp_path):
    out = tmp_path / "scene.svg"
    code = main(["render", "--input", "preset:example1", "--samples", "512",
                 "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 7  # certified cusps are marked
    assert main(["render", "--input", "preset:example1", "--samples", "100"]) == 1


def test_valence_consistent(tmp_path):
    out = tmp_path / "valence.json"
    code = main(["valence", "--input", "preset:example2", "--grid", "24x24",
                 "--samples", "2048", "--report", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "valence"
    assert doc["max_valence"] == 3
    assert doc["consistent_with_p"] is True


def test_valence_excess_exit_2(tmp_path):
    doc = {"kind": "poly", "p": 1, "m": 2, "coeffs": [[1.0, 0.0], [0.9, 0.0]]}
    out = tmp_path / "valence.json"
    code = main(["valence", "--input", write_spec(tmp_path, doc),
                 "--grid", "24x24", "--samples", "2048", "--report", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["max_valence"] > report["p"]


def test_valence_bad_grid_exit_1(capsys):
    assert main(["valence", "--input", "preset:example1", "--grid", "64"]) == 1
    # 10^10 probes end in exit 1 naming the limit, not in a MemoryError
    for argv in (["valence", "--input", "preset:example1", "--grid", "100000x100000"],
                 ["conjecture", "--trials", "1", "--grid", "1025x1024"]):
        assert main(argv) == 1
        assert str(MAX_PROBES) in capsys.readouterr().err


def test_oracle_agrees(tmp_path):
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--input", "preset:example1", "--samples", "6",
                 "--seed", "5", "--report", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n_probes"] == 6
    assert doc["n_disagree"] == 0
    assert doc["n_agree"] + doc["n_indeterminate_multiplicity"] == 6
    assert len(doc["probes"]) == 6
    row = doc["probes"][0]
    assert set(row) == {"w", "verdict", "winding", "preimages_inside",
                        "min_jacobian"}


@pytest.mark.parametrize("name", ["example2", "octagon"])
def test_oracle_rows_match_per_probe_cross_check(tmp_path, name):
    """The CLI solves all probes in one batch; every row must be what the
    public one-probe ``cross_check`` says at its w."""
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--input", f"preset:{name}", "--samples", "8",
                 "--seed", "3", "--report", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    spec = getattr(presets, name)()
    trace = trace_circle(spec, 0.999, 4096)
    assert len(doc["probes"]) == 8
    for row in doc["probes"]:
        verdict, details = cross_check(spec, complex(*row["w"]), r=0.999, trace=trace)
        assert row["verdict"] == verdict.value
        assert row["winding"] == details["winding"]
        assert row["preimages_inside"] == details["preimages_inside"]
        assert row["min_jacobian"] == details["min_jacobian"]


def _scalar_draw_windings(spec, n, seed, r=0.999):
    """The oracle's probe placement one attempt at a time: one scalar draw
    of x, then of y, and one ``winding_number`` call per attempt, at most
    50 n attempts.  Returns the windings placed and the attempts made."""
    trace = trace_circle(spec, r, 4096)
    x_lo, x_hi, y_lo, y_hi = valence.probe_box(trace.points)
    rng = np.random.default_rng(seed)
    windings, attempts = [], 0
    while len(windings) < n and attempts < 50 * n:
        attempts += 1
        w = complex(rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))
        try:
            windings.append(winding_number(trace, w))
        except (IndeterminateProbeError, ResolutionError):
            pass
    return windings, attempts


def _winding_echo(map_spec, windings, r):
    """A stand-in for Newton: each row echoes its ``WindingResult``."""
    return [(CrossCheck.AGREE, {"winding": wres.winding, "preimages_inside": wres.winding,
                                "min_jacobian": wres.min_curve_distance})
            for wres in windings]


def test_oracle_probes_match_scalar_draws(tmp_path, monkeypatch):
    """Drawn as many at a time as are still needed and wound in blocks of
    at most 64, the oracle's probes are those of one scalar draw and one
    ``winding_number`` call per attempt: the report is byte-identical to
    one built from that loop.  On star some attempts are skipped (7 of 77
    at seed 11), so the draws come in more than one batch, and the first
    batch of 70 spans two blocks.  Newton is replaced on both sides by a
    row that echoes each winding."""
    monkeypatch.setattr(cli, "cross_check_many", _winding_echo)
    spec = presets.star()
    windings, attempts = _scalar_draw_windings(spec, 70, 11)
    assert len(windings) == 70 and attempts > 70
    rows = [{"w": [wres.w.real, wres.w.imag], "verdict": verdict.value,
             "winding": details["winding"], "preimages_inside": details["preimages_inside"],
             "min_jacobian": details["min_jacobian"]}
            for wres, (verdict, details) in zip(windings, _winding_echo(spec, windings, 0.999))]
    expected = {"radius": 0.999, "seed": 11,
                "n_probes": 70, "n_skipped": attempts - 70, "n_agree": 70, "n_disagree": 0,
                "n_indeterminate_multiplicity": 0, "probes": rows}
    cli._emit_report("oracle", expected, str(tmp_path / "expected.json"))
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--input", "preset:star", "--samples", "70", "--seed", "11",
                 "--report", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "expected.json").read_bytes()


def test_oracle_that_cannot_place_its_probes_keeps_its_counts(monkeypatch, capsys):
    """With a clearance so wide that about 1 attempt in 100 is determinate,
    ``oracle`` gives up after 50 n attempts and names the same counts as
    the scalar loop."""
    monkeypatch.setattr(valence, "_CLEARANCE", 0.3)
    spec = presets.star()
    windings, attempts = _scalar_draw_windings(spec, 8, 2)
    assert attempts == 400 and 0 < len(windings) < 8
    assert main(["oracle", "--input", "preset:star", "--samples", "8", "--seed", "2"]) == 3
    assert capsys.readouterr().err == (
        f"error: could not place 8 determinate probes (managed {len(windings)} in 400 attempts)\n")


# ---------------------------------------------------------------------------
# Conjecture sweep


def test_sweep_config_validation():
    with pytest.raises(ParameterError):
        SweepConfig(trials=0)
    with pytest.raises(ParameterError, match=str(MAX_TRIALS)):
        SweepConfig(trials=MAX_TRIALS + 1)
    assert SweepConfig(trials=MAX_TRIALS).trials == MAX_TRIALS
    with pytest.raises(ParameterError):
        SweepConfig(max_degree=0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            SweepConfig(coefficient_scale=bad)
        with pytest.raises(ParameterError):
            SweepConfig(margin_requirement=bad)


def test_sweep_keeps_and_scans():
    report = run_sweep(SweepConfig(trials=8, seed=28, grid=(16, 16)))
    assert report["n_kept"] >= 1
    assert len(report["samples"]) == 8
    for row in report["samples"]:
        if row["kept"]:
            assert row["margin"] > 0
            assert row["max_valence"] is not None
        else:
            assert row["max_valence"] is None
    assert report["n_candidates"] == 0


def test_sweep_stream_is_seed_stable():
    """Margins of the common trials must not depend on how many trials run
    (one rng block per trial, drawn unconditionally)."""
    a = run_sweep(SweepConfig(trials=3, seed=42, grid=(16, 16)))
    b = run_sweep(SweepConfig(trials=6, seed=42, grid=(16, 16)))
    for ra, rb in zip(a["samples"], b["samples"]):
        assert ra["coeffs"] == rb["coeffs"]
        assert ra["margin"] == rb["margin"]


def test_sweep_of_numpy_scalars_writes_its_report(tmp_path):
    """A ``SweepConfig`` given numpy scalars writes the report of the same
    config given Python numbers."""
    scale = np.float32(0.2)
    paths = tmp_path / "np.json", tmp_path / "py.json"
    for path, config in zip(paths, (
            SweepConfig(trials=2, coefficient_scale=scale, margin_requirement=np.float64(0)),
            SweepConfig(trials=2, coefficient_scale=float(scale)))):
        cli._emit_report("conjecture", cli._plain(run_sweep(config)), str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_every_json_report_has_one_envelope(tmp_path):
    """``schema_version`` and ``command`` come from ``_emit_report`` alone:
    each subcommand's report carries them, ``run_sweep``'s body does not."""
    for argv in (["verify", "--input", "preset:example1"],
                 ["valence", "--input", "preset:example1", "--grid", "8x8"],
                 ["oracle", "--input", "preset:example1", "--samples", "2"],
                 ["conjecture", "--trials", "2", "--grid", "8x8"]):
        out = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--report", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["schema_version"], doc["command"]) == ("1", argv[0])
    assert not {"schema_version", "command"} & set(run_sweep(SweepConfig(trials=1)))


def test_conjecture_empty_region_exit_3(tmp_path, capsys):
    code = main(["conjecture", "--trials", "1", "--scale", "10", "--seed", "42"])
    assert code == 3
    err = capsys.readouterr().err
    assert "acceptance region empty" in err


def test_conjecture_ok_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["conjecture", "--trials", "6", "--seed", "28", "--grid", "16x16",
            "--report"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["config"]["seed"] == 28
    assert doc["n_candidates"] == 0


def test_python_dash_m_hvl_runs_the_cli(tmp_path):
    """``python -m hvl`` is the ``hvl`` command, with only ``src`` on the path."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "hvl", "verify", "--input", "preset:example1"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["criterion_satisfied"] is True


# ---------------------------------------------------------------------------
# Every argv ends with a documented exit code


def _values(valid, edge):
    """A cheap valid value half the time, else an edge or invalid one."""
    return st.sampled_from(valid) | st.sampled_from(edge)


_INPUTS = _values(
    ["preset:example1", "preset:example2", "preset:star", "preset:octagon"],
    ["preset:example2,c=nan", "preset:example2,c=2", "preset:example2,c=1e999",
     "preset:example1,p=x", "preset:star,q=1", "preset:nope", "preset:", "",
     "no-such-spec.json", "."])
_RADII = _values(["0.5", "0.999", "1"],
                 ["0", "-1", "1.5", "nan", "inf", "1e-300", "0.9999999999", "x"])
_SEEDS = _values(["0", "7"], ["-1", str(2 ** 64), str(10 ** 400), "1.5", "x"])
_BAD_COUNTS = ["0", "-1", "255", str(2 ** 21), str(10 ** 400), "nan", "1e3", "x", ""]
_GRIDS = _values(["4x4", "8x8"], ["0x8", "1x1", "8x", "-1x8", "8x8x8", "100000x100000", "x"])
_FLAGS = {
    "verify": {"--samples": _values(["1024", "2048"], _BAD_COUNTS)},
    "trace": {"--radius": _RADII, "--points": _values(["256", "300"], _BAD_COUNTS)},
    "render": {"--samples": _values(["512"], _BAD_COUNTS)},
    "valence": {"--radius": _RADII, "--samples": _values(["256"], _BAD_COUNTS),
                "--grid": _GRIDS},
    "oracle": {"--radius": _RADII, "--samples": _values(["1", "2"], _BAD_COUNTS + ["10001"]),
               "--seed": _SEEDS},
    "conjecture": {
        "--trials": _values(["1", "2"], _BAD_COUNTS + ["100001"]),
        "--p": _values(["1", "2"], _BAD_COUNTS + ["1001"]),
        "--m": _values(["2", "3"], _BAD_COUNTS + ["1", "1001"]),
        "--max-degree": _values(["1", "3", "5"], _BAD_COUNTS + ["1001"]),
        "--scale": _values(["0.2", "0"], ["3", "1e200", "1e308", "-1", "nan", "inf", "x"]),
        "--seed": _SEEDS,
        "--margin-requirement": _values(["0", "0.5"], ["-1", "1e308", "nan", "inf", "x"]),
        "--grid": _GRIDS,
    },
}
_REPORTS = st.sampled_from([os.devnull, ".", os.path.join("no-such-dir", "report.json")])


@st.composite
def _argvs(draw):
    command = draw(_values(sorted(_FLAGS), ["", "nope", "--help"]))
    flags = _FLAGS.get(command, {})
    argv = [command]
    if command != "conjecture" and draw(st.integers(0, 9)):
        argv += ["--input", draw(_INPUTS)]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)) if flags else ():
        argv += [flag, draw(flags[flag])]
    if draw(st.booleans()):
        argv += ["--report" if command != "trace" else "--out", draw(_REPORTS)]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--x", "-", "7"])))
    return argv


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(argv=_argvs())
@example(argv=["conjecture", "--trials", "1", "--seed", "-1"])
@example(argv=["oracle", "--input", "preset:example1", "--samples", "1", "--seed", "-1"])
def test_main_ends_with_an_exit_code(argv):
    """Subcommands, flags and small, edge or invalid values: ``main`` returns
    an exit code from 0 to 4, or argparse ends a usage error (1) or
    ``--help`` (0) by ``SystemExit``; nothing else is raised."""
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 1), argv
    else:
        assert code in range(5), argv
