"""Command line interface: spec files, subcommands, exit codes, determinism.

Exit code contract: 0 success/affirmative, 1 bad input, 2 negative verdict,
3 numerical trouble, 4 conjecture counterexample candidates.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hvl import (
    ParameterError,
    PolySeries,
    SpecFileError,
    cross_check,
    derive_g,
    presets,
    trace_circle,
)
from hvl.cli import (
    MAX_THREADS,
    SweepConfig,
    load_input,
    main,
    parse_spec_doc,
    resolve_workers,
    run_sweep,
    spec_to_doc,
)
from hvl.valence import MAX_PROBES


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


POLY_DOC = {"schema_version": "1", "kind": "poly", "p": 2, "m": 4,
            "coeffs": [[1.0, 0.0]]}
RATIONAL_POLE_DOC = {"kind": "rational_hprime", "p": 1, "m": 2,
                     "numer": [[1.0, 0.0]], "denom": [[1.0, 0.0], [-2.0, 0.0]]}


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


def test_load_input_file_errors(tmp_path):
    with pytest.raises(SpecFileError, match="cannot read"):
        load_input(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError, match="not valid JSON"):
        load_input(str(bad))


def test_resolve_workers(monkeypatch, capsys):
    monkeypatch.delenv("HVL_THREADS", raising=False)
    assert 1 <= resolve_workers() <= 8
    monkeypatch.setenv("HVL_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("HVL_THREADS", "0")
    assert 1 <= resolve_workers() <= 8
    monkeypatch.setenv("HVL_THREADS", "-1")
    with pytest.raises(ParameterError):
        resolve_workers()
    monkeypatch.setenv("HVL_THREADS", "many")
    with pytest.raises(ParameterError):
        resolve_workers()
    # above MAX_THREADS is refused before any trial runs or thread starts;
    # the limit itself is accepted (and not run)
    monkeypatch.setenv("HVL_THREADS", str(MAX_THREADS))
    assert resolve_workers() == MAX_THREADS
    monkeypatch.setenv("HVL_THREADS", str(MAX_THREADS + 1))
    with pytest.raises(ParameterError, match=str(MAX_THREADS)):
        resolve_workers()
    capsys.readouterr()
    assert main(["conjecture", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: HVL_THREADS") and str(MAX_THREADS) in err


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
        assert err == "error: oracle needs at least 1 probe (--samples)\n"
    # once 0 meant the default 4096 trace samples
    assert main(["valence", "--input", "preset:example1", "--samples", "0"]) == 1
    assert capsys.readouterr().err == "error: trace needs at least 256 samples\n"
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


def test_verify_rejects_bad_grid(tmp_path):
    for samples in ("1000", "3000"):
        code = main(["verify", "--input", "preset:example1", "--samples", samples])
        assert code == 1


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
    floating-point warning on the way."""
    doc = {**POLY_DOC, "p": 1, "m": 2, "coeffs": [[1, 0], [1e308, 1e308]]}
    out = tmp_path / "report.json"
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        code = main(["verify", "--input", write_spec(tmp_path, doc), "--report", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["failure_reason"] == "normalized derivative is not finite on the boundary"
    assert report["criterion_satisfied"] is False


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


# ---------------------------------------------------------------------------
# Conjecture sweep


def test_sweep_config_validation():
    with pytest.raises(ParameterError):
        SweepConfig(trials=0)
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


def test_conjecture_workers_do_not_change_bytes(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "w1.json", tmp_path / "w8.json"
    argv = ["conjecture", "--trials", "6", "--seed", "1", "--grid", "16x16",
            "--report"]
    monkeypatch.setenv("HVL_THREADS", "1")
    assert main(argv + [str(out1)]) == 0
    monkeypatch.setenv("HVL_THREADS", "8")
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_python_dash_m_hvl_runs_the_cli(tmp_path):
    """``python -m hvl`` is the ``hvl`` command, with only ``src`` on the path."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "hvl", "verify", "--input", "preset:example1"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["criterion_satisfied"] is True
