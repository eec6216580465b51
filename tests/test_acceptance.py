"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
asserts carry the same conditions so the suite is red whenever a line would
say FAIL.  The whole file is budgeted to run in well under two minutes.
"""

import json
import math

import numpy as np
import pytest

from hvl import (
    CrossCheck,
    IndeterminateProbeError,
    ResolutionError,
    boundary_velocity_many,
    boundary_acceleration_many,
    cross_check_many,
    eval_g_many,
    eval_h_prime_many,
    phase_function_derivative_many,
    phase_function_many,
    presets,
    segment_collinearity,
    trace_circle,
    unwrap_boundary_phase,
    valence_scan,
    winding_number,
)
from hvl.cli import SweepConfig, main, run_sweep

import oracles


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _verify_json(tmp_path, preset: str) -> dict:
    out = tmp_path / f"{preset.replace(':', '_').replace(',', '_')}.json"
    code = main(["verify", "--input", f"preset:{preset}", "--report", str(out)])
    doc = json.loads(out.read_text())
    doc["_exit"] = code
    return doc


def test_01_seven_cusps_of_the_p2_map(tmp_path):
    doc = _verify_json(tmp_path, "example1")
    roots = sorted(doc["roots"], key=lambda r: r["t"])
    errs = [abs(r["t"] - 2 * math.pi * k / 7.0)
            for r, k in zip(roots, range(-3, 4))]
    ok = (doc["_exit"] == 0 and doc["criterion_satisfied"] is True
          and len(roots) == 7 and max(errs) < 1e-10)
    _line(1, ok, f"7 roots at 2 pi k/7, worst |dt| = {max(errs):.2e}")


def test_02_p3_preset_margin_and_levels(tmp_path):
    doc = _verify_json(tmp_path, "example2")
    counts = doc["per_level_counts"]
    inner = all(counts[str(k)] == 1 for k in range(-3, 4))
    outer = all(counts[str(k)] == 0 for k in (-4, 4))
    margin = doc["monotonicity_margin"]
    ok = (doc["_exit"] == 0 and doc["criterion_satisfied"] is True
          and doc["total_roots"] == 7 and inner and outer
          and margin is not None and margin > 0)
    _line(2, ok, f"7 roots one per level -3..3, margin = {margin:.6f}")


def test_03_boundary_concavity_inequality():
    worst_cross = -math.inf
    worst_gap = 0.0
    for spec in (presets.example1(), presets.example2()):
        t = np.linspace(-math.pi, math.pi, 8192, endpoint=False)
        vel = boundary_velocity_many(spec, t)
        acc = boundary_acceleration_many(spec, t)
        cross = np.imag(acc * np.conj(vel))
        tol = 1e-9 * float(np.max(np.abs(vel)) * np.max(np.abs(acc)))
        # closed-form right side of the concavity identity
        z = np.exp(1j * t)
        hp = eval_h_prime_many(spec.h, z)
        rhs = (spec.m - 1) * (np.real(z ** (spec.m + 1) * hp**2) - np.abs(hp) ** 2)
        scale = np.maximum(np.abs(vel) * np.abs(acc), 1.0)
        gap = float(np.max(np.abs(cross - rhs) / scale))
        worst_cross = max(worst_cross, float(np.max(cross)) - tol)
        worst_gap = max(worst_gap, gap)
        assert float(np.max(cross)) <= tol
    ok = worst_cross <= 0 and worst_gap < 1e-9
    _line(3, ok, f"Im(acc conj(vel)) <= tol on 8192 samples, identity gap {worst_gap:.2e}")


def test_04_valence_certificates_and_oracle():
    expected = {"example1": 2, "example2": 3, "star": 2, "octagon": 1}
    details = []
    ok = True
    for j, (name, want) in enumerate(expected.items()):
        spec = getattr(presets, name)()
        trace = trace_circle(spec, 0.999, 4096)
        report = valence_scan(spec, r=0.999, grid=(64, 64), trace=trace)
        ok &= report.max_valence == want
        ok &= all(v <= want for v in report.counts)
        # Newton oracle on 20 determinate random probes
        rng = np.random.default_rng(1000 + j)
        re, im = trace.points.real, trace.points.imag
        lo, hi = re.min(), re.max()
        lo2, hi2 = im.min(), im.max()
        windings = []
        attempts = 0
        while len(windings) < 20 and attempts < 1000:
            attempts += 1
            w = complex(rng.uniform(lo, hi), rng.uniform(lo2, hi2))
            try:
                windings.append(winding_number(trace, w))
            except (IndeterminateProbeError, ResolutionError):
                continue  # not a simple probe (too close or spike-adjacent)
        verdicts = [v for v, _ in cross_check_many(spec, windings, r=0.999)]
        placed = len(windings)
        agree = verdicts.count(CrossCheck.AGREE)
        indet = verdicts.count(CrossCheck.INDETERMINATE_MULTIPLICITY)
        ok &= placed == 20 and agree + indet == 20
        details.append(f"{name}: max {report.max_valence}, oracle {agree}+{indet}i/20")
    _line(4, ok, "; ".join(details))


def test_05_star_boundary_velocity_degenerates():
    spec = presets.star()
    n_sides = 5
    rng = np.random.default_rng(77)
    ts = []
    while len(ts) < 100:
        t = float(rng.uniform(-math.pi, math.pi))
        d = min(abs((t - (2 * j + 1) * math.pi / n_sides + math.pi) % (2 * math.pi) - math.pi)
                for j in range(n_sides))
        if d > 1e-2:  # stay away from the pole angles (2j+1) pi/5
            ts.append(t)
    ts = np.array(ts)
    vel = boundary_velocity_many(spec, ts)
    z = np.exp(1j * ts)
    scale = float(np.max(np.abs(eval_h_prime_many(spec.h, z))))
    worst = float(np.max(np.abs(vel)))
    ok = worst < 1e-8 * scale
    _line(5, ok, f"max |phi'| = {worst:.2e} against term scale {scale:.2f}")


def test_06_flat_presets_have_straight_sides():
    worst = {}
    for name, n_sides in (("star", 5), ("octagon", 8)):
        spec = getattr(presets, name)()
        tr = trace_circle(spec, 0.9999, n=8192)
        breaks = np.sort(np.mod(2 * math.pi * np.arange(n_sides) / n_sides
                                + math.pi, 2 * math.pi) - math.pi)
        defects = segment_collinearity(tr, breaks)
        assert defects.shape == (n_sides,)
        worst[name] = float(np.max(defects))
    ok = all(v < 1e-3 for v in worst.values())
    _line(6, ok, f"max deviation star {worst['star']:.2e}, octagon {worst['octagon']:.2e}")


def test_07_phase_derivative_matches_differences():
    worst = 0.0
    step = 1e-5
    for spec in (presets.example1(), presets.example2()):
        table = unwrap_boundary_phase(spec.h)
        rng = np.random.default_rng(31 + spec.p)
        ts = rng.uniform(-math.pi + 2 * step, math.pi - 2 * step, size=100)
        got = phase_function_derivative_many(spec, ts)
        fd = (phase_function_many(spec, ts + step, table)
              - phase_function_many(spec, ts - step, table)) / (2 * step)
        worst = max(worst, float(np.max(np.abs(got - fd) / np.abs(got))))
    ok = worst < 1e-6
    _line(7, ok, f"F' vs central differences, worst relative error {worst:.2e}")


def test_08_coanalytic_part_satisfies_the_linkage():
    step = 3e-4
    stencil = np.array([-2, -1, 1, 2]) * step
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * step)
    worst = 0.0
    for k, name in enumerate(("example1", "example2", "star", "octagon")):
        spec = getattr(presets, name)()
        rng = np.random.default_rng(500 + k)
        r = np.sqrt(rng.uniform(0.25**2, 0.99**2, size=200))
        ang = rng.uniform(-math.pi, math.pi, size=200)
        zs = r * np.exp(1j * ang)
        g_vals = eval_g_many(spec, (zs[:, None] + stencil[None, :]).ravel())
        fd = (g_vals.reshape(200, 4) * weights[None, :]).sum(axis=1)
        want = zs ** (spec.m - 1) * eval_h_prime_many(spec.h, zs)
        rel = np.abs(fd - want) / np.maximum(np.abs(want), 1e-12)
        worst = max(worst, float(np.max(rel)))
    ok = worst < 1e-6
    _line(8, ok, f"(d/dz) g vs z^(m-1) h' at 4x200 points, worst rel {worst:.2e}")


def test_09_seeded_sweep_finds_no_counterexample():
    report = run_sweep(SweepConfig(trials=1500))
    kept = [row for row in report["samples"] if row["kept"]]
    all_one = all(row["max_valence"] == 1 for row in kept)
    ok = (len(kept) >= 50 and all_one and report["n_candidates"] == 0)
    _line(9, ok, f"{len(kept)} kept of 1500, all max_valence 1, "
          f"{report['n_candidates']} candidates")


def test_10_deterministic_outputs(tmp_path, monkeypatch):
    render_args = ["render", "--input", "preset:example2", "--out"]
    conj_args = ["conjecture", "--trials", "6", "--seed", "28",
                 "--grid", "16x16", "--report"]
    paths = {k: tmp_path / f"{k}.out" for k in
             ("r1", "r2", "rt1", "rt8", "c1", "c2", "ct1", "ct8")}
    assert main(render_args + [str(paths["r1"])]) == 0
    assert main(render_args + [str(paths["r2"])]) == 0
    assert main(conj_args + [str(paths["c1"])]) == 0
    assert main(conj_args + [str(paths["c2"])]) == 0
    monkeypatch.setenv("HVL_THREADS", "1")
    assert main(render_args + [str(paths["rt1"])]) == 0
    assert main(conj_args + [str(paths["ct1"])]) == 0
    monkeypatch.setenv("HVL_THREADS", "8")
    assert main(render_args + [str(paths["rt8"])]) == 0
    assert main(conj_args + [str(paths["ct8"])]) == 0
    same_run = (paths["r1"].read_bytes() == paths["r2"].read_bytes()
                and paths["c1"].read_bytes() == paths["c2"].read_bytes())
    same_threads = (paths["rt1"].read_bytes() == paths["rt8"].read_bytes()
                    and paths["ct1"].read_bytes() == paths["ct8"].read_bytes())
    ok = same_run and same_threads
    _line(10, ok, "render and conjecture byte-identical across runs and "
          "thread counts 1/8")
