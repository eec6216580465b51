"""Winding numbers, the probe scan, Newton preimages, and the cross check."""

import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hvl import (
    CrossCheck,
    CurveTrace,
    DomainError,
    HarmonicMapSpec,
    IndeterminateProbeError,
    ParameterError,
    PolySeries,
    RationalDeriv,
    ResolutionError,
    ScanQualityError,
    WindingResult,
    check_criterion,
    check_monotonicity_margin,
    cross_check,
    cross_check_many,
    eval_f_many,
    eval_h_prime_many,
    newton_preimages,
    presets,
    render_scene,
    trace_circle,
    valence_scan,
    winding_number,
    winding_numbers,
)
from hvl import cli, geometry, valence
from hvl.cli import SweepConfig, run_sweep

import oracles

EX1 = presets.example1()
EX2 = presets.example2()


# ---------------------------------------------------------------------------
# Winding numbers


def test_winding_matches_ray_crossing_oracle():
    """``winding_number`` against an independent ray-crossing count at
    seeded probe points, on the p=2 boundary image."""
    tr = trace_circle(EX1, 1.0, n=4096)
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(40):
        w = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        dist = np.min(np.abs(tr.points - w))
        if dist < 5e-3:  # keep the oracle's crossing count unambiguous
            continue
        got = winding_number(tr, w)
        assert got.winding == oracles.ray_winding(tr.points, w)
        assert got.min_curve_distance == pytest.approx(dist, rel=1e-12)
        checked += 1
    assert checked >= 30


def test_winding_at_origin_is_p():
    tr = trace_circle(EX1, 1.0, n=2048)
    assert winding_number(tr, 0.0).winding == 2
    tr2 = trace_circle(EX2, 0.999, n=2048)
    assert winding_number(tr2, 0.0).winding == 3


def test_winding_far_outside_is_zero():
    tr = trace_circle(EX1, 1.0, n=2048)
    assert winding_number(tr, 10.0 + 3.0j).winding == 0


def test_winding_probe_too_close():
    tr = trace_circle(EX1, 1.0, n=2048)
    w = complex(tr.points[100])  # on the curve
    with pytest.raises(IndeterminateProbeError):
        winding_number(tr, w)
    # the clearance is 1e-4 diameters, the scan's rule
    clearance = 1e-4 * tr.diameter()
    with pytest.raises(IndeterminateProbeError):
        winding_number(tr, w + 0.9 * clearance)
    assert winding_number(tr, w + 2.0 * clearance).min_curve_distance > clearance


def test_winding_on_trace_with_nan_point_is_indeterminate():
    tr = trace_circle(EX1, 0.999, n=2048)
    points = tr.points.copy()
    points[100] = complex(math.nan, 0.0)
    bad = CurveTrace(map=tr.map, radius=tr.radius, t=tr.t, points=points, clamped=tr.clamped)
    for w in (0.0, 0.5, 10.0):
        with pytest.raises(IndeterminateProbeError):
            winding_number(bad, w)


def test_winding_refuses_non_finite_probe():
    tr = trace_circle(EX1, 1.0, n=256)
    for w in (math.nan, math.inf, complex(0.0, -math.inf), complex(0.5, math.nan)):
        with pytest.raises(ParameterError):
            winding_number(tr, w)


# ---------------------------------------------------------------------------
# Scan


def _grid_windings(tr, xs, ys):
    """The scan's winding at every probe of xs x ys, -1 where it is
    indeterminate or negative."""
    winding, fault = valence._windings(tr, xs, ys)
    return np.where(fault != 0, -1, np.maximum(winding, -1))


def test_scan_counts_on_p2_preset():
    report = valence_scan(EX1, r=0.999, grid=(32, 32), n_samples=2048)
    assert report.max_valence == 2
    assert report.consistent_with_p
    assert report.counts[2] == report.n_attained
    assert report.n_attained > 0
    assert 0 < len(report.attained_at) <= 8
    # every exemplar actually winds twice
    tr = trace_circle(EX1, 0.999, n=2048)
    for w in report.attained_at:
        assert winding_number(tr, w).winding == 2
    assert report.n_probes == 32 * 32
    assert report.n_indeterminate < 0.2 * report.n_probes


def test_scan_univalent_preset():
    report = valence_scan(presets.octagon(), r=0.999, grid=(24, 24), n_samples=2048)
    assert report.max_valence == 1
    assert report.consistent_with_p


def test_scan_grid_validation():
    with pytest.raises(ParameterError):
        valence_scan(EX1, grid=(1, 8))


@pytest.mark.parametrize("blocks", [1, 3])
def test_sweep_holds_few_blocks_of_specs(monkeypatch, blocks):
    """Each block's specs are built just before it runs and freed when it
    returns, so a sweep never holds more than one block of ``PolySeries``
    alive, however many blocks it runs (here ``blocks`` full ones and a
    partial one)."""
    live = []
    peak = 0

    def counted(*args):
        nonlocal peak
        spec = PolySeries(*args)
        live.append(weakref.ref(spec))
        peak = max(peak, sum(ref() is not None for ref in live))
        return spec

    monkeypatch.setattr(cli, "PolySeries", counted)
    trials = blocks * cli._SWEEP_BLOCK + cli._SWEEP_BLOCK // 2
    report = run_sweep(SweepConfig(trials=trials, seed=5, grid=(8, 8)))
    assert len(live) == len(report["samples"]) == trials
    assert 0 < peak <= cli._SWEEP_BLOCK


def _sweep_map(seed: int, p: int, m: int):
    """A map drawn like a conjecture-sweep trial (scale 0.2, degree 6)."""
    block = np.random.default_rng(seed).standard_normal(2 * (6 - p))
    coeffs = (1 + 0j,) + tuple(
        0.2 * complex(block[2 * i], block[2 * i + 1]) / (math.sqrt(2.0) * (p + 1 + i))
        for i in range(6 - p))
    return HarmonicMapSpec(PolySeries(p, coeffs), m)


@st.composite
def _sweep_style_maps(draw):
    """h = z**p + a_(p+1) z**(p+1) + ... up to degree p + 4, a_n = scale c_n / n
    as in the conjecture sweep, with c_n zero or of modulus 1e-6 to 1 and
    scale zero or 1e-6 to 3, and m of 2 or 3."""
    p = draw(st.integers(1, 3))
    degree = draw(st.integers(p, p + 4))
    scale = draw(st.just(0.0) | st.floats(1e-6, 3.0))
    unit = st.just(0j) | st.complex_numbers(min_magnitude=1e-6, max_magnitude=1)
    coeffs = [1 + 0j] + [scale * draw(unit) / n for n in range(p + 1, degree + 1)]
    return HarmonicMapSpec(PolySeries(p, coeffs), draw(st.sampled_from([2, 3])))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(spec=_sweep_style_maps())
def test_admissible_polynomials_wind_p_times(spec):
    """A map whose monotonicity margin is positive winds the circle of
    radius 0.999 p times around the origin."""
    assume(check_monotonicity_margin(spec) > 0)
    trace = trace_circle(spec, 0.999, n=2048)
    assert winding_number(trace, 0).winding == spec.h.p


@pytest.mark.parametrize("spec", [
    EX1, EX2, presets.star(), presets.octagon(), _sweep_map(11, 2, 3),
    _sweep_map(12, 3, 2),
], ids=["example1", "example2", "star", "octagon", "sweep11", "sweep12"])
def test_scan_equals_scalar_winding_at_every_probe(spec):
    """Every determinate probe of the scan winds as the independent angle
    sum over the same trace says.  Every probe gets what ``winding_number``
    gives it alone on a 1 x 1 grid, or -1 where that raises or is negative,
    so a probe's answer does not depend on the grid around it."""
    tr = trace_circle(spec, 0.999, n=4096)
    xs, ys = valence._probe_grid(tr.points, 32, 32)
    probes = (xs[None, :] + 1j * ys[:, None]).ravel()
    winding, fault = valence._windings(tr, xs, ys)
    for i in np.flatnonzero(fault == 0):
        assert winding[i] == oracles.angle_winding(tr.points, probes[i])
    got = _grid_windings(tr, xs, ys)
    want = np.empty(probes.size, dtype=int)
    for i, w in enumerate(probes):
        try:
            want[i] = max(winding_number(tr, w).winding, -1)
        except (IndeterminateProbeError, ResolutionError):
            want[i] = -1
    assert np.array_equal(got, want)
    assert np.count_nonzero(want == spec.p) > 0
    report = valence_scan(spec, r=0.999, grid=(32, 32), trace=tr)
    assert report.n_indeterminate == np.count_nonzero(want < 0)
    assert report.counts == {int(k): int(np.count_nonzero(want == k))
                             for k in np.unique(want[want >= 0])}


@pytest.mark.parametrize("name", ["star", "octagon"])
def test_refined_probes_match_ray_count_on_denser_trace(name):
    """Probes in some step's Thales disk, where the scan refines, against
    the independent ray count on a 4x denser trace, at a seeded sample of
    the probes the scan finds determinate and that clear the dense trace."""
    spec = getattr(presets, name)()
    tr = trace_circle(spec, 0.999, n=4096)
    dense = trace_circle(spec, 0.999, n=4 * 4096)
    xs, ys = valence._probe_grid(tr.points, 64, 64)
    probes = (xs[None, :] + 1j * ys[:, None]).ravel()
    got = _grid_windings(tr, xs, ys)
    p0, p1 = tr.points, np.roll(tr.points, -1)
    flagged = np.array([
        np.any(np.abs(np.angle((p1 - w) * np.conj(p0 - w))) >= math.pi / 2)
        for w in probes])
    clear = np.array([np.min(np.abs(dense.points - w)) for w in probes]) \
        >= 5e-3 * dense.diameter()
    pool = np.flatnonzero(flagged & clear & (got >= 0))
    assert pool.size >= 100
    for i in np.random.default_rng(11).choice(pool, size=60, replace=False):
        assert got[i] == oracles.ray_winding(dense.points, probes[i])


def test_refinement_corrects_a_coarse_trace():
    """A three-sample trace of a nearly circular image is a triangle: probes
    between an edge and the arc it cuts off wind once about the curve but
    not about the triangle.  ``winding_number`` and the scan refine them to
    the ray count of a dense trace.  A probe on the curve at a step's
    midpoint or quarter point is within clearance of a refinement midpoint;
    one an eighth of a step in still sees a quarter-step turn by pi/2."""
    spec = HarmonicMapSpec(PolySeries(1, (1 + 0j,)), 8)  # f = z + conj(z**8) / 8
    t = -math.pi + 2 * math.pi * np.arange(3) / 3
    tri = CurveTrace(map=spec, radius=0.5, t=t, clamped=np.zeros(3, dtype=bool),
                     points=eval_f_many(spec, 0.5 * np.exp(1j * t)))
    dense = trace_circle(spec, 0.5, n=4096)
    chord = 0.5 * (tri.points + np.roll(tri.points, -1))
    for w in 0.5 * (chord + tri.point_at(t + math.pi / 3)):
        assert oracles.ray_winding(tri.points, w) == 0
        assert winding_number(tri, w).winding == oracles.ray_winding(dense.points, w) == 1
    for frac, error in ((0.5, IndeterminateProbeError), (0.25, IndeterminateProbeError),
                        (0.125, ResolutionError)):
        with pytest.raises(error):
            winding_number(tri, tri.point_at(t[1] + frac * 2 * math.pi / 3)[0])
    xs = ys = np.linspace(-0.6, 0.6, 61)
    probes = (xs[None, :] + 1j * ys[:, None]).ravel()
    got = _grid_windings(tri, xs, ys)
    clear = np.array([np.min(np.abs(dense.points - w)) for w in probes]) \
        >= 5e-3 * dense.diameter()
    corrected = 0
    for i in np.flatnonzero((got >= 0) & clear):
        assert got[i] == oracles.ray_winding(dense.points, probes[i])
        corrected += got[i] != oracles.ray_winding(tri.points, probes[i])
    assert corrected >= 100


def test_first_faulted_step_decides_the_error():
    """A probe at a self-crossing of example1's image is the refinement
    midpoint of one step (within clearance: indeterminate) and lies on the
    curve inside another (its quarter-step turns by pi: too coarse).  The
    fault of the earlier step in trace order decides the error, so starting
    the trace one step later, which moves the first step to the end, swaps it."""
    r, n = 0.999, 512
    a, b = -3.0660537469692417, 0.37326004389227624  # f(a) = f(b)
    assert abs(eval_f_many(EX1, r * np.exp(1j * np.array([a, b]))) @ [1, -1]) < 1e-12
    t = a - math.pi / n + 2 * math.pi * np.arange(n) / n  # step 0 has midpoint a
    for shift, error in ((0, IndeterminateProbeError), (1, ResolutionError)):
        ts = np.roll(t, -shift)
        tr = CurveTrace(map=EX1, radius=r, t=ts, clamped=np.zeros(n, dtype=bool),
                        points=eval_f_many(EX1, r * np.exp(1j * ts)))
        with pytest.raises(error):
            winding_number(tr, tr.point_at(a)[0])


def test_scan_refines_all_pairs_in_one_batch(monkeypatch):
    """The scan never falls back to the one-probe winding_number, and
    evaluates its refinement midpoints in at most one call per level."""
    def scalar(*args, **kwargs):
        raise AssertionError("valence_scan called winding_number")

    calls = []
    point_at = CurveTrace.point_at

    def counted(self, tq):
        calls.append(np.size(tq))
        return point_at(self, tq)

    monkeypatch.setattr(valence, "winding_number", scalar)
    monkeypatch.setattr(CurveTrace, "point_at", counted)
    report = valence_scan(presets.star(), r=0.999, grid=(64, 64))
    assert report.consistent_with_p
    assert 1 <= len(calls) <= 2 and sum(calls) > 0


def _every_pair(monkeypatch, tr, xs, ys):
    """``_windings`` with ``_bins`` returning every axis value, so that every
    (step, probe) pair is a candidate.  Calls of a few probe rows each bound
    the memory; a probe's winding and fault do not depend on the other
    probes."""
    rows = max(1, 2 ** 18 // (tr.n * xs.size))
    with monkeypatch.context() as m:
        m.setattr(valence, "_bins", lambda lo, hi, v: (
            np.zeros(np.shape(lo), dtype=np.intp), np.full(np.shape(lo), v.size)))
        parts = [valence._windings(tr, xs, ys[i:i + rows]) for i in range(0, ys.size, rows)]
    return tuple(np.concatenate(part) for part in zip(*parts))


class _Polyline(CurveTrace):
    """A hand-built closed polyline at uniform t, whose ``point_at`` walks
    its edges linearly, so that refinement sees the polyline itself."""

    def point_at(self, tq):
        s = (np.atleast_1d(tq) - self.t[0]) * self.n / (2 * math.pi)
        k = np.floor(s).astype(int)
        a, b = self.points[k % self.n], self.points[(k + 1) % self.n]
        return a + (s - k) * (b - a)


def _rectangle(x0: float, y0: float, w: float, h: float, n: int = 8) -> _Polyline:
    """The rectangle [x0, x0 + w] x [y0, y0 + h], n steps a side,
    counterclockwise from (x0, y0)."""
    s = np.arange(n) / n
    pts = np.concatenate([x0 + w * s + 1j * y0, x0 + w + 1j * (y0 + h * s),
                          x0 + w * (1 - s) + 1j * (y0 + h), x0 + 1j * (y0 + h * (1 - s))])
    t = -math.pi + 2 * math.pi * np.arange(4 * n) / (4 * n)
    return _Polyline(map=EX1, radius=1.0, t=t, clamped=np.zeros(4 * n, dtype=bool), points=pts)


def _edge_axes(tr, k):
    """Sorted axes through the start vertex and the midpoint of step k, at
    clearance distance from the vertex and at the extreme points of the
    step's disk, each value with its two float neighbours."""
    p0, p1 = tr.points[k], tr.points[(k + 1) % tr.n]
    clearance = valence._CLEARANCE * tr.diameter()
    mid, rad = 0.5 * (p0 + p1), 0.5 * np.abs(p1 - p0)
    axes = []
    for v0, vm in ((p0.real, mid.real), (p0.imag, mid.imag)):
        v = np.array([v0 - clearance, v0, v0 + clearance, vm - rad, vm, vm + rad])
        axes.append(np.unique(np.concatenate([np.nextafter(v, -np.inf), v,
                                              np.nextafter(v, np.inf)])))
    return axes


@pytest.mark.parametrize("case", [
    "example1", "example2", "star", "octagon", "sweep", "one_by_one", "non_uniform",
    "shifted", "edges",
])
def test_binning_drops_no_candidate_pair(case, monkeypatch):
    """The binned ``_windings`` gives every probe the winding and fault it
    gets when every (step, probe) pair is a candidate: on the presets at
    32 x 32 and 64 x 64, on sweep-like maps at 2,048 samples, on 1 x 1
    probes (random ones, vertices and step midpoints), on unevenly spaced
    sorted axes, on example1's trace moved far from the origin, and on axes
    through the very edges of both tests (clearance squares and step
    disks).  The edges are taken on example1's trace and on rectangles half
    a clearance beside (2**e, -2**e): the box of a step from a corner meets
    the corner's clearance square edge to edge, and rounding moves it by a
    float spacing of 2**e, so a box widened by less, or only in proportion
    to its own size, loses pairs there."""
    if case in ("example1", "example2", "star", "octagon"):
        tr = trace_circle(getattr(presets, case)(), 0.999, n=512)
        runs = [(tr, *valence._probe_grid(tr.points, g, g)) for g in (32, 64)]
    elif case == "sweep":
        runs = []
        for seed, p, m in ((21, 2, 3), (22, 1, 2), (23, 3, 2)):
            tr = trace_circle(_sweep_map(seed, p, m), 0.999, n=2048)
            runs.append((tr, *valence._probe_grid(tr.points, 32, 32)))
    elif case == "one_by_one":
        tr = trace_circle(presets.star(), 0.99, n=512)
        x_lo, x_hi, y_lo, y_hi = valence.probe_box(tr.points)
        rng = np.random.default_rng(5)
        ws = np.concatenate([rng.uniform(x_lo, x_hi, 60) + 1j * rng.uniform(y_lo, y_hi, 60),
                             tr.points[::32], 0.5 * (tr.points[:16] + tr.points[1:17])])
        runs = [(tr, np.array([w.real]), np.array([w.imag])) for w in ws]
    elif case == "non_uniform":
        tr = trace_circle(EX1, 0.999, n=1024)
        x_lo, x_hi, y_lo, y_hi = valence.probe_box(tr.points)
        u = np.sort(np.random.default_rng(7).random((2, 48)) ** 3, axis=1)
        runs = [(tr, x_lo + (x_hi - x_lo) * u[0], y_hi - (y_hi - y_lo) * u[1, ::-1])]
    elif case == "shifted":
        tr = trace_circle(EX1, 0.999, n=512)
        far = _Polyline(map=EX1, radius=1.0, t=tr.t, points=tr.points + (3e8 - 7e8j),
                        clamped=tr.clamped)
        runs = [(far, *valence._probe_grid(far.points, g, g)) for g in (32, 64)]
    else:
        tr = trace_circle(EX1, 0.999, n=512)
        runs = [(tr, *_edge_axes(tr, k)) for k in range(0, tr.n, 32)]
        w, h = 1.3, 0.7
        clearance = valence._CLEARANCE * math.hypot(w, h)
        for e in range(3, 41):
            rect = _rectangle(2.0 ** e + clearance / 2, -2.0 ** e - h - clearance / 2, w, h)
            runs += [(rect, *_edge_axes(rect, k)) for k in (0, 8, 16, 24)]
    for tr, xs, ys in runs:
        winding, fault = valence._windings(tr, xs, ys)
        want_winding, want_fault = _every_pair(monkeypatch, tr, xs, ys)
        assert np.array_equal(winding, want_winding)
        assert np.array_equal(fault, want_fault)
        assert case != "edges" or np.any(fault == valence._NEAR)


def test_scan_refuses_trace_of_another_map_or_radius():
    tr = trace_circle(EX1, 0.999, n=1024)
    for spec, r in ((EX2, 0.5), (EX2, 0.999), (EX1, 0.5)):
        with pytest.raises(ParameterError):
            valence_scan(spec, r=r, grid=(16, 16), trace=tr)
    # an equal map, however it was built, is the trace's map
    for same in (presets.example1(), HarmonicMapSpec(PolySeries(2, (1 + 0j,)), 4)):
        assert valence_scan(same, r=0.999, grid=(16, 16), trace=tr) \
            == valence_scan(EX1, r=0.999, grid=(16, 16), n_samples=1024)


def test_crossing_rule_with_vertices_on_probe_rows():
    """A densely sampled limacon with an inner loop (windings 0, 1 and 2),
    its vertices snapped onto probe rows wherever one is near, and a
    pentagon with a horizontal step on a probe row (it crosses no row) and
    a vertex on the top row: the row crossings, half-open in y, match the
    independent ray count at every probe off the polyline, including the
    rows through vertices, both on the 40 x 40 grid and on each probe's own
    1 x 1 grid."""
    t = np.linspace(-math.pi, math.pi, 600, endpoint=False)
    pts = (0.5 + np.cos(t)) * np.exp(1j * t)
    xs, ys = valence._probe_grid(pts, 40, 40)
    dx, step = xs[1] - xs[0], ys[1] - ys[0]
    row = np.rint((pts.imag - ys[0]) / step).astype(int)
    interior = (pts.imag > pts.imag.min()) & (pts.imag < pts.imag.max())
    snap = interior & (np.abs(pts.imag - ys[row]) < 0.2 * step) \
        & (ys[row] > pts.imag.min()) & (ys[row] < pts.imag.max())
    pts = np.where(snap, pts.real + 1j * ys[row], pts)
    assert np.count_nonzero(snap) >= 40
    assert all(np.array_equal(a, b) for a, b in zip(valence._probe_grid(pts, 40, 40),
                                                    (xs, ys)))
    pentagon = np.array([xs[5] + 0.5 * dx + 1j * ys[10], xs[30] + 0.5 * dx + 1j * ys[10],
                         xs[34] + 0.3 * dx + 1j * (ys[24] + 0.4 * step),
                         xs[20] + 0.5 * dx + 1j * ys[-1],
                         xs[3] + 0.7 * dx + 1j * (ys[26] + 0.2 * step)])
    winding, lost = valence._crossing_windings(pentagon[:1], pentagon[1:2], xs, ys)
    assert not winding.any() and not lost.any()
    for pts, windings, vertex_row_probes in ((pts, {0, 1, 2}, 200), (pentagon, {0, 1}, 50)):
        nxt = np.roll(pts, -1)
        got, lost = valence._crossing_windings(pts, nxt, xs, ys)
        assert not lost.any()
        got = got.reshape(40, 40)
        on_vertex_row = np.isin(ys, pts.imag)
        seen = set()
        checked = 0
        for j in range(40):
            for i in range(40):
                w = complex(xs[i], ys[j])
                s = np.clip(np.real((w - pts) * np.conj(nxt - pts))
                            / np.maximum(np.abs(nxt - pts) ** 2, 1e-300), 0.0, 1.0)
                if np.min(np.abs(pts + s * (nxt - pts) - w)) < 1e-9:
                    continue  # on the polyline, where no winding is defined
                assert got[j, i] == oracles.ray_winding(pts, w)
                assert valence._crossing_windings(pts, nxt, xs[i:i + 1], ys[j:j + 1])[0][0] \
                    == got[j, i]
                seen.add(int(got[j, i]))
                checked += on_vertex_row[j]
        assert seen == windings
        assert checked >= vertex_row_probes
    # a crossing whose abscissa overflows marks its rows, and only those
    tall = np.array([-1e200 - 1e200j, 1e200 + 1j * ys[20]])
    _, lost = valence._crossing_windings(tall, tall[::-1], xs, ys)
    assert np.array_equal(lost.reshape(40, 40).all(axis=1), np.arange(40) < 20)
    assert not lost.reshape(40, 40)[20:].any()


def test_scan_refuses_grid_above_probe_limit(monkeypatch):
    """A grid one row above ``MAX_PROBES`` probes is refused before any
    trace or probe array is made, by the scan and by the sweep config."""
    def no_work(*args, **kwargs):
        raise AssertionError("the scan started work on a refused grid")

    monkeypatch.setattr(valence, "trace_circle", no_work)
    monkeypatch.setattr(valence, "_probe_grid", no_work)
    side = math.isqrt(valence.MAX_PROBES)
    assert side * side == valence.MAX_PROBES
    for grid in ((side, side + 1), (2, valence.MAX_PROBES // 2 + 1), (10 ** 5, 10 ** 5)):
        with pytest.raises(ParameterError, match=str(valence.MAX_PROBES)):
            valence_scan(EX1, grid=grid)
        with pytest.raises(ParameterError, match=str(valence.MAX_PROBES)):
            SweepConfig(grid=grid)
    valence.check_scan_grid((side, side))  # at the limit: accepted
    with pytest.raises(ParameterError, match="from 2 to"):
        SweepConfig(grid=(1, 8))


def test_sizes_that_are_not_integers_are_refused():
    """A grid of 2.5 x 3 once passed the grid check, a 16.5 x 16 scan and a
    Newton solve from 256.0 starts ended in a bare TypeError, and a scan of
    400.5 samples reported the windings of a trace that did not close.  A
    sweep of 2.5 trials or degree 6.5 was accepted and failed when run, one
    of True trials ran once, a coefficient scale of None or a margin
    requirement of "0" ended in a bare TypeError, as did a grid of three,
    one or no entries and a scan of radius None.  A sweep of numpy integer
    trials, seed or grid wrote no report."""
    for grid in ((2.5, 3), (16.5, 16), (16, 16.0)):
        with pytest.raises(ParameterError, match="integer"):
            valence.check_scan_grid(grid)
        with pytest.raises(ParameterError, match="integer"):
            valence_scan(EX1, grid=grid)
        with pytest.raises(ParameterError, match="integer"):
            SweepConfig(grid=grid)
    with pytest.raises(ParameterError, match="integer"):
        valence_scan(EX1, grid=(16, 16), n_samples=400.5)
    with pytest.raises(ParameterError, match="integer"):
        newton_preimages(EX1, 0.5, n_starts=256.0)
    assert valence.check_scan_grid((np.int64(16), 8)) == (16, 8)
    config = SweepConfig(trials=np.int64(2), seed=np.int64(7), grid=(np.int64(8), 8))
    assert (config.trials, config.seed, config.grid) == (2, 7, (8, 8))
    json.dumps(cli._plain(run_sweep(config)), allow_nan=False)
    for kwargs, name in (({"trials": 2.5}, "trials"), ({"trials": True}, "trials"),
                         ({"max_degree": 6.5}, "max_degree"),
                         ({"coefficient_scale": None}, "coefficient_scale"),
                         ({"margin_requirement": "0"}, "margin_requirement")):
        with pytest.raises(ParameterError, match=name):
            SweepConfig(**kwargs)
    for grid in ((16, 16, 16), (16,), 16):
        with pytest.raises(ParameterError, match="scan grid"):
            valence.check_scan_grid(grid)
    with pytest.raises(DomainError, match="trace radius"):
        valence_scan(EX1, None)


def test_concavity_samples_and_newton_starts_above_their_limits_are_refused(monkeypatch):
    """``concavity_check`` takes at most ``geometry.MAX_SAMPLES`` samples and
    a Newton solve at most ``MAX_STARTS`` starts; one more is refused before
    h' is evaluated or a start drawn (a Newton solve once drew 4n + 16
    Halton points for any n)."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a refused count")

    monkeypatch.setattr(geometry, "eval_h_prime_many", no_work)
    monkeypatch.setattr(valence, "_halton_starts", no_work)
    with pytest.raises(ParameterError, match=f"concavity samples .* to {geometry.MAX_SAMPLES}$"):
        geometry.concavity_check(EX1, geometry.MAX_SAMPLES + 1)
    with pytest.raises(ParameterError, match=f"newton starts .* to {valence.MAX_STARTS}$"):
        newton_preimages(EX1, 0.5, n_starts=valence.MAX_STARTS + 1)


def test_scan_of_non_finite_trace_fails_quality_check():
    """A trace of NaN points leaves no determinate probe, so the scan fails
    its quality check instead of binning NaN coordinates into the grid.
    (Specs refuse NaN coefficients, so the NaN points are put in the trace.)"""
    trace = trace_circle(EX1, 0.999, 256)
    trace.points = np.full(trace.n, complex(math.nan, 0.0))
    with pytest.raises(ScanQualityError):
        valence_scan(EX1, grid=(16, 16), trace=trace)


def test_scan_report_dict_shape():
    report = valence_scan(EX1, r=0.999, grid=(16, 16), n_samples=2048)
    doc = report.to_dict()
    assert doc["p"] == 2
    assert doc["max_valence"] == report.max_valence
    assert isinstance(doc["counts"], dict)
    assert all(isinstance(k, str) for k in doc["counts"])
    assert doc["consistent_with_p"] is True


# ---------------------------------------------------------------------------
# Newton preimages


def test_preimages_match_polynomial_oracle():
    """For w = 1/2 on the real axis the preimage equation of the p=2 preset
    restricted to real z is 0.4 z**5 + z**2 - 0.5 = 0; its two real roots in
    (-1, 1) are the only preimages (checked against numpy.roots)."""
    pre = newton_preimages(EX1, 0.5, n_starts=256)
    assert pre.count == 2
    poly_roots = np.roots([0.4, 0.0, 0.0, 1.0, 0.0, -0.5])
    real = np.sort([r.real for r in poly_roots if abs(r.imag) < 1e-12 and abs(r) < 1])
    got = np.sort(pre.roots.real)
    assert np.max(np.abs(pre.roots.imag)) < 1e-9
    assert np.max(np.abs(got - real)) < 1e-8
    # residuals are |f(z) - w| after convergence
    for z in pre.roots:
        assert abs(eval_f_many(EX1, complex(z)) - 0.5) < 1e-9
    assert max(pre.residuals) < 1e-9


def test_preimages_seeded_probes_p3():
    """At random targets the preimage count must reproduce the winding
    number (simple roots only; the scan says valence <= 3)."""
    rng = np.random.default_rng(47)
    tr = trace_circle(EX2, 0.999, n=2048)
    for _ in range(6):
        w = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if np.min(np.abs(tr.points - w)) < 1e-2:
            continue
        wind = winding_number(tr, w).winding
        pre = newton_preimages(EX2, w, n_starts=200)
        inside = np.sum(np.abs(pre.roots) < 0.999)
        assert inside == wind


def test_cross_check_refuses_trace_of_another_map_or_radius():
    tr = trace_circle(EX1, 0.999, n=1024)
    for spec, r in ((EX2, 0.5), (EX2, 0.999), (EX1, 0.5)):
        with pytest.raises(ParameterError):
            cross_check(spec, 0.5, r=r, trace=tr)
    for same in (presets.example1(), HarmonicMapSpec(PolySeries(2, (1 + 0j,)), 4)):
        verdict, details = cross_check(same, 0.5, r=0.999, trace=tr)
        assert verdict == CrossCheck.AGREE and details["winding"] == 2


def test_preimages_requires_enough_starts():
    with pytest.raises(ParameterError):
        newton_preimages(EX1, 0.5, n_starts=50)


def test_preimages_none_outside_image():
    pre = newton_preimages(EX1, 25.0 + 0j, n_starts=128)
    assert pre.count == 0


def test_preimages_deduplication():
    """All converged starts collapse to the distinct root set."""
    pre = newton_preimages(EX1, 0.5, n_starts=512)
    assert pre.count == 2
    assert pre.n_converged >= 100
    d = abs(pre.roots[0] - pre.roots[1])
    assert d > 1e-3


# Poles of h' at radius |0.3+0.1i|**(-1/6), about 1.21: off the circle.
RATIONAL_OFF = HarmonicMapSpec(
    RationalDeriv(p=2, numer=(0, 2), denom=(1, 0, 0, 0, 0, 0, 0.3 + 0.1j)), 3)


def _same_preimages(a, b) -> bool:
    return (type(a.w) is type(b.w) and a.w == b.w
            and a.n_converged == b.n_converged and a.n_dropped == b.n_dropped
            and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                    for x, y in ((a.roots, b.roots), (a.residuals, b.residuals))))


@pytest.mark.parametrize("spec", [EX1, EX2, presets.star(), RATIONAL_OFF],
                         ids=["example1", "example2", "star", "rational"])
def test_preimages_many_matches_single_probe(spec, monkeypatch):
    """Solving probes together changes no bit of any probe's result, also
    across a block boundary (shrunk here to 3 probes).  On star the probe
    at the origin has halving steps with one live start, whose f must be
    rounded as a one-point call rounds it."""
    tr = trace_circle(spec, 0.999, 1024)
    re, im = tr.points.real, tr.points.imag
    rng = np.random.default_rng(29)
    ws = [complex(rng.uniform(re.min(), re.max()), rng.uniform(im.min(), im.max()))
          for _ in range(5)]
    # the origin (a p-fold preimage at z = 0), a repeat, and a w far outside
    ws += [0j, ws[2], complex(10 * np.ptp(re) + re.max(), 0.0)]
    single = [newton_preimages(spec, w, n_starts=128) for w in ws]
    batched = valence.newton_preimages_many(spec, ws, n_starts=128)
    assert len(batched) == len(ws)
    assert all(_same_preimages(a, b) for a, b in zip(single, batched))
    assert batched[-1].count == 0
    monkeypatch.setattr(valence, "_NEWTON_BLOCK", 3)
    blocks = valence.newton_preimages_many(spec, ws, n_starts=128)
    assert all(_same_preimages(a, b) for a, b in zip(single, blocks))
    assert valence.newton_preimages_many(spec, []) == []


@pytest.mark.parametrize("spec", [EX1, EX2, presets.star(), presets.octagon(), RATIONAL_OFF],
                         ids=["example1", "example2", "star", "octagon", "rational"])
def test_preimages_match_one_try_per_halving_reference(spec):
    """``newton_preimages_many`` against ``oracles.newton_reference``, a
    one-probe loop with one evaluation of f per try that shares only f and
    h' with it: the same roots, residuals and converged count, bit for bit,
    at random probes, the origin and a w far outside the image."""
    tr = trace_circle(spec, 0.999, 1024)
    re, im = tr.points.real, tr.points.imag
    rng = np.random.default_rng(41)
    ws = [complex(rng.uniform(re.min(), re.max()), rng.uniform(im.min(), im.max()))
          for _ in range(3)]
    ws += [0j, complex(re.max() + 5 * np.ptp(re), 1.0)]
    got = valence.newton_preimages_many(spec, ws, n_starts=128)
    for w, pre in zip(ws, got):
        roots, residuals, n_converged = oracles.newton_reference(
            lambda z: ((v := eval_f_many(spec, z, on_pole="nan")), np.isnan(v)),
            lambda z: eval_h_prime_many(spec.h, z, on_pole="nan"), spec.m, w, n_starts=128)
        assert pre.roots.tobytes() == roots.tobytes()
        assert pre.residuals.tobytes() == residuals.tobytes()
        assert pre.n_converged == n_converged
    assert got[-1].count == 0


@pytest.mark.parametrize("spec", [EX1, EX2, presets.star(), presets.octagon(), RATIONAL_OFF],
                         ids=["example1", "example2", "star", "octagon", "rational"])
def test_batched_halvings_match_sequential(spec, monkeypatch):
    """Trying all remaining halvings of the last few pairs in one call gives
    the bits of trying them one call at a time."""
    tr = trace_circle(spec, 0.999, 1024)
    rng = np.random.default_rng(37)
    ws = [complex(rng.uniform(tr.points.real.min(), tr.points.real.max()),
                  rng.uniform(tr.points.imag.min(), tr.points.imag.max())) for _ in range(4)]
    ws += [0j, complex(5 * np.ptp(tr.points.real) + tr.points.real.max(), 1.0)]
    runs = []
    for width in (0, 10 ** 6, valence._BATCH_HALVINGS):
        monkeypatch.setattr(valence, "_BATCH_HALVINGS", width)
        runs.append(valence.newton_preimages_many(spec, ws, n_starts=128))
    for other in runs[1:]:
        assert all(_same_preimages(a, b) for a, b in zip(runs[0], other))


def test_skipped_tries_all_lie_outside():
    """``_skip_outside`` jumps over the halving tries it proves outside the
    disk and tests the rest one at a time: it must stop at the first try
    that one-at-a-time testing from the start finds inside, with the same
    step bits, also for iterates within 1e-16 of the circle and steps from
    1e-18 to 1e8 in random, radial and tangential directions."""
    rng = np.random.default_rng(53)
    n, confine = 20000, valence._CONFINE
    za = confine * (1 - 10.0 ** rng.uniform(-16, 0, n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    za = za[np.abs(za) < confine]
    n = za.size
    unit = za / np.abs(za)
    size = 10.0 ** rng.uniform(-18, 8, n)
    step = size * np.choose(rng.integers(0, 4, n), [unit, -unit, 1j * unit,
                                                    np.exp(1j * rng.uniform(-np.pi, np.pi, n))])
    tries = rng.integers(0, 5, n)
    want_step, want_tries = step.copy(), tries.copy()
    out = np.arange(n)
    while out.size:
        out = out[want_tries[out] < valence._HALVINGS]
        out = out[~(np.abs(za[out] + want_step[out]) < confine)]
        want_step[out] = want_step[out] * 0.5
        want_tries[out] += 1
    left = valence._skip_outside(za, step, tries, np.arange(n))
    assert np.array_equal(tries, want_tries)
    assert np.array_equal(left, np.flatnonzero(want_tries < valence._HALVINGS))
    assert step[left].tobytes() == want_step[left].tobytes()
    assert 0 < left.size < n


@pytest.mark.parametrize("w, most", [(5 + 5j, 125), (0.338 + 0.293j, 125)])
def test_star_solve_batches_its_last_halvings(w, most, monkeypatch):
    """A one-probe solve whose few straggling starts halve until the last
    Newton step makes about a hundred f evaluations (115 and 114 here), not
    one per halving: tries outside the disk are skipped unevaluated, and
    the last few pairs' remaining tries share one call."""
    calls = []
    eval_f = valence.eval_f_many

    def counted(*args, **kwargs):
        calls.append(1)
        return eval_f(*args, **kwargs)

    monkeypatch.setattr(valence, "eval_f_many", counted)
    newton_preimages(presets.star(), w)
    assert 0 < len(calls) <= most


def test_preimages_many_crosses_the_block_of_64():
    rng = np.random.default_rng(31)
    ws = [complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)) for _ in range(70)]
    batched = valence.newton_preimages_many(EX1, ws, n_starts=100)
    assert valence._NEWTON_BLOCK < len(ws)
    assert all(_same_preimages(newton_preimages(EX1, w, n_starts=100), b)
               for w, b in zip(ws, batched))


# ---------------------------------------------------------------------------
# Cross check


def test_cross_check_agrees_at_regular_value():
    verdict, details = cross_check(EX1, 0.5)
    assert verdict is CrossCheck.AGREE
    assert details["winding"] == details["preimages_inside"] == 2
    assert details["min_jacobian"] > 1.0


def test_cross_check_flags_degenerate_origin():
    """w = 0 pulls back to a double zero of the p=2 preset at z = 0, where
    the Jacobian vanishes; the verdict must be indeterminate, not a bare
    disagreement."""
    verdict, details = cross_check(EX1, 0.0)
    assert verdict is CrossCheck.INDETERMINATE_MULTIPLICITY
    assert details["min_jacobian"] is not None
    assert abs(details["min_jacobian"]) < 1e-8


def test_cross_check_reuses_supplied_trace():
    tr = trace_circle(EX1, 0.999, n=2048)
    v1, d1 = cross_check(EX1, 0.5, trace=tr)
    v2, d2 = cross_check(EX1, 0.5)
    assert v1 is v2 is CrossCheck.AGREE
    assert d1["winding"] == d2["winding"]


# ---------------------------------------------------------------------------
# Long-running use


def _library_round(seed: int) -> None:
    """One pass of the library over a fresh seeded map (a series for even
    seeds, a rational h' with a pole outside the disk for odd ones): the
    criterion, a scan, a trace with its windings, a scene and, on series,
    the Newton cross check."""
    draw = np.random.default_rng(seed).standard_normal(6) / 10
    a = [complex(draw[2 * i], draw[2 * i + 1]) / (i + 2) for i in range(3)]
    h = RationalDeriv(1, (1, a[0]), (1, 3 * a[1])) if seed % 2 else PolySeries(1, (1, *a))
    spec = HarmonicMapSpec(h, 2)
    report = check_criterion(spec, 1024)
    valence_scan(spec, grid=(16, 16), n_samples=512)
    trace = trace_circle(spec, 0.9, 512)
    windings = [w for w in winding_numbers(trace, [0j, 0.1 + 0.1j])
                if isinstance(w, WindingResult)]
    render_scene(spec, report, 512)
    if seed % 2 == 0:
        cross_check_many(spec, windings, r=0.9, n_starts=100)


def test_long_running_library_use_does_not_grow_memory():
    """After 20 warm-up rounds on fresh maps, 40 more leave under 256 KB
    behind (about 20 KB when measured): one 8,192-point complex array kept
    per round would leave 5 MB."""
    for seed in range(20):
        _library_round(seed)
    gc.collect()
    tracemalloc.start()
    try:
        for seed in range(20, 60):
            _library_round(seed)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024
