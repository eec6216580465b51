"""Winding numbers, the probe scan, Newton preimages, and the cross check."""

import math

import numpy as np
import pytest

from hvl import (
    CrossCheck,
    CurveTrace,
    IndeterminateProbeError,
    ParameterError,
    PolySeries,
    RationalDeriv,
    ResolutionError,
    ScanQualityError,
    cross_check,
    derive_g,
    eval_f_many,
    newton_preimages,
    presets,
    trace_circle,
    valence_scan,
    winding_number,
)
from hvl import valence
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


def test_scan_worker_count_does_not_change_results():
    """Sweep trials run in fixed blocks on worker threads and come back in
    trial order, so the worker count never changes the report."""
    config = SweepConfig(trials=40, seed=3, grid=(16, 16))
    a = run_sweep(config, workers=1)
    b = run_sweep(config, workers=8)
    assert a["n_kept"] > 0
    assert a == b


def _sweep_map(seed: int, p: int, m: int):
    """A map drawn like a conjecture-sweep trial (scale 0.2, degree 6)."""
    block = np.random.default_rng(seed).standard_normal(2 * (6 - p))
    coeffs = (1 + 0j,) + tuple(
        0.2 * complex(block[2 * i], block[2 * i + 1]) / (math.sqrt(2.0) * (p + 1 + i))
        for i in range(6 - p))
    return derive_g(PolySeries(p, coeffs), m)


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
    spec = derive_g(PolySeries(1, (1 + 0j,)), 8)  # f = z + conj(z**8) / 8
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


def test_scan_refuses_trace_of_another_map_or_radius():
    tr = trace_circle(EX1, 0.999, n=1024)
    for spec, r in ((EX2, 0.5), (EX2, 0.999), (EX1, 0.5)):
        with pytest.raises(ParameterError):
            valence_scan(spec, r=r, grid=(16, 16), trace=tr)
    assert valence_scan(presets.example1(), r=0.999, grid=(16, 16), trace=tr) \
        == valence_scan(EX1, r=0.999, grid=(16, 16), n_samples=1024)


def test_crossing_rule_with_vertices_on_probe_rows():
    """A densely sampled limacon with an inner loop (windings 0, 1 and 2),
    its vertices snapped onto probe rows wherever one is near: the row
    crossings, half-open in y, match the independent ray count at every
    probe off the polyline, including the rows through vertices, both on
    the 40 x 40 grid and on each probe's own 1 x 1 grid."""
    t = np.linspace(-math.pi, math.pi, 600, endpoint=False)
    pts = (0.5 + np.cos(t)) * np.exp(1j * t)
    xs, ys = valence._probe_grid(pts, 40, 40)
    step = ys[1] - ys[0]
    row = np.rint((pts.imag - ys[0]) / step).astype(int)
    interior = (pts.imag > pts.imag.min()) & (pts.imag < pts.imag.max())
    snap = interior & (np.abs(pts.imag - ys[row]) < 0.2 * step) \
        & (ys[row] > pts.imag.min()) & (ys[row] < pts.imag.max())
    pts = np.where(snap, pts.real + 1j * ys[row], pts)
    assert np.count_nonzero(snap) >= 40
    assert all(np.array_equal(a, b) for a, b in zip(valence._probe_grid(pts, 40, 40),
                                                    (xs, ys)))
    nxt = np.roll(pts, -1)
    got = valence._crossing_windings(pts, nxt, xs, ys).reshape(40, 40)
    on_vertex_row = np.isin(np.arange(40), row[snap])
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
            assert valence._crossing_windings(pts, nxt, xs[i:i + 1], ys[j:j + 1])[0] \
                == got[j, i]
            seen.add(int(got[j, i]))
            checked += on_vertex_row[j]
    assert seen == {0, 1, 2}
    assert checked >= 200


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
    with pytest.raises(ParameterError, match="2 x 2"):
        SweepConfig(grid=(1, 8))


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
    verdict, details = cross_check(presets.example1(), 0.5, r=0.999, trace=tr)
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
RATIONAL_OFF = derive_g(RationalDeriv(p=2, numer=(0, 2), denom=(1, 0, 0, 0, 0, 0, 0.3 + 0.1j)), 3)


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


@pytest.mark.parametrize("w, most", [(5 + 5j, 300), (0.338 + 0.293j, 200)])
def test_star_solve_batches_its_last_halvings(w, most, monkeypatch):
    """A one-probe solve whose few straggling starts halve until the last
    Newton step makes a few hundred f evaluations, not one per halving."""
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
