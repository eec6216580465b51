"""Boundary phase, level crossings, and the sufficient cusp-count condition.

The two series presets have closed forms worked out by hand and used as
oracles throughout:

* p=2, m=4, h = z**2:            H = 2,        F(t) = 7 t
* p=3, m=2, h = z**3 + (i/4)z**4: H = 3 + i z,  F(t) = 7 t + 2 arg(3 + i e^{it})
"""

import cmath
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvl import (
    BoundaryHypothesisError,
    HarmonicMapSpec,
    ParameterError,
    PhaseTable,
    PoleError,
    PolySeries,
    RationalDeriv,
    check_criterion,
    check_monotonicity_margin,
    criterion,
    eval_h_prime_many,
    eval_h_second_many,
    find_criterion_roots,
    level_set,
    monotonicity_margins,
    phase_function_derivative_many,
    phase_function_many,
    presets,
    unwrap_boundary_phase,
)
from hvl.cli import SweepConfig, run_sweep

import oracles

EX1 = presets.example1()
EX2 = presets.example2()


def test_level_set_bounds():
    assert list(level_set(2, 4)) == list(range(-4, 5))
    assert list(level_set(1, 2)) == list(range(-2, 3))
    assert list(level_set(3, 2)) == list(range(-4, 5))


def test_grid_size_must_be_pow2():
    for fn in (check_criterion, find_criterion_roots, check_monotonicity_margin):
        for bad in (1000, 3000, 512, 2048.0, True):
            with pytest.raises(ParameterError):
                fn(EX1, bad)
        with pytest.raises(ParameterError, match=f"to {criterion.MAX_GRID}"):
            fn(EX1, 2 * criterion.MAX_GRID)
    for bad in (1000, 3000, 2 * criterion.MAX_GRID):
        with pytest.raises(ParameterError):
            unwrap_boundary_phase(EX1.h, bad)
    assert criterion._grid(criterion.MAX_GRID) == criterion.MAX_GRID
    assert check_criterion(EX1, 2048).criterion_satisfied


# ---------------------------------------------------------------------------
# Phase tables


def test_unwrap_constant_normalized_derivative():
    """h = z**2 gives H = 2: zero phase, modulus 2, winding 0."""
    table = unwrap_boundary_phase(EX1.h)
    assert np.max(np.abs(table.phase)) < 1e-12
    assert table.min_modulus == pytest.approx(2.0, abs=1e-14)
    assert table.winding == 0


def test_unwrap_matches_reference_lift():
    """Table phase for H = 3 + i e^{it} against numpy's unwrap of the
    pointwise principal arguments."""
    table = unwrap_boundary_phase(EX2.h)
    want = oracles.unwrap_ref(np.angle(3.0 + 1j * np.exp(1j * table.t)))
    # both anchored at the principal value at t = -pi, so no offset
    assert np.max(np.abs(table.phase - want)) < 1e-10
    assert table.min_modulus == pytest.approx(2.0, abs=1e-14)
    assert table.winding == 0


def test_phase_table_eval_branch_consistency():
    """exp(i * eval(t)) must reproduce H/|H| at off-grid angles."""
    table = unwrap_boundary_phase(EX2.h)
    rng = np.random.default_rng(3)
    ts = rng.uniform(-np.pi, np.pi, size=200)
    lifted = table.eval_many(ts)
    direct = 3.0 + 1j * np.exp(1j * ts)
    err = np.abs(np.exp(1j * lifted) - direct / np.abs(direct))
    assert np.max(err) < 1e-12
    # a 0-d angle gives the same bits as the same angle inside a 1-d array
    for t, want in zip(ts[:5], lifted[:5]):
        got = table.eval_many(t)
        assert got.shape == ()
        assert got.tobytes() == want.tobytes()


def test_phase_function_endpoint_values():
    """F(-pi), F(0), F(pi) for the p=3 preset, closed form."""
    table = unwrap_boundary_phase(EX2.h)
    a = math.atan(1.0 / 3.0)
    f = lambda t: float(phase_function_many(EX2, t, table))
    assert f(-math.pi) == pytest.approx(-7 * math.pi - 2 * a, abs=1e-10)
    assert f(0.0) == pytest.approx(2 * a, abs=1e-10)
    assert f(math.pi) == pytest.approx(7 * math.pi - 2 * a, abs=1e-10)
    # total drift across one period is 2 pi (2p+m-1)
    drift = f(math.pi) - f(-math.pi)
    assert drift / (2 * math.pi) == pytest.approx(7.0, abs=1e-12)


def test_phase_function_derivative_closed_forms():
    # constant for h = z**2: F' = m+1 + 2 Re(z h''/h') = 5 + 2 = 7
    rng = np.random.default_rng(5)
    ts = rng.uniform(-np.pi, np.pi, size=50)
    vals = phase_function_derivative_many(EX1, ts)
    assert np.max(np.abs(vals - 7.0)) < 1e-12
    # p=3 preset at t = 0: 3 + 2 Re((6+3i)/(3+i)) = 3 + 2*2.1
    at_0 = float(phase_function_derivative_many(EX2, 0.0))
    assert at_0 == pytest.approx(7.2, abs=1e-12)


def test_phase_function_derivative_against_differences():
    table = unwrap_boundary_phase(EX2.h)
    rng = np.random.default_rng(19)
    ts = rng.uniform(-3.0, 3.0, size=50)
    got = phase_function_derivative_many(EX2, ts)
    step = 1e-5
    fd = (phase_function_many(EX2, ts + step, table)
          - phase_function_many(EX2, ts - step, table)) / (2 * step)
    assert np.max(np.abs(got - fd) / np.abs(got)) < 1e-7


# ---------------------------------------------------------------------------
# Root finding


def test_roots_of_linear_phase():
    """F(t) = 7t crosses level 2 pi k at t = 2 pi k / 7, k = -3..3."""
    roots = find_criterion_roots(EX1)
    assert len(roots) == 7
    assert all(not r.suspected_tangency for r in roots)
    for r, k in zip(roots, range(-3, 4)):
        assert r.k == k
        assert abs(r.t - 2 * math.pi * k / 7.0) < 1e-10
        assert r.residual < 1e-9
        # image of every cusp angle has modulus 1 + 2/5
        assert abs(r.boundary_image) == pytest.approx(1.4, abs=1e-12)


def test_roots_one_per_level_p3():
    roots = find_criterion_roots(EX2)
    assert len(roots) == 7
    assert sorted(r.k for r in roots) == list(range(-3, 4))
    ts = np.array([r.t for r in roots])
    assert np.all(np.diff(ts) > 0)  # sorted by angle, strictly
    # residuals are |F(t) - 2 pi k| after polishing
    assert max(r.residual for r in roots) < 1e-9


def test_root_at_domain_seam_counted_once():
    """h = z**3, m = 5: F = 10 t has a crossing exactly at t = -pi, and the
    matching one at +pi must not be double counted."""
    roots = find_criterion_roots(HarmonicMapSpec(PolySeries(3, (1 + 0j,)), 5))
    assert len(roots) == 10  # 2p+m-1
    ts = sorted(r.t for r in roots)
    want = [-math.pi + math.pi * j / 5.0 for j in range(10)]
    assert np.max(np.abs(np.array(ts) - np.array(want))) < 1e-10


def _check_pure_power(p, m):
    """h = z**p gives H = p, so F = N t with N = 2p+m-1: one root per level k
    at t = 2 pi k / N in [-pi, pi), the one at -pi included when N is even."""
    n = 2 * p + m - 1
    report = check_criterion(HarmonicMapSpec(PolySeries(p, (1 + 0j,)), m))
    ks = list(range(-(n // 2), n - n // 2))
    assert [r.k for r in report.roots] == ks
    want = 2 * math.pi * np.array(ks) / n
    assert np.max(np.abs(np.array([r.t for r in report.roots]) - want)) < 1e-10
    assert all(v <= 1 for v in report.per_level_counts.values())
    assert report.total_roots == n
    assert report.criterion_satisfied


@pytest.mark.parametrize("m", [2, 3])
def test_roots_of_pure_power_at_large_p(m):
    _check_pure_power(800, m)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(p=st.integers(1, 400), m=st.integers(2, 8))
def test_roots_of_pure_power(p, m):
    _check_pure_power(p, m)


@pytest.mark.parametrize("k, sign", [(0, 1.0), (1, -1.0)])
def test_tangency_is_recorded_once(k, sign):
    """A hand-built phase table whose F touches the level 2 pi k within
    1e-8 at one interior sample, from one side, and crosses no level."""
    t = np.linspace(-math.pi, math.pi, 8193)
    s = 3000
    f = 2 * math.pi * k + sign * (5e-9 + 0.1 * (t - t[s]) ** 2)
    table = PhaseTable(spec=EX1.h, t=t, phase=(f - 7 * t) / 2.0, min_modulus=2.0)
    roots = find_criterion_roots(EX1, table=table)
    assert len(roots) == 1
    r = roots[0]
    assert r.suspected_tangency
    assert r.k == k
    assert r.t == t[s]
    assert r.boundary_image is None
    assert r.residual < 1e-8


def test_precomputed_table_is_honored():
    table = unwrap_boundary_phase(EX2.h)
    a = find_criterion_roots(EX2, table=table)
    b = find_criterion_roots(EX2)
    assert [(r.k, r.t) for r in a] == [(r.k, r.t) for r in b]


def test_root_finder_call_counts(monkeypatch):
    """Bisection takes a dyadic subtree per call: example2 needs at most 8
    ``eval_many`` calls (31 with one halving per call), each of at most 256
    points; example1 at p = 250, one halving per call, at most 31."""
    calls = []
    real = PhaseTable.eval_many

    def counted(self, tq):
        calls.append(np.size(tq))
        return real(self, tq)

    monkeypatch.setattr(PhaseTable, "eval_many", counted)
    assert len(find_criterion_roots(EX2)) == 7
    assert len(calls) <= 8 and max(calls) <= 256, calls
    calls.clear()
    assert len(find_criterion_roots(presets.example1(250, 2))) == 501
    assert len(calls) <= 31, calls


def _cubic(t, c, r1, r2, r3, e):
    """c (t - r1) ((t - r2) (t - r3) + e), the same operations on floats and
    on arrays: one root at r1 where e > 0 and r2 = r3 = 0, three where e = 0."""
    return c * (t - r1) * ((t - r2) * (t - r3) + e)


def _assert_bisect_matches_reference(a, b, params, tol):
    """``_bisect_all`` on the brackets [a, b] of ``_cubic`` with per-bracket
    ``params`` has the bits of the scalar reference, bracket by bracket."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    params = [np.broadcast_to(np.asarray(q, dtype=float), a.shape) for q in params]
    fa, fb = _cubic(a, *params), _cubic(b, *params)
    assert np.all(fa * fb < 0)
    got = criterion._bisect_all(lambda t, rows: _cubic(t, *(q[rows] for q in params)),
                                a, b, fa, fb, tol)
    want = np.array([oracles.bisect_reference(
        lambda t, i=i: _cubic(t, *(float(q[i]) for q in params)),
        float(a[i]), float(b[i]), float(fa[i]), float(fb[i]), tol) for i in range(a.size)])
    want = want.reshape(-1, 2).T
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return got


# the depth k of a call changes between R = 1|2, 2|3, 4|5, 8|9, 17|18, 36|37 and 85|86
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 18, 36, 37, 85, 86, 129, 505])
def test_bisect_matches_the_scalar_reference(count):
    """Grid-sized brackets of mixed widths, every fourth one a few halvings
    from tol and every fifth one holding three sign changes."""
    rng = np.random.default_rng(count)
    tol = 1e-12
    a = np.sort(rng.uniform(-math.pi, math.pi, count))
    w = 2 * math.pi / 8192 * rng.uniform(0.25, 1.0, count)
    w[::4] = tol * 2.0 ** rng.integers(0, 12, w[::4].size) * rng.uniform(1.0, 2.0, w[::4].size)
    b = a + w
    c = rng.choice([-1.0, 1.0], count) * rng.uniform(0.5, 2.0, count)
    r1 = a + w * rng.uniform(0.01, 0.99, count)
    r2, r3, e = np.zeros(count), np.zeros(count), np.ones(count)
    triple = np.arange(count) % 5 == 1
    r1[triple], r2[triple], r3[triple] = (a + w * np.sort(
        rng.uniform(0.05, 0.95, (3, count)), axis=0))[:, triple]
    e[triple] = 0.0
    _assert_bisect_matches_reference(a, b, (c, r1, r2, r3, e), tol)


@pytest.mark.parametrize("roots", [
    [0.5], [2.0 ** -8], [2.0 ** -9],  # one bracket: depth 1, depth k = 8, depth k + 1
    [0.5, 2.0 ** -5, 2.0 ** -6, 21 / 32, 43 / 64, 0.3, 0.7],  # seven: k = 5
])
def test_bisect_stops_at_exact_zeros(roots):
    """F = t - r on [0, 1] is exactly 0 at a dyadic midpoint r of depth 1, k
    or k + 1 (in the second call); that ends the bracket with a = r."""
    roots = np.array(roots)
    ones, zeros = np.ones(roots.size), np.zeros(roots.size)
    t, f = _assert_bisect_matches_reference(zeros, ones, (1.0, roots, 0.0, 0.0, 1.0), 1e-12)
    dyadic = roots * 2.0 ** 9 == np.round(roots * 2.0 ** 9)
    assert np.array_equal(t[dyadic], roots[dyadic]) and not np.any(f[dyadic])


def test_bisect_stays_at_a_zero_with_the_sign_of_a_beyond():
    """(t - r1) (t - r2) (t - r3) on [0, 1] is 0 at the midpoint r1 of depth
    1 or 3 and has the sign of F(0) again beyond r2: a stays at r1."""
    r1, r2, r3 = np.array([(0.5, 0.55, 0.95), (0.375, 0.4, 0.45), (0.625, 0.65, 0.7)] * 2).T
    t, f = _assert_bisect_matches_reference(np.zeros(6), np.ones(6), (1.0, r1, r2, r3, 0.0), 1e-12)
    assert np.array_equal(t, r1) and not np.any(f)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("a, b, params, tol", [
    (1.0, 2.0, (1.0, -5.0, 0.0, 0.0, -2.0), 0.0),  # stuck between neighbouring floats
    (1.0, 2.0, (1.0, -5.0, 0.0, 0.0, -2.0), -1.0),
    (0.0, 1.0, (1.0, 1e-61, 0.0, 0.0, 1e-122), 1e-300),  # still 6e-61 wide after 200
])
def test_bisect_stops_after_200_halvings(count, a, b, params, tol):
    """Brackets that 200 halvings do not bring to tol: (t + 5) (t**2 - 2)
    has no float zero in [1, 2], and the secant steps from [0, 2**-200]
    miss the root 1e-61 of (t - 1e-61) (t**2 + 1e-122)."""
    evaluations = []
    real = oracles.bisect_reference

    def counting(fn, *args):
        evaluations.append(0)

        def counted(t):
            evaluations[-1] += 1
            return fn(t)
        return real(counted, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "bisect_reference", counting)
        _assert_bisect_matches_reference(np.full(count, a), np.full(count, b), params, tol)
    assert min(evaluations) >= 200


def test_bisect_of_criterion_brackets_matches_the_reference(monkeypatch):
    """The brackets and phase function of ``find_criterion_roots`` on
    example2 and a rational map: the reference evaluates one point per call."""
    seen = []
    real = criterion._bisect_all
    monkeypatch.setattr(criterion, "_bisect_all",
                        lambda *args: seen.append(args) or real(*args))
    rational = HarmonicMapSpec(RationalDeriv(2, (0, 2), (1, 0, 0, 0, 0, 0.5 + 0.3j)), 2)
    for spec in (EX2, rational):
        find_criterion_roots(spec)
    for fn, a, b, fa, fb, tol in seen:
        got = real(fn, a, b, fa, fb, tol)
        want = np.array([oracles.bisect_reference(
            lambda t, i=i: float(fn(np.array([t]), np.array([i]))[0]),
            float(a[i]), float(b[i]), float(fa[i]), float(fb[i]), tol) for i in range(a.size)]).T
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# Monotonicity margin


def test_margin_closed_forms():
    # h = z**2, m = 4: Re(1 + z h''/h') = 2 everywhere, margin 2 + 3/2
    assert check_monotonicity_margin(EX1) == pytest.approx(3.5, abs=1e-12)
    # h = z**3, m = 5: Re(1 + 2) = 3, margin 3 + 2
    margin = check_monotonicity_margin(HarmonicMapSpec(PolySeries(3, (1 + 0j,)), 5))
    assert margin == pytest.approx(5.0, abs=1e-12)
    # p=3 preset: infimum over the disk is 3.0, approached radially
    margin2 = check_monotonicity_margin(EX2)
    assert 3.0 <= margin2 < 3.01


def test_margin_sees_interior_critical_point():
    """h = z + (5/2) z**2 has h'(-1/5) = 0; near that point the condition
    fails badly and the hugging circles must see it."""
    margin = check_monotonicity_margin(HarmonicMapSpec(PolySeries(1, (1 + 0j, 2.5 + 0j)), 2))
    assert margin < -100.0
    assert margin == pytest.approx(-997.5, abs=1.0)


def _random_series(rng, p, degree, scale):
    """h = z**p + ... + a_degree z**degree with a_n ~ scale N(0, 1) / n."""
    return (1 + 0j,) + tuple(scale * complex(*rng.standard_normal(2)) / n
                             for n in range(p + 1, degree + 1))


def _zero_free(p, coeffs):
    return bool(np.all(np.abs(oracles.margin_singular_points(p, coeffs)) > 1 - 1e-6))


def _assert_at_or_above(margin, oracle):
    assert oracle <= margin <= oracle + 1e-12 * max(1.0, abs(oracle))


def test_margin_of_zero_free_maps_matches_every_circle():
    """Without a zero of H or a pole of h' in the sampled disk, the outer
    circle alone gives the minimum over all of the full sampler's circles,
    up to rounding and never below it (minimum principle)."""
    rng = np.random.default_rng(2013)
    checked = 0
    for _ in range(2000):
        p = int(rng.integers(1, 4))
        coeffs = _random_series(rng, p, p + int(rng.integers(0, 7)),
                                float(rng.uniform(0.05, 0.6)))
        if not _zero_free(p, coeffs):
            continue
        m = int(rng.integers(2, 5))
        spec = HarmonicMapSpec(PolySeries(p, coeffs), m)
        _assert_at_or_above(check_monotonicity_margin(spec, 2048),
                            oracles.margin_all_circles(p, m, coeffs, grid=2048))
        checked += 1
        if checked == 500:
            break
    assert checked == 500
    for spec in (presets.star(), presets.octagon(), presets.flat_sided(3, 2),
                 presets.flat_sided(1, 4)):
        h = spec.h
        _assert_at_or_above(check_monotonicity_margin(spec),
                            oracles.margin_all_circles(h.p, spec.m, numer=h.numer,
                                                       denom=h.denom))


def test_margin_with_interior_zeros_samples_every_circle():
    """With zeros of H inside the disk the margin is the full sampler's,
    bit for bit."""
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(200):
        coeffs = _random_series(rng, 1, 6, 0.2)
        if _zero_free(1, coeffs):
            continue
        assert (check_monotonicity_margin(HarmonicMapSpec(PolySeries(1, coeffs), 2))
                == oracles.margin_all_circles(1, 2, coeffs))
        checked += 1
    assert checked >= 50


def test_margin_with_a_zero_near_the_circle_between_samples():
    """A zero of H near r = 1 - 1e-6 and between two sampled angles makes a
    dip narrower than an angle step on that circle, which its samples miss
    and the inner circles catch: within one step of the circle every circle
    is sampled, bit for bit the full sampler; beyond it the outer circle
    alone stays at or just above the full sampler."""
    step = 2 * math.pi / 8192
    for r0 in (1 - 5e-7, 1 + 1e-6, 1 + 0.9 * step):
        coeffs = (1 + 0j, -0.5 / (r0 * cmath.exp(0.5j * step)))  # H = 1 - z/z0
        margin = check_monotonicity_margin(HarmonicMapSpec(PolySeries(1, coeffs), 6))
        assert margin == oracles.margin_all_circles(1, 6, coeffs)
        assert margin < -100
    rng = np.random.default_rng(8192)
    for gap in (1.01, 1.1, 1.5, 2.0, 4.0, 16.0):
        for _ in range(8):
            z0 = ((1 - 1e-6 + gap * step)
                  * cmath.exp(1j * step * (int(rng.integers(-4096, 4096)) + rng.uniform())))
            for p, coeffs in ((1, (1 + 0j, -0.5 / z0)),                    # simple zero
                              (1, (1 + 0j, -1 / z0, 1 / (3 * z0 ** 2))),   # double zero
                              # H = (1 - z/z0)(1 - z/3i)
                              (2, (1 + 0j, -2 / 3 * (1 / z0 + 1 / 3j), 1 / (6j * z0)))):
                assert _zero_free(p, coeffs)
                spec = HarmonicMapSpec(PolySeries(p, coeffs), 2)
                _assert_at_or_above(check_monotonicity_margin(spec),
                                    oracles.margin_all_circles(p, 2, coeffs))


def test_margin_counts_its_circles(monkeypatch):
    """One circle for a map whose zeros of H and poles of h' all lie more
    than an angle step beyond r = 1 - 1e-6, 4 + 2k circles for k of them
    inside |z| < 1 - 1e-9, and 4 for a zero within the step outside.
    Counted by the one evaluation of h' and h'' per circle."""
    calls = []
    real = criterion._derivatives_into

    def counted(spec, z, *args):
        calls.append(z.size)
        return real(spec, z, *args)

    monkeypatch.setattr(criterion, "_derivatives_into", counted)
    step = 2 * math.pi / 1024
    cases = [
        (EX1.h, 1), (EX2.h, 1),
        (presets.star().h, 4), (presets.octagon().h, 4),          # poles on |z| = 1
        (PolySeries(1, (1 + 0j, 0.1 + 0.2j, -0.05j)), 1),
        # H = 1 - z/z0 with z0 just beyond the sampled circle: within one
        # angle step of it every circle is sampled (hugging z0 if |z0| < 1)
        (PolySeries(1, (1 + 0j, -0.5 / (1 - 5e-7))), 6),
        (PolySeries(1, (1 + 0j, -0.5 / (1 + 0.5 * step))), 4),
        (PolySeries(1, (1 + 0j, -0.5 / (1 + 1.01 * step))), 1),
        (PolySeries(1, (1 + 0j, 2.5 + 0j)), 6),                  # H zero at -1/5
        (PolySeries(1, (1 + 0j, 1 / 3 + 0j, -40 / 9 + 0j)), 8),  # H zeros 0.3, -0.25
        (RationalDeriv(1, (1,), (1, -2)), 6),                    # pole at 1/2
        (RationalDeriv(1, (1, -3), (1, -2)), 8),                 # H zero 1/3, pole 1/2
    ]
    for spec, circles in cases:
        calls.clear()
        check_monotonicity_margin(HarmonicMapSpec(spec, 2), 1024)
        assert calls == [1024] * circles, spec


def _margin_by_evaluators(map_spec, grid_size=8192):
    """The margin as it was sampled before the per-call buffers: on the
    same radii, one ``eval_h_prime_many`` and one ``eval_h_second_many``
    call per circle, then ``np.real(1.0 + z * hpp / hp)``."""
    unit = criterion._circle(grid_size)[1][:grid_size]
    h, outer = map_spec.h, 1.0 - 1e-6
    singular = np.concatenate([h.H_zeros, h.poles])
    radii = [outer]
    if not np.all(np.abs(singular) > outer + 2 * math.pi / grid_size):
        radii = [0.9, 0.99, 0.999, outer]
        for z0 in singular:
            r0 = abs(z0)
            if 1e-9 < r0 < 1.0 - 1e-9:
                radii.extend([min(r0 * (1 + 1e-3), 1.0 - 1e-9), r0 * (1 - 1e-3)])
    worst = math.inf
    for r in radii:
        z = r * unit
        hp = eval_h_prime_many(h, z, on_pole="raise")
        hpp = eval_h_second_many(h, z, on_pole="raise")
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.real(1.0 + z * hpp / hp)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            loc = z[bad][0]
            raise PoleError(f"h' vanishes at a sampled point z = {loc:.6g}",
                            location=complex(loc))
        worst = min(worst, float(vals.min()))
    return worst + (map_spec.m - 1) / 2.0


def _same_margin(got, want):
    """Equal margins by ``float.hex``, or equal ``PoleError``s."""
    if isinstance(want, PoleError):
        return (type(got) is type(want) and str(got) == str(want)
                and got.location == want.location)
    return not isinstance(got, PoleError) and float.hex(got) == float.hex(want)


# Maps whose margins must keep their bits: a pole of h' at 1/2, h' = 1 - z/0.99
# (zero at a sampled point), h' = 1/(0.99 - z) (pole at a sampled point), and
# h' finite where h'' = N2/Q**2 overflows (Q about 1e-200).
POLE_AT_HALF = HarmonicMapSpec(RationalDeriv(1, (1,), (1, -2)), 2)
ZERO_ON_GRID = HarmonicMapSpec(PolySeries(1, (1 + 0j, -1 / (2 * 0.99))), 2)
POLE_ON_GRID = HarmonicMapSpec(RationalDeriv(1, (1,), (0.99, -1)), 2)
H2_OVERFLOWS = HarmonicMapSpec(RationalDeriv(1, (1,), (-0.5e-200, 1e-200)), 2)


def test_margin_keeps_the_bits_of_the_evaluators():
    """The margin from per-call buffers equals, by ``float.hex``, the one
    from the public evaluators, for series of p = 1, 2, 3 (and h = z, whose
    h' is constant) at scales 0.2 (one circle) and 1.5 (zeros of H inside,
    every circle), rational maps with poles inside and on the circle, and
    the same ``PoleError`` (message and location) where one is raised."""
    rng = np.random.default_rng(24)
    maps = [HarmonicMapSpec(PolySeries(1, (1 + 0j,)), 2), presets.star(), presets.octagon(),
            presets.flat_sided(3, 2), POLE_AT_HALF, ZERO_ON_GRID, POLE_ON_GRID, H2_OVERFLOWS]
    for p in (1, 2, 3):
        for scale in (0.2, 1.5):
            maps += [HarmonicMapSpec(PolySeries(p, _random_series(rng, p, 6, scale)),
                                     int(rng.integers(2, 5))) for _ in range(12)]
    errors = set()
    for grid in (1024, 8192):
        for map_spec in maps:
            want = _margin_or_error(map_spec, lambda s: _margin_by_evaluators(s, grid))
            got = _margin_or_error(map_spec, lambda s: check_monotonicity_margin(s, grid))
            assert _same_margin(got, want), map_spec
            if isinstance(want, PoleError):
                errors.add(str(want).split(" at ")[0])
    assert errors == {"h' vanishes", "h' has a pole", "h'' has a pole"}


def test_sweep_margins_keep_their_pinned_bits():
    """``conjecture --trials 64 --seed 7`` at (p, m, max degree) = (1, 2, 6)
    and (2, 3, 5) gives the margins recorded in ``tests/data``, by
    ``float.hex``."""
    path = pathlib.Path(__file__).parent / "data" / "sweep_margins_seed7.json"
    pinned = json.loads(path.read_text())["margins"]
    assert len(pinned) == 2
    for key, want in pinned.items():
        p, m, degree = (int(part.split("=")[1]) for part in key.split(","))
        report = run_sweep(SweepConfig(trials=64, seed=7, p=p, m=m, max_degree=degree))
        got = [None if row["margin"] is None else float.hex(row["margin"])
               for row in report["samples"]]
        assert got == want, key


def _margin_or_error(map_spec, margin_of=check_monotonicity_margin):
    try:
        return margin_of(map_spec)
    except PoleError as exc:
        return exc


def test_margins_of_a_block_equal_the_one_map_margins():
    """``monotonicity_margins`` over blocks of 16 maps gives each map's
    ``check_monotonicity_margin`` bit for bit, and returns, not raises, the
    same ``PoleError`` for a map whose h' vanishes at a sampled point."""
    rng = np.random.default_rng(19)
    maps = [HarmonicMapSpec(PolySeries(1, (1 + 0j, -1 / (2 * 0.99))), 2),  # h'(0.99) = 0
            presets.star(), presets.octagon(), presets.flat_sided(3, 2),
            presets.flat_sided(1, 4)]
    for _ in range(520):
        p = int(rng.integers(1, 4))
        scale = float(rng.choice([0.2, 0.2, 1.5]))  # the larger scale puts zeros of H inside
        maps.append(HarmonicMapSpec(PolySeries(p, _random_series(rng, p, 6, scale)),
                                    int(rng.integers(2, 5))))
    maps = [maps[i] for i in rng.permutation(len(maps))]
    kinds = {"zero-free": 0, "interior zeros": 0, "error": 0}
    for start in range(0, len(maps), 16):
        block = maps[start:start + 16]
        for map_spec, got in zip(block, monotonicity_margins(block), strict=True):
            want = _margin_or_error(map_spec)
            if isinstance(want, PoleError):
                kinds["error"] += 1
                assert type(got) is type(want)
                assert str(got) == str(want) and got.location == want.location
                assert got.__traceback__ is None
                continue
            assert float.hex(got) == float.hex(want), map_spec
            h = map_spec.h
            if isinstance(h, PolySeries):
                kinds["zero-free" if _zero_free(h.p, h.coeffs) else "interior zeros"] += 1
    assert kinds["error"] >= 1 and kinds["zero-free"] >= 300 and kinds["interior zeros"] >= 50
    # blocks that share their buffers across kinds, degrees and errors: an
    # error between two good maps, and h'' = 0 (h = z) right after h'' != 0
    h_is_z = HarmonicMapSpec(PolySeries(1, (1 + 0j,)), 2)
    series = [m for m in maps if isinstance(m.h, PolySeries)]
    blocks = [[EX1, h_is_z, EX2, ZERO_ON_GRID, presets.star(), h_is_z],
              [presets.octagon(), POLE_ON_GRID, series[0], H2_OVERFLOWS, series[1], h_is_z],
              [series[2], h_is_z, POLE_AT_HALF, presets.flat_sided(1, 4), series[3], EX1],
              series[4:20:3] + [h_is_z, ZERO_ON_GRID, presets.star()] + series[20:40:4]]
    for block in blocks:
        for map_spec, got in zip(block, monotonicity_margins(block), strict=True):
            assert _same_margin(got, _margin_or_error(map_spec)), map_spec
            assert _same_margin(got, _margin_or_error(map_spec, _margin_by_evaluators)), map_spec


def test_one_unit_circle_per_call(monkeypatch):
    """One ``monotonicity_margins`` call over a block computes e^{it} on
    one grid, and one ``check_criterion`` computes one boundary grid that
    the margin and the phase unwrap share."""
    grids = []
    real = np.exp

    def counted(x, *args, **kwargs):
        if np.size(x) >= 1024:
            grids.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    block = [EX1, EX2] + [HarmonicMapSpec(PolySeries(1, (1 + 0j, 0.1 * k + 0.05j)), 2)
                          for k in range(14)]
    assert len(monotonicity_margins(block, 1024)) == 16
    assert grids == [1025]
    for spec in (EX1, EX2, presets.star()):
        grids.clear()
        check_criterion(spec, 1024)
        assert grids == [1025], spec


# ---------------------------------------------------------------------------
# Full criterion


def test_criterion_satisfied_on_good_presets():
    for spec in (EX1, EX2):
        report = check_criterion(spec)
        assert report.criterion_satisfied
        assert report.hypotheses_hold
        assert report.h_nonvanishing
        assert report.failure_reason is None
        assert report.total_roots == 2 * spec.p + spec.m - 1
        assert report.tangency_suspects == 0
        assert report.winding_boundary == 0
        assert all(v <= 1 for v in report.per_level_counts.values())
        assert report.min_modulus_boundary == pytest.approx(2.0, abs=1e-13)
    r1 = check_criterion(EX1)
    assert r1.monotonicity_margin == pytest.approx(3.5, abs=1e-12)
    # levels beyond reach stay at zero crossings
    assert r1.per_level_counts[4] == 0 and r1.per_level_counts[-4] == 0


def test_criterion_report_roundtrips_to_dict():
    report = check_criterion(EX1)
    doc = report.to_dict()
    assert doc["expected_roots"] == 7
    assert doc["total_roots"] == 7
    assert doc["criterion_satisfied"] is True
    assert len(doc["roots"]) == 7
    img = doc["roots"][0]["image"]
    assert isinstance(img, list) and len(img) == 2


def test_interior_zero_of_normalized_deriv_fails_criterion():
    """h = z - z**2: H = 1 - 2z winds once about 0 along the boundary."""
    report = check_criterion(HarmonicMapSpec(PolySeries(1, (1 + 0j, -1 + 0j)), 2))
    assert not report.criterion_satisfied
    assert not report.h_nonvanishing
    assert report.winding_boundary == 1
    assert report.min_modulus_boundary == pytest.approx(1.0, abs=1e-13)
    assert "zero-free" in report.failure_reason


def test_boundary_vanishing_reported():
    """h = z - z**2/2: h'(1) = 0 on the circle, hypotheses fail."""
    spec = PolySeries(1, (1 + 0j, -0.5 + 0j))
    with pytest.raises(BoundaryHypothesisError, match="vanishes"):
        unwrap_boundary_phase(spec)
    report = check_criterion(HarmonicMapSpec(spec, 2))
    assert not report.hypotheses_hold
    assert not report.criterion_satisfied
    assert "vanishes" in report.failure_reason


def test_boundary_pole_reported():
    """The flat-sided family has h' poles on the circle itself."""
    star = presets.star()
    report = check_criterion(star)
    assert not report.hypotheses_hold
    assert not report.criterion_satisfied
    assert "blows up" in report.failure_reason
    # margin is still computed (and happens to be barely positive here)
    assert report.monotonicity_margin is not None
    assert 0.0 < report.monotonicity_margin < 1e-4


def test_interior_pole_rejected():
    report = check_criterion(HarmonicMapSpec(RationalDeriv(1, (1,), (1, -2)), 2))
    assert not report.criterion_satisfied
    assert "not analytic" in report.failure_reason


def test_check_criterion_validates_m():
    """The criterion reads m from the map, which validates it once."""
    with pytest.raises(ParameterError):
        check_criterion(HarmonicMapSpec(EX1.h, 1))
    with pytest.raises(ParameterError):
        check_criterion(HarmonicMapSpec(EX1.h, True))
    # numpy integers pass, as they do in the map
    report = check_criterion(HarmonicMapSpec(EX1.h, np.int64(4)))
    assert type(report.m) is int
    assert report.to_dict() == check_criterion(HarmonicMapSpec(EX1.h, 4)).to_dict()
