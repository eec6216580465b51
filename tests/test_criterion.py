"""Boundary phase, level crossings, and the sufficient cusp-count condition.

The two series presets have closed forms worked out by hand and used as
oracles throughout:

* p=2, m=4, h = z**2:            H = 2,        F(t) = 7 t
* p=3, m=2, h = z**3 + (i/4)z**4: H = 3 + i z,  F(t) = 7 t + 2 arg(3 + i e^{it})
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvl import (
    BoundaryHypothesisError,
    ParameterError,
    PhaseTable,
    PolySeries,
    RationalDeriv,
    check_criterion,
    check_monotonicity_margin,
    find_criterion_roots,
    level_set,
    phase_function_derivative_many,
    phase_function_many,
    presets,
    unwrap_boundary_phase,
)

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
                fn(EX1.h, EX1.m, bad)
    for bad in (1000, 3000):
        with pytest.raises(ParameterError):
            unwrap_boundary_phase(EX1.h, bad)
    assert check_criterion(EX1.h, EX1.m, 2048).criterion_satisfied


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
    f = lambda t: float(phase_function_many(EX2.h, EX2.m, t, table))
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
    vals = phase_function_derivative_many(EX1.h, EX1.m, ts)
    assert np.max(np.abs(vals - 7.0)) < 1e-12
    # p=3 preset at t = 0: 3 + 2 Re((6+3i)/(3+i)) = 3 + 2*2.1
    at_0 = float(phase_function_derivative_many(EX2.h, EX2.m, 0.0))
    assert at_0 == pytest.approx(7.2, abs=1e-12)


def test_phase_function_derivative_against_differences():
    table = unwrap_boundary_phase(EX2.h)
    rng = np.random.default_rng(19)
    ts = rng.uniform(-3.0, 3.0, size=50)
    got = phase_function_derivative_many(EX2.h, EX2.m, ts)
    step = 1e-5
    fd = (phase_function_many(EX2.h, EX2.m, ts + step, table)
          - phase_function_many(EX2.h, EX2.m, ts - step, table)) / (2 * step)
    assert np.max(np.abs(got - fd) / np.abs(got)) < 1e-7


# ---------------------------------------------------------------------------
# Root finding


def test_roots_of_linear_phase():
    """F(t) = 7t crosses level 2 pi k at t = 2 pi k / 7, k = -3..3."""
    roots = find_criterion_roots(EX1.h, EX1.m)
    assert len(roots) == 7
    assert all(not r.suspected_tangency for r in roots)
    for r, k in zip(roots, range(-3, 4)):
        assert r.k == k
        assert abs(r.t - 2 * math.pi * k / 7.0) < 1e-10
        assert r.residual < 1e-9
        # image of every cusp angle has modulus 1 + 2/5
        assert abs(r.boundary_image) == pytest.approx(1.4, abs=1e-12)


def test_roots_one_per_level_p3():
    roots = find_criterion_roots(EX2.h, EX2.m)
    assert len(roots) == 7
    assert sorted(r.k for r in roots) == list(range(-3, 4))
    ts = np.array([r.t for r in roots])
    assert np.all(np.diff(ts) > 0)  # sorted by angle, strictly
    # residuals are |F(t) - 2 pi k| after polishing
    assert max(r.residual for r in roots) < 1e-9


def test_root_at_domain_seam_counted_once():
    """h = z**3, m = 5: F = 10 t has a crossing exactly at t = -pi, and the
    matching one at +pi must not be double counted."""
    h = PolySeries(3, (1 + 0j,))
    roots = find_criterion_roots(h, 5)
    assert len(roots) == 10  # 2p+m-1
    ts = sorted(r.t for r in roots)
    want = [-math.pi + math.pi * j / 5.0 for j in range(10)]
    assert np.max(np.abs(np.array(ts) - np.array(want))) < 1e-10


def _check_pure_power(p, m):
    """h = z**p gives H = p, so F = N t with N = 2p+m-1: one root per level k
    at t = 2 pi k / N in [-pi, pi), the one at -pi included when N is even."""
    n = 2 * p + m - 1
    report = check_criterion(PolySeries(p, (1 + 0j,)), m)
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
    roots = find_criterion_roots(EX1.h, EX1.m, table=table)
    assert len(roots) == 1
    r = roots[0]
    assert r.suspected_tangency
    assert r.k == k
    assert r.t == t[s]
    assert r.boundary_image is None
    assert r.residual < 1e-8


def test_precomputed_table_is_honored():
    table = unwrap_boundary_phase(EX2.h)
    a = find_criterion_roots(EX2.h, EX2.m, table=table)
    b = find_criterion_roots(EX2.h, EX2.m)
    assert [(r.k, r.t) for r in a] == [(r.k, r.t) for r in b]


# ---------------------------------------------------------------------------
# Monotonicity margin


def test_margin_closed_forms():
    # h = z**2, m = 4: Re(1 + z h''/h') = 2 everywhere, margin 2 + 3/2
    assert check_monotonicity_margin(EX1.h, EX1.m) == pytest.approx(3.5, abs=1e-12)
    # h = z**3, m = 5: Re(1 + 2) = 3, margin 3 + 2
    assert check_monotonicity_margin(PolySeries(3, (1 + 0j,)), 5) == pytest.approx(5.0, abs=1e-12)
    # p=3 preset: infimum over the disk is 3.0, approached radially
    margin2 = check_monotonicity_margin(EX2.h, EX2.m)
    assert 3.0 <= margin2 < 3.01


def test_margin_sees_interior_critical_point():
    """h = z + (5/2) z**2 has h'(-1/5) = 0; near that point the condition
    fails badly and the hugging circles must see it."""
    margin = check_monotonicity_margin(PolySeries(1, (1 + 0j, 2.5 + 0j)), 2)
    assert margin < -100.0
    assert margin == pytest.approx(-997.5, abs=1.0)


# ---------------------------------------------------------------------------
# Full criterion


def test_criterion_satisfied_on_good_presets():
    for spec in (EX1, EX2):
        report = check_criterion(spec.h, spec.m)
        assert report.criterion_satisfied
        assert report.hypotheses_hold
        assert report.h_nonvanishing
        assert report.failure_reason is None
        assert report.total_roots == 2 * spec.p + spec.m - 1
        assert report.tangency_suspects == 0
        assert report.winding_boundary == 0
        assert all(v <= 1 for v in report.per_level_counts.values())
        assert report.min_modulus_boundary == pytest.approx(2.0, abs=1e-13)
    r1 = check_criterion(EX1.h, EX1.m)
    assert r1.monotonicity_margin == pytest.approx(3.5, abs=1e-12)
    # levels beyond reach stay at zero crossings
    assert r1.per_level_counts[4] == 0 and r1.per_level_counts[-4] == 0


def test_criterion_report_roundtrips_to_dict():
    report = check_criterion(EX1.h, EX1.m)
    doc = report.to_dict()
    assert doc["expected_roots"] == 7
    assert doc["total_roots"] == 7
    assert doc["criterion_satisfied"] is True
    assert len(doc["roots"]) == 7
    img = doc["roots"][0]["image"]
    assert isinstance(img, list) and len(img) == 2


def test_interior_zero_of_normalized_deriv_fails_criterion():
    """h = z - z**2: H = 1 - 2z winds once about 0 along the boundary."""
    report = check_criterion(PolySeries(1, (1 + 0j, -1 + 0j)), 2)
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
    report = check_criterion(spec, 2)
    assert not report.hypotheses_hold
    assert not report.criterion_satisfied
    assert "vanishes" in report.failure_reason


def test_boundary_pole_reported():
    """The flat-sided family has h' poles on the circle itself."""
    star = presets.star()
    report = check_criterion(star.h, star.m)
    assert not report.hypotheses_hold
    assert not report.criterion_satisfied
    assert "blows up" in report.failure_reason
    # margin is still computed (and happens to be barely positive here)
    assert report.monotonicity_margin is not None
    assert 0.0 < report.monotonicity_margin < 1e-4


def test_interior_pole_rejected():
    report = check_criterion(RationalDeriv(1, (1,), (1, -2)), 2)
    assert not report.criterion_satisfied
    assert "not analytic" in report.failure_reason


def test_check_criterion_validates_m():
    with pytest.raises(ParameterError):
        check_criterion(EX1.h, 1)
    with pytest.raises(ParameterError):
        check_criterion(EX1.h, True)
    # numpy integers pass, as they do in derive_g
    report = check_criterion(EX1.h, np.int64(4))
    assert type(report.m) is int
    assert report.to_dict() == check_criterion(EX1.h, 4).to_dict()
