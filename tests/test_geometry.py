"""Boundary curves: velocity/acceleration, concavity, cusps, straight sides.

Oracle for the p=2, m=4 preset (used heavily below): on the unit circle
phi(t) = e^{2it} + (2/5) e^{-5it}, so

    phi'(t)  = 2i e^{2it} - 2i e^{-5it}
    phi''(t) = -4 e^{2it} - 10 e^{-5it}

giving phi''(0) = -14 and Im(phi'' conj(phi')) = 12 (cos 7t - 1), which is
<= 0 with minimum -24 halfway between consecutive cusps.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hvl import (
    CriterionReport,
    CurveTrace,
    DomainError,
    HarmonicMapSpec,
    InconsistencyError,
    ParameterError,
    QuadratureError,
    RationalDeriv,
    ResolutionError,
    RootRecord,
    boundary_acceleration_many,
    boundary_velocity_many,
    check_criterion,
    clamp_to_interior,
    concavity_check,
    detect_cusps,
    eval_f_many,
    presets,
    geometry,
    segment_collinearity,
    trace_circle,
)

import oracles

EX1 = presets.example1()
EX2 = presets.example2()


# ---------------------------------------------------------------------------
# Pointwise boundary derivatives


def test_velocity_closed_form():
    rng = np.random.default_rng(31)
    ts = rng.uniform(-np.pi, np.pi, size=128)
    got = boundary_velocity_many(EX1, ts)
    assert np.max(np.abs(got - oracles.example1_velocity(ts))) < 1e-13


def test_acceleration_closed_form():
    assert complex(boundary_acceleration_many(EX1, 0.0)) == pytest.approx(-14.0 + 0j, abs=1e-13)
    rng = np.random.default_rng(37)
    ts = rng.uniform(-np.pi, np.pi, size=128)
    got = boundary_acceleration_many(EX1, ts)
    assert np.max(np.abs(got - oracles.example1_acceleration(ts))) < 1e-13


def test_boundary_point_is_f_on_circle():
    t = 0.9
    z = np.exp(1j * t)
    want = complex(oracles.example2_h(z) + np.conj(oracles.example2_g(z)))
    assert eval_f_many(EX2, z) == pytest.approx(want, abs=1e-14)


def test_velocity_against_differences():
    """phi' for the p=3 preset checked by central differences of phi."""
    step = 1e-6
    rng = np.random.default_rng(41)
    for t in rng.uniform(-3.0, 3.0, size=10):
        fd = (eval_f_many(EX2, np.exp(1j * (t + step)))
              - eval_f_many(EX2, np.exp(1j * (t - step)))) / (2 * step)
        got = complex(boundary_velocity_many(EX2, float(t)))
        assert abs(got - fd) < 1e-6 * max(1.0, abs(got))


# ---------------------------------------------------------------------------
# Traces


def test_trace_parameter_validation():
    with pytest.raises(ParameterError):
        trace_circle(EX1, 0.9, n=128)
    with pytest.raises(DomainError):
        trace_circle(EX1, 1.5)
    with pytest.raises(DomainError):
        trace_circle(EX1, 0.0)


def test_sample_counts_that_are_not_integers_are_refused():
    """A trace of 300.5 samples once held 301 angles that did not close the
    curve, and a concavity check of 100.5 samples reported n = 100.5; a
    trace of "300" or None samples, or of radius None or "0.5", ended in a
    bare TypeError."""
    for n in (300.5, "300", None):
        with pytest.raises(ParameterError, match="trace samples must be an integer"):
            trace_circle(EX1, 0.9, n)
    for r in (None, "0.5"):
        with pytest.raises(DomainError, match="trace radius"):
            trace_circle(EX1, r)
    with pytest.raises(ParameterError, match="concavity samples must be an integer"):
        concavity_check(EX1, 100.5)
    assert trace_circle(EX1, 0.9, np.int64(300)).t.size == 300
    assert concavity_check(EX1, np.int64(100)).n == 100


def test_trace_grid_and_values():
    tr = trace_circle(EX1, 1.0, n=512)
    assert tr.n == 512
    assert tr.t[0] == pytest.approx(-math.pi)
    assert tr.t[1] - tr.t[0] == pytest.approx(2 * math.pi / 512)
    want = oracles.example1_f(tr.t)
    assert np.max(np.abs(tr.points - want)) < 1e-13
    inner = trace_circle(EX1, 0.5, n=256)
    assert not inner.clamped.any()


def test_trace_diameter_example1():
    """Image is contained in |w| <= 1.4 with cusps on that circle, so the
    bounding-box diagonal is close to 2.8 * sqrt(2) but not above it."""
    tr = trace_circle(EX1, 1.0, n=4096)
    d = tr.diameter()
    assert 2.6 < d <= 2.8 * math.sqrt(2) + 1e-12


def test_trace_rotational_symmetry():
    """f(e^{2 pi i/N} z) = e^{2 pi i p/N} f(z) for the N-fold symmetric
    preset; with n divisible by N this is an exact index shift."""
    N = 7  # 2p+m-1 for p=2, m=4
    n = N * 512
    tr = trace_circle(EX1, 1.0, n=n)
    shifted = np.roll(tr.points, -(n // N))
    rotated = np.exp(2j * math.pi * EX1.p / N) * tr.points
    assert np.max(np.abs(shifted - rotated)) < 1e-12


def test_trace_point_at_caches_and_matches():
    tr = trace_circle(EX2, 0.999, n=256)
    v1 = tr.point_at(0.123)
    v2 = tr.point_at(0.123)
    assert v1 == v2
    assert v1 == pytest.approx(eval_f_many(EX2, 0.999 * np.exp(0.123j)), abs=1e-13)


def test_trace_csv_shape():
    tr = trace_circle(EX1, 1.0, n=256)
    lines = tr.to_csv().strip().split("\n")
    assert lines[0] == "t,re_f,im_f,clamped"
    assert len(lines) == 257
    parts = lines[1].split(",")
    assert len(parts) == 4
    assert float(parts[0]) == pytest.approx(-math.pi)
    assert parts[3] in {"0", "1"}


# a curve with signed zeros, tiny values and clamped rows
SIGNED = np.array([0.0, -0.0, complex(-0.0, -0.0), complex(-4e-7, 4e-7),
                   complex(1e-300, -2.5e-17), complex(-1.5, 2.0)])


@pytest.mark.parametrize("name", ["example1", "example2", "star", "octagon"])
def test_trace_csv_matches_row_formatter(name):
    """The one-template CSV has the bytes of a row-by-row format, clamped
    rows included; the trace's flags and values are those of
    ``clamp_to_interior`` and ``eval_f_many`` at the same points."""
    spec = getattr(presets, name)()
    tr = trace_circle(spec, 1.0, n=4096)
    assert np.count_nonzero(tr.clamped) == {"star": 1, "octagon": 8}.get(name, 0)
    assert oracles.first_difference(
        tr.to_csv(), oracles.trace_csv_ref(tr.t, tr.points, tr.clamped)) is None
    z = np.exp(1j * tr.t)
    assert np.array_equal(tr.clamped, clamp_to_interior(spec.h, z)[1])
    assert tr.points.tobytes() == eval_f_many(spec, z).tobytes()


def test_trace_csv_signed_zeros_and_short_traces():
    clamped = np.arange(SIGNED.size) % 2 == 0
    tr = CurveTrace(map=EX1, radius=1.0, t=SIGNED.real.copy(), points=SIGNED, clamped=clamped)
    assert oracles.first_difference(
        tr.to_csv(), oracles.trace_csv_ref(tr.t, tr.points, clamped)) is None
    assert "-0,-0,-0,1" in tr.to_csv()
    two = CurveTrace(map=EX1, radius=1.0, t=tr.t[4:], points=SIGNED[4:], clamped=clamped[4:])
    assert two.to_csv() == oracles.trace_csv_ref(two.t, two.points, two.clamped)
    assert two.to_csv().count("\n") == 3


def _curve(rows):
    """A CurveTrace of EX1 holding the rows (t, re f, im f, clamped)."""
    t, re, im, flags = (np.array(c) for c in zip(*rows))
    points = np.empty(t.size, complex)
    points.real, points.imag = re, im  # keeps -0.0 and NaN parts apart
    return CurveTrace(map=EX1, radius=1.0, t=t.astype(float), points=points,
                      clamped=flags.astype(bool))


def _near(*xs):
    return [v for x in xs for v in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf))]


# Values the numpy arithmetic of to_csv leaves to the exact per-row path:
# exact ties (half to even), near ties on which the double-double product
# alone rounds the wrong way, 10^k and their neighbours (floor(log10|x|) may
# be off by one), and a 17-digit rounding that carries into the next decade.
_TIES = [131073 / 131072, 1278675322477191.75]
_NEAR_TIES = [3.888475069819475e-07, 2.2422607587866907e-07, 4.9102966142601843e-08,
              4.95286445202696e-09, 4.974148370910348e-09]
_HARD = _TIES + _NEAR_TIES + _near(*(float(f"1e{k}") for k in (-243, -5, -1, 0, 16, 17, 22, 23, 249)))
_CARRY = 9.99999999999999996e-244  # prints as 1e-243
# one value of each exponent form, and the values outside the fast path's range
_EXPONENTS = {"e-05": 1.5e-5, "e+17": 1.25e17, "e+100": 3e100, "e-249": 2e-249}
_OUT_OF_RANGE = [math.nan, math.inf, -math.inf, 1e300, 5e-324]
_value = st.one_of(
    st.sampled_from(_HARD + [_CARRY, 0.0, *_EXPONENTS.values()]),
    st.floats(-1e3, 1e3),
    st.builds(lambda m, k: m * 10.0 ** k, st.floats(1, 10), st.integers(-249, 248)),
    st.integers(-5000, 4999).map(lambda i: i / 1024),
    st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(float)))
    .filter(lambda v: 1e-250 < abs(v) < 1e250),
).flatmap(lambda v: st.sampled_from([v, -v]))
_row = st.tuples(_value, _value, _value, st.booleans())


def test_trace_csv_formatter_matches_percent_on_every_path():
    """to_csv has the bytes of "%.17g" per value and of the row oracle on
    the fast path, on the exact per-row path, in every exponent form, and on
    the % fallback of a block holding a value outside 1e-250 < |x| < 1e250."""
    reached = set()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(_row, min_size=1, max_size=12),
           st.one_of(st.none(), st.sampled_from(_OUT_OF_RANGE)), st.integers(0, 35))
    @example([(-math.pi, 0.6, -0.0, False), (0.0, 1.5, -2.25, True)], None, 0)  # fast
    @example([(v, -v, v, True) for v in _HARD + [_CARRY]], None, 0)  # exact rows
    @example([(v, v, -v, False) for v in _EXPONENTS.values()], None, 0)
    @example([(v, 1.5, 2.5, True) for v in _OUT_OF_RANGE], None, 0)  # fallback
    @example([(0.5, 1.5, 2.5, False)] * 5, math.nan, 7)  # NaN among normal rows
    def check(rows, odd, at):
        if odd is not None:
            i, j = divmod(at % (3 * len(rows)), 3)
            rows[i] = rows[i][:j] + (odd,) + rows[i][j + 1:]
        tr = _curve(rows)
        with mock.patch.object(geometry, "_percent_rows", wraps=geometry._percent_rows) as slow, \
                mock.patch.object(geometry, "_decimal17", wraps=geometry._decimal17) as exact:
            csv = tr.to_csv()
        assert oracles.first_difference(
            csv, oracles.trace_csv_ref(tr.t, tr.points, tr.clamped)) is None
        fields = [f for line in csv.split("\n")[1:-1] for f in line.split(",")[:3]]
        assert fields == ["%.17g" % v for row in rows for v in row[:3]]
        if slow.called:
            reached.add("fallback")
            return
        reached.add("fast")
        reached.update({"exact"} if exact.called else set())
        reached.update(f[f.index("e"):] for f in fields if "e" in f and "n" not in f)
        if _CARRY in [abs(v) for row in rows for v in row[:3]]:
            assert "1e-243" in csv

    check()
    assert {"fast", "exact", "fallback", *_EXPONENTS} <= reached


def test_trace_csv_blocks_fall_back_alone():
    """A non-finite or huge value sends its block of rows to the % template;
    the blocks around it stay on the fast path."""
    n = 3 * geometry._CSV_BLOCK
    tr = trace_circle(EX2, 1.0, n=n)
    tr.points[geometry._CSV_BLOCK + 5] = complex(math.nan, 1e300)
    with mock.patch.object(geometry, "_percent_rows", wraps=geometry._percent_rows) as slow:
        csv = tr.to_csv()
    assert slow.call_count == 1
    assert slow.call_args.args[0][0][0] == tr.t[geometry._CSV_BLOCK]  # the second block
    assert oracles.first_difference(
        csv, oracles.trace_csv_ref(tr.t, tr.points, tr.clamped)) is None


def test_trace_clamps_only_at_boundary_poles():
    """The 5-pointed star has h' poles at the fifth roots of -1; the t = -pi
    node of a boundary trace hits the pole at z = -1 and must be clamped."""
    star = presets.star()
    on_boundary = trace_circle(star, 1.0, n=4096)
    idx = np.flatnonzero(on_boundary.clamped)
    assert idx.tolist() == [0]
    assert on_boundary.t[0] == pytest.approx(-math.pi)
    assert np.isfinite(on_boundary.points[0])
    just_inside = trace_circle(star, 0.999, n=4096)
    assert not just_inside.clamped.any()


def test_trace_interior_pole_raises():
    """The evaluator's error: at the sample on the ray through the pole, with
    the jump 2 pi |c| of the primitive across it (residue c = -1/2)."""
    spec = HarmonicMapSpec(RationalDeriv(1, (1,), (1, -2)), 2)  # h' pole at z = 0.5
    with pytest.raises(QuadratureError) as caught:
        trace_circle(spec, 0.7, n=256)
    assert caught.value.where == pytest.approx(0.7)
    assert caught.value.worst_estimate == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# Concavity


def test_concavity_identity_and_sign():
    for spec in (EX1, EX2):
        rep = concavity_check(spec, n=4096)
        assert rep.passed
        assert rep.max_cross <= rep.tol
        assert rep.max_identity_rel_gap < 1e-9
        assert rep.skipped == 0


def test_concavity_extremes_between_cusps():
    """Direct check of the closed form 12 (cos 7t - 1) for the p=2 preset:
    the most negative concavity sits halfway between cusps, value -24."""
    ts = (2 * np.arange(7) + 1) * math.pi / 7.0  # midpoints: cos 7t = -1
    vel = boundary_velocity_many(EX1, ts)
    acc = boundary_acceleration_many(EX1, ts)
    cross = np.imag(acc * np.conj(vel))
    assert np.max(np.abs(cross - (-24.0))) < 1e-10
    # and at the cusp angles it vanishes
    tc = 2 * np.arange(-3, 4) * math.pi / 7.0
    vel_c = boundary_velocity_many(EX1, tc)
    acc_c = boundary_acceleration_many(EX1, tc)
    assert np.max(np.abs(np.imag(acc_c * np.conj(vel_c)))) < 1e-12


def test_concavity_identity_holds_for_rational_family():
    """The closed-form identity is representation independent; it must hold
    for the rational star as well, pole neighborhoods included (both sides
    grow together, so the relative gap stays tiny)."""
    rep = concavity_check(presets.star(), n=4096)
    assert rep.passed
    assert rep.max_identity_rel_gap < 1e-9


# ---------------------------------------------------------------------------
# Cusp detection


def test_detect_cusps_on_preset():
    report = check_criterion(EX1)
    cusps = detect_cusps(EX1, report)
    assert cusps.count == 7
    want = 2 * np.arange(-3, 4) * math.pi / 7.0
    assert np.max(np.abs(np.sort(cusps.angles) - want)) < 1e-10
    assert np.max(np.abs(np.abs(cusps.points) - 1.4)) < 1e-12
    assert np.max(cusps.speeds) <= cusps.cusp_tol


def test_detect_cusps_requires_certificate():
    report = check_criterion(presets.star())
    with pytest.raises(ParameterError):
        detect_cusps(presets.star(), report)


def test_detect_cusps_rejects_mismatched_report():
    report = check_criterion(EX1)
    with pytest.raises(ParameterError):
        detect_cusps(EX2, report)


def test_detect_cusps_override_empty_warns():
    report = CriterionReport(
        p=2, m=4, roots=(), per_level_counts={}, total_roots=0,
        h_nonvanishing=False, min_modulus_boundary=None, winding_boundary=None,
        monotonicity_margin=None, hypotheses_hold=False,
        criterion_satisfied=False, tangency_suspects=0, failure_reason="x",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cusps = detect_cusps(EX1, report, override=True)
    assert cusps.count == 0
    assert any("root" in str(w.message) for w in caught)


def test_detect_cusps_flags_fast_points():
    """A claimed root where the boundary speed is far from zero must be
    rejected as inconsistent rather than silently kept."""
    fake = CriterionReport(
        p=2, m=4,
        roots=(RootRecord(k=0, t=0.45, boundary_image=None,
                          suspected_tangency=False, residual=0.0),),
        per_level_counts={0: 1}, total_roots=1,
        h_nonvanishing=True, min_modulus_boundary=2.0, winding_boundary=0,
        monotonicity_margin=3.5, hypotheses_hold=True,
        criterion_satisfied=True, tangency_suspects=0, failure_reason=None,
    )
    with pytest.raises(InconsistencyError):
        detect_cusps(EX1, fake)


# ---------------------------------------------------------------------------
# Straight sides


def test_flat_family_sides_are_straight():
    """Arcs between consecutive cusp angles of the flat-sided maps trace
    straight segments; the p=2 preset has genuinely curved arcs and serves
    as the negative control."""
    for preset, n_sides in ((presets.star(), 5), (presets.octagon(), 8)):
        tr = trace_circle(preset, 0.9999, n=8192)
        # cusp angles sit at 2 pi j / N (the poles of h' at odd multiples
        # of pi/N are the side midpoints)
        breaks = 2 * math.pi * np.arange(n_sides) / n_sides
        breaks = np.sort(np.mod(breaks + math.pi, 2 * math.pi) - math.pi)
        defects = segment_collinearity(tr, breaks)
        assert defects.shape == (n_sides,)
        assert np.max(defects) < 1e-3

    tr1 = trace_circle(EX1, 0.9999, n=8192)
    breaks1 = 2 * math.pi * np.arange(-3, 4) / 7.0
    curved = segment_collinearity(tr1, breaks1)
    assert np.min(curved) > 1e-2


def test_collinearity_breakpoint_choice_matters():
    """Splitting the star at its pole angles (side midpoints) instead of at
    the cusp angles folds two half-sides into one arc, which is far from
    straight."""
    tr = trace_circle(presets.star(), 0.9999, n=8192)
    cusp_breaks = np.sort(np.mod(2 * math.pi * np.arange(5) / 5.0 + math.pi,
                                 2 * math.pi) - math.pi)
    pole_breaks = -math.pi + 2 * math.pi * np.arange(5) / 5.0
    good = segment_collinearity(tr, cusp_breaks)
    bad = segment_collinearity(tr, pole_breaks)
    assert np.max(good) < 1e-3
    assert np.max(bad) > 0.05


def test_collinearity_refuses_non_finite_breakpoints():
    """NaN sorts last and fails every comparison, so it once passed the
    range test and ended in a ``ResolutionError`` about an arc (0, nan)."""
    tr = trace_circle(presets.star(), 0.9999, n=256)
    for breaks in ([math.nan, 0.0], [0.0, 1.0, math.nan], [math.nan, math.nan],
                   [-math.inf, 0.0], [0.0, math.inf]):
        with pytest.raises(ParameterError, match=r"\[-pi, pi\)"):
            segment_collinearity(tr, breaks)


def test_collinearity_needs_samples():
    tr = trace_circle(presets.star(), 0.9999, n=256)
    with pytest.raises(ResolutionError):
        segment_collinearity(tr, [0.0, 1e-9, 2.0])
