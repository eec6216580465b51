"""Core evaluators: spec validation, series and closed-form rational evaluation."""

import dataclasses
import gc
import inspect
import math
import sys
import weakref

import numpy as np
import pytest

import hvl

from hvl import (
    CrossCheck,
    DomainError,
    HarmonicMapSpec,
    ParameterError,
    PolySeries,
    QuadratureError,
    PoleError,
    RationalDeriv,
    RepeatedPoleError,
    clamp_to_interior,
    eval_f_many,
    eval_g_many,
    eval_g_prime_many,
    eval_h_many,
    eval_h_prime_many,
    eval_h_second_many,
    eval_normalized_deriv_many,
    presets,
)

from hvl.fncore import MAX_ORDER, _plain

import oracles


# ---------------------------------------------------------------------------
# Spec validation


def test_polyseries_rejects_bad_p():
    with pytest.raises(ParameterError):
        PolySeries(0, (1 + 0j,))
    with pytest.raises(ParameterError):
        PolySeries(-3, (1 + 0j,))
    with pytest.raises(ParameterError):
        PolySeries(True, (1 + 0j,))
    with pytest.raises(ParameterError, match=f"p must be an integer from 1 to {MAX_ORDER}"):
        PolySeries(MAX_ORDER + 1, (1 + 0j,))
    assert PolySeries(MAX_ORDER, (1 + 0j,)).p == MAX_ORDER


def test_polyseries_normalization_enforced():
    with pytest.raises(ParameterError, match="normalization violated"):
        PolySeries(2, (2 + 0j, 0.5))
    with pytest.raises(ParameterError):
        PolySeries(2, ())
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf), 10 ** 400):
        with pytest.raises(ParameterError):
            PolySeries(2, (1 + 0j, bad))
    # exact 1 passes
    PolySeries(2, (1 + 0j, 0.5))


def test_polyseries_refuses_overflowing_derivative_tables():
    """n a_n and n (n-1) a_n, and the sums of their moduli, must be finite;
    the largest maps the spec-document tests draw (|a_n| <= 1e300, p up to
    MAX_ORDER, five terms above z**p) still build."""
    for coeffs in ([1, 1e308, 1e308 + 1e308j],  # n a_n overflows
                   [1, 0, 3e307],  # only n (n-1) a_n overflows
                   [1, 8e307, 1e307]):  # every entry is finite, their sums are not
        with pytest.raises(ParameterError, match="too large"):
            PolySeries(1, coeffs)
    PolySeries(MAX_ORDER, [1] + [1e300 * (0.6 + 0.8j)] * 5)


def test_roots_refuse_a_leading_coefficient_too_small_to_divide_by():
    """A leading coefficient so small beside the others that the companion
    matrix overflows is refused, for the zeros of H and the poles of h',
    instead of ending in numpy's LinAlgError; a small one that still
    divides gives its far root."""
    for h, roots in ((PolySeries(1, [1, 0, 7.4e-312]), "H_zeros"),
                     (RationalDeriv(1, [1, 0, 7.4e-312], [1, 0.5]), "H_zeros"),
                     (RationalDeriv(1, [1], [1, 0.5, 1e-312]), "poles")):
        with pytest.raises(ParameterError, match="too small"):
            getattr(h, roots)
    assert PolySeries(1, [1, 1e-300]).H_zeros[0] == pytest.approx(-5e299)


def test_rational_deriv_validation():
    with pytest.raises(ParameterError, match="denom"):
        RationalDeriv(1, (1,), (0, 1))
    # numer must vanish to order exactly p-1
    with pytest.raises(ParameterError):
        RationalDeriv(2, (1,), (1,))
    with pytest.raises(ParameterError):
        RationalDeriv(2, (0, 0, 1), (1,))  # vanishes to order 2, not 1
    with pytest.raises(ParameterError):
        RationalDeriv(1, (0, 0), (1,))  # zero polynomial after trim
    with pytest.raises(ParameterError, match="numer must be finite"):
        RationalDeriv(1, (1, np.nan), (1,))
    with pytest.raises(ParameterError, match="denom must be finite"):
        RationalDeriv(1, (1,), (1, -np.inf))
    with pytest.raises(ParameterError, match=f"to {MAX_ORDER}"):
        RationalDeriv(MAX_ORDER + 1, (1,), (1,))
    RationalDeriv(2, (0, 2), (1, 0, 0.5))


def test_rational_deriv_trims_trailing_zeros():
    spec = RationalDeriv(1, (1, 0, 0), (1, 0.5, 0, 0))
    assert spec.numer == (1 + 0j,)
    assert spec.denom == (1 + 0j, 0.5 + 0j)


def test_map_spec_requires_m_at_least_two():
    h = PolySeries(1, (1 + 0j,))
    with pytest.raises(ParameterError):
        HarmonicMapSpec(h=h, m=1)
    with pytest.raises(ParameterError):
        HarmonicMapSpec(h, True)
    with pytest.raises(ParameterError, match=f"m must be an integer from 2 to {MAX_ORDER}"):
        HarmonicMapSpec(h, MAX_ORDER + 1)
    assert HarmonicMapSpec(h, MAX_ORDER).m == MAX_ORDER


def test_map_spec_refuses_other_kinds_of_h():
    for bad in ("x", None, 2, presets.example1()):
        with pytest.raises(ParameterError, match="unsupported function spec"):
            HarmonicMapSpec(bad, 2)


def test_map_is_its_pair():
    """A map is (h, m) and nothing else: equal pairs give equal, equally
    hashed maps, and g is derived, never passed or set."""
    for h in (PolySeries(2, (1 + 0j, 0.1j)), RationalDeriv(1, (1, 0.5), (1, 0, 0.25))):
        a, b = HarmonicMapSpec(h, 3), HarmonicMapSpec(h, 3)
        a.g_coeffs  # a derived value read on one map only leaves it equal
        assert a == b and hash(a) == hash(b)
        assert a != HarmonicMapSpec(h, 4)
        assert [f.name for f in dataclasses.fields(a)] == ["h", "m"]
        with pytest.raises(TypeError):
            HarmonicMapSpec(h, 3, g_coeffs=(7 + 0j,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.g_coeffs = (7 + 0j,)
    assert presets.example2() == HarmonicMapSpec(PolySeries(3, (1 + 0j, 0.25j)), 2)


# ---------------------------------------------------------------------------
# The derived series of g


def test_g_coeffs_simplest_case():
    spec = HarmonicMapSpec(PolySeries(2, (1 + 0j,)), 4)
    # coefficient of z**5 in g is (2/5) * 1
    assert spec.g_coeffs == (complex(2.0 / 5.0),)


def test_g_coeffs_match_hand_rule():
    rng = np.random.default_rng(101)
    for _ in range(10):
        p = int(rng.integers(1, 5))
        m = int(rng.integers(2, 7))
        n_extra = int(rng.integers(0, 5))
        coeffs = (1 + 0j,) + tuple(
            complex(a, b) for a, b in rng.normal(size=(n_extra, 2))
        )
        spec = HarmonicMapSpec(PolySeries(p, coeffs), m)
        for j, a in enumerate(coeffs):
            n = p + j
            expected = (n / (n + m - 1)) * a
            assert spec.g_coeffs[j] == pytest.approx(expected, abs=1e-15)


def test_g_coeffs_of_rational_h_are_none():
    spec = HarmonicMapSpec(RationalDeriv(1, (1,), (1, 0.25)), 3)
    assert spec.g_coeffs is None
    assert spec.p == 1


# ---------------------------------------------------------------------------
# Series evaluation against direct power sums


def test_example2_evaluators_match_hand_expansion():
    """h = z^3 + (i/10) z^5, m = 2: every evaluator against the oracle forms."""
    spec = presets.example2()
    rng = np.random.default_rng(7)
    r = 0.97 * np.sqrt(rng.uniform(size=64))
    t = rng.uniform(-np.pi, np.pi, size=64)
    zs = r * np.exp(1j * t)

    assert np.max(np.abs(eval_h_many(spec.h, zs) - oracles.example2_h(zs))) < 1e-13
    assert np.max(np.abs(eval_h_prime_many(spec.h, zs) - oracles.example2_hp(zs))) < 1e-13
    got_g = np.array([eval_g_many(spec, z) for z in zs])
    assert np.max(np.abs(got_g - oracles.example2_g(zs))) < 1e-13
    got_f = eval_f_many(spec, zs)
    want_f = oracles.example2_h(zs) + np.conj(oracles.example2_g(zs))
    assert np.max(np.abs(got_f - want_f)) < 1e-13

    z0 = complex(zs[0])
    assert eval_h_many(spec.h, z0) == pytest.approx(complex(oracles.example2_h(z0)), abs=1e-14)
    assert eval_h_prime_many(spec.h, z0) == pytest.approx(
        complex(oracles.example2_hp(z0)), abs=1e-14)
    assert eval_h_second_many(spec.h, z0) == pytest.approx(
        complex(oracles.example2_hpp(z0)), abs=1e-14)
    assert eval_f_many(spec, z0) == pytest.approx(
        complex(oracles.example2_h(z0) + np.conj(oracles.example2_g(z0))), abs=1e-14
    )


def test_g_prime_is_shear_of_h_prime():
    rng = np.random.default_rng(11)
    zs = 0.9 * np.sqrt(rng.uniform(size=32)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 32))
    for spec in (presets.example1(), presets.example2(), presets.star()):
        for z in zs[:8]:
            z = complex(z)
            want = z ** (spec.m - 1) * eval_h_prime_many(spec.h, z)
            assert eval_g_prime_many(spec, z) == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_normalized_deriv_divides_out_the_zero():
    """H = h'/z^(p-1) must be finite and equal p at the origin."""
    for spec in (presets.example1(), presets.example2(), presets.star(), presets.octagon()):
        val = eval_normalized_deriv_many(spec.h, 0.0)
        assert val == pytest.approx(spec.p + 0j, abs=1e-14)
    spec = presets.example2()  # H(z) = 3 + i z
    rng = np.random.default_rng(13)
    zs = 0.99 * np.sqrt(rng.uniform(size=32)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 32))
    got = eval_normalized_deriv_many(spec.h, zs)
    assert np.max(np.abs(got - (3.0 + 1j * zs))) < 1e-13


def test_leading_behavior_at_origin():
    """h(z)/z^p -> 1 as z -> 0 for both representations.

    For the series member the next term is (c/4) z, subtracted exactly; the
    star's expansion h = z^2 (1 - (2/7) z^5 + ...) has no correction worth
    resolving at these radii, only the rounding of the partial fractions.
    """
    series = presets.example2().h
    rational = presets.star().h
    for eps in (1e-3, 1e-4):
        z = eps * np.exp(0.7j)
        ratio_s = eval_h_many(series, z) / z**3
        assert abs(ratio_s - 1.0 - (1j / 4.0) * z) < 1e-12
        ratio_r = eval_h_many(rational, z) / z**2
        assert abs(ratio_r - 1.0) < 1e-6


def test_scalar_and_vector_paths_agree():
    spec = presets.example2()
    rng = np.random.default_rng(17)
    zs = 0.8 * np.sqrt(rng.uniform(size=8)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
    many = eval_f_many(spec, zs)
    single = np.array([eval_f_many(spec, complex(z)) for z in zs])
    np.testing.assert_allclose(many, single, rtol=0, atol=1e-15)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("spec", [presets.example2(), presets.star(), presets.octagon()],
                         ids=["example2", "star", "octagon"])
def test_f_bits_do_not_depend_on_the_call(spec):
    """A point's f has the same bits alone, in a slice, in a reversed call
    and in a call on 4,096 points, for series and rational h."""
    rng = np.random.default_rng(19)
    zs = 0.999 * np.sqrt(rng.uniform(size=4096)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4096))
    full = eval_f_many(spec, zs)
    picks = np.arange(0, 4096, 64)
    single = np.array([eval_f_many(spec, zs[k]) for k in picks])
    assert np.array_equal(_bits(single), _bits(full[picks]))
    assert np.array_equal(_bits(eval_f_many(spec, zs[1000:1300])), _bits(full[1000:1300]))
    assert np.array_equal(_bits(eval_f_many(spec, zs[::-1])[::-1]), _bits(full))


# ---------------------------------------------------------------------------
# Rational evaluation against closed forms


def test_rational_matches_equivalent_series():
    """A polynomial h' fed through the rational path must agree with the
    series path to rounding, in every evaluator and in its poles and zeros."""
    series = PolySeries(1, (1 + 0j, 0 + 0j, 0.3 + 0j))  # h = z + 0.3 z^3
    rational = RationalDeriv(1, (1, 0, 0.9), (1,))  # h' = 1 + 0.9 z^2
    rng = np.random.default_rng(23)
    zs = 0.999 * np.sqrt(rng.uniform(size=48)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 48))
    for evaluate in (eval_h_many, eval_h_prime_many, eval_h_second_many,
                     eval_normalized_deriv_many):
        got = evaluate(rational, zs)
        want = evaluate(series, zs)
        assert np.max(np.abs(got - want)) < 1e-11, evaluate.__name__
    map_r, map_s = HarmonicMapSpec(rational, 3), HarmonicMapSpec(series, 3)
    for evaluate in (eval_g_many, eval_g_prime_many, eval_f_many):
        got = evaluate(map_r, zs)
        want = evaluate(map_s, zs)
        assert np.max(np.abs(got - want)) < 1e-11, evaluate.__name__
    assert rational.poles.size == 0 and series.poles.size == 0
    # H = 1 + 0.9 z^2 vanishes at +-i/sqrt(0.9)
    want_zeros = np.array([-1j, 1j]) / np.sqrt(0.9)
    for spec in (rational, series):
        got_zeros = np.sort_complex(spec.H_zeros)
        assert np.max(np.abs(got_zeros - want_zeros)) < 1e-11


def test_rational_log_closed_form():
    """h'(z) = 1/(1 - z/2) integrates to -2 log(1 - z/2)."""
    spec = RationalDeriv(1, (1,), (1, -0.5))
    rng = np.random.default_rng(29)
    zs = np.sqrt(rng.uniform(size=48)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 48))
    got = eval_h_many(spec, zs)
    want = -2.0 * np.log1p(-0.5 * zs)
    assert np.max(np.abs(got - want)) < 1e-11


def test_path_independence_radial_vs_arc():
    """eval_h_many is the closed-form radial primitive; integrating h' along
    an arc by quadrature instead must land on the same primitive values."""
    spec = RationalDeriv(1, (1,), (1, -0.5))
    r, t0, t1 = 0.8, -1.1, 2.3
    arc = oracles.h_prime_arc_integral(spec.numer, spec.denom, r, t0, t1)
    z0, z1 = r * np.exp(1j * t0), r * np.exp(1j * t1)
    diff = eval_h_many(spec, z1) - eval_h_many(spec, z0)
    assert abs(arc - diff) < 1e-12


def _random_rational_maps(seed, count):
    """h' = p z^(p-1) (1 + a z) / (1 + c z^5) with poles at modulus 1.05-1.5."""
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        rho = rng.uniform(1.05, 1.5)
        c = rho ** -5 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        numer = (0j,) * (p - 1) + (complex(p), complex(*rng.normal(size=2)))
        maps.append(HarmonicMapSpec(RationalDeriv(p, numer, (1, 0, 0, 0, 0, c)), m))
    return maps


def test_closed_form_matches_quadrature_oracle():
    """h, g and f of rational maps against adaptive radial quadrature."""
    maps = [presets.star(), presets.octagon(), presets.flat_sided(3, 2)]
    maps += _random_rational_maps(37, 3)
    rng = np.random.default_rng(41)
    for spec in maps:
        numer, denom = spec.h.numer, spec.h.denom
        for r in (0.5, 0.999, 1.0 - 1e-6):
            zs = r * np.exp(1j * rng.uniform(-np.pi, np.pi, 16))
            assert not clamp_to_interior(spec.h, zs)[1].any()
            want_h = oracles.rational_primitive(numer, denom, zs, 0)
            want_g = oracles.rational_primitive(numer, denom, zs, spec.m - 1)
            assert np.max(np.abs(eval_h_many(spec.h, zs) - want_h)) < 1e-8
            assert np.max(np.abs(eval_g_many(spec, zs) - want_g)) < 1e-8
            assert np.max(np.abs(eval_f_many(spec, zs) - (want_h + np.conj(want_g)))) < 1e-8


def test_far_poles_match_quadrature_oracle():
    """Poles far outside the disk have huge residues that cancel against the
    polynomial part; h and g must still match the quadrature oracle."""
    far = np.polynomial.polynomial.polyfromroots([-100.0, 130 + 400j, 750 - 20j])
    maps = [
        HarmonicMapSpec(RationalDeriv(2, (0, 2, 0.3), (1, 0.01)), 7),  # one pole at -100
        HarmonicMapSpec(RationalDeriv(1, (1, 0.5, -0.2), tuple(far / far[0])), 4),
        HarmonicMapSpec(RationalDeriv(2, (0, 2), (1, 0, 0, 0, 0, 1e-5)), 5),  # poles at modulus 10
    ]
    rng = np.random.default_rng(43)
    for spec in maps:
        numer, denom = spec.h.numer, spec.h.denom
        for r in (1e-3, 0.5, 1.0):
            zs = r * np.exp(1j * rng.uniform(-np.pi, np.pi, 16))
            want_h = oracles.rational_primitive(numer, denom, zs, 0)
            want_g = oracles.rational_primitive(numer, denom, zs, spec.m - 1)
            assert np.max(np.abs(eval_h_many(spec.h, zs) - want_h)) < 1e-10 * max(r, 1e-2)
            assert np.max(np.abs(eval_g_many(spec, zs) - want_g)) < 1e-10 * max(r, 1e-2)


def test_repeated_poles_raise():
    """Double or nearly double poles make the residues cancel; evaluation
    must refuse with a named error instead of returning a wrong value."""
    double = HarmonicMapSpec(RationalDeriv(1, (1,), (1, -1, 0.25)), 2)  # (1 - z/2)^2
    a, b = 1.3, 1.3 + 1e-9
    close = HarmonicMapSpec(RationalDeriv(1, (1,), (1, -(1 / a + 1 / b), 1 / (a * b))), 3)
    for spec, pole in ((double, 2.0), (close, a)):
        with pytest.raises(RepeatedPoleError) as info:
            eval_h_many(spec.h, np.array([0.3, 0.5j]))
        assert isinstance(info.value, PoleError)
        assert abs(info.value.location - pole) < 1e-6
        with pytest.raises(RepeatedPoleError):
            eval_f_many(spec, np.array([0.3]), on_failure="mask")
        with pytest.raises(RepeatedPoleError):
            eval_g_many(spec, 0.3)


def test_radius_passing_near_interior_pole_matches_oracle():
    """A radial segment that misses an interior pole evaluates on the side of
    the pole it actually passes, and matches the quadrature oracle."""
    spec = HarmonicMapSpec(RationalDeriv(1, (1,), (1, -2)), 2)  # pole at z = 0.5
    zs = 0.7 * np.exp(1j * np.array([0.01, -0.01, 0.002, -0.002]))
    vals, failed = eval_h_many(spec.h, zs, on_failure="mask")
    assert not failed.any()
    want = oracles.rational_primitive(spec.h.numer, spec.h.denom, zs, 0)
    assert np.max(np.abs(vals - want)) < 1e-8
    # the primitive jumps by about 2 pi |c_k| = pi between the two sides
    assert abs(vals[0] - vals[1] - np.pi * 1j) < 0.05
    want_g = oracles.rational_primitive(spec.h.numer, spec.h.denom, zs, 1)
    assert np.max(np.abs(eval_g_many(spec, zs) - want_g)) < 1e-8


def test_pole_within_cut_band_fails():
    """A segment within rounding of an interior pole has no reliable side;
    it fails like a segment through the pole."""
    spec = RationalDeriv(1, (1,), (1, -2))  # pole at z = 0.5
    z = 0.7 * np.exp(1e-12j)
    with pytest.raises(QuadratureError) as info:
        eval_h_many(spec, z)
    assert info.value.worst_estimate == pytest.approx(np.pi)
    assert info.value.where == z
    _, failed = eval_h_many(spec, np.array([z, 0.5 + 0j, 0.3 + 0j]), on_failure="mask")
    assert failed.tolist() == [True, True, False]


def test_arc_integral_rejects_bad_radius():
    spec = presets.star().h
    with pytest.raises(DomainError):
        oracles.h_prime_arc_integral(spec.numer, spec.denom, 1.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Domain checks, clamping, failure modes


def test_outside_disk_raises():
    spec = presets.example1()
    with pytest.raises(DomainError):
        eval_h_many(spec.h, 1.2)
    with pytest.raises(DomainError):
        eval_f_many(spec, np.array([0.5, 1.0 + 1e-6]))


def test_clamp_only_near_boundary_poles():
    """Clamping triggers iff the point is near a denominator root AND near
    the boundary; series specs never clamp."""
    star = presets.star().h  # poles at fifth roots of -1, all on |z| = 1
    pole = np.exp(1j * np.pi / 5.0)
    pts = np.array([pole, 0.9 * pole, 0.5 + 0j, -1j * 0.999])
    moved, flags = clamp_to_interior(star, pts)
    assert flags.tolist() == [True, False, False, False]
    assert abs(moved[0]) == pytest.approx(1.0 - 1e-6, abs=1e-12)
    # the clamped point keeps its angle
    assert np.angle(moved[0]) == pytest.approx(np.pi / 5.0, abs=1e-12)

    series = presets.example2().h
    _, flags2 = clamp_to_interior(series, pts)
    assert not flags2.any()


def test_interior_pole_fails_loudly():
    """A pole of h' strictly inside the disk is not integrable past; the
    quadrature must refuse rather than return garbage."""
    spec = HarmonicMapSpec(RationalDeriv(1, (1,), (1, -2)), 2)  # pole at z = 0.5
    with pytest.raises(QuadratureError):
        eval_f_many(spec, 0.7)
    # points whose radial segment stays clear of the pole still work
    val = eval_h_many(spec.h, 0.3j)
    want = -0.5 * np.log1p(-2.0 * 0.3j)  # h = -(1/2) log(1 - 2z)
    assert val == pytest.approx(complex(want), abs=1e-11)


def test_eval_h_many_mask_mode():
    spec = RationalDeriv(1, (1,), (1, -2))
    zs = np.array([0.3j, 0.7 + 0j, -0.4 + 0j])
    vals, failed = eval_h_many(spec, zs, on_failure="mask")
    assert failed.tolist() == [False, True, False]
    assert np.isfinite(vals[~failed]).all()
    # an unknown mode is refused, not read as a request for NaN
    with pytest.raises(ParameterError, match="on_failure"):
        eval_h_many(spec, [0.9], on_failure="bogus")
    with pytest.raises(ParameterError, match="on_failure"):
        eval_f_many(HarmonicMapSpec(spec, 2), [0.3], on_failure="bogus")
    for evaluate in (eval_h_prime_many, eval_h_second_many, eval_normalized_deriv_many):
        with pytest.raises(ParameterError, match="on_pole"):
            evaluate(spec, [0.5], on_pole="bogus")


def test_spec_tables_are_freed_with_the_spec():
    """Tables live on the spec: after every evaluator has run, dropping the
    map frees the spec and its tables, and no module keeps a cache."""
    zs = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.9])
    refs = []
    for h in (PolySeries(2, (1 + 0j, 0.1j)), RationalDeriv(1, (1, 0.5), (1, 0, 0.25))):
        map_spec = HarmonicMapSpec(h, 3)
        for evaluate in (eval_h_many, eval_h_prime_many, eval_h_second_many,
                         eval_normalized_deriv_many):
            evaluate(h, zs)
        for evaluate in (eval_g_many, eval_g_prime_many, eval_f_many):
            evaluate(map_spec, zs)
        clamp_to_interior(h, zs)
        assert h.H_zeros.size == 1
        tables = [v for v in vars(h).values() if isinstance(v, np.ndarray)]
        tables += [a for table in h._tables.values() for a in table
                   if isinstance(a, np.ndarray)]
        assert len(tables) >= 5
        refs += [weakref.ref(h), weakref.ref(map_spec)] + [weakref.ref(t) for t in tables]
        del h, map_spec, tables
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "hvl" or name.startswith("hvl."))]
    assert hvl.fncore in modules
    for module in modules:
        for name, fn in inspect.getmembers(module, callable):
            assert not hasattr(fn, "cache_info"), f"{module.__name__}.{name}"


def test_quadrature_error_carries_location():
    spec = RationalDeriv(1, (1,), (1, -2))
    with pytest.raises(QuadratureError) as info:
        eval_h_many(spec, 0.7)
    err = info.value
    assert err.worst_estimate > 0
    assert abs(err.where - 0.7) < 1e-9


# ---------------------------------------------------------------------------
# Reports


def test_plain_is_the_json_rule_of_every_report():
    """Non-finite floats become None and -0.0 stays; a complex number becomes
    [re, im]; int keys become str (so ``sort_keys`` orders them as text, as
    the reports always have) and tuples lists; an enum becomes its value and
    a nested dataclass a dict."""
    got = _plain([math.nan, math.inf, -math.inf, -0.0, 2.5])
    assert got[:3] == [None, None, None] and got[4] == 2.5
    assert math.copysign(1.0, got[3]) == -1.0
    assert _plain(complex(1, math.inf)) == [1.0, None]
    assert _plain({10: (1, 2), -1: [(0.5,)]}) == {"10": [1, 2], "-1": [[0.5]]}
    assert _plain(CrossCheck.DISAGREE) == "disagree"
    assert type(_plain(CrossCheck.DISAGREE)) is str

    @dataclasses.dataclass(frozen=True)
    class Inner:
        z: complex
        ok: bool

    @dataclasses.dataclass(frozen=True)
    class Outer:
        inner: Inner
        rows: tuple
        note: str | None

    doc = _plain(Outer(Inner(2 - 1j, True), (Inner(1j, False),), None))
    assert doc == {"inner": {"z": [2.0, -1.0], "ok": True},
                   "rows": [{"z": [0.0, 1.0], "ok": False}], "note": None}
