"""Representations and evaluators for planar harmonic maps f = h + conj(g).

The analytic part h comes in two machine forms:

* ``PolySeries`` -- a finite power series h(z) = z**p + a[p+1] z**(p+1) + ...
  with the leading coefficient normalized to exactly 1.
* ``RationalDeriv`` -- h given through its derivative h'(z) = P(z)/Q(z) for
  polynomials P, Q, with h(0) = 0; h is the integral of h' along the
  radial segment from the origin.

The co-analytic part is never stored independently: it is tied to h through

    g'(z) = z**(m-1) * h'(z),        m = 2, 3, 4, ...

so a ``HarmonicMapSpec`` is just (h, m) plus the derived series for g when h
is a series.  All evaluators are pure functions of immutable specs and are
safe to share across threads.

Rational specs may have poles of h' on the unit circle (the flat-sided
presets do).  Evaluation requests that land within ``BOUNDARY_EPSILON``
(1e-6) of such a pole at near-boundary radius are pulled back to radius
1 - BOUNDARY_EPSILON; see ``clamp_to_interior``.  The radial integrals of
u**q h'(u) (q = 0 for h, q = m-1 for g) are evaluated in closed form, as a
polynomial plus sum_k c_k log(1 - z/z_k) over the simple poles z_k of h'.
Points whose segment [0, z] meets a pole fail with ``QuadratureError``;
repeated or nearly coincident poles raise ``RepeatedPoleError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial import polynomial as npoly


# ---------------------------------------------------------------------------
# Errors


class HvlError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(HvlError, ValueError):
    """An argument violates its documented contract."""


class DomainError(HvlError):
    """Evaluation requested outside the closed unit disk."""


class PoleError(HvlError):
    """Evaluation at (or numerically on top of) a pole or zero of h'."""

    def __init__(self, message: str, location: complex | None = None):
        super().__init__(message)
        self.location = location


class RepeatedPoleError(PoleError):
    """h' has repeated or nearly coincident poles, whose partial fractions
    cancel too strongly for the closed-form h and g."""


class QuadratureError(HvlError):
    """A primitive of h' has no reliable value: the radial segment [0, z]
    meets a pole (``where`` is z, ``worst_estimate`` the jump 2 pi |c_k| of
    the primitive there)."""

    def __init__(self, message: str, worst_estimate: float | None = None, where=None):
        super().__init__(message)
        self.worst_estimate = worst_estimate
        self.where = where


class BoundaryHypothesisError(HvlError):
    """The normalized derivative h'/z^(p-1) vanishes or blows up on |z| = 1."""


class UnwrapError(HvlError):
    """Continuous-phase refinement exceeded its point budget."""


class InconsistencyError(HvlError):
    """Two independent computations of the same quantity disagree."""


class ResolutionError(HvlError):
    """Sampling density is insufficient for a reliable answer."""


class IndeterminateProbeError(HvlError):
    """A winding probe lies too close to the curve to classify."""


class ScanQualityError(HvlError):
    """Too many probes of a scan were indeterminate."""


class SpecFileError(HvlError, ValueError):
    """A spec document is malformed."""


# ---------------------------------------------------------------------------
# Function specs


def require_int(value, lo: int, message: str) -> int:
    """``value`` as an int, or ``ParameterError(message)`` unless it is an
    integer (numpy integers count, bools do not) of at least ``lo``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < lo:
        raise ParameterError(message)
    return int(value)


@dataclass(frozen=True)
class PolySeries:
    """h as a finite series z**p + a[p+1] z**(p+1) + ... + a[N] z**N.

    ``coeffs[j]`` holds the coefficient of z**(p+j); ``coeffs[0]`` must be
    exactly 1 (the normalization of the class).
    """

    p: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", require_int(self.p, 1, "p must be a positive integer"))
        try:
            coeffs = tuple(complex(c) for c in self.coeffs)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"coeffs must be complex numbers: {exc}") from None
        if not coeffs:
            raise ParameterError("coeffs must be non-empty")
        if coeffs[0] != 1:
            raise ParameterError(
                f"normalization violated: coefficient of z**p must be exactly 1, got {coeffs[0]!r}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.p + len(self.coeffs) - 1


@dataclass(frozen=True)
class RationalDeriv:
    """h given through h'(z) = numer(z)/denom(z), with h(0) = 0.

    Coefficient tuples are ascending in the exponent.  numer must vanish to
    order exactly p-1 at the origin (so h behaves like a multiple of z**p
    there) and denom(0) must be nonzero.
    """

    p: int
    numer: tuple[complex, ...]
    denom: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", require_int(self.p, 1, "p must be a positive integer"))
        numer = _trim_poly(self.numer, "numer")
        denom = _trim_poly(self.denom, "denom")
        if denom[0] == 0:
            raise ParameterError("denom(0) must be nonzero")
        if len(numer) < self.p:
            raise ParameterError("numer must have degree at least p-1")
        if any(c != 0 for c in numer[: self.p - 1]) or numer[self.p - 1] == 0:
            raise ParameterError(
                "numer must vanish to order exactly p-1 at the origin "
                "(coefficients below z**(p-1) zero, coefficient of z**(p-1) nonzero)"
            )
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)


def _trim_poly(coeffs, name: str) -> tuple[complex, ...]:
    try:
        vals = [complex(c) for c in coeffs]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be complex numbers: {exc}") from None
    while len(vals) > 1 and vals[-1] == 0:
        vals.pop()
    if not vals or all(c == 0 for c in vals):
        raise ParameterError(f"{name} must not be the zero polynomial")
    return tuple(vals)


FunctionSpec = Union[PolySeries, RationalDeriv]


@dataclass(frozen=True)
class HarmonicMapSpec:
    """The pair (h, m) defining f = h + conj(g) with g' = z**(m-1) h'.

    ``g_coeffs`` is the derived series for g when h is a ``PolySeries``:
    ``g_coeffs[j]`` is the coefficient of z**(p+m-1+j).  For rational h it is
    None and g is evaluated by integration.
    """

    h: FunctionSpec
    m: int
    g_coeffs: tuple[complex, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", require_int(self.m, 2, "m must be an integer >= 2"))

    @property
    def p(self) -> int:
        return self.h.p


def derive_g(h: FunctionSpec, m: int) -> HarmonicMapSpec:
    """Build the full map spec from h and the linkage exponent m.

    For a series h the coefficient of z**(n+m-1) in g is (n/(n+m-1)) a_n,
    which is exactly the antiderivative of z**(m-1) h'(z).
    """
    m = require_int(m, 2, "m must be an integer >= 2")
    if isinstance(h, PolySeries):
        n = h.p + np.arange(len(h.coeffs))
        g = (n / (n + m - 1)) * np.asarray(h.coeffs, dtype=complex)
        return HarmonicMapSpec(h=h, m=m, g_coeffs=tuple(complex(c) for c in g))
    if isinstance(h, RationalDeriv):
        return HarmonicMapSpec(h=h, m=m, g_coeffs=None)
    raise ParameterError(f"unsupported function spec: {type(h).__name__}")


# ---------------------------------------------------------------------------
# Cached derived coefficient tables


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=64)
def _series_tables(spec: PolySeries):
    a = np.asarray(spec.coeffs, dtype=complex)
    n = spec.p + np.arange(a.size)
    d1 = _frozen(n * a)                    # h'  = z**(p-1) * D1(z)
    d2 = _frozen(n * (n - 1) * a)          # h'' = z**(p-2) * D2(z)   (p >= 2)
    return _frozen(a), d1, d2


@functools.lru_cache(maxsize=64)
def _rational_tables(spec: RationalDeriv):
    numer = np.asarray(spec.numer, dtype=complex)
    denom = np.asarray(spec.denom, dtype=complex)
    hnum = _frozen(numer[spec.p - 1:])     # normalized derivative = hnum/denom
    # h'' = (numer' denom - numer denom') / denom**2
    second_num = npoly.polysub(
        npoly.polymul(npoly.polyder(numer), denom),
        npoly.polymul(numer, npoly.polyder(denom)),
    )
    return _frozen(numer), _frozen(denom), hnum, _frozen(np.asarray(second_num, dtype=complex))


@functools.lru_cache(maxsize=64)
def denominator_roots(denom: tuple[complex, ...]) -> np.ndarray:
    """Roots of an ascending-coefficient polynomial (cached)."""
    c = np.asarray(denom, dtype=complex)
    if c.size <= 1:
        return _frozen(np.zeros(0, dtype=complex))
    return _frozen(np.asarray(npoly.polyroots(c), dtype=complex))


@functools.lru_cache(maxsize=64)
def normalized_deriv_roots(spec: FunctionSpec) -> np.ndarray:
    """Zeros of the normalized derivative h'(z)/z**(p-1) (cached)."""
    if isinstance(spec, PolySeries):
        _, d1, _ = _series_tables(spec)
        return denominator_roots(tuple(d1))
    _, _, hnum, _ = _rational_tables(spec)
    return denominator_roots(tuple(hnum))


# ---------------------------------------------------------------------------
# Shared helpers


def _check_disk(zs: np.ndarray) -> None:
    mags = np.abs(zs)
    if np.any(mags > 1.0 + 1e-12):
        flat = np.asarray(zs).ravel()
        worst = flat[int(np.argmax(np.abs(flat)))]
        raise DomainError(f"evaluation outside the closed unit disk: |z| = {abs(worst):.6g}")


def _prepare(z):
    arr = np.asarray(z, dtype=complex)
    return np.atleast_1d(arr), arr.ndim == 0


# Half-width of the pole clamp of ``clamp_to_interior``.
BOUNDARY_EPSILON = 1e-6


def clamp_to_interior(spec: FunctionSpec, zs):
    """Pull near-boundary points out of pole sectors of a rational h'.

    A point with |z| > 1 - BOUNDARY_EPSILON lying within BOUNDARY_EPSILON of
    a denominator root is moved radially to radius 1 - BOUNDARY_EPSILON.
    Returns ``(points, clamped_mask)``; series specs never clamp.
    """
    zs = np.asarray(zs, dtype=complex)
    clamped = np.zeros(zs.shape, dtype=bool)
    if isinstance(spec, RationalDeriv):
        poles = denominator_roots(spec.denom)
        if poles.size:
            dist = np.min(np.abs(zs[..., None] - poles), axis=-1)
            near = (dist < BOUNDARY_EPSILON) & (np.abs(zs) > 1.0 - BOUNDARY_EPSILON)
            if np.any(near):
                zs = np.array(zs, copy=True)
                zn = zs[near]
                zs[near] = zn * ((1.0 - BOUNDARY_EPSILON) / np.abs(zn))
                clamped = near
    return zs, clamped


# ---------------------------------------------------------------------------
# Closed-form primitive of a rational h'
#
# With residues c_k = (u**q P)(z_k) / Q'(z_k) at the simple poles z_k of Q,
#
#     F_q(z) = T(z) + sum_k c_k L_n(z/z_k),  L_n(w) = log(1-w) + sum_{j<=n} w**j/j,
#
# where T is the Taylor polynomial of F_q of degree n = deg(u**q P) + 1.  A
# pole far outside the disk has a huge residue that cancels against the
# polynomial part; its tail c_k L_n = -c_k sum_{j>n} (z/z_k)**j / j does not.
# L_n is summed as that series where |w| <= 1/2 (53 terms reach rounding).

# Above this relative condition number times eps a pole has fewer than ten
# correct digits: a double pole gives about 1.5e-8, simple poles 1e-9 apart
# 1.6e-8, poles 1e-4 apart 7e-12.
_POLE_COND_LIMIT = 1e-10
# A pole within _CUT_BAND * |z_k| of the segment [0, z] counts as lying on it:
# a hundred times the pole error allowed above, so rounding cannot move a
# pole across the path and add 2 pi i c_k unnoticed.
_CUT_BAND = 1e-8
_TAIL_RADIUS, _TAIL_TERMS = 0.5, 53


@functools.lru_cache(maxsize=64)
def _primitive_tables(spec: RationalDeriv, q: int):
    """(T, poles z_k, residues c_k, n) for F_q; see the formula above."""
    numer, denom, _, _ = _rational_tables(spec)
    num = np.concatenate([np.zeros(q, dtype=complex), numer])
    poles = denominator_roots(spec.denom)
    with np.errstate(divide="ignore", invalid="ignore"):
        dq = npoly.polyval(poles, npoly.polyder(denom))
        cond = (np.finfo(float).eps * npoly.polyval(np.abs(poles), np.abs(denom))
                / (np.abs(poles) * np.abs(dq)))
    bad = ~(cond <= _POLE_COND_LIMIT)
    if np.any(bad):
        loc = complex(poles[bad][0])
        raise RepeatedPoleError(
            f"h' has repeated or nearly coincident poles near z = {loc:.6g}; "
            "their partial fractions cancel too strongly to evaluate h and g",
            location=loc,
        )
    n = num.size
    t = np.zeros(n, dtype=complex)  # Taylor coefficients of u**q h'(u)
    for j in range(n):
        k = min(j, denom.size - 1)
        t[j] = (num[j] - denom[1:k + 1] @ t[j - k:j][::-1]) / denom[0]
    taylor = np.concatenate([[0.0], t / np.arange(1, n + 1)])
    return _frozen(taylor), poles, _frozen(npoly.polyval(poles, num) / dq), n


def _log_tails(zeta: np.ndarray, logs: np.ndarray, n: int) -> np.ndarray:
    """L_n(zeta) elementwise, given logs = log(1 - zeta)."""
    out = logs + npoly.polyval(zeta, np.concatenate([[0.0], 1.0 / np.arange(1, n + 1)]))
    small = np.abs(zeta) <= _TAIL_RADIUS
    if np.any(small):
        w = zeta[small]
        acc = np.zeros_like(w)
        for j in range(n + _TAIL_TERMS, n, -1):
            acc = acc * w + 1.0 / j
        out[small] = -acc * w ** (n + 1)
    return out


def _rational_primitive(spec: RationalDeriv, zs: np.ndarray, qs, on_failure: str):
    """F_q(z) = integral of u**q h'(u) along [0, z] for each q, after clamping.

    Returns ``(values, failed)``: one array per q shaped like zs (NaN where
    failed) and the mask of points whose segment meets a pole.  Raises
    ``QuadratureError`` on such points unless ``on_failure == "mask"``.
    """
    zeff, _ = clamp_to_interior(spec, zs)
    flat = zeff.ravel()
    tables = [_primitive_tables(spec, q) for q in qs]
    zeta = flat[:, None] / tables[0][1]
    on_cut = (zeta.real >= 1.0 - _CUT_BAND) & (np.abs(zeta.imag) <= _CUT_BAND * np.abs(zeta))
    failed = np.any(on_cut, axis=1)
    vals = []
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log1p(-zeta)
        for taylor, _, residues, n in tables:
            v = npoly.polyval(flat, taylor) + _log_tails(zeta, logs, n) @ residues
            v[failed] = np.nan
            vals.append(v.reshape(zs.shape))
    if np.any(failed) and on_failure == "raise":
        hit = np.any(on_cut, axis=0)
        jump = 2.0 * np.pi * max(np.max(np.abs(t[2][hit])) for t in tables)
        raise QuadratureError(
            f"the radial segment passes through a pole of h' at {np.count_nonzero(failed)} "
            f"point(s); the primitive jumps by {jump:.3g} across it",
            worst_estimate=float(jump) if jump > 0 else np.inf,
            where=complex(flat[np.argmax(failed)]),
        )
    return vals, failed.reshape(zs.shape)


# ---------------------------------------------------------------------------
# Evaluators


def eval_h_many(spec: FunctionSpec, zs, *, on_failure: str = "raise"):
    """h at an array of points inside the closed disk.

    Rational specs use the closed-form radial primitive (clamping near
    boundary poles, silently; use ``clamp_to_interior`` for the flags).
    With ``on_failure="mask"`` returns (values, failed_mask) instead of
    raising when the radial segment meets a pole.
    """
    arr, scalar = _prepare(zs)
    _check_disk(arr)
    if isinstance(spec, PolySeries):
        a, _, _ = _series_tables(spec)
        vals = arr ** spec.p * npoly.polyval(arr, a)
        failed = np.zeros(arr.shape, dtype=bool)
    else:
        (vals,), failed = _rational_primitive(spec, arr, (0,), on_failure)
    if on_failure == "mask":
        return vals, failed
    return vals[0] if scalar else vals



def eval_h_prime_many(spec: FunctionSpec, zs, on_pole: str = "raise"):
    """h' at an array of points; exact evaluation, no quadrature.

    Rational specs raise ``PoleError`` on a denominator zero (``on_pole="nan"``
    substitutes NaN instead, for sampling sweeps that skip poles).
    """
    arr, scalar = _prepare(zs)
    _check_disk(arr)
    if isinstance(spec, PolySeries):
        _, d1, _ = _series_tables(spec)
        vals = arr ** (spec.p - 1) * npoly.polyval(arr, d1)
    else:
        numer, denom, _, _ = _rational_tables(spec)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = npoly.polyval(arr, numer) / npoly.polyval(arr, denom)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            if on_pole == "raise":
                loc = arr[bad].ravel()[0]
                raise PoleError(f"h' has a pole at z = {loc:.6g}", location=complex(loc))
            vals = np.where(bad, np.nan + 0j, vals)
    return vals[0] if scalar else vals



def eval_h_second_many(spec: FunctionSpec, zs, on_pole: str = "raise"):
    """h'' at an array of points; exact evaluation."""
    arr, scalar = _prepare(zs)
    _check_disk(arr)
    if isinstance(spec, PolySeries):
        _, _, d2 = _series_tables(spec)
        if spec.p >= 2:
            vals = arr ** (spec.p - 2) * npoly.polyval(arr, d2)
        elif d2.size > 1:
            vals = npoly.polyval(arr, d2[1:])  # d2[0] == 0 for p == 1
        else:
            vals = np.zeros(arr.shape, dtype=complex)
    else:
        numer, denom, _, second_num = _rational_tables(spec)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = npoly.polyval(arr, denom)
            vals = npoly.polyval(arr, second_num) / (q * q)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            if on_pole == "raise":
                loc = arr[bad].ravel()[0]
                raise PoleError(f"h'' has a pole at z = {loc:.6g}", location=complex(loc))
            vals = np.where(bad, np.nan + 0j, vals)
    return vals[0] if scalar else vals



def eval_normalized_deriv_many(spec: FunctionSpec, zs, on_pole: str = "raise"):
    """The normalized derivative h'(z)/z**(p-1), evaluated without division.

    This is the function whose boundary phase drives the cusp criterion; it
    extends analytically through the origin with value p at z = 0.
    """
    arr, scalar = _prepare(zs)
    _check_disk(arr)
    if isinstance(spec, PolySeries):
        _, d1, _ = _series_tables(spec)
        vals = npoly.polyval(arr, d1)
    else:
        _, denom, hnum, _ = _rational_tables(spec)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = npoly.polyval(arr, hnum) / npoly.polyval(arr, denom)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            if on_pole == "raise":
                loc = arr[bad].ravel()[0]
                raise PoleError(f"normalized derivative has a pole at z = {loc:.6g}",
                                location=complex(loc))
            vals = np.where(bad, np.nan + 0j, vals)
    return vals[0] if scalar else vals



def eval_g_prime_many(map_spec: HarmonicMapSpec, zs, on_pole: str = "raise"):
    """g'(z) = z**(m-1) h'(z), exact."""
    arr, scalar = _prepare(zs)
    hp = eval_h_prime_many(map_spec.h, arr, on_pole=on_pole)
    vals = arr ** (map_spec.m - 1) * hp
    return vals[0] if scalar else vals



def eval_g_many(map_spec: HarmonicMapSpec, zs, *, on_failure: str = "raise"):
    """g at an array of points; series form when available, else the closed-form
    primitive of z**(m-1) h'."""
    arr, scalar = _prepare(zs)
    _check_disk(arr)
    if map_spec.g_coeffs is not None:
        gc = np.asarray(map_spec.g_coeffs, dtype=complex)
        vals = arr ** (map_spec.p + map_spec.m - 1) * npoly.polyval(arr, gc)
        failed = np.zeros(arr.shape, dtype=bool)
    else:
        (vals,), failed = _rational_primitive(map_spec.h, arr, (map_spec.m - 1,), on_failure)
    if on_failure == "mask":
        return vals, failed
    return vals[0] if scalar else vals



def eval_f_many(map_spec: HarmonicMapSpec, zs, *, on_failure: str = "raise"):
    """f = h + conj(g) at an array of points.

    For rational h both primitives share one set of logarithms.
    """
    arr, scalar = _prepare(zs)
    _check_disk(arr)
    if map_spec.g_coeffs is not None:
        h_vals = eval_h_many(map_spec.h, arr)
        g_vals = eval_g_many(map_spec, arr)
        vals = h_vals + np.conj(g_vals)
        failed = np.zeros(arr.shape, dtype=bool)
    else:
        (h_vals, g_vals), failed = _rational_primitive(
            map_spec.h, arr, (0, map_spec.m - 1), on_failure
        )
        vals = h_vals + np.conj(g_vals)
    if on_failure == "mask":
        return vals, failed
    return vals[0] if scalar else vals
