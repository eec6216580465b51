"""Representations and evaluators for planar harmonic maps f = h + conj(g).

The analytic part h comes in two machine forms:

* ``PolySeries`` -- a finite power series h(z) = z**p + a[p+1] z**(p+1) + ...
  with the leading coefficient normalized to exactly 1.
* ``RationalDeriv`` -- h given through its derivative h'(z) = P(z)/Q(z) for
  polynomials P, Q, with h(0) = 0; h is the integral of h' along the
  radial segment from the origin.

The co-analytic part is never stored independently: it is tied to h through

    g'(z) = z**(m-1) * h'(z),        m = 2, 3, 4, ...

so a ``HarmonicMapSpec`` is just the pair (h, m): it is the one map object
every module takes, and g (its series ``g_coeffs`` when h is a series) is
derived from it, never stored.  p and m are at most ``MAX_ORDER``, and
``coeffs``, ``numer`` and ``denom`` hold at most ``MAX_COEFFS`` entries.

Evaluation is per kind: each spec class carries its own arithmetic for h',
h'', H = h'/z**(p-1) and the radial primitives that give h and g, and the
seven public ``eval_*_many`` functions go through one front, ``_evaluate``,
that checks the points and the ``on_pole`` mode and calls it.  The
coefficient tables, roots and residues are cached properties of the frozen
spec, built on first use and freed with the spec; there is no module-level
cache.  All evaluators are pure functions of immutable specs and are safe
to share across threads.

Rational specs may have poles of h' on the unit circle (the flat-sided
presets do).  Evaluation requests that land within ``BOUNDARY_EPSILON``
(1e-6) of such a pole at near-boundary radius are pulled back to radius
1 - BOUNDARY_EPSILON; see ``clamp_to_interior``.  The radial integrals of
u**q h'(u) (q = 0 for h, q = m-1 for g) are evaluated in closed form, as a
polynomial plus sum_k c_k log(1 - z/z_k) over the simple poles z_k of h'.
That sum runs pole by pole in a fixed order, so the value at a point has the
same bits however many other points the call holds.  Points whose segment
[0, z] meets a pole fail with ``QuadratureError`` (NaN with
``on_pole="nan"``); repeated or nearly coincident poles raise
``RepeatedPoleError``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
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


def require_int(value, lo: int, hi, what: str) -> int:
    """``value`` as an int; ``ParameterError`` unless an integer (numpy integers
    count, bools do not) from ``lo`` to ``hi`` (``math.inf`` for a seed)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= value <= hi:
        return int(value)
    raise ParameterError(f"{what} must be an integer from {lo} to {hi}")


def _plain(obj):
    """``obj`` as ``json`` writes it, the one rule of every report: non-finite
    floats become None, keys str, tuples lists, complex numbers [re, im], enums
    their values, dataclasses the dicts of their fields, other numpy scalars
    (np.float32, np.int64, np.bool_) their Python values (leaves tested first)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if obj is None or type(obj) in (int, bool, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return [_plain(obj.real), _plain(obj.imag)]
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    return _plain(obj.item()) if isinstance(obj, np.generic) else obj


# The largest p or m (and sweep degree) a map may have.  The flat-sided
# denominators and the sweep's series have degree up to 2p+m-1, and their
# roots come from a dense companion matrix: cubic time, quadratic memory.
MAX_ORDER = 10 ** 3
# The most entries a coefficient tuple (coeffs, numer or denom) may hold:
# enough for the flat-sided denominators at p = m = MAX_ORDER (2p+m entries).
MAX_COEFFS = 3 * MAX_ORDER


def _complex_tuple(values, name: str) -> tuple[complex, ...]:
    try:
        vals = tuple(complex(c) for c in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} must be complex numbers: {exc}") from None
    if len(vals) > MAX_COEFFS:
        raise ParameterError(f"{name} may hold at most {MAX_COEFFS} entries, got {len(vals)}")
    bad = [c for c in vals if not cmath.isfinite(c)]
    if bad:
        raise ParameterError(f"{name} must be finite, got {bad[0]!r}")
    return vals


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots of an ascending complex coefficient array (none for a constant);
    ``ParameterError`` where the companion matrix would overflow."""
    c = npoly.polytrim(c)
    with np.errstate(all="ignore"):
        if not np.isfinite(c[:-1] / c[-1]).all():
            raise ParameterError(f"a polynomial of h' has a leading coefficient ({c[-1]:.3g}) "
                                 "too small beside the others to find its roots")
    return np.asarray(npoly.polyroots(c), dtype=complex)


def _derived(build):
    """A read-only array property of the frozen spec, built on first use with
    floating-point warnings off: finite coefficients can overflow here, and
    the non-finite values are reported where they are evaluated."""
    @functools.wraps(build)
    def get(self):
        with np.errstate(all="ignore"):
            return _frozen(build(self))
    return functools.cached_property(get)


class _Kind:
    """The arithmetic of one kind of h, behind the public evaluators.

    Each kind provides ``poles`` (of h') and ``H_zeros`` (of the normalized
    derivative H = h'/z**(p-1)) as arrays, raw ``_derivs`` and ``_H``
    (non-finite at poles), and ``_primitive(z, qs, on_pole)``, the list of
    radial primitives F_q(z) = integral of u**q h'(u) over [0, z] (q = 0
    gives h, q = m-1 gives g), NaN where the segment meets a pole (a
    ``QuadratureError`` with ``on_pole="raise"``).  Every table is a cached
    property of the frozen spec (the F_q tables sit in one dict keyed by
    q): built on first use, read-only, freed with the spec.

    ``_derivs(z, hp, hpp, work, power)`` writes h' into ``hp`` and h'' into
    ``hpp`` (either may be None), with three scratch arrays ``work`` and
    ``power(k)`` = z**k (which may write ``work[2]``), never over an input:
    numpy rounds an in-place complex product of one element differently.
    """

    @functools.cached_property
    def _tables(self) -> dict:
        return {}

    def _table(self, q: int):
        """The table of F_q (see ``_primitive_table``), built on first use
        without floating-point warnings, like the ``_derived`` arrays."""
        if q not in self._tables:
            with np.errstate(all="ignore"):
                self._tables[q] = self._primitive_table(q)
        return self._tables[q]


@dataclass(frozen=True)
class PolySeries(_Kind):
    """h as a finite series z**p + a[p+1] z**(p+1) + ... + a[N] z**N.

    ``coeffs[j]`` holds the coefficient of z**(p+j); ``coeffs[0]`` must be
    exactly 1 (the normalization of the class).
    """

    p: int
    coeffs: tuple[complex, ...]

    poles = _frozen(np.zeros(0, dtype=complex))  # a series h' has none

    def __post_init__(self):
        object.__setattr__(self, "p", require_int(self.p, 1, MAX_ORDER, "p"))
        coeffs = _complex_tuple(self.coeffs, "coeffs")
        if not coeffs:
            raise ParameterError("coeffs must be non-empty")
        if coeffs[0] != 1:
            raise ParameterError(
                f"normalization violated: coefficient of z**p must be exactly 1, got {coeffs[0]!r}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            if not np.isfinite([np.abs(d).sum() for d in (self._d1, self._d2)]).all():
                raise ParameterError("coeffs too large: n a_n (of h') or n (n-1) a_n (of h''), "
                                     "or the sum of their moduli, overflow")

    @_derived
    def _a(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    @_derived
    def _n(self) -> np.ndarray:
        return self.p + np.arange(len(self.coeffs))

    @_derived
    def _d1(self) -> np.ndarray:
        return self._n * self._a                  # h'  = z**(p-1) * D1(z)

    @_derived
    def _d2(self) -> np.ndarray:
        return self._n * (self._n - 1) * self._a  # h'' = z**(p-2) * D2(z)  (p >= 2)

    @_derived
    def H_zeros(self) -> np.ndarray:
        return _roots(self._d1)

    def _derivs(self, z, hp, hpp, work, power):
        d, tmp, _ = work  # h' = z**(p-1) D1(z), h'' = z**(p-2) D2(z)
        if hp is not None:
            np.multiply(power(self.p - 1), _polyval_into(z, self._d1, d, tmp), out=hp)
        if hpp is None:
            return
        if self.p >= 2:
            np.multiply(power(self.p - 2), _polyval_into(z, self._d2, d, tmp), out=hpp)
        elif self._d2.size > 1:
            _polyval_into(z, self._d2[1:], hpp, tmp)  # d2[0] == 0 for p == 1
        else:
            hpp.fill(0)

    def _H(self, z):
        return _polyval_into(z, self._d1, np.empty_like(z), np.empty_like(z))

    def _primitive_table(self, q: int):
        """(p + q, c): F_q(z) = z**(p+q) * sum_j c_j z**j, c_j = n a_n/(n+q)."""
        if q == 0:  # n/n * a would turn a -0.0 imaginary part into +0.0
            return self.p, self._a
        return self.p + q, _frozen(self._n / (self._n + q) * self._a)

    def _primitive(self, z, qs, on_pole):
        return [z ** k * npoly.polyval(z, c) for k, c in map(self._table, qs)]


# Closed-form primitive of a rational h' = P/Q
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


@dataclass(frozen=True)
class RationalDeriv(_Kind):
    """h given through h'(z) = numer(z)/denom(z), with h(0) = 0.

    Coefficient tuples are ascending in the exponent.  numer must vanish to
    order exactly p-1 at the origin (so h behaves like a multiple of z**p
    there) and denom(0) must be nonzero.
    """

    p: int
    numer: tuple[complex, ...]
    denom: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", require_int(self.p, 1, MAX_ORDER, "p"))
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

    @_derived
    def _P(self) -> np.ndarray:
        return np.asarray(self.numer, dtype=complex)

    @_derived
    def _Q(self) -> np.ndarray:
        return np.asarray(self.denom, dtype=complex)

    @_derived
    def _second_num(self) -> np.ndarray:
        """Numerator of h'' = (P' Q - P Q') / Q**2."""
        P, Q = self._P, self._Q
        num = npoly.polysub(npoly.polymul(npoly.polyder(P), Q), npoly.polymul(P, npoly.polyder(Q)))
        return np.asarray(num, dtype=complex)

    @_derived
    def poles(self) -> np.ndarray:
        return _roots(self._Q)

    @_derived
    def H_zeros(self) -> np.ndarray:
        return _roots(self._P[self.p - 1:])

    def _derivs(self, z, hp, hpp, work, power):
        d, tmp, q = work  # h' = P/Q, h'' = N2/(Q*Q), from one Q(z)
        _polyval_into(z, self._Q, q, tmp)
        if hp is not None:
            np.divide(_polyval_into(z, self._P, d, tmp), q, out=hp)
        if hpp is not None:
            n2 = _polyval_into(z, self._second_num, d, tmp)
            np.divide(n2, np.multiply(q, q, out=tmp), out=hpp)

    def _H(self, z):
        num = _polyval_into(z, self._P[self.p - 1:], np.empty_like(z), np.empty_like(z))
        return num / _polyval_into(z, self._Q, np.empty_like(z), np.empty_like(z))

    def _primitive_table(self, q: int):
        """(T, residues c_k, n) for F_q; see the formula above."""
        P, Q, poles = self._P, self._Q, self.poles
        num = np.concatenate([np.zeros(q, dtype=complex), P])
        dq = npoly.polyval(poles, npoly.polyder(Q))
        cond = (np.finfo(float).eps * npoly.polyval(np.abs(poles), np.abs(Q))
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
            k = min(j, Q.size - 1)
            t[j] = (num[j] - Q[1:k + 1] @ t[j - k:j][::-1]) / Q[0]
        taylor = np.concatenate([[0.0], t / np.arange(1, n + 1)])
        return _frozen(taylor), _frozen(npoly.polyval(poles, num) / dq), n

    def _primitive(self, z, qs, on_pole):
        """F_q at the clamped points z for each q; NaN where the segment meets
        a pole, which with ``on_pole="raise"`` is a ``QuadratureError``."""
        flat = z.ravel()
        tables = [self._table(q) for q in qs]
        zeta = flat[:, None] / self.poles
        on_cut = (zeta.real >= 1.0 - _CUT_BAND) & (np.abs(zeta.imag) <= _CUT_BAND * np.abs(zeta))
        failed = np.any(on_cut, axis=1)
        vals = []
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log1p(-zeta)
            for taylor, residues, n in tables:
                v = npoly.polyval(flat, taylor) + _residue_sum(_log_tails(zeta, logs, n), residues)
                v[failed] = np.nan
                vals.append(v.reshape(z.shape))
        if on_pole == "raise" and failed.any():
            hit = np.any(on_cut, axis=0)
            jump = 2.0 * np.pi * max(np.max(np.abs(t[1][hit])) for t in tables)
            raise QuadratureError(
                f"the radial segment passes through a pole of h' at {np.count_nonzero(failed)} "
                f"point(s); the primitive jumps by {jump:.3g} across it",
                worst_estimate=float(jump) if jump > 0 else np.inf,
                where=complex(flat[np.argmax(failed)]),
            )
        return vals


def _trim_poly(coeffs, name: str) -> tuple[complex, ...]:
    vals = list(_complex_tuple(coeffs, name))
    while len(vals) > 1 and vals[-1] == 0:
        vals.pop()
    if not vals or all(c == 0 for c in vals):
        raise ParameterError(f"{name} must not be the zero polynomial")
    return tuple(vals)


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


def _residue_sum(tails: np.ndarray, residues: np.ndarray) -> np.ndarray:
    """tails @ residues, added pole by pole in a fixed order: a BLAS product
    rounds a row differently with the number of rows, this loop does not."""
    out = np.zeros(tails.shape[0], dtype=complex)
    for k in range(residues.size):
        out += tails[:, k] * residues[k]
    return out


FunctionSpec = Union[PolySeries, RationalDeriv]


@dataclass(frozen=True)
class HarmonicMapSpec:
    """The pair (h, m) defining f = h + conj(g) with g' = z**(m-1) h'.

    Two maps are equal exactly when their h and m are.  ``g_coeffs`` is
    derived, not stored: for a ``PolySeries`` h, ``g_coeffs[j]`` is the
    coefficient of z**(n+m-1) in g, (n/(n+m-1)) a_n with n = p+j, which is
    exactly the antiderivative of z**(m-1) h'(z); for rational h it is None.
    Evaluation reads g from h's own tables either way.
    """

    h: FunctionSpec
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", require_int(self.m, 2, MAX_ORDER, "m"))
        if not isinstance(self.h, (PolySeries, RationalDeriv)):
            raise ParameterError(f"unsupported function spec: {type(self.h).__name__}")

    @property
    def p(self) -> int:
        return self.h.p

    @functools.cached_property
    def g_coeffs(self) -> tuple[complex, ...] | None:
        if isinstance(self.h, RationalDeriv):
            return None
        return tuple(complex(c) for c in self.h._table(self.m - 1)[1])


# ---------------------------------------------------------------------------
# Shared helpers


def _polyval_into(x: np.ndarray, c: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``npoly.polyval(x, c)`` for a 1-d ``c`` in ``out``, products in ``tmp``:
    the same operations in the same order, so the same bits."""
    np.add(c[-1], np.multiply(x, 0, out=tmp), out=out)
    for i in range(2, c.size + 1):
        np.add(c[-i], np.multiply(out, x, out=tmp), out=out)
    return out


def _pole_error(what: str, at: np.ndarray) -> PoleError:
    loc = at.ravel()[0]
    return PoleError(f"{what} has a pole at z = {loc:.6g}", location=complex(loc))


def _new_derivative(spec: FunctionSpec, z: np.ndarray, which: int) -> np.ndarray:
    """h' (``which`` 0) or h'' (1) at z: ``_derivs`` with new arrays."""
    out = [None, None]
    out[which] = np.empty_like(z)
    spec._derivs(z, *out, [np.empty_like(z) for _ in range(3)], lambda k: z ** k)
    return out[which]


def _derivatives_into(spec: FunctionSpec, z, hp, hpp, work, power) -> None:
    """``spec._derivs`` at z (kept in the closed disk by the caller), raising
    the ``PoleError`` of ``eval_h_prime_many``, then ``eval_h_second_many``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spec._derivs(z, hp, hpp, work, power)
    if spec.poles.size:  # without poles there is nothing to report
        for vals, what in ((hp, "h'"), (hpp, "h''")):
            finite = np.isfinite(vals)
            if not finite.all():
                raise _pole_error(what, z[~finite])


# Half-width of the pole clamp of ``clamp_to_interior``.
BOUNDARY_EPSILON = 1e-6


def clamp_to_interior(spec: FunctionSpec, zs):
    """Pull near-boundary points out of pole sectors of a rational h'.

    A point with |z| > 1 - BOUNDARY_EPSILON lying within BOUNDARY_EPSILON of
    a pole of h' is moved radially to radius 1 - BOUNDARY_EPSILON.  Returns
    ``(points, clamped_mask)``; series specs have no poles and never clamp.
    """
    zs = np.asarray(zs, dtype=complex)
    clamped = np.zeros(zs.shape, dtype=bool)
    if spec.poles.size:
        dist = np.min(np.abs(zs[..., None] - spec.poles), axis=-1)
        near = (dist < BOUNDARY_EPSILON) & (np.abs(zs) > 1.0 - BOUNDARY_EPSILON)
        if np.any(near):
            zs = np.array(zs, copy=True)
            zn = zs[near]
            zs[near] = zn * ((1.0 - BOUNDARY_EPSILON) / np.abs(zn))
            clamped = near
    return zs, clamped


def _clamped_primitive(h: FunctionSpec, arr: np.ndarray, qs, on_pole: str):
    """F_q0 (+ conj F_q1) at arr after the pole clamp (the one place that
    clamps), and the clamped mask."""
    arr, clamped = clamp_to_interior(h, arr)
    vals, *rest = h._primitive(arr, qs, on_pole)
    return (vals + np.conj(rest[0]) if rest else vals), clamped


def _evaluate(spec: FunctionSpec, zs, on_pole, evaluate, what: str = ""):
    """``evaluate`` at zs, the one front of the evaluators: ``on_pole`` is
    "raise" or "nan", the points lie in the closed disk (``DomainError``),
    and a scalar gives a scalar.  A primitive's ``evaluate`` applies
    ``on_pole`` itself; where the derivative ``what`` of a spec with poles
    is not finite, "raise" raises ``PoleError`` and "nan" gives NaN."""
    if on_pole not in ("raise", "nan"):
        raise ParameterError(f"on_pole must be one of ('raise', 'nan'), got {on_pole!r}")
    arr = np.asarray(zs, dtype=complex)
    scalar, arr = arr.ndim == 0, np.atleast_1d(arr)
    worst = np.fmax.reduce(np.abs(arr), axis=None, initial=0.0)  # NaN points pass
    if worst > 1.0 + 1e-12:
        raise DomainError(f"evaluation outside the closed unit disk: |z| = {worst:.6g}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = evaluate(arr)
    if what and spec.poles.size and not np.isfinite(vals).all():
        bad = ~np.isfinite(vals)
        if on_pole == "raise":
            raise _pole_error(what, arr[bad])
        vals = np.where(bad, np.nan + 0j, vals)
    return vals[0] if scalar else vals


# ---------------------------------------------------------------------------
# Evaluators


def eval_h_many(spec: FunctionSpec, zs, on_pole: str = "raise"):
    """h at an array of points inside the closed disk.

    Rational specs use the closed-form radial primitive (clamping near
    boundary poles, silently; use ``clamp_to_interior`` for the flags).
    Where the radial segment meets a pole ``QuadratureError`` is raised
    (``on_pole="nan"`` gives NaN there instead).
    """
    return _evaluate(spec, zs, on_pole, lambda z: _clamped_primitive(spec, z, (0,), on_pole)[0])


def eval_h_prime_many(spec: FunctionSpec, zs, on_pole: str = "raise"):
    """h' at an array of points; exact evaluation, no quadrature.

    Specs with poles raise ``PoleError`` where the value is not finite, as
    on a denominator zero (``on_pole="nan"`` substitutes NaN instead, for
    sampling sweeps that skip poles).
    """
    return _evaluate(spec, zs, on_pole, lambda z: _new_derivative(spec, z, 0), "h'")


def eval_h_second_many(spec: FunctionSpec, zs, on_pole: str = "raise"):
    """h'' at an array of points; exact evaluation."""
    return _evaluate(spec, zs, on_pole, lambda z: _new_derivative(spec, z, 1), "h''")


def eval_normalized_deriv_many(spec: FunctionSpec, zs, on_pole: str = "raise"):
    """The normalized derivative h'(z)/z**(p-1), evaluated without division.

    This is the function whose boundary phase drives the cusp criterion; it
    extends analytically through the origin with value p at z = 0.
    """
    return _evaluate(spec, zs, on_pole, spec._H, "normalized derivative")


def eval_g_prime_many(map_spec: HarmonicMapSpec, zs, on_pole: str = "raise"):
    """g'(z) = z**(m-1) h'(z), exact (a pole of h' is reported as one)."""
    h, m = map_spec.h, map_spec.m
    return _evaluate(h, zs, on_pole, lambda z: z ** (m - 1) * _new_derivative(h, z, 0), "h'")


def eval_g_many(map_spec: HarmonicMapSpec, zs, on_pole: str = "raise"):
    """g at an array of points: the primitive of z**(m-1) h' (a series when h
    is one)."""
    h, q = map_spec.h, map_spec.m - 1
    return _evaluate(h, zs, on_pole, lambda z: _clamped_primitive(h, z, (q,), on_pole)[0])


def eval_f_many(map_spec: HarmonicMapSpec, zs, on_pole: str = "raise"):
    """f = h + conj(g) at an array of points.

    For rational h both primitives share one set of logarithms.  Each
    point's value has the same bits in any call that holds it.
    """
    h, qs = map_spec.h, (0, map_spec.m - 1)
    return _evaluate(h, zs, on_pole, lambda z: _clamped_primitive(h, z, qs, on_pole)[0])
