"""Image-curve geometry for maps f = h + conj(g) with g' = z**(m-1) h'.

Parametrize the image of the circle |z| = r by t -> f(r e^{it}).  On the
unit circle the derivatives in t have closed forms (writing z = e^{it} and
using conj(z) = 1/z there):

    f'(t)  = i z h'(z) - i conj(z)**m conj(h'(z))
    f''(t) = -(z h'(z) + z**2 h''(z)
              + m conj(z)**m conj(h'(z)) + conj(z)**(m+1) conj(h''(z)))

Both terms of f' share the modulus |h'|, so the boundary speed vanishes
exactly where their phases meet -- the cusp candidates located by the phase
criterion.  The cross product Im(f'' conj(f')) collapses to

    (m - 1) (Re(z**(m+1) h'(z)**2) - |h'(z)|**2) <= 0,

the h'' contributions cancelling, so the boundary curve never turns
counterclockwise; ``concavity_check`` verifies both the sign and the
identity numerically.  ``trace_circle`` produces sampled curves,
``detect_cusps`` confirms the stationary points certified by a criterion
report, and ``segment_collinearity`` measures how straight the curve runs
between prescribed break angles.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .fncore import (
    DomainError,
    HarmonicMapSpec,
    InconsistencyError,
    ParameterError,
    ResolutionError,
    _clamped_primitive,
    eval_f_many,
    eval_h_prime_many,
    eval_h_second_many,
    require_int,
)
from .criterion import CriterionReport

_TWO_PI = 2.0 * math.pi
# The most samples one trace, or one rendered curve, may hold (16 MB each).
MAX_SAMPLES = 2 ** 20


def boundary_velocity_many(map_spec: HarmonicMapSpec, t, on_pole: str = "raise") -> np.ndarray:
    """d/dt f(e^{it}) via the closed form; needs h' finite on the circle."""
    t = np.asarray(t, dtype=float)
    z = np.exp(1j * t)
    hp = eval_h_prime_many(map_spec.h, z, on_pole=on_pole)
    w = np.conj(z)
    return 1j * z * hp - 1j * w ** map_spec.m * np.conj(hp)


def boundary_acceleration_many(map_spec: HarmonicMapSpec, t, on_pole: str = "raise") -> np.ndarray:
    """d^2/dt^2 f(e^{it}) via the closed form."""
    t = np.asarray(t, dtype=float)
    z = np.exp(1j * t)
    m = map_spec.m
    hp = eval_h_prime_many(map_spec.h, z, on_pole=on_pole)
    hpp = eval_h_second_many(map_spec.h, z, on_pole=on_pole)
    w = np.conj(z)
    return -(z * hp + z ** 2 * hpp + m * w ** m * np.conj(hp) + w ** (m + 1) * np.conj(hpp))


@dataclass
class CurveTrace:
    """Sampled image of a circle |z| = radius under f.

    ``point_at`` evaluates f at extra parameter values, so winding
    refinement can subdivide steps without re-tracing.
    """

    map: HarmonicMapSpec
    radius: float
    t: np.ndarray
    points: np.ndarray
    clamped: np.ndarray

    @property
    def n(self) -> int:
        return self.t.size

    def diameter(self) -> float:
        re, im = self.points.real, self.points.imag
        return float(math.hypot(np.ptp(re), np.ptp(im)))

    def point_at(self, tq) -> np.ndarray:
        """f at the angles ``tq`` of the circle, as a 1-d array."""
        return eval_f_many(self.map, self.radius * np.exp(1j * np.atleast_1d(tq)))

    def to_csv(self) -> str:
        """Rows "%.17g,%.17g,%.17g,%d" of t, re f, im f and the clamp flag."""
        cols = (self.t, self.points.real, self.points.imag, self.clamped)
        blocks = ([c[s:s + _CSV_BLOCK] for c in cols] for s in range(0, self.n, _CSV_BLOCK))
        return "".join(["t,re_f,im_f,clamped\n", *(_exact_rows(*b) or _percent_rows(b)
                                                    for b in blocks)])


def _percent_rows(cols) -> str:
    rows = itertools.chain.from_iterable(zip(*(c.tolist() for c in cols)))
    return "%.17g,%.17g,%.17g,%d\n" * cols[0].size % tuple(rows)


def _write_digits(mat: np.ndarray, cols, q: np.ndarray) -> None:
    """Write the digits of the integers q >= 0 into mat[:, cols] as ASCII, the last first."""
    for col in cols:
        rest = q // 10  # a scalar divisor: ten times faster than broadcast ones
        mat[:, col] = q - 10 * rest + ord("0")
        q = rest


def _decimal17(x: float) -> tuple[int, int]:
    """(n, e), 10^16 <= n < 10^17: x > 0 to 17 digits, n 10^(e-16), half to even as %e."""
    digits, e = ("%.16e" % x).split("e")
    return int(digits.replace(".", "")), int(e)


_CSV_BLOCK = 1024  # rows formatted at once: 3,072 values in the digit matrix
# The 32 columns of one value: a sign, the "0.000" of the fixed forms below
# 1, the digits d0 "." d1 ... d16, e+XXX, and ",", the clamp flag and a
# newline, the last two for every third value.  The forms of _KEEP are
# fixed at or above 1, fixed with e = -1 ... -4, and exponents of two and
# of three digits.
_G17 = np.frombuffer(b"-0.000" + b"0." + b"0" * 16 + b"e+000" + b",0\n", np.uint8)


def _keep_table() -> np.ndarray:
    keep = np.zeros((2, 7, 18, 2, 32), bool)  # by sign, form, length - 1, third, column
    keep[1, ..., 0] = keep[:, 5:, ..., 24:29] = keep[..., 29] = keep[..., 1, 30:] = True
    for j in range(18):
        keep[:, :, j, :, 6:7 + j] = True
    for form in range(1, 5):
        keep[:, form, ..., 1:form + 2] = True  # "0." and form - 1 zeros
    keep[:, 1:5, ..., 7] = keep[:, 5, ..., 26] = False  # the point is in "0."; no hundreds
    return keep.reshape(-1, 32)


_KEEP = _keep_table()


def _round17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_decimal17`` of each a, 0 or 1e-250 < a < 1e250, as int64 arrays (n = 0 at 0).

    n = round(a 10^k), k = 16 - floor(log10 a), is p + rint(err + a lo)
    within 1e-14, with 10^k = hi + lo and a hi = p + err exactly (Dekker's
    TwoProduct).  ``_decimal17`` redoes the values within 2^-20 of a half or
    with n at the ends of [10^16, 10^17), where e may be off by one."""
    nz = a != 0
    e = np.floor(np.log10(np.where(nz, a, 1.0))).astype(np.int64)
    e_max = int(e.max())
    hi_lo = np.zeros((2, e_max - int(e.min()) + 1))
    for j in np.flatnonzero(np.bincount(e_max - e)).tolist():
        k = 16 - e_max + j  # 10^k = num / den, so hi and lo are correctly rounded
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hn, hd = (num / den).as_integer_ratio()
        hi_lo[:, j] = num / den, (num * hd - hn * den) / (den * hd)
    hi, lo = np.take(hi_lo, e_max - e, axis=1)
    p = a * hi
    ca, ch = a * 134217729.0, hi * 134217729.0  # Veltkamp's factor 2^27 + 1
    ah, hh = ca - (ca - a), ch - (ch - hi)
    al, hl = a - ah, hi - hh
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    rr = np.rint(r)
    n = p.astype(np.int64) + rr.astype(np.int64)
    hard = nz & ((np.abs(r - rr) >= 0.5 - 2.0 ** -20) | (n <= 10 ** 16) | (n >= 10 ** 17 - 1))
    for i in np.flatnonzero(hard).tolist():
        n[i], e[i] = _decimal17(float(a[i]))
    return n, e


def _exact_rows(t, re, im, flags) -> str | None:
    """The bytes of ``_percent_rows`` from numpy arithmetic, or None when the
    flags are not bool or some value is nonzero outside 1e-250 < |x| < 1e250
    (NaN and inf too)."""
    x = np.column_stack((t, re, im)).ravel()
    a = np.abs(x)
    if flags.dtype != bool or not np.all((a > 1e-250) & (a < 1e250) | (a == 0)):
        return None  # checked first: it keeps 10^k and the splits finite and normal
    n, e = _round17(a)
    mat = np.tile(_G17, (x.size, 1))
    top, bottom = np.divmod(n, 10 ** 8)
    _write_digits(mat, range(23, 15, -1), bottom.astype(np.uint32))
    _write_digits(mat, (*range(15, 7, -1), 6), top.astype(np.uint32))
    mat[2::3, 30] += flags
    last = 16 - np.argmax(mat[:, 23:6:-1] != ord("0"), axis=1)  # d16 ... d1, then the point
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed & (e > 0), e, 0)  # the digit the point follows
    for P in (np.flatnonzero(np.bincount(point)[1:]) + 1).tolist():
        rows = np.flatnonzero(point == P)  # d1 ... dP move before the point
        mat[rows, 7:7 + P] = mat[rows, 8:8 + P]
        mat[rows, 7 + P] = ord(".")
    if not fixed.all():
        mat[:, 25] = np.where(e < 0, ord("-"), ord("+"))
        _write_digits(mat, (28, 27, 26), np.abs(e).astype(np.uint32))
    form = np.where(fixed, np.maximum(-e, 0), 5 + (np.abs(e) >= 100))
    length = np.where(last > point, last + 2, point + 1)
    code = ((np.signbit(x) * 7 + form) * 18 + length - 1) * 2  # -0 for -0.0, as %
    code[2::3] += 1
    mat *= np.take(_KEEP, code, axis=0)  # zero what the value drops
    return mat.tobytes().translate(None, b"\0").decode("ascii")


def trace_circle(map_spec: HarmonicMapSpec, r: float, n: int = 4096) -> CurveTrace:
    """Sample f on the circle |z| = r at n uniform angles starting at -pi.

    Requires an integer 256 <= n <= ``MAX_SAMPLES`` (headroom for winding
    estimates) and a real 0 < r <= 1 (``DomainError``); points within
    ``fncore.BOUNDARY_EPSILON`` of a pole of a rational h' are flagged in
    ``clamped`` and evaluated at the pulled-in radius.  A radial segment
    that meets a pole of h' aborts with the evaluator's ``QuadratureError``
    (``where`` the first such point, ``worst_estimate`` the jump 2 pi |c_k|).
    """
    n = require_int(n, 256, MAX_SAMPLES, "trace samples")
    if not (isinstance(r, numbers.Real) and 0.0 < r <= 1.0):
        raise DomainError("trace radius must lie in (0, 1]")
    t = -math.pi + _TWO_PI * np.arange(n) / n
    z = r * np.exp(1j * t)
    # f = h + conj(g) as eval_f_many forms it, one clamp
    vals, clamped = _clamped_primitive(map_spec.h, z, (0, map_spec.m - 1), "raise")
    return CurveTrace(map=map_spec, radius=r, t=t, points=vals, clamped=clamped)


@dataclass(frozen=True)
class ConcavityReport:
    """Sampled check that the boundary image never turns counterclockwise."""

    n: int
    skipped: int
    max_cross: float
    max_identity_gap: float
    max_identity_rel_gap: float
    tol: float
    passed: bool


def concavity_check(map_spec: HarmonicMapSpec, n: int = 4096) -> ConcavityReport:
    """Verify Im(f'' conj(f')) <= 0 on the unit circle, and its closed form.

    Both the direct cross product and the reduced expression
    (m-1)(Re(z**(m+1) h'**2) - |h'|**2) are evaluated at n angles (an integer
    from 16 to ``MAX_SAMPLES``); the report records the largest (signed)
    cross product, the worst absolute and relative gap between the two
    routes, and a pass flag with tolerance 1e-9 * max|f'| * max|f''|.
    Samples where h' is singular are skipped.
    """
    n = require_int(n, 16, MAX_SAMPLES, "concavity samples")
    t = -math.pi + _TWO_PI * np.arange(n) / n
    z = np.exp(1j * t)
    hp = eval_h_prime_many(map_spec.h, z, on_pole="nan")
    m = map_spec.m
    vel = boundary_velocity_many(map_spec, t, on_pole="nan")
    acc = boundary_acceleration_many(map_spec, t, on_pole="nan")
    direct = np.imag(acc * np.conj(vel))
    rhs = (m - 1) * (np.real(z ** (m + 1) * hp ** 2) - np.abs(hp) ** 2)
    ok = np.isfinite(direct) & np.isfinite(rhs)
    skipped = int(n - np.count_nonzero(ok))
    if not np.any(ok):
        raise ResolutionError("every concavity sample hit a singularity of h'")
    direct, rhs = direct[ok], rhs[ok]
    speed = np.abs(vel[ok])
    accel = np.abs(acc[ok])
    gap = np.abs(direct - rhs)
    scale = np.maximum(1.0, speed * accel)
    tol = 1e-9 * float(speed.max()) * float(accel.max()) if speed.size else 0.0
    max_cross = float(direct.max())
    return ConcavityReport(
        n=n, skipped=skipped, max_cross=max_cross,
        max_identity_gap=float(gap.max()),
        max_identity_rel_gap=float((gap / scale).max()),
        tol=tol, passed=bool(max_cross <= tol and (gap / scale).max() <= 1e-9),
    )


@dataclass(frozen=True)
class CuspSet:
    """Angles (and images) of the boundary cusps confirmed for a map."""

    angles: np.ndarray
    points: np.ndarray
    speeds: np.ndarray
    cusp_tol: float

    @property
    def count(self) -> int:
        return int(self.angles.size)


def detect_cusps(map_spec: HarmonicMapSpec, report: CriterionReport,
                 override: bool = False) -> CuspSet:
    """Confirm that the phase-criterion roots are genuine stationary points.

    Requires a report with ``criterion_satisfied`` (pass ``override=True`` to
    inspect an uncertified map anyway).  Each root angle must have boundary
    speed below 1e-6 * max|f'|; a violation raises ``InconsistencyError``
    since it means the phase table and the velocity field disagree.
    """
    if not (report.criterion_satisfied or override):
        raise ParameterError(
            "cusp detection needs a satisfied criterion report "
            "(pass override=True to force)"
        )
    if report.m != map_spec.m or report.p != map_spec.p:
        raise ParameterError("criterion report does not match this map")
    angles = np.array([r.t for r in report.roots if not r.suspected_tangency])
    t_grid = -math.pi + _TWO_PI * np.arange(4096) / 4096
    vmax = float(np.nanmax(np.abs(boundary_velocity_many(map_spec, t_grid, on_pole="nan"))))
    cusp_tol = 1e-6 * vmax
    if angles.size == 0:
        warnings.warn("criterion report carries no roots; no cusps to confirm")
        empty = np.zeros(0)
        return CuspSet(angles=empty, points=np.zeros(0, dtype=complex),
                       speeds=empty, cusp_tol=cusp_tol)
    speeds = np.abs(boundary_velocity_many(map_spec, angles, on_pole="nan"))
    bad = ~(speeds < cusp_tol)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise InconsistencyError(
            f"root at t = {angles[j]:.12g} has boundary speed "
            f"{speeds[j]:.3g} >= tolerance {cusp_tol:.3g}"
        )
    points = np.array([
        complex(r.boundary_image) if r.boundary_image is not None
        else complex(eval_f_many(map_spec, np.exp(1j * r.t)))
        for r in report.roots if not r.suspected_tangency
    ])
    return CuspSet(angles=angles, points=points, speeds=speeds, cusp_tol=cusp_tol)


def segment_collinearity(trace: CurveTrace, breakpoints) -> np.ndarray:
    """Normalized straightness defect of each arc between consecutive breaks.

    ``breakpoints`` are angles in [-pi, pi); arcs run cyclically from each
    breakpoint to the next.  For each arc the samples of ``trace`` strictly
    inside it are fit by the chord through the first and last of them, and
    the largest perpendicular distance, divided by the trace diameter, is
    returned.  Arcs with fewer than 3 interior samples raise
    ``ResolutionError``: the trace is too coarse to judge straightness.
    """
    bp = np.sort(np.asarray(breakpoints, dtype=float).ravel())
    if bp.size < 2:
        raise ParameterError("need at least two breakpoints")
    if not (-math.pi - 1e-12 <= bp[0] and bp[-1] < math.pi + 1e-12):  # NaN sorts last
        raise ParameterError("breakpoints must lie in [-pi, pi)")
    diam = trace.diameter()
    if diam <= 0:
        raise ResolutionError("degenerate trace: zero diameter")
    out = np.empty(bp.size)
    eps = 1e-12
    for j in range(bp.size):  # the last arc wraps past pi
        lo, hi = bp[j], bp[(j + 1) % bp.size] + _TWO_PI * (j + 1 == bp.size)
        tt = np.where(trace.t > lo + eps, trace.t, trace.t + _TWO_PI)
        pts = trace.points[(tt > lo + eps) & (tt < hi - eps)]
        if pts.size < 3:
            raise ResolutionError(
                f"arc ({lo:.6g}, {hi:.6g}) holds only {pts.size} trace samples"
            )
        a, b = pts[0], pts[-1]
        chord = b - a
        if abs(chord) < 1e-12 * diam:
            dev = float(np.max(np.abs(pts - a)))
        else:
            u = chord / abs(chord)
            dev = float(np.max(np.abs(np.imag((pts - a) * np.conj(u)))))
        out[j] = dev / diam
    return out
