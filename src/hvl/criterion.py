"""The boundary cusp-count criterion.

For a map f = h + conj(g) with g' = z**(m-1) h', the boundary velocity
vanishes exactly where the phase function

    F(t) = (2p + m - 1) t + 2 arg H(e^{it}),      H(z) = h'(z) / z**(p-1),

crosses an integer multiple of 2 pi (the arg taken along a continuous
branch anchored at its principal value at t = -pi).  The sufficient
criterion for p-valence asks that H be zero-free on the closed disk and
that F meet the levels 2 k pi, k in K = {0, +-1, ..., +-floor((2p+m+1)/2)},
in exactly 2p+m-1 simple crossings, at most one per level.

This module computes the continuous branch of arg H on |z| = 1 (with local
grid refinement so no sampled increment reaches pi/2), locates all level
crossings in one pass and bisects them by dyadic subtrees, certifies that
H is zero-free via its winding number, and samples the monotonicity margin

    min Re(1 + z h''(z)/h'(z)) + (m - 1)/2

over circles; a positive margin forces F' > 0 so each level is hit at most
once.  ``monotonicity_margins`` samples many maps on one unit circle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fncore import (
    BoundaryHypothesisError,
    FunctionSpec,
    HarmonicMapSpec,
    ParameterError,
    PoleError,
    UnwrapError,
    _derivatives_into,
    _plain,
    eval_f_many,
    eval_h_prime_many,
    eval_h_second_many,
    eval_normalized_deriv_many,
    require_int,
)

_TWO_PI = 2.0 * math.pi
_MAX_UNWRAP_POINTS = 1 << 20
# One bisection call evaluates at most this many points (see ``_bisect_all``);
# row x of its subtrees lies in a level of _BLOCK[x] = 2**floor(log2 x) rows.
_BISECT_POINTS = 256
_BLOCK = np.array([1 << max(x.bit_length() - 1, 0) for x in range(_BISECT_POINTS)])
# The largest grid a caller may ask for (8 MB of angles per array).
MAX_GRID = 2 ** 20
# Roots are bisected to _BISECT_TOL in t; a local minimum of |F - 2 k pi|
# below _TANGENCY_THRESHOLD without a sign change is a suspected tangency;
# H counts as vanishing on the boundary where its modulus is at most
# _NONVANISH_TOL.
_BISECT_TOL = 1e-12
_TANGENCY_THRESHOLD = 1e-7
_NONVANISH_TOL = 1e-9
# The outermost circle the margin samples.
_OUTER_RADIUS = 1.0 - 1e-6


def _grid(grid_size) -> int:
    """``grid_size`` as an int; ``ParameterError`` unless a power of two
    from 1024 to ``MAX_GRID``.

    Every function of this module that samples a grid checks its size here,
    before it allocates anything.
    """
    n = require_int(grid_size, 1024, MAX_GRID, "grid_size")
    if n & (n - 1):
        raise ParameterError(f"grid_size must be a power of two from 1024 to {MAX_GRID}")
    return n


@dataclass
class PhaseTable:
    """Continuous branch of arg H(e^{it}) on t in [-pi, pi].

    The table's grid is dense enough that successive increments stay below
    pi/2; ``eval_many`` gives exact on-branch values at any t by lifting the
    principal argument to the branch that table interpolation selects.
    """

    spec: FunctionSpec
    t: np.ndarray
    phase: np.ndarray
    min_modulus: float

    @property
    def winding(self) -> int:
        """Winding number of H around 0 along the boundary circle."""
        return int(round((self.phase[-1] - self.phase[0]) / _TWO_PI))

    def eval_many(self, tq) -> np.ndarray:
        tq = np.asarray(tq, dtype=float)  # np.clip, np.angle, np.round as ufuncs
        flat = np.minimum(np.maximum(tq.ravel(), self.t[0]), self.t[-1])
        hv = eval_normalized_deriv_many(self.spec, np.exp(1j * flat))
        pv = np.arctan2(hv.imag, hv.real)
        j = np.minimum(np.maximum(self.t.searchsorted(flat), 1), self.t.size - 1)
        t0, t1 = self.t[j - 1], self.t[j]
        p0, p1 = self.phase[j - 1], self.phase[j]
        est = p0 + (p1 - p0) * (flat - t0) / np.maximum(t1 - t0, 1e-300)
        lifted = pv + _TWO_PI * np.rint((est - pv) / _TWO_PI)
        return lifted.reshape(tq.shape)


def _circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The boundary grid t = linspace(-pi, pi, n + 1) and e^{it}.

    The phase unwrap samples all n + 1 points; the margin samples the first
    n, bit for bit ``linspace(-pi, pi, n, endpoint=False)`` for every power
    of two n up to ``MAX_GRID``.
    """
    t = np.linspace(-math.pi, math.pi, n + 1)
    return t, np.exp(1j * t)


def unwrap_boundary_phase(spec: FunctionSpec, grid_size: int = 8192, *,
                          circle: tuple[np.ndarray, np.ndarray] | None = None) -> PhaseTable:
    """Continuous branch of arg H on the boundary, anchored at t = -pi,
    from ``grid_size`` + 1 samples (a power of two >= 1024) refined locally.

    ``circle`` is the grid (t, e^{it}) of ``grid_size`` + 1 points from -pi
    to pi when the caller has built it already (``check_criterion`` shares
    it with the margin); by default it is built here.

    Raises ``BoundaryHypothesisError`` when H vanishes on the boundary (its
    minimum sampled modulus falls to 1e-9) or blows up there (a
    pole of h' sits on the unit circle, or a sample is not finite), and
    ``UnwrapError`` when the refinement budget is exhausted.
    """
    grid_size = _grid(grid_size)
    if np.any(np.abs(np.abs(spec.poles) - 1.0) <= 1e-8):
        raise BoundaryHypothesisError(
            "normalized derivative blows up on the boundary "
            "(denominator root on |z| = 1)"
        )
    t, z = _circle(grid_size) if circle is None else circle
    hv = eval_normalized_deriv_many(spec, z, on_pole="nan")
    pv = np.angle(hv)
    mod = np.abs(hv)
    while True:
        if not np.all(np.isfinite(mod)):
            raise BoundaryHypothesisError("normalized derivative is not finite on the boundary")
        if float(mod.min()) <= _NONVANISH_TOL:
            raise BoundaryHypothesisError(
                f"normalized derivative vanishes on the boundary "
                f"(min sampled modulus {mod.min():.3g})"
            )
        steps = (np.diff(pv) + math.pi) % _TWO_PI - math.pi  # wrapped into [-pi, pi)
        bad = np.flatnonzero(np.abs(steps) >= math.pi / 2)
        if bad.size == 0:
            break
        if t.size + bad.size > _MAX_UNWRAP_POINTS:
            raise UnwrapError(
                f"phase refinement exceeded {_MAX_UNWRAP_POINTS} grid points"
            )
        t_mid = 0.5 * (t[bad] + t[bad + 1])
        hv_mid = eval_normalized_deriv_many(spec, np.exp(1j * t_mid), on_pole="nan")
        t = np.insert(t, bad + 1, t_mid)
        pv = np.insert(pv, bad + 1, np.angle(hv_mid))
        mod = np.insert(mod, bad + 1, np.abs(hv_mid))
    phase = np.concatenate(([pv[0]], pv[0] + np.cumsum(steps)))
    return PhaseTable(spec=spec, t=t, phase=phase, min_modulus=float(mod.min()))


def phase_function_many(map_spec: HarmonicMapSpec, t, table: PhaseTable) -> np.ndarray:
    """F(t) = (2p+m-1) t + 2 arg H(e^{it}) on the continuous branch of the
    table, which must be of this map's h (``ParameterError``)."""
    if table.spec != map_spec.h:
        raise ParameterError("the phase table is not of this map's h")
    t = np.asarray(t, dtype=float)
    return (2 * map_spec.p + map_spec.m - 1) * t + 2.0 * table.eval_many(t)


def phase_function_derivative_many(map_spec: HarmonicMapSpec, t) -> np.ndarray:
    """F'(t) = m + 1 + 2 Re(z h''(z)/h'(z)) at z = e^{it}.

    Raises ``PoleError`` where h' vanishes (or has a pole) on the circle.
    """
    t = np.asarray(t, dtype=float)
    z = np.exp(1j * t)
    hp = eval_h_prime_many(map_spec.h, z)
    hpp = eval_h_second_many(map_spec.h, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = z * hpp / hp
    bad = ~np.isfinite(ratio)
    if np.any(bad):
        loc = z[np.atleast_1d(bad)].ravel()[0]
        raise PoleError("h' vanishes on the boundary circle", location=complex(loc))
    return map_spec.m + 1 + 2.0 * np.real(ratio)


@dataclass(frozen=True)
class RootRecord:
    """One crossing (or suspected tangency) of F with the level 2 k pi."""

    k: int
    t: float
    boundary_image: complex | None
    suspected_tangency: bool
    residual: float


def level_set(p: int, m: int) -> range:
    """The searched level indices K = 0, +-1, ..., +-floor((2p+m+1)/2)."""
    k_max = (2 * p + m + 1) // 2
    return range(-k_max, k_max + 1)


def _bisect_all(fn, a, b, fa, fb, tol: float):
    """Best (t, fn(t)) on each sign-changing bracket [a, b]: bisection while
    wider than tol (at most 200 halvings; an exact zero ends a bracket as its
    lower end), then up to five secant steps.  ``fn(t, rows)`` evaluates t[..., i]
    on the bracket rows[i]; each bracket takes the steps of a scalar bisection.

    One call of ``fn`` serves k halvings of the R open brackets, k the largest
    with R (2**k - 1) <= _BISECT_POINTS (at least 1): it evaluates their dyadic
    subtrees.  Rows z[:n] (n = 2**k) hold a and the levels of 1, 2, ..., n/2
    midpoints, z[n:] the same levels in reverse order and b, so that the level
    in rows m .. 2m - 1 is 0.5 * (z[u] + z[2n - m + u]) at row m + u, u < m.
    A walk of k levels then follows the scalar path.
    """
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    halvings = 0
    while halvings < 200:
        rows = np.flatnonzero(~(b - a <= tol) & (fa != 0.0))  # fa = 0: ended at a zero
        if rows.size == 0:
            break
        k = min(max(1, (1 + _BISECT_POINTS // rows.size).bit_length() - 1), 200 - halvings)
        halvings, n, r = halvings + k, 1 << k, rows.size
        z, fz = np.empty((2 * n, r)), np.empty((2 * n, r))
        z[0], z[-1], fz[0], fz[-1] = a[rows], b[rows], fa[rows], fb[rows]
        for m in [1 << j for j in range(k)]:
            z[m:2 * m] = z[2 * n - 2 * m:2 * n - m] = 0.5 * (z[:m] + z[2 * n - m:])
        fz[1:n] = fn(z[1:n], rows)
        # a takes row x unless F(x) is nonzero and of the other sign than F(a)
        move = ((fz[:n] < 0) == (fz[0] < 0)) | (fz[:n] == 0.0)
        col = np.arange(r)  # u, v: the flat indices in z of a and b after level 1
        u, v = col + r * move[1], col + np.where(move[1], 2 * n - 1, 1) * r
        if k > 1:  # row x halves [z[x - m], z[x + 2n - 2m]] if wider than tol and F != 0 at x - m
            x, m = np.arange(n), _BLOCK[:n]
            go = ~((z[x + 2 * (n - m)] - z[x - m] <= tol) | (fz[x - m] == 0.0))
            step, to_b = ((go & move) * (m[:, None] * r)).ravel(), (go & ~move).ravel()
            for offset in [r << j for j in range(1, k)]:
                mid = u + offset
                np.copyto(v, mid, where=to_b[mid])
                u += step[mid]
        z, fz = z.ravel(), fz.ravel()
        a[rows], fa[rows], b[rows], fb[rows] = z[u], fz[u], z[v], fz[v]
    first = np.abs(fa) <= np.abs(fb)
    t_best, f_best = np.where(first, a, b), np.where(first, fa, fb)
    lo, hi, flo, fhi = a.copy(), b.copy(), fa.copy(), fb.copy()
    polishing = np.ones(a.size, dtype=bool)
    for _ in range(5):
        polishing &= ~((np.abs(f_best) < tol) | (fhi == flo))
        rows = np.flatnonzero(polishing)
        t_sec = hi[rows] - fhi[rows] * (hi[rows] - lo[rows]) / (fhi[rows] - flo[rows])
        polishing[rows] = (a[rows] <= t_sec) & (t_sec <= b[rows])
        t_sec, rows = t_sec[polishing[rows]], rows[polishing[rows]]
        if rows.size == 0:
            break
        f_sec = fn(t_sec, rows)
        better = np.abs(f_sec) < np.abs(f_best[rows])
        t_best[rows[better]], f_best[rows[better]] = t_sec[better], f_sec[better]
        lo[rows], flo[rows], hi[rows], fhi[rows] = hi[rows], fhi[rows], t_sec, f_sec
    return t_best, f_best


def find_criterion_roots(map_spec: HarmonicMapSpec, grid_size: int = 8192,
                         table: PhaseTable | None = None) -> tuple[RootRecord, ...]:
    """All crossings of F with the levels 2 k pi for k in the searched set.

    One pass over the grid finds, for all levels at once, the samples where
    F equals a level, the intervals where F - 2 k pi changes sign, and the
    interior local minima of |F - 2 k pi| below 1e-7 without a sign change
    (recorded with ``suspected_tangency=True``).  The sign changes are
    bisected together to 1e-12 in t, k halvings per ``PhaseTable.eval_many``
    call (see ``_bisect_all``).  Records are sorted by t.  The phase table is
    ``unwrap_boundary_phase(map_spec.h, grid_size)`` unless ``table`` is
    passed, which must be of this map's h (``ParameterError``).
    """
    if table is None:
        table = unwrap_boundary_phase(map_spec.h, grid_size)
    elif table.spec != map_spec.h:
        raise ParameterError("the phase table is not of this map's h")
    t, tol, thr = table.t, _BISECT_TOL, _TANGENCY_THRESHOLD
    f_grid = (2 * map_spec.p + map_spec.m - 1) * t + 2.0 * table.phase
    k_min = level_set(map_spec.p, map_spec.m).start
    targets = _TWO_PI * np.arange(k_min, 1 - k_min)
    # candidates (i, j): the levels T with fl(lo - thr) <= T <= fl(hi + thr), for
    # all crossings, hits and touches (README), on intervals within 1e-6 turns
    lo, hi = np.minimum(f_grid[:-1], f_grid[1:]), np.maximum(f_grid[:-1], f_grid[1:])
    near = np.flatnonzero(np.ceil((lo - targets[0]) / _TWO_PI - 1e-6)
                          <= np.floor((hi - targets[0]) / _TWO_PI + 1e-6))
    first = np.searchsorted(targets, lo[near] - thr)
    n = np.searchsorted(targets, hi[near] + thr, "right") - first
    i = np.repeat(near, n)
    j = np.arange(i.size) - np.repeat(np.cumsum(n) - n - first, n)
    g_left, g, g_right = (f_grid[i + d] - targets[j] for d in (-1, 0, 1))
    cross = g * g_right < 0.0
    hit = g == 0.0  # every t_i lies in the domain [-pi, pi)
    touch = ((i > 0) & (np.abs(g) <= np.abs(g_left)) & (np.abs(g) <= np.abs(g_right))
             & (np.abs(g) < thr) & (g_left * g > 0.0) & (g * g_right > 0.0))
    t_root, resid = _bisect_all(
        lambda tq, rows: phase_function_many(map_spec, tq, table) - targets[j[cross][rows]],
        t[i[cross]], t[i[cross] + 1], g[cross], g_right[cross], tol)
    in_domain = t_root < math.pi - tol
    roots: dict[int, list[tuple[float, float]]] = {}
    for level, tr, res in zip(np.concatenate([j[cross][in_domain], j[hit]]).tolist(),
                              np.concatenate([t_root[in_domain], t[i[hit]]]).tolist(),
                              np.abs(np.concatenate([resid[in_domain], g[hit]])).tolist()):
        roots.setdefault(level, []).append((tr, res))
    records = [RootRecord(k=k_min + level, t=t_min, boundary_image=None,
                          suspected_tangency=True, residual=abs(res))
               for level, t_min, res in zip(j[touch].tolist(), t[i[touch]].tolist(),
                                            g[touch].tolist())
               if all(abs(t_min - tr) > 1e-6 for tr, _ in roots.get(level, ()))]
    kept: list[tuple[int, float, float]] = []
    for level, found in roots.items():
        start = len(kept)
        for tr, res in sorted(found):
            if not (len(kept) > start and tr - kept[-1][1] <= 10 * tol):
                kept.append((level, tr, res))
    if kept:
        images = eval_f_many(map_spec, np.exp(1j * np.array([tr for _, tr, _ in kept])))
        records += [RootRecord(k=k_min + level, t=tr, boundary_image=complex(img),
                               suspected_tangency=False, residual=res)
                    for (level, tr, res), img in zip(kept, images)]
    # on equal t the lower level comes first, and a tangency before a crossing
    records.sort(key=lambda r: (r.t, r.k, not r.suspected_tangency))
    return tuple(records)


def _margin(map_spec: HarmonicMapSpec, unit: np.ndarray, outer_power, rows) -> float:
    """The margin of one map (see ``check_monotonicity_margin``), sampled
    on the circles r * ``unit`` for the points e^{it} of ``unit``, in the
    ``rows`` of ``monotonicity_margins``; ``outer_power(k)`` is z**k on the
    outer circle, the first row."""
    n = unit.size
    h = map_spec.h
    singular = np.concatenate([h.H_zeros, h.poles])
    radii = [_OUTER_RADIUS]
    if not np.all(np.abs(singular) > _OUTER_RADIUS + _TWO_PI / n):
        radii = [0.9, 0.99, 0.999, _OUTER_RADIUS]
        for z0 in singular:
            r0 = abs(z0)  # the scalar abs: numpy's array abs may round differently
            if 1e-9 < r0 < 1.0 - 1e-9:
                radii.extend([min(r0 * (1 + 1e-3), 1.0 - 1e-9), r0 * (1 - 1e-3)])
    outer, inner, hp, hpp, *work = rows

    def inner_power(k: int) -> np.ndarray:  # ``**=`` takes the loop of ``**`` (np.square at 2)
        np.copyto(work[2], inner)
        work[2] **= k
        return work[2]

    worst = math.inf
    for r in radii:
        z = outer if r == _OUTER_RADIUS else np.multiply(r, unit, out=inner)
        power = outer_power if z is outer else inner_power
        _derivatives_into(h, z, hp, hpp, work, power)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.add(1.0, np.divide(np.multiply(z, hpp, out=work[0]), hp, out=work[1]),
                          out=work[0]).real
        bad = ~np.isfinite(vals)
        if np.any(bad):
            loc = z[bad][0]
            raise PoleError(f"h' vanishes at a sampled point z = {loc:.6g}",
                            location=complex(loc))
        worst = min(worst, float(vals.min()))
    return worst + (map_spec.m - 1) / 2.0


def monotonicity_margins(map_specs, grid_size: int = 8192, *,
                         circle: tuple | None = None) -> list[float | PoleError]:
    """The margin of ``check_monotonicity_margin`` for each map of
    ``map_specs``, all sampled on one unit circle of ``grid_size`` angles
    (the first points of ``circle``, as ``unwrap_boundary_phase`` takes it).

    Per call, not per map: e^{it}, one block of seven rows (the outer circle
    r = 1 - 1e-6, each inner circle, h', h'' and three of scratch), and the
    outer circle's z**(p-1) and z**(p-2), once per p; all freed on return.
    Each entry is the map's margin, or the ``PoleError`` that
    ``check_monotonicity_margin`` raises for it, returned, not raised.
    """
    n = _grid(grid_size)
    unit = (_circle(n) if circle is None else circle)[1][:n]
    rows = np.empty((7, n), dtype=complex)
    outer = np.multiply(_OUTER_RADIUS, unit, out=rows[0])
    outer_power = functools.cache(lambda k: outer ** k)  # freed with this call
    margins: list[float | PoleError] = []
    for map_spec in map_specs:
        try:
            margins.append(_margin(map_spec, unit, outer_power, rows))
        except PoleError as exc:
            # without its traceback the error holds no frame, so no map
            margins.append(exc.with_traceback(None))
    return margins


def check_monotonicity_margin(map_spec: HarmonicMapSpec, grid_size: int = 8192) -> float:
    """Sampled margin of the monotonicity condition Re(1+zh''/h') > -(m-1)/2.

    Returns min Re(1 + z h''/h') + (m-1)/2 over ``grid_size`` angles on
    circles about the origin; positive means F is strictly increasing
    wherever the sampled circles are representative.

    v = Re(1 + z h''/h') = p + Re(z H'/H) is harmonic wherever H = h'/z**(p-1)
    has no zero and h' no pole, so on a disk free of them the minimum
    principle puts the minimum of v on the boundary circle.  When every zero
    of H and every pole of h' lies more than one angle step 2 pi/grid_size
    beyond the circle r = 1 - 1e-6, only that circle is sampled.  The gap
    keeps that sample at or below the one over all circles: near a zero of
    H at distance d beyond a circle, v is about c - d/(d**2 + s**2) at arc
    offset s, which for fixed s rises with d once d >= s.  With d at least
    half a step the outer circle's sample nearest the zero lies below the
    lowest sample of any inner circle.  A nearer zero makes a dip narrower
    than a step, which the outer circle's samples can straddle while inner
    circles catch it.  Otherwise the circles 0.9, 0.99, 0.999 and 1 - 1e-6
    are sampled, plus a pair hugging every zero of H and pole of h' at a
    modulus in (1e-9, 1 - 1e-9), where the condition always fails.
    """
    margin, = monotonicity_margins([map_spec], grid_size)
    if isinstance(margin, PoleError):
        raise margin
    return margin


@dataclass(frozen=True, kw_only=True)
class CriterionReport:
    """Outcome of the cusp-count criterion for one map (h, m); defaults: an early failure."""

    p: int
    m: int
    roots: tuple[RootRecord, ...] = ()
    per_level_counts: dict[int, int]
    total_roots: int = 0
    h_nonvanishing: bool = False
    min_modulus_boundary: float | None = None
    winding_boundary: int | None = None
    monotonicity_margin: float | None = None
    hypotheses_hold: bool = False
    criterion_satisfied: bool = False
    tangency_suspects: int = 0
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        """``_plain(self)`` with each root's ``boundary_image`` keyed ``image``,
        and ``expected_roots``."""
        doc = _plain(self)
        for root in doc["roots"]:
            root["image"] = root.pop("boundary_image")
        return {**doc, "expected_roots": 2 * self.p + self.m - 1}


def check_criterion(map_spec: HarmonicMapSpec, grid_size: int = 8192) -> CriterionReport:
    """Run the full sufficient-condition check and assemble a report.

    ``criterion_satisfied`` is true exactly when H is zero-free on the closed
    disk (boundary winding zero, with h analytic there; a boundary modulus at
    or below ``_NONVANISH_TOL`` makes ``unwrap_boundary_phase`` raise, so the
    hypotheses fail), every searched level is crossed at most once, the total
    crossing count is 2p+m-1, and no tangency is suspected.
    """
    h, p, m = map_spec.h, map_spec.p, map_spec.m
    counts = {k: 0 for k in level_set(p, m)}

    # one boundary grid for the margin's unit circle and the phase unwrap
    circle = _circle(_grid(grid_size))
    margin, = monotonicity_margins([map_spec], grid_size, circle=circle)
    if isinstance(margin, PoleError):
        margin = None

    if np.any(np.abs(h.poles) < 1.0 - 1e-8):
        return CriterionReport(p=p, m=m, per_level_counts=counts, monotonicity_margin=margin,
                               failure_reason="h is not analytic on the closed disk "
                               "(denominator root inside |z| < 1)")
    try:
        table = unwrap_boundary_phase(h, grid_size, circle=circle)
    except BoundaryHypothesisError as exc:
        return CriterionReport(p=p, m=m, per_level_counts=counts, monotonicity_margin=margin,
                               failure_reason=str(exc))

    winding = table.winding
    h_nonvanishing = winding == 0
    roots = find_criterion_roots(map_spec, table=table)
    tangencies = sum(1 for r in roots if r.suspected_tangency)
    for r in roots:
        if not r.suspected_tangency:
            counts[r.k] += 1
    total = sum(counts.values())
    satisfied = (
        h_nonvanishing
        and all(v <= 1 for v in counts.values())
        and total == 2 * p + m - 1
        and tangencies == 0
    )
    reason = None
    if not satisfied:
        if not h_nonvanishing:
            reason = "normalized derivative is not zero-free on the closed disk"
        elif tangencies:
            reason = "suspected tangential level contact"
        elif any(v > 1 for v in counts.values()):
            reason = "some level is crossed more than once"
        else:
            reason = f"total crossings {total} != {2 * p + m - 1}"
    return CriterionReport(
        p=p, m=m, roots=roots, per_level_counts=counts, total_roots=total,
        h_nonvanishing=h_nonvanishing,
        min_modulus_boundary=table.min_modulus, winding_boundary=winding,
        monotonicity_margin=margin, hypotheses_hold=True,
        criterion_satisfied=satisfied, tangency_suspects=tangencies,
        failure_reason=reason,
    )
