"""Valence certification via winding numbers and Newton preimage counts.

For sense-preserving f the number of preimages of a point w inside the
circle |z| = r (counted with multiplicity) equals the winding number of the
traced image curve around w, so the maximum winding over a probe grid
bounds the valence of f on that disk from below.  The class handled here is
sense-preserving away from zeros of h' because |g'/h'| = |z|**(m-1) < 1 on
the open disk.

Windings are counted one way, on a grid of probes whose axes need only be
sorted: the signed crossings of the trace with each probe row (the nonzero
rule of Hormann & Agathos, "The point in polygon problem for arbitrary
polygons", Comput. Geom. 20, 2001), plus one batch that refines every
(step, probe) pair where a step turns by pi/2 or more, one evaluation of f
per level; one exact candidate pass per step finds those pairs.
``valence_scan`` runs it on a padded bounding-box grid; ``winding_numbers``
runs it on the grid of the sorted coordinates of scattered points, each
point reading its own cell, and ``winding_number`` is its one-point case.
``newton_preimages_many`` solves f(z) = w directly with a damped Newton
method for harmonic maps, for all probes at once: every (probe, start)
pair of a block of at most 64 probes iterates in one array, and each round
of damping is one evaluation of f, at every pair's next try inside the
disk (tries outside it are skipped unevaluated), however many probes there
are.  Each probe gets the bits of a one-probe solve with one evaluation
per try (``newton_preimages`` is the one-probe case).  ``cross_check_many``
plays the two routes against each other on windings the caller already
has; ``cross_check`` does so at one w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fncore import (
    HarmonicMapSpec,
    IndeterminateProbeError,
    ParameterError,
    ResolutionError,
    ScanQualityError,
    _plain,
    eval_f_many,
    eval_h_prime_many,
    require_int,
)
from .geometry import CurveTrace, trace_circle

_TWO_PI = 2.0 * math.pi
# Probes within _CLEARANCE times the curve's diameter of it are indeterminate.
_CLEARANCE = 1e-4
# The most probes one scan may hold (a 1024 x 1024 grid, 16 MB of probes).
MAX_PROBES = 2 ** 20


@dataclass(frozen=True)
class WindingResult:
    w: complex
    winding: int
    min_curve_distance: float


_NEAR, _COARSE = 1, 2  # the faults of ``_refine_pairs`` and ``_windings``


def _turn(a, b):
    """Turn in [-pi, pi] about a probe of a step whose ends lie at a and b
    from it; NaN where b conj(a) overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = b * np.conj(a)
    return np.where(np.isfinite(c), np.angle(c), np.nan)


def _refine_pairs(trace: CurveTrace, k: np.ndarray, w: np.ndarray,
                  clearance: float) -> tuple[np.ndarray, np.ndarray]:
    """Refine trace step k[i] about probe w[i], for every pair at once.

    Each step is halved at its parameter midpoint and each half still turning
    by pi/2 or more is halved again, one ``trace.point_at`` call per level; a
    probe sees only the midpoints of its own steps.  Returns per pair the
    winding about w of the refined sub-polyline closed by the chord, and the
    first fault met depth first: ``_NEAR`` (a midpoint within ``clearance``
    of w, or a turn that overflows), ``_COARSE`` (a quarter-step still
    turning by pi/2 or more) or 0.
    """
    if k.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    t0 = trace.t[k]
    t1 = t0 + _TWO_PI / trace.n
    t = np.stack([t0, 0.5 * (t0 + t1), t1])
    # each step's start, midpoint and end, relative to its probe
    d = np.stack([trace.points[k], trace.point_at(t[1]), trace.points[(k + 1) % trace.n]]) - w
    turn = _turn(d[:-1], d[1:])  # row 0 the left halves, row 1 the right
    split = np.abs(turn) >= math.pi / 2
    dq = trace.point_at(0.5 * (t[:-1] + t[1:])[split]) - np.broadcast_to(w, split.shape)[split]
    left, right = _turn(d[:-1][split], dq), _turn(dq, d[1:][split])
    turn[split] = left + right
    half = np.zeros(split.shape, dtype=int)
    half[split] = np.where(np.abs(dq) <= clearance, _NEAR,
                           _COARSE * (np.maximum(abs(left), abs(right)) >= math.pi / 2))
    loops = (turn.sum(axis=0) - _turn(d[0], d[2])) / _TWO_PI  # NaN where a turn overflows
    fault = np.where((np.abs(d[1]) <= clearance) | np.isnan(loops), _NEAR,
                     np.where(half[0] > 0, half[0], half[1]))
    return np.rint(np.nan_to_num(loops)).astype(int), fault


def winding_number(trace: CurveTrace, w) -> WindingResult:
    """Winding number of the traced curve around w: the one-point case of
    ``winding_numbers``, so every probe gets the value the scan gives it.

    A probe within 1e-4 times the curve's diameter of a vertex or of a
    refinement midpoint, or on a trace that is not finite, raises
    ``IndeterminateProbeError``; one whose quarter-steps still turn by pi/2
    raises ``ResolutionError``.  A non-finite w raises ``ParameterError``.
    """
    result = winding_numbers(trace, [w])[0]
    if isinstance(result, WindingResult):
        return result
    raise result


# Points wound together by ``winding_numbers``: n points make an n x n grid.
_WINDING_BLOCK = 64


def winding_numbers(trace: CurveTrace, ws) -> list:
    """``winding_number`` at every w of ``ws``: per w a ``WindingResult``,
    or the ``IndeterminateProbeError`` or ``ResolutionError`` it would
    raise, returned, not raised.

    Each block of at most 64 points is one ``_windings`` pass over the grid
    of their sorted abscissae x sorted ordinates, each point reading its own
    cell; a grid probe's winding and fault do not depend on the other
    probes, so each point gets the scan's value.  A non-finite w raises
    ``ParameterError``.
    """
    ws = [complex(w) for w in ws]
    for w in ws:
        if not np.isfinite(w):
            raise ParameterError(f"probe {w} is not finite")
    out = []
    for b in range(0, len(ws), _WINDING_BLOCK):
        block = np.array(ws[b:b + _WINDING_BLOCK], dtype=complex)
        xo, yo = np.argsort(block.real), np.argsort(block.imag)
        col, row = np.empty_like(xo), np.empty_like(yo)
        col[xo] = row[yo] = np.arange(block.size)
        winding, fault = _windings(trace, block.real[xo], block.imag[yo])
        cell = row * block.size + col
        for w, c in zip(ws[b:b + _WINDING_BLOCK], cell):
            if fault[c]:
                out.append((IndeterminateProbeError if fault[c] == _NEAR else ResolutionError)(
                    f"probe {w:.6g} is too near the traced curve to resolve"))
            else:
                out.append(WindingResult(w=w, winding=int(winding[c]),
                                         min_curve_distance=float(np.abs(trace.points - w).min())))
    return out


@dataclass(frozen=True)
class ValenceReport:
    """Outcome of a winding-number sweep over a probe grid."""

    p: int
    radius: float
    grid: tuple[int, int]
    n_probes: int
    n_indeterminate: int
    max_valence: int
    n_attained: int
    attained_at: tuple[complex, ...]
    counts: dict[int, int]
    consistent_with_p: bool

    def to_dict(self) -> dict:
        return _plain(self)


def probe_box(points: np.ndarray) -> tuple[float, float, float, float]:
    """(x_lo, x_hi, y_lo, y_hi): the bounding box of ``points`` padded by
    10 percent of its width and height; a side of zero width is padded by
    10 percent of the other side, and by at least 1e-3."""
    re, im = points.real, points.imag
    wx, wy = float(np.ptp(re)), float(np.ptp(im))
    pad_x = 0.1 * wx if wx > 0 else max(0.1 * wy, 1e-3)
    pad_y = 0.1 * wy if wy > 0 else max(0.1 * wx, 1e-3)
    return re.min() - pad_x, re.max() + pad_x, im.min() - pad_y, im.max() + pad_y


def _probe_grid(points: np.ndarray, gx: int, gy: int):
    """Probe abscissae and ordinates: ``probe_box`` sampled uniformly."""
    x_lo, x_hi, y_lo, y_hi = probe_box(points)
    return np.linspace(x_lo, x_hi, gx), np.linspace(y_lo, y_hi, gy)


def check_scan_grid(grid: tuple[int, int]) -> tuple[int, int]:
    """``grid`` as two ints; ``ParameterError`` unless a pair of integers, 2 x 2 to
    ``MAX_PROBES`` probes."""
    if not isinstance(grid, (tuple, list)) or len(grid) != 2:
        raise ParameterError("scan grid must be a pair of sides (W, H)")
    gx, gy = (require_int(n, 2, MAX_PROBES, "scan grid side") for n in grid)
    if gx * gy > MAX_PROBES:
        raise ParameterError(f"scan grid {grid} has more than {MAX_PROBES} probes")
    return gx, gy


def _bins(lo, hi, v: np.ndarray):
    """First index and count of the values of the sorted axis ``v`` in [lo, hi]."""
    i0 = np.searchsorted(v, lo, side="left")
    return i0, np.searchsorted(v, hi, side="right") - i0


def _expand(counts: np.ndarray):
    """Item index and offset within the item for each of ``counts[k]`` slots."""
    item = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return item, np.arange(item.size) - start[item]


def _box_pairs(lo: np.ndarray, hi: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """(item, flat probe index) pairs, in item order, for every probe of the
    grid xs x ys in an item's box [lo, hi] (corners as complex numbers)."""
    x0, nx = _bins(lo.real, hi.real, xs)
    y0, ny = _bins(lo.imag, hi.imag, ys)
    item, off = _expand(nx * ny)
    col = x0[item] + off % nx[item]
    row = y0[item] + off // nx[item]
    return item, row * xs.size + col


def _crossing_windings(p0: np.ndarray, p1: np.ndarray, xs: np.ndarray,
                       ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero-rule winding of the closed polyline at every grid probe, and
    the mask of probes on a row where a crossing's abscissa overflows.

    Segment p0[k] -> p1[k] crosses row y upward when y0 <= y < y1 and
    downward when y1 <= y < y0 (half-open, so a vertex on a row counts
    once); bisection on the sorted ``ys`` finds exactly those rows.  A
    probe's winding is the signed count of crossings strictly to its right
    on its row, read off as a suffix sum over the columns.
    """
    gx, gy = xs.size, ys.size
    y0, y1 = p0.imag, p1.imag
    first = np.searchsorted(ys, np.minimum(y0, y1), side="left")
    seg, off = _expand(np.searchsorted(ys, np.maximum(y0, y1), side="left") - first)
    row = first[seg] + off
    yr = ys[row]
    a, b = y0[seg], y1[seg]
    xa, xb = p0.real[seg], p1.real[seg]
    with np.errstate(over="ignore", invalid="ignore"):
        xc = xa + (yr - a) * (xb - xa) / (b - a)
    lost = np.bincount(row, weights=~np.isfinite(xc), minlength=gy) > 0
    col = np.searchsorted(xs, xc, side="left")  # probes xs[i] < xc are i < col
    acc = np.bincount(row * (gx + 1) + col, weights=np.where(a < b, 1.0, -1.0),
                      minlength=gy * (gx + 1)).reshape(gy, gx + 1)
    suffix = np.cumsum(acc[:, ::-1], axis=1)[:, ::-1]
    return np.rint(suffix[:, 1:]).astype(int).ravel(), np.repeat(lost, gx)


def _windings(trace: CurveTrace, xs: np.ndarray,
              ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winding and fault at every probe of the grid xs x ys (row-major);
    the axes need only be sorted.

    The crossing count gives each probe the polyline's winding; every (step,
    probe) pair where the step turns by pi/2 or more (the probe lies in the
    closed disk on the step as diameter) goes to one ``_refine_pairs`` call,
    whose windings are added.  A probe's fault is ``_NEAR`` when a vertex
    lies within ``_CLEARANCE`` times the trace's diameter of it, or when the
    trace or the probe is not finite; otherwise it is the fault of its first
    faulted pair in step order, or 0.

    Both tests filter one candidate pass: the probes in the box about each
    step's disk, grown by the clearance so that it holds the start vertex's
    clearance square too.  With M the trace's largest modulus, rounding
    moves the box's edges by under 5 eps M and the tests accept probes
    under 8 eps M beyond it, so a box widened by 32 eps M loses no pair.
    """
    size = xs.size * ys.size
    p0 = trace.points
    if not (np.isfinite(p0).all() and np.isfinite(xs).all() and np.isfinite(ys).all()):
        return np.zeros(size, dtype=int), np.full(size, _NEAR)
    clearance = _CLEARANCE * trace.diameter()
    probes = (xs[None, :] + 1j * ys[:, None]).ravel()
    p1 = np.roll(p0, -1)
    mid = 0.5 * (p0 + p1)
    half = 0.5 * np.abs(p1 - p0) + clearance + 32 * np.finfo(float).eps * np.abs(p0).max()
    k, j = _box_pairs(mid - half * (1 + 1j), mid + half * (1 + 1j), xs, ys)
    d0, d1 = p0[k] - probes[j], p1[k] - probes[j]
    near = np.zeros(size, dtype=bool)
    near[j[np.abs(d0) <= clearance]] = True
    flagged = ~(np.abs(_turn(d0, d1)) < math.pi / 2) & ~near[j]  # an overflow too
    k, j = k[flagged], j[flagged]
    loops, faults = _refine_pairs(trace, k, probes[j], clearance)
    winding, lost = _crossing_windings(p0, p1, xs, ys)
    np.add.at(winding, j, loops)
    faulted = faults != 0
    # pairs run in step order, so a probe's first faulted pair is its first listed
    first_probe, first_pair = np.unique(j[faulted], return_index=True)
    fault = np.zeros(size, dtype=int)
    fault[first_probe] = faults[faulted][first_pair]
    fault[near | lost] = _NEAR
    return winding, fault


def _trace_of(map_spec: HarmonicMapSpec, r: float, n_samples: int,
              trace: CurveTrace | None) -> CurveTrace:
    """``trace`` if it is of this map on |z| = r, else ``ParameterError``; if None, a new one."""
    if trace is None:
        return trace_circle(map_spec, r, n_samples)
    if trace.map != map_spec or trace.radius != r:
        raise ParameterError("the trace is not of this map on |z| = r")
    return trace


def valence_scan(map_spec: HarmonicMapSpec, r: float = 0.999,
                 grid: tuple[int, int] = (64, 64),
                 n_samples: int = 4096,
                 *, trace: CurveTrace | None = None) -> ValenceReport:
    """Max winding number of the image of |z| = r over a grid of probes.

    Probes fill the curve's bounding box padded by 10 percent.  Probes that
    land within clearance of the curve, or whose winding is negative, are
    skipped; if more than 20 percent of the grid is skipped the scan aborts
    with ``ScanQualityError``.  The windings come from ``_windings``, in
    O(samples * rows + probes).  The grid is at least 2 x 2 and holds at most
    ``MAX_PROBES`` probes.  A ``trace`` passed in must be of ``map_spec`` on
    |z| = r (``ParameterError`` otherwise); with none, ``trace_circle`` checks r.
    """
    gx, gy = check_scan_grid(grid)
    trace = _trace_of(map_spec, r, n_samples, trace)
    xs, ys = _probe_grid(trace.points, gx, gy)
    winding, fault = _windings(trace, xs, ys)
    indet = (fault != 0) | (winding < 0)
    n_indet = int(indet.sum())
    if n_indet > 0.2 * indet.size:
        raise ScanQualityError(
            f"{n_indet} of {indet.size} probes were indeterminate; "
            "refine the trace or move the grid"
        )
    good = winding[~indet]
    counts = {int(v): int(c) for v, c in zip(*np.unique(good, return_counts=True))}
    max_val = int(good.max()) if good.size else 0
    hit = np.flatnonzero(~indet & (winding == max_val))
    exemplars = tuple(complex(xs[j % gx] + 1j * ys[j // gx]) for j in hit[:8])
    return ValenceReport(
        p=map_spec.p, radius=r, grid=(gx, gy), n_probes=int(indet.size),
        n_indeterminate=n_indet, max_valence=max_val,
        n_attained=int(hit.size), attained_at=exemplars, counts=counts,
        consistent_with_p=(max_val == map_spec.p),
    )


@dataclass(frozen=True)
class PreimageSet:
    """Deduplicated Newton solutions of f(z) = w inside the disk."""

    w: complex
    roots: np.ndarray
    residuals: np.ndarray
    n_converged: int
    n_dropped: int

    @property
    def count(self) -> int:
        return int(self.roots.size)


def _halton_starts(n: int) -> np.ndarray:
    """First n Halton(2,3) points of the square, kept where |z| < 0.999.

    The disk covers pi/4 of the square and the Halton points fill it evenly,
    so the first 4n + 16 points hold over 3n of them (checked for n from
    100 to 200,000).
    """
    uv = []
    for base in (2, 3):
        idx = np.arange(1, 4 * n + 17)
        val = np.zeros(idx.size)
        denom = np.ones(idx.size)
        while np.any(idx > 0):
            denom *= base
            val += (idx % base) / denom
            idx //= base
        uv.append(val)
    z = (2.0 * uv[0] - 1.0) + 1j * (2.0 * uv[1] - 1.0)
    return z[np.abs(z) < 0.999][:n]


# Probes solved together by ``newton_preimages_many``: 64 probes of 256
# starts keep every per-pair array at 16,384 entries, however many probes
# the caller passes, and of MAX_STARTS starts (the most allowed) at 262,144.
_NEWTON_BLOCK = 64
MAX_STARTS = 2 ** 12
# A Newton step is halved up to _HALVINGS - 1 times until |f - w| drops, and
# iterates stay in |z| < _CONFINE.  A try outside that disk is never taken,
# so it is skipped before f is evaluated; each round of halvings then makes
# one ``eval_f_many`` call, at every pair's next try inside the disk.  Once
# at most _BATCH_HALVINGS pairs are left, all their remaining inside tries go
# into one call and each pair takes its first improving one.
_HALVINGS = 21
_BATCH_HALVINGS = 32
_CONFINE = 0.9995
# A start has converged once |f(z) - w| <= _NEWTON_TOL, within _MAX_ITER
# Newton steps; converged starts within _DEDUPE_RADIUS are one preimage.
_NEWTON_TOL = 1e-10
_MAX_ITER = 100
_DEDUPE_RADIUS = 1e-6


def newton_preimages_many(map_spec: HarmonicMapSpec, ws,
                          n_starts: int = 256) -> list[PreimageSet]:
    """``newton_preimages`` at every w of ``ws``, one ``PreimageSet`` each.

    All (probe, start) pairs of a block of at most 64 probes iterate in one
    array: each Newton step evaluates h' once on the live pairs, and f once
    per round of halvings, at each pair's next try inside the disk (tries
    outside it are skipped unevaluated), or once for all tries left when
    few pairs are (``_BATCH_HALVINGS``).  The ``n_starts`` starts (100 to
    ``MAX_STARTS``) and f at them are computed once per call.  Every pair
    takes the try a one-probe solve with one evaluation per try takes, and
    f has the same bits in every call, so each result is the same, bit for
    bit, as that solve gives.
    """
    n_starts = require_int(n_starts, 100, MAX_STARTS, "newton starts")
    ws = [complex(w) for w in ws]
    starts = _halton_starts(n_starts)
    f0 = eval_f_many(map_spec, starts, on_pole="nan")
    out = []
    for b in range(0, len(ws), _NEWTON_BLOCK):
        block = ws[b:b + _NEWTON_BLOCK]
        z, res, done = _newton_block(map_spec, starts, f0, block)
        for w, zw, rw, dw in zip(block, z, res, done):
            out.append(_dedupe(w, zw, rw, dw))
    return out


def _newton_block(map_spec, starts, f0, block):
    """Damped Newton over all (probe, start) pairs of ``block``; returns the
    iterates, residuals and converged flags, one row per probe."""
    shape = (len(block), starts.size)
    wp = np.repeat(np.asarray(block, dtype=complex), starts.size)
    z = np.tile(starts, shape[0])
    res = np.tile(f0, shape[0]) - wp
    alive = np.tile(np.isfinite(f0), shape[0])
    done = np.zeros(z.size, dtype=bool)
    for _ in range(_MAX_ITER):
        done |= alive & (np.abs(res) <= _NEWTON_TOL)
        idx = np.flatnonzero(alive & ~done)
        if idx.size == 0:
            break
        za, ra = z[idx], res[idx]
        a = eval_h_prime_many(map_spec.h, za, on_pole="nan")
        b = za ** (map_spec.m - 1) * a  # g', as eval_g_prime_many forms it
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="raise"):
                det = np.abs(a) ** 2 - np.abs(b) ** 2
                delta = (np.conj(b) * np.conj(ra) - np.conj(a) * ra) / det
        except FloatingPointError:
            raise ResolutionError("the Newton step overflows: h' or f - w is too large") from None
        usable = np.isfinite(delta)
        alive[idx[~usable]] = False
        idx, za, ra, delta = idx[usable], za[usable], ra[usable], delta[usable]
        if idx.size == 0:
            continue
        accepted, z_new, r_new = _damped_step(map_spec, za, ra, delta, wp[idx])
        alive[idx[~accepted]] = False
        z[idx[accepted]] = z_new[accepted]
        res[idx[accepted]] = r_new[accepted]
    done |= alive & (np.abs(res) <= _NEWTON_TOL)
    return z.reshape(shape), res.reshape(shape), done.reshape(shape)


def _damped_step(map_spec, za, ra, step, w):
    """Each pair's first try za + step / 2**k (k < ``_HALVINGS``, halved by
    repeated ``* 0.5``) inside |z| < ``_CONFINE`` whose residual f - w is
    finite and below |ra| in modulus.  Returns which pairs found one, and
    their new iterates and residuals.  ``step`` is overwritten."""
    accepted = np.zeros(za.size, dtype=bool)
    z_new, r_new = za.copy(), ra.copy()
    tries = np.zeros(za.size, dtype=int)
    todo = np.arange(za.size)
    while True:
        todo = _skip_outside(za, step, tries, todo)
        if todo.size == 0:
            return accepted, z_new, r_new
        batch = todo.size <= _BATCH_HALVINGS
        width = _HALVINGS - tries[todo].min() if batch else 1
        steps = np.empty((width, todo.size), dtype=complex)
        steps[0] = step[todo]
        for k in range(1, width):
            steps[k] = steps[k - 1] * 0.5
        z_try = za[todo] + steps
        # a batch holds tries past a pair's last, and later tries may leave the disk
        inside = (np.arange(width)[:, None] < _HALVINGS - tries[todo]) & (np.abs(z_try) < _CONFINE)
        r_try = np.full(z_try.shape, np.inf, dtype=complex)
        r_try[inside] = (eval_f_many(map_spec, z_try[inside], on_pole="nan")
                         - np.broadcast_to(w[todo], z_try.shape)[inside])
        better = np.isfinite(r_try) & (np.abs(r_try) < np.abs(ra[todo]))
        cols = np.flatnonzero(better.any(axis=0))
        rows = better[:, cols].argmax(axis=0)  # each pair's first improving try
        z_new[todo[cols]] = z_try[rows, cols]
        r_new[todo[cols]] = r_try[rows, cols]
        accepted[todo[cols]] = True
        if batch:
            return accepted, z_new, r_new
        todo = todo[~better[0]]
        step[todo] *= 0.5
        tries[todo] += 1


def _skip_outside(za, step, tries, todo):
    """Advance each pair of ``todo`` past its next tries za + step that lie
    outside |z| < ``_CONFINE`` (never taken, so f is not evaluated there);
    returns the pairs that still have a try left.

    First a jump: the segment za + t step (|za| < _CONFINE) leaves the disk
    of radius _CONFINE (1 + 2**-20) at t1, the positive root of
    a t**2 + 2 b t + c with a = |step|**2, b = Re(conj(za) step) and
    c = |za|**2 - radius**2 < 0, and stays out beyond it.  Rounding moves a
    try's modulus by less than 1e-15 relative, and t1 by less than 1e-9, so
    every try with 2**-k >= 2 t1 is outside: those are skipped at once, the
    step scaled by 2**-k (exact, as the repeated halving is).  Then the
    tries left are tested one at a time, so no try inside is skipped.
    """
    s, z = step[todo], za[todo]
    a = s.real ** 2 + s.imag ** 2
    b = z.real * s.real + z.imag * s.imag
    c = z.real ** 2 + z.imag ** 2 - (_CONFINE * (1 + 2.0 ** -20)) ** 2
    with np.errstate(all="ignore"):  # a step of 0 (t1 = inf) or of overflowing size
        root = np.sqrt(b * b - a * c)
        kappa = -1.0 - np.log2(np.where(b >= 0, -c / (b + root), (root - b) / a))
        jump = np.where(kappa >= 0, np.minimum(np.floor(kappa) + 1, _HALVINGS - tries[todo]), 0)
    jump = jump.astype(int)
    hit = jump > 0
    step[todo[hit]] = s[hit] * np.ldexp(1.0, -jump[hit])
    tries[todo] += jump
    out = todo
    while out.size:
        out = out[tries[out] < _HALVINGS]
        out = out[~(np.abs(za[out] + step[out]) < _CONFINE)]
        step[out] *= 0.5
        tries[out] += 1
    return todo[tries[todo] < _HALVINGS]


def _dedupe(w: complex, z: np.ndarray, res: np.ndarray, done: np.ndarray) -> PreimageSet:
    """Merge one probe's converged starts within ``_DEDUPE_RADIUS``, keeping
    the best residual, in (Re z, Im z) order."""
    conv = np.flatnonzero(done)
    order = conv[np.lexsort((z[conv].imag, z[conv].real))]
    reps: list[complex] = []
    rres: list[float] = []
    for i in order:
        zi, ri = complex(z[i]), float(abs(res[i]))
        for j, zr in enumerate(reps):
            if abs(zi - zr) <= _DEDUPE_RADIUS:
                if ri < rres[j]:
                    reps[j], rres[j] = zi, ri
                break
        else:
            reps.append(zi)
            rres.append(ri)
    n_converged = int(done.sum())
    return PreimageSet(
        w=w, roots=np.asarray(reps, dtype=complex),
        residuals=np.asarray(rres, dtype=float),
        n_converged=n_converged,
        n_dropped=int(done.size - n_converged),
    )


def newton_preimages(map_spec: HarmonicMapSpec, w, n_starts: int = 256) -> PreimageSet:
    """Solve f(z) = w from ``n_starts`` (100 to ``MAX_STARTS``) Halton starts in |z| < 0.999.

    The Newton step solves the real-linear system a dz + conj(b dz) = -res
    with a = h'(z), b = g'(z), giving

        dz = (conj(b) conj(res) - conj(a) res) / (|a|**2 - |b|**2),

    damped by halving (at most 20 times) until the residual decreases;
    iterates are confined to |z| < 0.9995.  Converged points (residual at
    most 1e-10 within 100 steps) are merged within 1e-6 and returned
    sorted lexicographically by (Re z, Im z).  This is the one-probe case
    of ``newton_preimages_many``, which solves many probes in one array
    (in blocks of at most 64 probes) with the same result per probe.
    """
    return newton_preimages_many(map_spec, [w], n_starts=n_starts)[0]


class CrossCheck(str, Enum):
    AGREE = "agree"
    DISAGREE = "disagree"
    INDETERMINATE_MULTIPLICITY = "indeterminate_multiplicity"


def cross_check(map_spec: HarmonicMapSpec, w, r: float = 0.999,
                n_starts: int = 256,
                trace: CurveTrace | None = None) -> tuple[CrossCheck, dict]:
    """Compare the winding count against the Newton preimage count at w.

    Traces |z| = r with 4096 samples (unless a ``trace`` of it is passed,
    to amortize the tracing cost over many probes; a trace of another map
    or radius raises ``ParameterError``), takes the winding number around w and returns
    ``cross_check_many`` of that one winding.
    """
    wres = winding_number(_trace_of(map_spec, r, 4096, trace), w)
    return cross_check_many(map_spec, [wres], r, n_starts)[0]


def cross_check_many(map_spec: HarmonicMapSpec, windings, r: float = 0.999,
                     n_starts: int = 256) -> list[tuple[CrossCheck, dict]]:
    """Play each ``WindingResult`` of ``windings`` against the Newton
    preimage count at its probe; one (verdict, details) pair per winding.

    The verdict is AGREE when the winding number of the image of |z| = r
    around w equals the number of Newton preimages strictly inside that
    circle, INDETERMINATE_MULTIPLICITY when some preimage has a Jacobian
    determinant |h'|**2 - |g'|**2 too close to zero for its multiplicity to
    be trusted, DISAGREE otherwise.  A root of multiplicity two is only
    located to distance ~sqrt(tol), where the Jacobian has size ~tol (tol
    = 1e-10, the Newton tolerance), so the degeneracy cut is 100 * tol
    rather than a fixed machine-level constant.  The details dict carries both counts
    and the root list.  All probes are solved in one
    ``newton_preimages_many`` call.
    """
    pres = newton_preimages_many(map_spec, [wres.w for wres in windings],
                                 n_starts=n_starts)
    jac_tol = 100.0 * _NEWTON_TOL
    out = []
    for wres, pre in zip(windings, pres):
        inside = pre.roots[np.abs(pre.roots) < r]
        details: dict = {
            "winding": wres.winding,
            "preimages_inside": int(inside.size),
            "roots": inside,
            "min_jacobian": None,
        }
        verdict = CrossCheck.AGREE if wres.winding == inside.size else CrossCheck.DISAGREE
        if inside.size:
            a = eval_h_prime_many(map_spec.h, inside, on_pole="nan")
            jac = np.abs(a) ** 2 - np.abs(inside ** (map_spec.m - 1) * a) ** 2
            details["min_jacobian"] = float(np.nanmin(jac))
            if np.any(~np.isfinite(jac)) or np.any(np.abs(jac) <= jac_tol):
                verdict = CrossCheck.INDETERMINATE_MULTIPLICITY
        out.append((verdict, details))
    return out
