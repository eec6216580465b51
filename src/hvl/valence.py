"""Valence certification via winding numbers and Newton preimage counts.

For sense-preserving f the number of preimages of a point w inside the
circle |z| = r (counted with multiplicity) equals the winding number of the
traced image curve around w, so the maximum winding over a probe grid
bounds the valence of f on that disk from below.  The class handled here is
sense-preserving away from zeros of h' because |g'/h'| = |z|**(m-1) < 1 on
the open disk.

Windings are counted one way, on a grid of probes: the signed crossings of
the trace with each probe row (the nonzero rule of Hormann & Agathos, "The
point in polygon problem for arbitrary polygons", Comput. Geom. 20, 2001),
plus one batch that refines every (step, probe) pair where a step turns by
pi/2 or more, one evaluation of f per level.  ``valence_scan`` runs it on a
padded bounding-box grid; ``winding_number`` is its 1 x 1 case.
``newton_preimages_many`` solves f(z) = w directly with a damped Newton
method for harmonic maps, for all probes at once: every (probe, start) pair
of a block of at most 64 probes iterates in one array, so each damping step
is one evaluation of f however many probes there are, and each probe gets
the bits of a one-probe solve (``newton_preimages`` is that one-probe
case).  ``cross_check_many`` plays the two routes against each other on
windings the caller already has; ``cross_check`` does so at one w.
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
    eval_f_many,
    eval_h_prime_many,
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
    """Turn in [-pi, pi] about a probe of a step whose ends lie at a and b from it."""
    return np.angle(b * np.conj(a))


def _refine_pairs(trace: CurveTrace, k: np.ndarray, w: np.ndarray,
                  clearance: float) -> tuple[np.ndarray, np.ndarray]:
    """Refine trace step k[i] about probe w[i], for every pair at once.

    Each step is halved at its parameter midpoint and each half still turning
    by pi/2 or more is halved again, one ``trace.point_at`` call per level; a
    probe sees only the midpoints of its own steps.  Returns per pair the
    winding about w of the refined sub-polyline closed by the chord, and the
    first fault met depth first: ``_NEAR`` (a midpoint within ``clearance``
    of w), ``_COARSE`` (a quarter-step still turning by pi/2 or more) or 0.
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
    fault = np.where(np.abs(d[1]) <= clearance, _NEAR,
                     np.where(half[0] > 0, half[0], half[1]))
    return np.rint((turn.sum(axis=0) - _turn(d[0], d[2])) / _TWO_PI).astype(int), fault


def winding_number(trace: CurveTrace, w) -> WindingResult:
    """Winding number of the traced curve around w: the 1 x 1 case of the
    scan's ``_windings``, so every probe gets the value the scan gives it.

    A probe within 1e-4 times the curve's diameter of a vertex or of a
    refinement midpoint, or on a trace that is not finite, raises
    ``IndeterminateProbeError``; one whose quarter-steps still turn by pi/2
    raises ``ResolutionError``.  A non-finite w raises ``ParameterError``.
    """
    w = complex(w)
    if not np.isfinite(w):
        raise ParameterError(f"probe {w} is not finite")
    winding, fault = _windings(trace, np.array([w.real]), np.array([w.imag]))
    if fault[0]:
        raise (IndeterminateProbeError if fault[0] == _NEAR else ResolutionError)(
            f"probe {w:.6g} is too near the traced curve to resolve")
    return WindingResult(w=w, winding=int(winding[0]),
                         min_curve_distance=float(np.abs(trace.points - w).min()))


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
        return {
            "p": self.p,
            "radius": self.radius,
            "grid": list(self.grid),
            "n_probes": self.n_probes,
            "n_indeterminate": self.n_indeterminate,
            "max_valence": self.max_valence,
            "n_attained": self.n_attained,
            "attained_at": [[z.real, z.imag] for z in self.attained_at],
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "consistent_with_p": self.consistent_with_p,
        }


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


def check_scan_grid(grid: tuple[int, int]) -> None:
    """Refuse a probe grid below 2 x 2 or of more than ``MAX_PROBES`` probes."""
    if min(grid) < 2:
        raise ParameterError("scan grid must be at least 2 x 2")
    if grid[0] * grid[1] > MAX_PROBES:
        raise ParameterError(f"scan grid {grid} has more than {MAX_PROBES} probes")


def _bins(lo, hi, v: np.ndarray):
    """First index and count of the grid values ``v`` that may lie in [lo, hi].

    ``v`` is uniform; the range is padded by one cell on each side, so
    rounding in the binning never drops a value that lies in the interval.
    A one-value axis is tested exactly, lo <= v <= hi.
    """
    if v.size == 1:
        inside = (lo <= v[0]) & (v[0] <= hi)
        return np.zeros(np.shape(lo), dtype=np.intp), inside.astype(np.intp)
    step = (v[-1] - v[0]) / (v.size - 1)
    i0 = np.clip(np.floor((lo - v[0]) / step) - 1, 0, v.size).astype(np.intp)
    i1 = np.clip(np.floor((hi - v[0]) / step) + 1, -1, v.size - 1).astype(np.intp)
    return i0, np.maximum(i1 - i0 + 1, 0)


def _expand(counts: np.ndarray):
    """Item index and offset within the item for each of ``counts[k]`` slots."""
    item = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return item, np.arange(item.size) - start[item]


def _box_pairs(lo: np.ndarray, hi: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """(item, flat probe index) pairs for every probe that may lie in an
    item's box [lo, hi] (corners as complex numbers) on the grid xs x ys."""
    x0, nx = _bins(lo.real, hi.real, xs)
    y0, ny = _bins(lo.imag, hi.imag, ys)
    item, off = _expand(nx * ny)
    col = x0[item] + off % nx[item]
    row = y0[item] + off // nx[item]
    return item, row * xs.size + col


def _crossing_windings(p0: np.ndarray, p1: np.ndarray, xs: np.ndarray,
                       ys: np.ndarray) -> np.ndarray:
    """Nonzero-rule winding of the closed polyline at every grid probe.

    Segment p0[k] -> p1[k] crosses row y upward when y0 <= y < y1 and
    downward when y1 <= y < y0 (half-open, so a vertex on a row counts
    once).  A probe's winding is the signed count of crossings strictly to
    its right on its row, read off as a suffix sum over the columns.
    """
    gx, gy = xs.size, ys.size
    y0, y1 = p0.imag, p1.imag
    first, nrows = _bins(np.minimum(y0, y1), np.maximum(y0, y1), ys)
    seg, off = _expand(nrows)
    row = first[seg] + off
    yr = ys[row]
    a, b = y0[seg], y1[seg]
    up = (a <= yr) & (yr < b)
    keep = up | ((b <= yr) & (yr < a))
    seg, row, yr, a, b, up = seg[keep], row[keep], yr[keep], a[keep], b[keep], up[keep]
    xa, xb = p0.real[seg], p1.real[seg]
    xc = xa + (yr - a) * (xb - xa) / (b - a)
    col = np.searchsorted(xs, xc, side="left")  # probes xs[i] < xc are i < col
    acc = np.bincount(row * (gx + 1) + col, weights=np.where(up, 1.0, -1.0),
                      minlength=gy * (gx + 1)).reshape(gy, gx + 1)
    suffix = np.cumsum(acc[:, ::-1], axis=1)[:, ::-1]
    return np.rint(suffix[:, 1:]).astype(int).ravel()


def _windings(trace: CurveTrace, xs: np.ndarray,
              ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winding and fault at every probe of the grid xs x ys (row-major).

    The crossing count gives each probe the polyline's winding; every (step,
    probe) pair where the step turns by pi/2 or more (the probe lies in the
    closed disk on the step as diameter) goes to one ``_refine_pairs`` call,
    whose windings are added.  A probe's fault is ``_NEAR`` when a vertex
    lies within ``_CLEARANCE`` times the trace's diameter of it, or when the
    trace or the probe is not finite; otherwise it is the fault of its first
    faulted pair in step order, or 0.
    """
    size = xs.size * ys.size
    p0 = trace.points
    if not (np.isfinite(p0).all() and np.isfinite(xs).all() and np.isfinite(ys).all()):
        return np.zeros(size, dtype=int), np.full(size, _NEAR)
    clearance = _CLEARANCE * trace.diameter()
    probes = (xs[None, :] + 1j * ys[:, None]).ravel()
    p1 = np.roll(p0, -1)
    near = np.zeros(size, dtype=bool)
    k, j = _box_pairs(p0 - clearance * (1 + 1j), p0 + clearance * (1 + 1j), xs, ys)
    near[j[np.abs(p0[k] - probes[j]) <= clearance]] = True
    mid, rad = 0.5 * (p0 + p1), 0.5 * np.abs(p1 - p0)
    k, j = _box_pairs(mid - rad * (1 + 1j), mid + rad * (1 + 1j), xs, ys)
    flagged = (np.abs(_turn(p0[k] - probes[j], p1[k] - probes[j])) >= math.pi / 2) & ~near[j]
    k, j = k[flagged], j[flagged]
    loops, faults = _refine_pairs(trace, k, probes[j], clearance)
    winding = _crossing_windings(p0, p1, xs, ys)
    np.add.at(winding, j, loops)
    faulted = faults != 0
    # pairs run in step order, so a probe's first faulted pair is its first listed
    first_probe, first_pair = np.unique(j[faulted], return_index=True)
    fault = np.zeros(size, dtype=int)
    fault[first_probe] = faults[faulted][first_pair]
    fault[near] = _NEAR
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
    O(samples * rows + probes).  The grid is at least 2 x 2 and holds at
    most ``MAX_PROBES`` probes.  A ``trace`` passed in must be of
    ``map_spec`` on |z| = r (``ParameterError`` otherwise).
    """
    check_scan_grid(grid)
    gx, gy = grid
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
# the caller passes.
_NEWTON_BLOCK = 64
# A Newton step is halved up to _HALVINGS - 1 times until |f - w| drops.
# Once at most _BATCH_HALVINGS pairs are still halving, all their remaining
# tries go into one ``eval_f_many`` call and each takes its first improving
# one: a few straggling starts then cost one call per step, not one per try.
_HALVINGS = 21
_BATCH_HALVINGS = 32
# A start has converged once |f(z) - w| <= _NEWTON_TOL, within _MAX_ITER
# Newton steps; converged starts within _DEDUPE_RADIUS are one preimage.
_NEWTON_TOL = 1e-10
_MAX_ITER = 100
_DEDUPE_RADIUS = 1e-6


def newton_preimages_many(map_spec: HarmonicMapSpec, ws,
                          n_starts: int = 256) -> list[PreimageSet]:
    """``newton_preimages`` at every w of ``ws``, one ``PreimageSet`` each.

    All (probe, start) pairs of a block of at most 64 probes iterate in one
    array: each Newton step evaluates h' once on the live pairs, and f on
    the pairs still halving once per halving, or once for all halvings left
    when few pairs are (``_BATCH_HALVINGS``).  The starts and f at the starts
    are computed once per call.  Every pair does the arithmetic of a
    one-probe solve, and f has the same bits in every call, so each result
    is the same, bit for bit, as ``newton_preimages`` gives for its probe.
    """
    if n_starts < 100:
        raise ParameterError("newton_preimages needs at least 100 starts")
    ws = [complex(w) for w in ws]
    starts = _halton_starts(n_starts)
    f0, failed = eval_f_many(map_spec, starts, on_failure="mask")
    out = []
    for b in range(0, len(ws), _NEWTON_BLOCK):
        block = ws[b:b + _NEWTON_BLOCK]
        z, res, done = _newton_block(map_spec, starts, f0, failed, block)
        for w, zw, rw, dw in zip(block, z, res, done):
            out.append(_dedupe(w, zw, rw, dw))
    return out


def _newton_block(map_spec, starts, f0, failed, block):
    """Damped Newton over all (probe, start) pairs of ``block``; returns the
    iterates, residuals and converged flags, one row per probe."""
    shape = (len(block), starts.size)
    wp = np.repeat(np.asarray(block, dtype=complex), starts.size)
    z = np.tile(starts, shape[0])
    res = np.tile(f0, shape[0]) - wp
    alive = ~np.tile(failed, shape[0])
    res[~alive] = np.inf
    done = np.zeros(z.size, dtype=bool)
    for _ in range(_MAX_ITER):
        done |= alive & (np.abs(res) <= _NEWTON_TOL)
        idx = np.flatnonzero(alive & ~done)
        if idx.size == 0:
            break
        za, ra = z[idx], res[idx]
        a = eval_h_prime_many(map_spec.h, za, on_pole="nan")
        b = za ** (map_spec.m - 1) * a  # g', as eval_g_prime_many forms it
        det = np.abs(a) ** 2 - np.abs(b) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (np.conj(b) * np.conj(ra) - np.conj(a) * ra) / det
        usable = np.isfinite(delta)
        alive[idx[~usable]] = False
        idx, za, ra, delta = idx[usable], za[usable], ra[usable], delta[usable]
        if idx.size == 0:
            continue
        accepted = np.zeros(idx.size, dtype=bool)
        z_new = za.copy()
        r_new = ra.copy()
        step = delta.copy()
        tried = 0
        while tried < _HALVINGS and not accepted.all():
            todo = np.flatnonzero(~accepted)
            width = _HALVINGS - tried if todo.size <= _BATCH_HALVINGS else 1
            steps = np.empty((width, todo.size), dtype=complex)
            steps[0] = step[todo]
            for k in range(1, width):
                steps[k] = steps[k - 1] * 0.5
            z_try = za[todo] + steps
            inside = np.abs(z_try) < 0.9995
            r_try = np.full(z_try.shape, np.inf, dtype=complex)
            if np.any(inside):
                f_try, f_bad = eval_f_many(map_spec, z_try[inside], on_failure="mask")
                f_try[f_bad] = np.nan
                r_try[inside] = f_try - np.broadcast_to(wp[idx[todo]], z_try.shape)[inside]
            better = np.isfinite(r_try) & (np.abs(r_try) < np.abs(ra[todo]))
            cols = np.flatnonzero(better.any(axis=0))
            rows = better[:, cols].argmax(axis=0)  # each pair's first improving try
            z_new[todo[cols]] = z_try[rows, cols]
            r_new[todo[cols]] = r_try[rows, cols]
            accepted[todo[cols]] = True
            step[todo] = steps[-1] * 0.5
            tried += width
        alive[idx[~accepted]] = False
        z[idx[accepted]] = z_new[accepted]
        res[idx[accepted]] = r_new[accepted]
    done |= alive & (np.abs(res) <= _NEWTON_TOL)
    return z.reshape(shape), res.reshape(shape), done.reshape(shape)


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
    """Solve f(z) = w from Halton-distributed starts in |z| < 0.999.

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
