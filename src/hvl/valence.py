"""Valence certification via winding numbers and Newton preimage counts.

For sense-preserving f the number of preimages of a point w inside the
circle |z| = r (counted with multiplicity) equals the winding number of the
traced image curve around w, so the maximum winding over a probe grid
bounds the valence of f on that disk from below.  The class handled here is
sense-preserving away from zeros of h' because |g'/h'| = |z|**(m-1) < 1 on
the open disk.

``valence_scan`` fills a padded bounding-box grid of probes by scanlines,
counting the signed crossings of the trace with each probe row (the
nonzero rule of Hormann & Agathos, "The point in polygon problem for
arbitrary polygons", Comput. Geom. 20, 2001), then refines all the (step,
probe) pairs where a step turns by pi/2 or more in one batch, one
evaluation of f per level; ``winding_number`` is its one-probe case, an
angle sum plus that refinement.  ``newton_preimages_many`` solves
f(z) = w directly with a damped Newton method for harmonic maps, for all
probes at once: every (probe, start) pair of a block of at most 64 probes
iterates in one array, so each damping step is one evaluation of f however
many probes there are, and each probe gets the bits of a one-probe solve
(``newton_preimages`` is that one-probe case).  ``cross_check_many`` plays
the two routes against each other on windings the caller already has;
``cross_check`` does so at one w.
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


@dataclass(frozen=True)
class WindingResult:
    w: complex
    winding: int
    min_curve_distance: float


_NEAR, _COARSE = 1, 2  # the faults of ``_refine_pairs``


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
    """Winding number of the traced curve around w.

    Sums the turning angles between consecutive samples; any step of pi/2 or
    more is refined at parameter midpoints (two levels, so up to 4x the
    local density) before giving up with ``ResolutionError``: the one-probe
    case of the refinement ``valence_scan`` batches.  Probes not farther
    from the curve than 1e-4 times its diameter (the scan's clearance), or
    at a NaN distance from it, raise ``IndeterminateProbeError`` rather than
    return a count.
    """
    w = complex(w)
    if not np.isfinite(w):
        raise ParameterError(f"probe {w} is not finite")
    clearance = _CLEARANCE * trace.diameter()
    d = trace.points - w
    mind = float(np.abs(d).min())
    if not mind > clearance:
        raise IndeterminateProbeError(
            f"probe {w:.6g} lies within clearance {clearance:.3g} "
            f"of the traced curve (distance {mind:.3g})"
        )
    inc = _turn(d, np.roll(d, -1))
    bad = np.flatnonzero(np.abs(inc) >= math.pi / 2)
    loops, faults = _refine_pairs(trace, bad, np.full(bad.size, w), clearance)
    for j, fault in zip(bad, faults):
        if fault:
            raise (IndeterminateProbeError if fault == _NEAR else ResolutionError)(
                f"probe {w:.6g} is too near the curve at t = {trace.t[j]:.6g} to resolve")
    turns = float(inc.sum()) / _TWO_PI
    k = round(turns)
    if abs(turns - k) >= 0.05:
        raise ResolutionError(
            f"winding sum {turns:.6g} is not close to an integer; "
            "the trace is too coarse for this probe"
        )
    return WindingResult(w=w, winding=int(k + loops.sum()), min_curve_distance=mind)


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


def _bins(lo, hi, v: np.ndarray):
    """First index and count of the grid values ``v`` that may lie in [lo, hi].

    ``v`` is uniform; the range is padded by one cell on each side, so
    rounding in the binning never drops a value that lies in the interval.
    """
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


def _scan_windings(trace: CurveTrace, xs: np.ndarray, ys: np.ndarray,
                   probes: np.ndarray, clearance: float) -> np.ndarray:
    """Winding numbers at the grid ``probes`` = xs x ys (row-major); -1
    marks indeterminate probes.

    Probes within ``clearance`` of a trace vertex are indeterminate.  The
    crossing count gives each probe the polyline's winding; every (step,
    probe) pair where the step turns by pi/2 or more (the probe lies in the
    closed disk on the step as diameter) goes to one ``_refine_pairs``
    call, whose windings are added and whose faults mark the probe -1, so
    each probe gets the value of ``winding_number``.  Candidate (item,
    probe) pairs come from binning each item's bounding box into the grid.
    """
    p0 = trace.points
    p1 = np.roll(p0, -1)
    near = np.zeros(probes.size, dtype=bool)
    k, j = _box_pairs(p0 - clearance * (1 + 1j), p0 + clearance * (1 + 1j), xs, ys)
    near[j[np.abs(p0[k] - probes[j]) <= clearance]] = True
    mid, rad = 0.5 * (p0 + p1), 0.5 * np.abs(p1 - p0)
    k, j = _box_pairs(mid - rad * (1 + 1j), mid + rad * (1 + 1j), xs, ys)
    flagged = (np.abs(_turn(p0[k] - probes[j], p1[k] - probes[j])) >= math.pi / 2) & ~near[j]
    k, j = k[flagged], j[flagged]
    loops, faults = _refine_pairs(trace, k, probes[j], clearance)
    res = _crossing_windings(p0, p1, xs, ys)
    np.add.at(res, j, loops)
    res[j[faults != 0]] = -1
    res[near | (res < 0)] = -1
    return res


def valence_scan(map_spec: HarmonicMapSpec, r: float = 0.999,
                 grid: tuple[int, int] = (64, 64),
                 n_samples: int = 4096,
                 *, trace: CurveTrace | None = None) -> ValenceReport:
    """Max winding number of the image of |z| = r over a grid of probes.

    Probes fill the curve's bounding box padded by 10 percent.  Probes that
    land within clearance of the curve are skipped; if more than 20 percent
    of the grid is skipped the scan aborts with ``ScanQualityError``.  The
    windings come from a scanline fill: signed crossings of the trace with
    each probe row, summed to the right of each probe (nonzero rule), in
    O(samples * rows + probes), plus one batch that refines the probes near
    a coarse step as ``winding_number`` does.  A ``trace`` passed in must be
    of ``map_spec`` on |z| = r (``ParameterError`` otherwise).
    """
    gx, gy = grid
    if gx < 2 or gy < 2:
        raise ParameterError("scan grid must be at least 2 x 2")
    if trace is None:
        trace = trace_circle(map_spec, r, n_samples)
    elif trace.map != map_spec or trace.radius != r:
        raise ParameterError("the trace is not of this map on |z| = r")
    xs, ys = _probe_grid(trace.points, gx, gy)
    probes = (xs[None, :] + 1j * ys[:, None]).ravel()
    if np.isfinite(xs).all() and np.isfinite(ys).all():
        windings = _scan_windings(trace, xs, ys, probes, _CLEARANCE * trace.diameter())
    else:  # a non-finite trace leaves no probe that can be placed
        windings = np.full(probes.size, -1)
    indet = windings < 0
    n_indet = int(indet.sum())
    if n_indet > 0.2 * probes.size:
        raise ScanQualityError(
            f"{n_indet} of {probes.size} probes were indeterminate; "
            "refine the trace or move the grid"
        )
    good = windings[~indet]
    counts: dict[int, int] = {}
    for v in np.unique(good):
        counts[int(v)] = int(np.count_nonzero(good == v))
    max_val = int(good.max()) if good.size else 0
    hit = np.flatnonzero(~indet & (windings == max_val))
    exemplars = tuple(complex(probes[j]) for j in hit[:8])
    return ValenceReport(
        p=map_spec.p, radius=r, grid=(gx, gy), n_probes=int(probes.size),
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
# A start has converged once |f(z) - w| <= _NEWTON_TOL, within _MAX_ITER
# Newton steps; converged starts within _DEDUPE_RADIUS are one preimage.
_NEWTON_TOL = 1e-10
_MAX_ITER = 100
_DEDUPE_RADIUS = 1e-6


def newton_preimages_many(map_spec: HarmonicMapSpec, ws,
                          n_starts: int = 256) -> list[PreimageSet]:
    """``newton_preimages`` at every w of ``ws``, one ``PreimageSet`` each.

    All (probe, start) pairs of a block of at most 64 probes iterate in one
    array: each Newton step evaluates h' once on the live pairs, and each
    halving step makes one ``eval_f_many`` call on the pairs still trying.
    The starts and f at the starts are computed once per call.  Every pair
    does the arithmetic of a one-probe solve, and f has the same bits in
    every call, so each result is the same, bit for bit, as ``newton_preimages``
    gives for its probe.
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
        for _halving in range(21):
            todo = np.flatnonzero(~accepted)
            if todo.size == 0:
                break
            z_try = za[todo] + step[todo]
            inside = np.abs(z_try) < 0.9995
            r_try = np.full(todo.size, np.inf, dtype=complex)
            if np.any(inside):
                f_try, f_bad = eval_f_many(map_spec, z_try[inside], on_failure="mask")
                f_try[f_bad] = np.nan
                r_try[inside] = f_try - wp[idx[todo[inside]]]
            better = np.isfinite(r_try) & (np.abs(r_try) < np.abs(ra[todo]))
            sel = todo[better]
            z_new[sel] = za[sel] + step[sel]
            r_new[sel] = r_try[better]
            accepted[sel] = True
            step[todo[~better]] *= 0.5
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
    if trace is None:
        trace = trace_circle(map_spec, r, 4096)
    elif trace.map != map_spec or trace.radius != r:
        raise ParameterError("the trace is not of this map on |z| = r")
    wres = winding_number(trace, w)
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
