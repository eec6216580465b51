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
crossings in one pass and bisects them together, certifies zero-freeness
of H via its boundary winding number, and samples the monotonicity margin

    min Re(1 + z h''(z)/h'(z)) + (m - 1)/2

over circles; a positive margin forces F' > 0 so each level is hit at most
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fncore import (
    BoundaryHypothesisError,
    FunctionSpec,
    ParameterError,
    PoleError,
    UnwrapError,
    derive_g,
    eval_f_many,
    eval_h_prime_many,
    eval_h_second_many,
    eval_normalized_deriv_many,
    require_int,
)

_TWO_PI = 2.0 * math.pi
_MAX_UNWRAP_POINTS = 1 << 20
# Roots are bisected to _BISECT_TOL in t; a local minimum of |F - 2 k pi|
# below _TANGENCY_THRESHOLD without a sign change is a suspected tangency;
# H counts as vanishing on the boundary where its modulus is at most
# _NONVANISH_TOL.
_BISECT_TOL = 1e-12
_TANGENCY_THRESHOLD = 1e-7
_NONVANISH_TOL = 1e-9


def _grid(grid_size) -> int:
    """``grid_size`` as an int; ``ParameterError`` unless a power of two >= 1024.

    Every function of this module that samples a grid checks its size here.
    """
    rule = "grid_size must be a power of two >= 1024"
    n = require_int(grid_size, 1024, rule)
    if n & (n - 1):
        raise ParameterError(rule)
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
        tq = np.asarray(tq, dtype=float)
        flat = np.clip(tq.ravel(), self.t[0], self.t[-1])
        hv = eval_normalized_deriv_many(self.spec, np.exp(1j * flat))
        pv = np.angle(hv)
        j = np.clip(np.searchsorted(self.t, flat), 1, self.t.size - 1)
        t0, t1 = self.t[j - 1], self.t[j]
        p0, p1 = self.phase[j - 1], self.phase[j]
        est = p0 + (p1 - p0) * (flat - t0) / np.maximum(t1 - t0, 1e-300)
        lifted = pv + _TWO_PI * np.round((est - pv) / _TWO_PI)
        return lifted.reshape(tq.shape)


def unwrap_boundary_phase(spec: FunctionSpec, grid_size: int = 8192) -> PhaseTable:
    """Continuous branch of arg H on the boundary, anchored at t = -pi,
    from ``grid_size`` + 1 samples (a power of two >= 1024) refined locally.

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
    t = np.linspace(-math.pi, math.pi, grid_size + 1)
    hv = eval_normalized_deriv_many(spec, np.exp(1j * t), on_pole="nan")
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


def phase_function_many(spec: FunctionSpec, m: int, t, table: PhaseTable) -> np.ndarray:
    """F(t) = (2p+m-1) t + 2 arg H(e^{it}) on the table's continuous branch."""
    t = np.asarray(t, dtype=float)
    return (2 * spec.p + m - 1) * t + 2.0 * table.eval_many(t)


def phase_function_derivative_many(spec: FunctionSpec, m: int, t) -> np.ndarray:
    """F'(t) = m + 1 + 2 Re(z h''(z)/h'(z)) at z = e^{it}.

    Raises ``PoleError`` where h' vanishes (or has a pole) on the circle.
    """
    t = np.asarray(t, dtype=float)
    z = np.exp(1j * t)
    hp = eval_h_prime_many(spec, z)
    hpp = eval_h_second_many(spec, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = z * hpp / hp
    bad = ~np.isfinite(ratio)
    if np.any(bad):
        loc = z[np.atleast_1d(bad)].ravel()[0]
        raise PoleError("h' vanishes on the boundary circle", location=complex(loc))
    return m + 1 + 2.0 * np.real(ratio)


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
    lower end), then up to five secant steps.  ``fn(t, rows)`` evaluates the
    brackets ``rows``; each bracket takes the steps of a scalar bisection.
    """
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    going = np.ones(a.size, dtype=bool)
    for _ in range(200):
        rows = np.flatnonzero(going & ~(b - a <= tol))
        if rows.size == 0:
            break
        mid = 0.5 * (a[rows] + b[rows])
        fm = fn(mid, rows)
        going[rows[fm == 0.0]] = False
        up = ((fa[rows] < 0) != (fm < 0)) & (fm != 0.0)
        b[rows[up]], fb[rows[up]] = mid[up], fm[up]
        a[rows[~up]], fa[rows[~up]] = mid[~up], fm[~up]
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


def find_criterion_roots(spec: FunctionSpec, m: int, grid_size: int = 8192,
                         table: PhaseTable | None = None) -> tuple[RootRecord, ...]:
    """All crossings of F with the levels 2 k pi for k in the searched set.

    One pass over the grid finds, for all levels at once, the samples where
    F equals a level, the intervals where F - 2 k pi changes sign, and the
    interior local minima of |F - 2 k pi| below 1e-7 without a sign change
    (recorded with ``suspected_tangency=True``).  The sign changes are
    bisected together to 1e-12 in t, one ``PhaseTable.eval_many`` call per
    step.  Records are sorted by t.  The phase table is
    ``unwrap_boundary_phase(spec, grid_size)`` unless ``table`` is passed.
    """
    if table is None:
        table = unwrap_boundary_phase(spec, grid_size)
    map_spec = derive_g(spec, m)
    t, tol, thr = table.t, _BISECT_TOL, _TANGENCY_THRESHOLD
    f_grid = (2 * spec.p + m - 1) * t + 2.0 * table.phase
    k_min = level_set(spec.p, m).start
    targets = _TWO_PI * np.arange(k_min, 1 - k_min)
    # candidates (i, j): the levels within thr of F on the interval
    # [t_i, t_i+1], widened by one level on each side against rounding
    first = np.maximum(np.searchsorted(targets, np.minimum(f_grid[:-1], f_grid[1:]) - thr) - 1, 0)
    n = np.minimum(np.searchsorted(targets, np.maximum(f_grid[:-1], f_grid[1:]) + thr, "right") + 1,
                   targets.size) - first
    i = np.repeat(np.arange(n.size), n)
    j = np.arange(i.size) - np.repeat(np.cumsum(n) - n - first, n)
    g_left, g, g_right = (f_grid[i + d] - targets[j] for d in (-1, 0, 1))
    cross = g * g_right < 0.0
    hit = g == 0.0  # every t_i lies in the domain [-pi, pi)
    touch = ((i > 0) & (np.abs(g) <= np.abs(g_left)) & (np.abs(g) <= np.abs(g_right))
             & (np.abs(g) < thr) & (g_left * g > 0.0) & (g * g_right > 0.0))
    t_root, resid = _bisect_all(
        lambda tq, rows: phase_function_many(spec, m, tq, table) - targets[j[cross][rows]],
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


def check_monotonicity_margin(spec: FunctionSpec, m: int, grid_size: int = 8192) -> float:
    """Sampled margin of the monotonicity condition Re(1+zh''/h') > -(m-1)/2.

    Samples ``grid_size`` angles on circles of radius 0.9, 0.99, 0.999 and
    1 - 1e-6, plus a pair of circles hugging every interior zero of the
    normalized derivative (and every interior denominator root), since the
    condition always fails near such a point.  Returns
    min Re(1 + z h''/h') + (m-1)/2; positive means F is strictly increasing
    wherever the sampled circles are representative.
    """
    radii = [0.9, 0.99, 0.999, 1.0 - 1e-6]
    for z0 in np.concatenate([spec.H_zeros, spec.poles]):
        r0 = abs(z0)
        if 1e-9 < r0 < 1.0 - 1e-9:
            radii.extend([min(r0 * (1 + 1e-3), 1.0 - 1e-9), r0 * (1 - 1e-3)])
    t = np.linspace(-math.pi, math.pi, _grid(grid_size), endpoint=False)
    unit = np.exp(1j * t)
    worst = math.inf
    for r in radii:
        z = r * unit
        hp = eval_h_prime_many(spec, z, on_pole="raise")
        hpp = eval_h_second_many(spec, z, on_pole="raise")
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.real(1.0 + z * hpp / hp)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            loc = z[bad][0]
            raise PoleError(f"h' vanishes at a sampled point z = {loc:.6g}",
                            location=complex(loc))
        worst = min(worst, float(vals.min()))
    return worst + (m - 1) / 2.0


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the cusp-count criterion for one map (h, m)."""

    p: int
    m: int
    roots: tuple[RootRecord, ...]
    per_level_counts: dict[int, int]
    total_roots: int
    h_nonvanishing: bool
    min_modulus_boundary: float | None
    winding_boundary: int | None
    monotonicity_margin: float | None
    hypotheses_hold: bool
    criterion_satisfied: bool
    tangency_suspects: int
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "expected_roots": 2 * self.p + self.m - 1,
            "total_roots": self.total_roots,
            "per_level_counts": {str(k): v for k, v in sorted(self.per_level_counts.items())},
            "roots": [
                {
                    "k": r.k,
                    "t": r.t,
                    "image": None if r.boundary_image is None
                    else [r.boundary_image.real, r.boundary_image.imag],
                    "suspected_tangency": r.suspected_tangency,
                    "residual": r.residual,
                }
                for r in self.roots
            ],
            "h_nonvanishing": self.h_nonvanishing,
            "min_modulus_boundary": self.min_modulus_boundary,
            "winding_boundary": self.winding_boundary,
            "monotonicity_margin": self.monotonicity_margin,
            "hypotheses_hold": self.hypotheses_hold,
            "criterion_satisfied": self.criterion_satisfied,
            "tangency_suspects": self.tangency_suspects,
            "failure_reason": self.failure_reason,
        }


def check_criterion(spec: FunctionSpec, m: int, grid_size: int = 8192) -> CriterionReport:
    """Run the full sufficient-condition check and assemble a report.

    ``criterion_satisfied`` is true exactly when H is zero-free on the closed
    disk (boundary modulus above tolerance and boundary winding zero, with h
    analytic there), every searched level is crossed at most once, the total
    crossing count is 2p+m-1, and no tangency is suspected.
    """
    m = require_int(m, 2, "m must be an integer >= 2")
    p = spec.p
    counts = {k: 0 for k in level_set(p, m)}

    def failed(reason: str, margin=None) -> CriterionReport:
        return CriterionReport(
            p=p, m=m, roots=(), per_level_counts=counts, total_roots=0,
            h_nonvanishing=False, min_modulus_boundary=None, winding_boundary=None,
            monotonicity_margin=margin, hypotheses_hold=False,
            criterion_satisfied=False, tangency_suspects=0, failure_reason=reason,
        )

    margin: float | None
    try:
        margin = check_monotonicity_margin(spec, m, grid_size)
    except PoleError:
        margin = None

    if np.any(np.abs(spec.poles) < 1.0 - 1e-8):
        return failed("h is not analytic on the closed disk "
                      "(denominator root inside |z| < 1)", margin)
    try:
        table = unwrap_boundary_phase(spec, grid_size)
    except BoundaryHypothesisError as exc:
        return failed(str(exc), margin)

    winding = table.winding
    h_nonvanishing = table.min_modulus > _NONVANISH_TOL and winding == 0
    roots = find_criterion_roots(spec, m, table=table)
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
