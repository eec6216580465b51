"""Independent reference implementations used by the test suite.

Everything in this module is computed without touching the evaluators under
test (only hvl's error classes are imported): series are summed directly
with explicit powers, derivatives come from finite differences, and winding
numbers are counted by ray crossings or by summing turning angles.  The
point is to have a second route to every quantity so the library can be
checked against something it does not share code with.  The one exception
is the Newton reference, whose subject is the iteration: its caller hands
it hvl's f and h'.
"""

import functools

import numpy as np

from hvl import DomainError, QuadratureError  # error types only, no evaluator


def horner(coeffs, z):
    """Evaluate sum(coeffs[j] * z**j) with ascending coefficients."""
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def series_eval(p, coeffs, z):
    """Direct evaluation of z**p * (coeffs[0] + coeffs[1] z + ...)."""
    z = np.asarray(z, dtype=complex)
    return z**p * horner(coeffs, z)


def series_deriv_coeffs(p, coeffs):
    """Ascending coefficient list of d/dz [sum coeffs[j] z**(p+j)]."""
    out = [0.0] * max(p - 1, 0)
    for j, c in enumerate(coeffs):
        out.append((p + j) * c)
    return out


def fd_derivative(fn, z, step=3e-4):
    """Fourth order central difference for an analytic function.

    fn must accept a complex scalar and return a complex scalar.  The
    stencil runs along the real direction, which is enough for analytic
    integrands (the derivative is direction independent).
    """
    f1 = fn(z + step)
    f_1 = fn(z - step)
    f2 = fn(z + 2 * step)
    f_2 = fn(z - 2 * step)
    return (-f2 + 8 * f1 - 8 * f_1 + f_2) / (12 * step)


def ray_winding(points, w):
    """Winding of a closed polyline about w by counting upward/downward
    crossings of the horizontal ray to the right of w.

    points: complex array tracing the curve once (closure is implicit).
    Returns an int.  Degenerate crossings through the ray endpoint are not
    handled; callers should keep w away from the curve.
    """
    pts = np.asarray(points, dtype=complex)
    x = pts.real - np.real(w)
    y = pts.imag - np.imag(w)
    x2 = np.roll(x, -1)
    y2 = np.roll(y, -1)
    crossings = 0
    for j in range(len(pts)):
        y1, y2j = y[j], y2[j]
        if (y1 <= 0.0 < y2j) or (y2j <= 0.0 < y1):
            # intersection abscissa of the segment with the ray's line
            t = y1 / (y1 - y2j)
            xc = x[j] + t * (x2[j] - x[j])
            if xc > 0.0:
                crossings += 1 if y1 <= 0.0 else -1
    return crossings


def angle_winding(points, w):
    """Winding of a closed polyline about w as the sum of its turning angles.

    points: complex array tracing the curve once (closure is implicit).
    Each step's turn about w is the principal argument of the ratio of its
    ends; the sum over the closed polyline is 2 pi times an integer unless
    w lies on it.  Raises ValueError if the sum is not within 0.05 turns of
    an integer (w on the polyline, or a NaN point).
    """
    d = np.asarray(points, dtype=complex) - w
    turns = float(np.angle(np.roll(d, -1) * np.conj(d)).sum()) / (2 * np.pi)
    k = round(turns) if np.isfinite(turns) else 0
    if not abs(turns - k) < 0.05:
        raise ValueError(f"angle sum {turns:.6g} turns is not close to an integer")
    return int(k)


# ---------------------------------------------------------------------------
# Adaptive radial quadrature for rational h' = numer/denom.  The library
# evaluates rational h and g in closed form from partial fractions; this is
# the independent route it is checked against.

GAUSS_ORDER = 16
NODE_BUDGET = 40_000_000  # total integrand evaluations allowed per round


@functools.lru_cache(maxsize=64)
def graded_rule(levels, m_refine):
    """Gauss-Legendre rule on [0, 1] over panels geometrically graded toward 1.

    Panel breakpoints are 0, 1/2, 3/4, ..., 1 - 2**-levels, 1; each panel is
    split into ``m_refine`` equal subpanels.  The grading resolves integrands
    whose only sharp feature sits at the outer endpoint (a pole of h' just
    beyond the evaluation point) at cost O(levels * m_refine).
    """
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    breaks = np.array([0.0] + [1.0 - 2.0 ** (-k) for k in range(1, levels + 1)] + [1.0])
    a, b = breaks[:-1], breaks[1:]
    frac = np.arange(m_refine) / m_refine
    lo = (a[:, None] + (b - a)[:, None] * frac).ravel()
    hi = (a[:, None] + (b - a)[:, None] * (frac + 1.0 / m_refine)).ravel()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    return nodes, weights


def levels_for(boundary_epsilon=1e-6):
    """Grading depth that resolves a pole boundary_epsilon beyond the endpoint."""
    return max(24, int(np.ceil(-np.log2(boundary_epsilon))) + 6)


def radial_integrals(numer, denom, zs, s_powers, abs_tol=1e-12, rel_tol=1e-12,
                     levels=None, rounds=12):
    """For each z, integrals of s**q * h'(s z) over s in [0, 1], all q at once.

    h' = numer/denom (ascending coefficients) is summed with ``horner``.
    Returns ``(vals, fail_idx, fail_est)`` where vals has shape
    (len(s_powers), len(zs)) and the failure arrays list points whose
    refinement never converged, with their last residual estimates.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    levels = levels_for() if levels is None else levels
    nq = len(s_powers)
    out = np.zeros((nq, zs.size), dtype=complex)
    last_est = np.full(zs.size, np.inf)
    active = np.arange(zs.size)
    prev = None
    m_refine = 1
    for _ in range(rounds + 1):
        nodes, weights = graded_rule(levels, m_refine)
        if nodes.size * max(active.size, 1) > NODE_BUDGET:
            break
        pts = nodes[:, None] * zs[active][None, :]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            hp = horner(numer, pts) / horner(denom, pts)
        cur = np.empty((nq, active.size), dtype=complex)
        for i, q in enumerate(s_powers):
            wq = weights if q == 0 else weights * nodes ** q
            cur[i] = wq @ hp
        if prev is not None:
            delta = np.max(np.abs(cur - prev), axis=0)
            tol = np.maximum(abs_tol, rel_tol * np.max(np.abs(cur), axis=0))
            done = np.isfinite(delta) & (delta <= tol)
            out[:, active[done]] = cur[:, done]
            last_est[active[done]] = delta[done]
            if np.all(done):
                return out, np.zeros(0, dtype=int), np.zeros(0)
            keep = ~done
            last_est[active[keep]] = np.where(
                np.isfinite(delta[keep]), delta[keep], np.inf
            )
            active = active[keep]
            prev = cur[:, keep]
        else:
            prev = cur
        m_refine *= 2
    out[:, active] = prev if prev is not None else 0.0
    return out, active, last_est[active]


def rational_primitive(numer, denom, zs, q=0):
    """Integral of u**q h'(u) du along the segment from 0 to z, by quadrature.

    q = 0 gives h, q = m-1 gives g.  Raises AssertionError if the quadrature
    does not converge at some point.
    """
    zs = np.asarray(zs, dtype=complex)
    vals, fail_idx, _ = radial_integrals(numer, denom, zs, (q,))
    assert fail_idx.size == 0, f"oracle quadrature failed at {zs.ravel()[fail_idx]}"
    return (zs.ravel() ** (q + 1) * vals[0]).reshape(zs.shape)


def h_prime_arc_integral(numer, denom, r, t0, t1):
    """Integral of h' = numer/denom along the arc z = r e^{i t}, t from t0 to t1.

    Gauss-Legendre quadrature on uniform panels, doubled until two rounds
    agree to 1e-12 (absolute, or relative to the value), at most 16 rounds;
    an independent route to h(z1) - h(z0) for checking path independence.
    """
    if not 0.0 < r <= 1.0:
        raise DomainError("arc radius must lie in (0, 1]")
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    prev = None
    panels = 8
    for _ in range(16):
        edges = np.linspace(t0, t1, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        ts = (mid[:, None] + half[:, None] * x).ravel()
        ws = (half[:, None] * w).ravel()
        zs = r * np.exp(1j * ts)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            hp = horner(numer, zs) / horner(denom, zs)
        cur = complex(np.sum(ws * hp * 1j * zs))
        if prev is not None:
            err = abs(cur - prev)
            if err <= max(1e-12, 1e-12 * abs(cur)):
                return cur
        prev = cur
        panels *= 2
    raise QuadratureError("arc quadrature failed to converge", worst_estimate=err)


def _margin_parts(p, coeffs, numer, denom):
    """(h', h'', zeros of H = h'/z**(p-1) and poles of h') for a series h
    (``coeffs[j]`` of z**(p+j)) or for h' = numer/denom (ascending)."""
    P = np.polynomial.polynomial
    if coeffs is not None:
        n = p + np.arange(len(coeffs))
        d1 = n * np.asarray(coeffs, dtype=complex)  # h' = z**(p-1) d1(z)
        d2 = n * (n - 1) * np.asarray(coeffs, dtype=complex)
        if p >= 2:
            second = lambda z: z ** (p - 2) * horner(d2, z)  # noqa: E731
        elif d2.size > 1:
            second = lambda z: horner(d2[1:], z)  # noqa: E731
        else:
            second = lambda z: np.zeros_like(z)  # noqa: E731
        return (lambda z: z ** (p - 1) * horner(d1, z), second,
                P.polyroots(d1) if d1.size > 1 else np.zeros(0, dtype=complex))
    num, den = np.asarray(numer, dtype=complex), np.asarray(denom, dtype=complex)
    num2 = P.polysub(P.polymul(P.polyder(num), den), P.polymul(num, P.polyder(den)))
    return (lambda z: horner(num, z) / horner(den, z),
            lambda z: horner(num2, z) / horner(den, z) ** 2,
            np.concatenate([P.polyroots(num[p - 1:]) if num.size > p else [],
                            P.polyroots(den) if den.size > 1 else []]).astype(complex))


def margin_singular_points(p, coeffs=None, numer=None, denom=None):
    """The zeros of H = h'/z**(p-1) and the poles of h', by numpy's polyroots."""
    return _margin_parts(p, coeffs, numer, denom)[2]


def margin_all_circles(p, m, coeffs=None, numer=None, denom=None, grid=8192):
    """min Re(1 + z h''/h') + (m-1)/2 over every circle of the full sampler.

    The circles are r = 0.9, 0.99, 0.999 and 1 - 1e-6 at ``grid`` angles,
    plus r0 (1 + 1e-3) (at most 1 - 1e-9) and r0 (1 - 1e-3) for each zero
    of H and pole of h' at a modulus r0 in (1e-9, 1 - 1e-9).  Give
    ``coeffs`` for a series h or ``numer``/``denom`` for h' = numer/denom.
    """
    hp, hpp, singular = _margin_parts(p, coeffs, numer, denom)
    radii = [0.9, 0.99, 0.999, 1.0 - 1e-6]
    for z0 in singular:
        r0 = abs(z0)
        if 1e-9 < r0 < 1.0 - 1e-9:
            radii += [min(r0 * (1 + 1e-3), 1.0 - 1e-9), r0 * (1 - 1e-3)]
    unit = np.exp(1j * np.linspace(-np.pi, np.pi, grid, endpoint=False))
    worst = np.inf
    for r in radii:
        z = r * unit
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            worst = min(worst, float(np.real(1.0 + z * hpp(z) / hp(z)).min()))
    return worst + (m - 1) / 2.0


def unwrap_ref(angles):
    """Continuous lift of a sampled phase via numpy's unwrap."""
    return np.unwrap(np.asarray(angles, dtype=float))


# ---------------------------------------------------------------------------
# Hand-expanded boundary data for the two closed-form presets.  These were
# derived on paper from the defining series and are kept here frozen; the
# tests compare library output against them, not the other way around.


def example1_f(t):
    """Image of e**(it) under the p=2, m=4 map: e**(2it) + (2/5) e**(-5it)."""
    t = np.asarray(t, dtype=float)
    return np.exp(2j * t) + 0.4 * np.exp(-5j * t)


def example1_velocity(t):
    t = np.asarray(t, dtype=float)
    return 2j * np.exp(2j * t) - 2j * np.exp(-5j * t)


def example1_acceleration(t):
    t = np.asarray(t, dtype=float)
    return -4.0 * np.exp(2j * t) - 10.0 * np.exp(-5j * t)


def example2_h(z, c=1j):
    """h = z**3 + (c/4) z**4 (the p=3 member with perturbation c)."""
    z = np.asarray(z, dtype=complex)
    return z**3 + (c / 4.0) * z**4


def example2_hp(z, c=1j):
    z = np.asarray(z, dtype=complex)
    return 3.0 * z**2 + c * z**3


def example2_hpp(z, c=1j):
    z = np.asarray(z, dtype=complex)
    return 6.0 * z + 3.0 * c * z**2


def example2_g(z, c=1j):
    # g' = z h' = 3 z**3 + c z**4, integrated with g(0) = 0
    z = np.asarray(z, dtype=complex)
    return 0.75 * z**4 + (c / 5.0) * z**5


# ---------------------------------------------------------------------------
# Newton preimages, one probe at a time with one evaluation of f per try:
# the damped iteration as first written, before any batching or skipping.


def radical_inverse(i, base):
    """The van der Corput value of the integer i in ``base``, digit by digit."""
    val, denom = 0.0, 1.0
    while i > 0:
        denom *= base
        val += (i % base) / denom
        i //= base
    return val


def halton_disk(n):
    """The first n Halton(2, 3) points, mapped to [-1, 1]**2, that lie in
    |z| < 0.999."""
    pts = []
    i = 0
    while len(pts) < n:
        i += 1
        z = np.complex128(complex(2.0 * radical_inverse(i, 2) - 1.0,
                                  2.0 * radical_inverse(i, 3) - 1.0))
        if np.abs(z) < 0.999:
            pts.append(z)
    return np.array(pts, dtype=complex)


def newton_reference(f, h_prime, m, w, n_starts=256):
    """Solve f(z) = w by damped Newton from ``n_starts`` Halton starts.

    ``f(z)`` returns (values, failed mask) and ``h_prime(z)`` the values of
    h' (NaN at a pole); g' is z**(m-1) h'.  Each Newton step
    dz = (conj(g') conj(r) - conj(h') r) / (|h'|**2 - |g'|**2) is halved up
    to 20 times, one evaluation of f per try on the starts still halving,
    until a try inside |z| < 0.9995 lowers |r|; a start with no such try,
    or a non-finite step, is dropped.  Starts with |r| <= 1e-10 within 100
    steps have converged; those within 1e-6 of each other are one root,
    which keeps the smallest |r|.  Returns (roots, residuals, n_converged),
    the roots in (Re z, Im z) order.
    """
    z = halton_disk(n_starts)
    f0, bad = f(z)
    res = f0 - w
    res[bad] = np.inf
    alive = ~bad
    done = np.zeros(z.size, dtype=bool)
    for _ in range(100):
        done |= alive & (np.abs(res) <= 1e-10)
        live = np.flatnonzero(alive & ~done)
        if live.size == 0:
            break
        zl, rl = z[live], res[live]
        a = h_prime(zl)
        b = zl ** (m - 1) * a
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (np.conj(b) * np.conj(rl) - np.conj(a) * rl) / (np.abs(a) ** 2 - np.abs(b) ** 2)
        ok = np.isfinite(step)
        alive[live[~ok]] = False
        live, zl, rl, step = live[ok], zl[ok], rl[ok], step[ok]
        moved = np.zeros(live.size, dtype=bool)
        for _ in range(21):
            z_try = zl + step
            trying = ~moved & (np.abs(z_try) < 0.9995)
            r_try = np.full(live.size, np.inf, dtype=complex)
            if trying.any():
                f_try, f_bad = f(z_try[trying])
                f_try[f_bad] = np.nan
                r_try[trying] = f_try - w
            take = np.isfinite(r_try) & (np.abs(r_try) < np.abs(rl))
            z[live[take]] = z_try[take]
            res[live[take]] = r_try[take]
            moved |= take
            step = step * 0.5
        alive[live[~moved]] = False
    done |= alive & (np.abs(res) <= 1e-10)
    roots, residuals = [], []
    for i in sorted(np.flatnonzero(done), key=lambda i: (z[i].real, z[i].imag)):
        zi, ri = complex(z[i]), abs(complex(res[i]))
        for j, zr in enumerate(roots):
            if abs(zi - zr) <= 1e-6:
                if ri < residuals[j]:
                    roots[j], residuals[j] = zi, ri
                break
        else:
            roots.append(zi)
            residuals.append(ri)
    return (np.array(roots, dtype=complex), np.array(residuals, dtype=float),
            int(done.sum()))


def bisect_reference(fn, a, b, fa, fb, tol):
    """Best (t, fn(t)) on one sign-changing bracket [a, b], in Python floats:
    bisection while b - a > tol (at most 200 halvings; an exact zero ends the
    bracket as its lower end), then up to five secant steps."""
    for _ in range(200):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm != 0.0 and (fa < 0) != (fm < 0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
            if fm == 0.0:
                break
    t_best, f_best = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    lo, hi, flo, fhi = a, b, fa, fb
    for _ in range(5):
        if abs(f_best) < tol or fhi == flo:
            break
        t_sec = hi - fhi * (hi - lo) / (fhi - flo)
        if not a <= t_sec <= b:
            break
        f_sec = fn(t_sec)
        if abs(f_sec) < abs(f_best):
            t_best, f_best = t_sec, f_sec
        lo, flo, hi, fhi = hi, fhi, t_sec, f_sec
    return t_best, f_best


def svg_points_ref(pts):
    """SVG polyline points, one "%.6f" call per coordinate, y flipped."""
    fmt = lambda x: "%.6f" % x  # noqa: E731
    return " ".join(fmt(p.real) + "," + fmt(-p.imag) for p in pts)


def svg_polylines_ref(curves):
    """``svg_points_ref`` of each curve: the shape of ``render._polyline_points``."""
    return [svg_points_ref(c) for c in curves]


def trace_csv_ref(t, points, clamped):
    """A trace as CSV, one row at a time."""
    lines = ["t,re_f,im_f,clamped"]
    for tv, pv, cv in zip(t, points, clamped):
        lines.append("%.17g,%.17g,%.17g,%d" % (tv, pv.real, pv.imag, int(cv)))
    return "\n".join(lines) + "\n"


def first_difference(a: str, b: str):
    """None when a == b, else the first differing line of each as
    (line number, line of a, line of b): cheap to report for long outputs."""
    if a == b:
        return None
    la, lb = a.split("\n"), b.split("\n")
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    return i, la[i] if i < len(la) else None, lb[i] if i < len(lb) else None
