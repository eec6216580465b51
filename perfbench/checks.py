"""Answer checks for benchmark jobs, computed without hvl.

Every quantity checked here is recomputed from the job's own description of
the map: series h by direct power sums, rational h by a fixed radial
Gauss-Legendre rule on panels graded toward the circle, the sweep's
coefficient stream from numpy's generator.  Nothing imports hvl, so a wrong
answer from hvl cannot be confirmed by the same wrong code.

``check_job`` returns None for a correct answer and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

TWO_PI = 2.0 * math.pi
BOUNDARY_EPSILON = 1e-6  # hvl's documented clamp radius offset near poles
TRACE_SUBSAMPLE = 48


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _coeffs(pairs):
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _horner(coeffs, z):
    acc = np.zeros_like(z, dtype=complex)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _n_roots(mp):
    return 2 * mp["p"] + mp["m"] - 1


# ---------------------------------------------------------------------------
# Independent evaluation of the maps

def _graded_rule(panels=45, order=20):
    """Gauss-Legendre nodes on [0, 1], panels halving in length toward 1."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.concatenate(([0.0], 1.0 - 0.5 ** np.arange(1, panels + 1), [1.0]))
    a, b = edges[:-1, None], edges[1:, None]
    nodes = (a + (b - a) * (x + 1.0) / 2.0).ravel()
    weights = ((b - a) / 2.0 * w).ravel()
    return nodes, weights


_NODES, _WEIGHTS = _graded_rule()


def poles(mp):
    if mp["kind"] != "rational":
        return np.zeros(0, dtype=complex)
    return np.polynomial.polynomial.polyroots(_coeffs(mp["denom"]))


def clamp(mp, z):
    """hvl's documented clamp: points within epsilon of a pole, near the
    circle, are pulled radially to radius 1 - epsilon."""
    pl = poles(mp)
    clamped = np.zeros(z.shape, dtype=bool)
    if pl.size:
        dist = np.min(np.abs(z[:, None] - pl[None, :]), axis=1)
        clamped = (dist < BOUNDARY_EPSILON) & (np.abs(z) > 1.0 - BOUNDARY_EPSILON)
        z = np.where(clamped, z * (1.0 - BOUNDARY_EPSILON) / np.abs(z), z)
    return z, clamped


def eval_f(mp, z):
    """f = h + conj(g) with g' = z**(m-1) h' and h(0) = g(0) = 0."""
    z = np.asarray(z, dtype=complex)
    p, m = mp["p"], mp["m"]
    if mp["kind"] == "poly":
        a = _coeffs(mp["coeffs"])
        n = p + np.arange(a.size)
        h = z ** p * _horner(a, z)
        g = z ** (p + m - 1) * _horner(n / (n + m - 1) * a, z)
        return h + np.conj(g)
    numer, denom = _coeffs(mp["numer"]), _coeffs(mp["denom"])
    w = _NODES[:, None] * z[None, :]
    hp = _horner(numer, w) / _horner(denom, w)
    h = z * (_WEIGHTS @ hp)
    g = z * (_WEIGHTS @ (w ** (m - 1) * hp))
    return h + np.conj(g)


def eval_H(mp, z):
    """The normalized derivative H = h'/z**(p-1)."""
    p = mp["p"]
    if mp["kind"] == "poly":
        a = _coeffs(mp["coeffs"])
        return _horner((p + np.arange(a.size)) * a, z)
    return _horner(_coeffs(mp["numer"])[p - 1:], z) / _horner(_coeffs(mp["denom"]), z)


def diameter(points):
    return float(math.hypot(np.ptp(points.real), np.ptp(points.imag)))


def margin(mp, grid=8192, floor=-math.inf):
    """min Re(1 + z h''/h') + (m-1)/2 on hvl's documented sample circles.

    Stops at the first circle that takes the value to ``floor`` or below.
    """
    p, m = mp["p"], mp["m"]
    a = _coeffs(mp["coeffs"])
    d1 = (p + np.arange(a.size)) * a
    d1p = d1[1:] * np.arange(1, d1.size)
    radii = [0.9, 0.99, 0.999, 1.0 - 1e-6]
    for z0 in np.polynomial.polynomial.polyroots(d1) if d1.size > 1 else ():
        r0 = abs(z0)
        if 1e-9 < r0 < 1.0 - 1e-9:
            radii += [min(r0 * (1 + 1e-3), 1.0 - 1e-9), r0 * (1 - 1e-3)]
    t = np.linspace(-math.pi, math.pi, grid, endpoint=False)
    worst = math.inf
    for r in radii:
        z = r * np.exp(1j * t)
        vals = np.real(p + z * _horner(d1p, z) / _horner(d1, z))
        worst = min(worst, float(vals.min()))
        if worst + (m - 1) / 2.0 <= floor:
            break
    return worst + (m - 1) / 2.0


def sweep_coeffs(mp, trials):
    """The documented stream: one block of 2*(max_degree-p) normals per trial."""
    p, n_free = mp["p"], mp["max_degree"] - mp["p"]
    rng = np.random.default_rng(mp["seed"])
    out = []
    for _ in range(trials):
        block = rng.standard_normal(2 * n_free) if n_free else np.zeros(0)
        out.append([1 + 0j] + [mp["scale"] * complex(block[2 * i], block[2 * i + 1])
                               / (math.sqrt(2.0) * (p + 1 + i)) for i in range(n_free)])
    return out


def sweep_kept(mp, trials):
    """How many trials of a sweep pass the margin test (margin > 0)."""
    return sum(margin({"p": mp["p"], "m": mp["m"], "coeffs": [[c.real, c.imag] for c in co]},
                      floor=0.0) > 0.0
               for co in sweep_coeffs(mp, trials))


# ---------------------------------------------------------------------------
# Per-command checks

def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_verify(job, path):
    mp, exp = job["map"], job["expect"]
    doc = _load_json(path)
    n = _n_roots(mp)
    _require(doc.get("command") == "verify" and doc["p"] == mp["p"] and doc["m"] == mp["m"],
             "report does not describe the requested map")
    if not exp["criterion"]:
        _require(doc["criterion_satisfied"] is False and doc["hypotheses_hold"] is False,
                 "criterion reported satisfied for a map with boundary poles")
        return
    _require(doc["criterion_satisfied"] is True, f"criterion not satisfied: {doc['failure_reason']}")
    _require(doc["total_roots"] == n and doc["tangency_suspects"] == 0,
             f"total_roots {doc['total_roots']} != 2p+m-1 = {n}")
    roots = [r for r in doc["roots"] if not r["suspected_tangency"]]
    _require(len(roots) == n, f"{len(roots)} roots listed, expected {n}")
    t = np.array([r["t"] for r in roots])
    k = np.array([r["k"] for r in roots])
    _require(len(set(k.tolist())) == n, "some level is crossed twice")
    z = np.exp(1j * t)
    phase = n * t + 2.0 * np.angle(eval_H(mp, z)) - TWO_PI * k
    resid = np.abs((phase + math.pi) % TWO_PI - math.pi)
    _require(float(resid.max()) < 1e-7, f"phase misses its level by {resid.max():.3g}")
    if exp.get("exact_roots"):
        err = np.abs(t - TWO_PI * k / n)
        _require(float(err.max()) <= 1e-9, f"root off 2 pi k/(2p+m-1) by {err.max():.3g}")
    images = np.array([complex(*r["image"]) for r in roots])
    ref = eval_f(mp, z)
    scale = diameter(eval_f(mp, np.exp(1j * np.linspace(-math.pi, math.pi, 256, endpoint=False))))
    err = float(np.max(np.abs(images - ref)))
    _require(err <= 1e-8 * scale, f"cusp image off by {err:.3g} (diameter {scale:.3g})")


def _check_trace(job, path):
    mp, exp = job["map"], job["expect"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["t", "re_f", "im_f", "clamped"], "bad CSV header")
    body = np.array(rows[1:], dtype=float)
    n = exp["points"]
    _require(body.shape == (n, 4), f"expected {n} rows of 4 fields, got {body.shape}")
    t = body[:, 0]
    _require(np.allclose(t, -math.pi + TWO_PI * np.arange(n) / n, rtol=0, atol=1e-12),
             "sample angles are not the uniform grid")
    pts = body[:, 1] + 1j * body[:, 2]
    _require(bool(np.all(np.isfinite(pts))), "non-finite trace point")
    z, clamped = clamp(mp, exp["radius"] * np.exp(1j * t))
    _require(np.array_equal(clamped, body[:, 3] != 0), "clamp flags differ from the pole distances")
    idx = np.union1d(np.linspace(0, n - 1, TRACE_SUBSAMPLE).astype(int), np.flatnonzero(clamped))
    err = float(np.max(np.abs(pts[idx] - eval_f(mp, z[idx]))))
    scale = diameter(pts)
    _require(err <= 1e-8 * scale, f"trace point off by {err:.3g} (diameter {scale:.3g})")


def _check_render(job, path):
    mp, exp = job["map"], job["expect"]
    with open(path, encoding="utf-8") as fh:
        root = ET.fromstring(fh.read())
    ns = "{http://www.w3.org/2000/svg}"
    _require(root.tag == ns + "svg", f"root element is {root.tag}, not svg")
    lines = root.findall(ns + "polyline")
    _require(lines, "no curves drawn")
    for line in lines:
        vals = line.get("points").replace(",", " ").split()
        _require(len(vals) >= 4 and all(math.isfinite(float(v)) for v in vals),
                 "malformed polyline")
    markers = len(root.findall(ns + "circle"))
    want = _n_roots(mp) if exp["criterion"] else 0
    _require(markers == want, f"{markers} cusp markers, expected {want}")


def _check_valence(job, path):
    mp, exp = job["map"], job["expect"]
    doc = _load_json(path)
    gx, gy = doc["grid"]
    _require(doc["n_probes"] == gx * gy, "probe count does not match the grid")
    _require(sum(doc["counts"].values()) + doc["n_indeterminate"] == doc["n_probes"],
             "counts do not add up to the probes")
    _require(doc["max_valence"] == exp["valence"] and doc["consistent_with_p"] is True,
             f"max_valence {doc['max_valence']} != p = {exp['valence']}")


def _check_oracle(job, path):
    doc = _load_json(path)
    n = job["expect"]["probes"]
    _require(doc["n_probes"] == n and len(doc["probes"]) == n, f"expected {n} probes")
    _require(doc["n_disagree"] == 0, f"{doc['n_disagree']} probes disagree")
    _require(doc["n_agree"] + doc["n_indeterminate_multiplicity"] == n,
             "verdicts do not add up to the probes")


def _check_conjecture(job, path, rc):
    mp, exp = job["map"], job["expect"]
    doc = _load_json(path)
    rows = doc["samples"]
    _require(len(rows) == exp["trials"], f"{len(rows)} samples, expected {exp['trials']}")
    kept = [r for r in rows if r["kept"]]
    _require(doc["n_kept"] == len(kept), "n_kept does not match the samples")
    _require(rc == (0 if kept else 3), f"exit code {rc} with {len(kept)} kept trials")
    for row, want in zip(rows, sweep_coeffs(mp, len(rows))):
        got = _coeffs(row["coeffs"])
        _require(got.size == len(want) and np.allclose(got, want, rtol=1e-14, atol=0),
                 f"trial {row['trial']} coefficients are not the seeded stream")
        _require(row["kept"] == (row["margin"] is not None and row["margin"] > 0.0),
                 f"trial {row['trial']} kept flag disagrees with its margin")
        if row["kept"]:
            _require(row["max_valence"] == exp["valence"] and not row["candidate"],
                     f"trial {row['trial']} max_valence {row['max_valence']} != p")
        else:
            _require(row["max_valence"] is None, f"rejected trial {row['trial']} was scanned")
    # margins are recomputed for the first two trials, and for every trial
    # when the report claims an empty acceptance region
    for row in rows if not kept else rows[:2]:
        want = margin({"p": mp["p"], "m": mp["m"], "coeffs": row["coeffs"]})
        got = row["margin"]
        _require(got is not None and abs(got - want) <= 1e-8 * max(1.0, abs(want)),
                 f"trial {row['trial']} margin {got} != {want:.12g}")
    _require(doc["n_candidates"] == 0, "counterexample candidates flagged")


_CHECKS = {"verify": _check_verify, "trace": _check_trace, "render": _check_render,
           "valence": _check_valence, "oracle": _check_oracle}


def check_job(job: dict, rc: int) -> str | None:
    """None if the job's exit code and output are right, else the reason.

    Paths are relative to the current directory (the run directory).
    """
    try:
        if job["cmd"] == "conjecture":
            _check_conjecture(job, job["out"], rc)
            return None
        if rc != job["expect"]["rc"]:
            return f"exit code {rc}, expected {job['expect']['rc']}"
        _CHECKS[job["cmd"]](job, job["out"])
    except CheckError as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
