"""Seeded job lists for the three benchmark workloads.

A job is one ``hvl.cli.main(argv)`` call plus what the benchmark needs to
check its answer: the map it acts on (described here, independently of
``hvl.presets``), the expected exit code and the expected verdicts.  Paths
in ``argv`` are relative to the run directory, where the worker runs.

Parameters are drawn in strata: every seed gives the same mix of commands,
maps and sizes, and the seed moves the coefficients, angles and exact sizes
inside narrow bands.  That keeps the cost of a job list nearly independent
of the seed, so runs with different seeds can be compared.
"""

from __future__ import annotations

import cmath
import math
import random

from checks import sweep_kept

WORKLOADS = ("poly-certify", "rational-certify", "sweep")

# Every workload runs single-threaded.  The sweep would use 2 (= nproc), but
# on the shared 2-vCPU reference machine a 2-thread pass took either about
# 8 s or about 14 s (= its CPU time, one vCPU in effect) from run to run: a
# spread of 54 percent of the median that no bound can hold.
HVL_THREADS = 1


def _pairs(values):
    return [[float(c.real), float(c.imag)] for c in values]


def _complex_arg(c: complex) -> str:
    """Format c so that ``complex(text)`` in the CLI gives back this value."""
    return f"{c.real:.12f}{c.imag:+.12f}j"


def _poly_map(p: int, m: int, coeffs) -> dict:
    return {"kind": "poly", "p": p, "m": m, "coeffs": _pairs(coeffs)}


def _rational_map(p: int, m: int, numer, denom) -> dict:
    return {"kind": "rational", "p": p, "m": m,
            "numer": _pairs(numer), "denom": _pairs(denom)}


def _flat_family(p: int, m: int, c: complex = 1 + 0j) -> dict:
    """h'(z) = p z**(p-1) / (1 + c z**n), n = 2p+m-1; poles at |z| = |c|**(-1/n)."""
    n = 2 * p + m - 1
    numer = [0j] * (p - 1) + [complex(p)]
    denom = [1 + 0j] + [0j] * (n - 1) + [c]
    return _rational_map(p, m, numer, denom)


class _Builder:
    """Accumulates jobs and the spec files they read."""

    def __init__(self):
        self.jobs: list[dict] = []
        self.specs: dict[str, dict] = {}

    def spec_file(self, doc: dict) -> str:
        name = f"spec{len(self.specs):02d}.json"
        self.specs[name] = doc
        return name

    def add(self, cmd: str, source: str, mp: dict, extra=(), *, rc=0,
            criterion=None, exact_roots=False, valence=None, probes=None,
            points=None, radius=None, trials=None):
        jid = f"j{len(self.jobs):02d}"
        ext = {"trace": "csv", "render": "svg"}.get(cmd, "json")
        out = f"{jid}.{ext}"
        flag = "--out" if ext != "json" else "--report"
        argv = [cmd] + (["--input", source] if source else []) + list(extra) + [flag, out]
        expect = {"rc": rc}
        for key, val in (("criterion", criterion), ("exact_roots", exact_roots or None),
                         ("valence", valence), ("probes", probes), ("points", points),
                         ("radius", radius), ("trials", trials)):
            if val is not None:
                expect[key] = val
        self.jobs.append({"id": jid, "cmd": cmd, "argv": argv, "map": mp,
                          "expect": expect, "out": out})


def _pm(rng: random.Random, n: int, p_min: int = 1):
    """A seeded (p, m) with 2p+m-1 = n: the cusp count, and so the cost, is fixed."""
    return rng.choice([(p, n + 1 - 2 * p) for p in range(p_min, (n - 1) // 2 + 1)])


def _large_p(rng: random.Random, level: int):
    return round(level * rng.uniform(0.95, 1.05)), rng.choice((2, 3, 4))


def _example1(p: int, m: int):
    return f"preset:example1,p={p},m={m}", _poly_map(p, m, [1 + 0j])


def _example2(rng: random.Random, p: int, m: int):
    """example2 with |c| a seeded fraction of its admissible bound."""
    bound = p - 2.0 * p / (2 * p + m + 1)
    c = rng.uniform(0.2, 0.8) * bound * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    text = _complex_arg(c)
    c = complex(text)
    return f"preset:example2,p={p},m={m},c={text}", _poly_map(p, m, [1 + 0j, c / (p + 1)])


def _random_poly(rng: random.Random, b: _Builder, n: int, d: int = 3):
    """h' = p z**(p-1) (1 + sum b_j z**j), j <= d, with sum j |b_j| = 0.25.

    That bound keeps H = h'/z**(p-1) zero-free on the closed disk and the
    boundary phase strictly increasing, so the criterion holds and the map
    is p-valent: the expected answers are known without running hvl.
    """
    p, m = _pm(rng, n)
    weights = [rng.uniform(0.2, 1.0) for _ in range(d)]
    scale = 0.25 / sum(j * w for j, w in enumerate(weights, start=1))
    coeffs = [1 + 0j]
    for j, w in enumerate(weights, start=1):
        bj = scale * w * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        coeffs.append(bj * p / (p + j))
    mp = _poly_map(p, m, coeffs)
    doc = {"schema_version": "1", "kind": "poly", "p": p, "m": m, "coeffs": mp["coeffs"]}
    return b.spec_file(doc), mp


def _random_rational(rng: random.Random, b: _Builder, rho_band, n: int = 5):
    """The flat-sided family pushed off the circle: all poles at |z| = rho.

    h' = p z**(p-1) / (1 + c z**n) with |c| = rho**-n < 1 keeps the boundary
    phase strictly increasing, so the criterion holds with n = 2p+m-1 roots.
    """
    p, m = _pm(rng, n)
    rho = rng.uniform(*rho_band)
    c = cmath.exp(1j * rng.uniform(-math.pi, math.pi)) / rho ** n
    mp = _flat_family(p, m, c)
    doc = {"schema_version": "1", "kind": "rational_hprime", "p": p, "m": m,
           "numer": mp["numer"], "denom": mp["denom"]}
    return b.spec_file(doc), mp


def _poly_certify(rng: random.Random, b: _Builder):
    # every small map has 2p+m-1 = 7 cusps, as in the paper's examples
    maps = [_example1(*_pm(rng, 7)), _example1(*_pm(rng, 7)),
            _example2(rng, *_pm(rng, 7, p_min=2)), _example2(rng, *_pm(rng, 7, p_min=2))]
    maps += [_random_poly(rng, b, 7) for _ in range(4)]
    for source, mp in maps:
        exact = source.startswith("preset:example1")
        b.add("verify", source, mp, criterion=True, exact_roots=exact)
        b.add("trace", source, mp, points=4096, radius=1.0)
        b.add("render", source, mp, criterion=True)
    # the scan and Newton layers, on one map of each family
    for i, (source, mp) in enumerate((maps[0], maps[2], maps[4], maps[5])):
        grid = "64x64" if i % 2 == 0 else "32x32"
        b.add("valence", source, mp, ["--grid", grid], valence=mp["p"])
        n = 20 if i % 2 == 0 else 10
        b.add("oracle", source, mp, ["--samples", str(n), "--seed", str(rng.randrange(1 << 30))],
              probes=n)
    # large-p verify sets the criterion-bound tail (about 3 ms per root)
    for i, level in enumerate((50, 100, 150, 250)):
        p, m = _large_p(rng, level)
        source, mp = _example1(p, m) if i % 2 == 0 else _example2(rng, p, m)
        b.add("verify", source, mp, criterion=True, exact_roots=(i % 2 == 0))


def _rational_certify(rng: random.Random, b: _Builder):
    star = ("preset:star", _flat_family(2, 2))
    b.add("verify", *star, rc=2, criterion=False)
    b.add("trace", *star, points=4096, radius=1.0)
    b.add("valence", *star, ["--grid", "64x64"], valence=2)
    b.add("render", *star, ["--samples", "512"], criterion=False)
    b.add("oracle", *star, ["--samples", "1", "--seed", str(rng.randrange(1 << 30))], probes=1)
    octagon = ("preset:octagon", _flat_family(1, 7))
    b.add("verify", *octagon, rc=2, criterion=False)
    b.add("trace", *octagon, points=4096, radius=1.0)
    p, m = _pm(rng, 7)
    flat = (f"preset:star,p={p},m={m}", _flat_family(p, m))
    b.add("verify", *flat, rc=2, criterion=False)
    b.add("valence", *flat, ["--grid", "32x32"], valence=p)
    # two pole-distance regimes for the radial quadrature
    for band in ((1.05, 1.15), (1.3, 1.5)):
        mp = _random_rational(rng, b, band)
        b.add("verify", *mp, criterion=True)
        b.add("trace", *mp, points=4096, radius=1.0)
        b.add("valence", *mp, ["--grid", "32x32"], valence=mp[1]["p"])
        b.add("oracle", *mp, ["--samples", "1", "--seed", str(rng.randrange(1 << 30))], probes=1)
    for band in ((1.05, 1.15), (1.3, 1.5)):
        mp = _random_rational(rng, b, band)
        b.add("verify", *mp, criterion=True)
        b.add("trace", *mp, points=4096, radius=1.0)
    # quick certificates: the criterion on more maps of both kinds
    for band in ((1.05, 1.15), (1.3, 1.5)) * 3:
        b.add("verify", *_random_rational(rng, b, band), criterion=True)
    for n in (3, 5, 7, 9):
        p, m = _pm(rng, n)
        b.add("verify", f"preset:star,p={p},m={m}", _flat_family(p, m), rc=2, criterion=False)


def _sweep_seed(rng: random.Random, mp: dict, trials: int, kept: int) -> int:
    """A seeded sweep seed whose stream keeps exactly ``kept`` trials.

    A kept trial costs a 32x32 scan and a rejected one only the margin test,
    so fixing the kept count (found with the benchmark's own margin code)
    fixes the cost of the job for every benchmark seed, and no job ends
    with an empty acceptance region.
    """
    while True:
        mp["seed"] = rng.randrange(1 << 30)
        if sweep_kept(mp, trials) == kept:
            return mp["seed"]


def _sweep(rng: random.Random, b: _Builder):
    # p=2, m=3 keeps (nearly) every trial; p=1, m=2 with the default degree 6
    # keeps about 5-10 percent.  Degrees are a fixed mix in seeded order.
    keep_most = [4] * 6 + [5] * 7 + [6] * 7
    rng.shuffle(keep_most)
    configs = [(2, 3, d, 2, 2) for d in keep_most] + [(1, 2, 6, 12, 1)] * 12
    for p, m, d, trials, kept in configs:
        mp = {"kind": "sweep", "p": p, "m": m, "max_degree": d, "scale": 0.2}
        seed = _sweep_seed(rng, mp, trials, kept)
        b.add("conjecture", None, mp,
              ["--trials", str(trials), "--p", str(p), "--m", str(m),
               "--max-degree", str(d), "--seed", str(seed)],
              valence=p, trials=trials)


_BUILDERS = {"poly-certify": _poly_certify, "rational-certify": _rational_certify,
             "sweep": _sweep}


def make_plan(workload: str, seed: int) -> dict:
    """The job list and spec files of one workload for one seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choices: {list(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder()
    _BUILDERS[workload](rng, b)
    return {"workload": workload, "seed": seed, "threads": HVL_THREADS,
            "jobs": b.jobs, "specs": b.specs}
