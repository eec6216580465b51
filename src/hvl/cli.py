"""Command-line front end.

Six subcommands over one input convention (a JSON spec file or
``preset:<name>``):

* ``verify``     run the cusp-count criterion, emit a JSON report
* ``trace``      sample an image circle to CSV
* ``render``     draw the image domain to SVG
* ``valence``    winding-number sweep, emit a JSON report
* ``oracle``     cross-check windings against Newton preimage counts
* ``conjecture`` seeded random sweep hunting for maps that beat their p

Exit codes: 0 success / affirmative verdict; 1 input, parse, or validation
problems; 2 a well-posed check answered "no" (criterion fails, valence
exceeds p); 3 numerical trouble (pole on the radial path, scan quality, oracle
disagreement, empty sweep); 4 counterexample candidates found by
``conjecture``.

Spec files carry ``schema_version`` "1" and one of three kinds::

    {"kind": "poly", "p": 2, "m": 4, "coeffs": [[1,0], [0.1,0.2]]}
    {"kind": "rational_hprime", "p": 2, "m": 2,
     "numer": [[0,0],[2,0]], "denom": [[1,0],[0,0],[0,0],[0,0],[0,0],[1,0]]}
    {"kind": "preset", "name": "example2", "params": {"c": [0, 1]}}

Complex numbers are [re, im] pairs; ``coeffs`` start at the z**p term,
which must be [1, 0].  Unknown fields are rejected, not ignored.  Every JSON
report is written by ``_emit_report``, which adds ``schema_version`` and
``command`` to its body.  Bodies and spec documents go once through one rule,
``fncore._plain``: non-finite floats become null, complex numbers [re, im]
pairs, enums their values and dataclasses objects of their fields.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .criterion import check_criterion, monotonicity_margins
from .fncore import (
    DomainError,
    HarmonicMapSpec,
    HvlError,
    MAX_ORDER,
    ParameterError,
    PoleError,
    PolySeries,
    RationalDeriv,
    ResolutionError,
    SpecFileError,
    _plain,
    require_int,
)
from .geometry import trace_circle
from .presets import PRESETS
from .render import render_scene
from .valence import (CrossCheck, WindingResult, check_scan_grid, cross_check_many,
                      probe_box, valence_scan, winding_numbers)

SCHEMA_VERSION = "1"
MAX_TRIALS = 10 ** 5  # the most trials one sweep may draw
MAX_ORACLE_PROBES = 10 ** 4  # the most probes one oracle run may place


# ---------------------------------------------------------------------------
# Spec file handling

_FIELDS = {
    "poly": {"schema_version", "kind", "p", "m", "coeffs"},
    "rational_hprime": {"schema_version", "kind", "p", "m", "numer", "denom"},
    "preset": {"schema_version", "kind", "name", "params"},
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_pair(v) -> bool:
    """An [re, im] pair of JSON numbers."""
    return (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v))


def _as_int(doc: dict, key: str) -> int:
    if key not in doc:
        raise SpecFileError(f"missing field '{key}'")
    v = doc[key]
    if not _is_int(v):
        raise SpecFileError(f"field '{key}' must be an integer, got {v!r}")
    return v


def _as_complex_list(doc: dict, key: str) -> tuple[complex, ...]:
    if key not in doc:
        raise SpecFileError(f"missing field '{key}'")
    v = doc[key]
    if not isinstance(v, list) or not v:
        raise SpecFileError(f"field '{key}' must be a nonempty list of [re, im] pairs")
    out = []
    for i, item in enumerate(v):
        if not _is_pair(item):
            raise SpecFileError(f"field '{key}' entry {i} is not a [re, im] pair: {item!r}")
        try:
            out.append(complex(item[0], item[1]))
        except OverflowError:
            raise SpecFileError(f"field '{key}' entry {i} is too large for a float") from None
    return tuple(out)


def parse_spec_doc(doc) -> HarmonicMapSpec:
    """Build a map from a parsed spec-file document (strict about fields)."""
    if not isinstance(doc, dict):
        raise SpecFileError("spec file must hold a JSON object")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise SpecFileError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise SpecFileError(
            f"field 'kind' must be one of {sorted(_FIELDS)}, got {kind!r}"
        )
    extra = set(doc) - _FIELDS[kind]
    if extra:
        raise SpecFileError(
            f"unexpected field '{sorted(extra)[0]}' for kind '{kind}'"
        )
    if kind == "preset":
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise SpecFileError("field 'params' must be an object")
        return _build_preset(doc.get("name"), params, text=False)
    p, m = _as_int(doc, "p"), _as_int(doc, "m")
    if kind == "poly":
        h = PolySeries(p, _as_complex_list(doc, "coeffs"))
    else:
        h = RationalDeriv(p, _as_complex_list(doc, "numer"), _as_complex_list(doc, "denom"))
    return HarmonicMapSpec(h, m)


def _build_preset(name, params: dict, text: bool) -> HarmonicMapSpec:
    """The preset ``name`` with ``params`` overriding its defaults.

    Values are strings from a ``preset:`` argument when ``text`` is set
    (c as Python complex literal, the rest as ASCII integers [+-]?[0-9]+),
    else JSON values from a spec file (c as an [re, im] pair, the rest as
    integers).
    """
    if not isinstance(name, str) or name not in PRESETS:
        raise SpecFileError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    factory, accepted = PRESETS[name]
    kwargs = {}
    for key, val in params.items():
        if key not in accepted:
            raise SpecFileError(f"preset '{name}' does not take parameter '{key}'")
        try:
            if text:
                digits = val[1:] if val[:1] in ("+", "-") else val
                if key != "c" and not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                kwargs[key] = complex(val) if key == "c" else int(val)
            elif key == "c" and _is_pair(val):
                kwargs[key] = complex(*val)
            elif key != "c" and _is_int(val):
                kwargs[key] = val
            else:
                raise ValueError
        except (ValueError, OverflowError):
            raise SpecFileError(
                f"preset '{name}' parameter '{key}' is malformed: {val!r}") from None
    return factory(**kwargs)


def spec_to_doc(map_spec: HarmonicMapSpec) -> dict:
    """Serialize a map back to the spec-file document form (round-trips)."""
    h = map_spec.h
    doc = {"schema_version": SCHEMA_VERSION, "p": h.p, "m": map_spec.m}
    if isinstance(h, PolySeries):
        return {**doc, "kind": "poly", "coeffs": _plain(h.coeffs)}
    return {**doc, "kind": "rational_hprime", "numer": _plain(h.numer), "denom": _plain(h.denom)}


def load_input(arg: str) -> HarmonicMapSpec:
    """Resolve --input: either ``preset:<name>[,k=v...]`` or a JSON path."""
    if arg.startswith("preset:"):
        name, *parts = arg[len("preset:"):].split(",")
        bad = [part for part in parts if "=" not in part]
        if bad:
            raise SpecFileError(f"preset parameter {bad[0]!r} is not key=value")
        keys = Counter(part.split("=", 1)[0] for part in parts)
        twice = [key for key, n in keys.items() if n > 1]
        if twice:
            raise SpecFileError(f"preset parameter '{twice[0]}' is given more than once")
        return _build_preset(name, dict(part.split("=", 1) for part in parts), text=True)
    try:
        with open(arg, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"spec file is not valid JSON: {exc}") from None
    except ValueError as exc:  # not UTF-8, or an integer literal of over 4300 digits
        raise SpecFileError(f"cannot parse spec file: {exc}") from None
    return parse_spec_doc(doc)


# ---------------------------------------------------------------------------
# Shared plumbing

def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(command: str, body: dict, path: str | None) -> None:
    """Write the JSON report ``body`` (already ``_plain``) with its envelope."""
    doc = {**body, "schema_version": SCHEMA_VERSION, "command": command}
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", path)


def _grid_pair(text: str) -> tuple[int, int]:
    try:
        gx, gy = text.lower().split("x")
        return int(gx), int(gy)
    except ValueError:
        raise ParameterError(f"--grid expects WxH, got {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands

def cmd_verify(args) -> int:
    map_spec = load_input(args.input)
    report = check_criterion(map_spec, args.samples)
    _emit_report("verify", report.to_dict(), args.report)
    return 0 if report.criterion_satisfied else 2


def cmd_trace(args) -> int:
    map_spec = load_input(args.input)
    trace = trace_circle(map_spec, args.radius, args.points)
    if not np.isfinite(trace.points).any():
        raise ResolutionError(f"the image of |z| = {args.radius} is not finite at any sample")
    _emit(trace.to_csv(), args.out)
    return 0


def cmd_render(args) -> int:
    map_spec = load_input(args.input)
    criterion = None
    try:
        criterion = check_criterion(map_spec)
    except HvlError:
        pass  # draw without cusp markers
    svg = render_scene(map_spec, criterion, args.samples)
    _emit(svg, args.out)
    return 0


def cmd_valence(args) -> int:
    map_spec = load_input(args.input)
    report = valence_scan(
        map_spec, r=args.radius, grid=_grid_pair(args.grid),
        n_samples=args.samples,
    )
    _emit_report("valence", report.to_dict(), args.report)
    return 0 if report.consistent_with_p else 2


def cmd_oracle(args) -> int:
    map_spec = load_input(args.input)
    n_probes = require_int(args.samples, 1, MAX_ORACLE_PROBES, "oracle probes (--samples)")
    seed = require_int(args.seed, 0, math.inf, "--seed")
    trace = trace_circle(map_spec, args.radius, 4096)
    x_lo, x_hi, y_lo, y_hi = probe_box(trace.points)
    if not math.isfinite(float(x_hi) - float(x_lo) + float(y_hi) - float(y_lo)):
        raise ResolutionError(f"the image of |z| = {args.radius} has no finite probe box")
    rng = np.random.default_rng(seed)
    windings = []
    attempts = 0
    while len(windings) < n_probes and attempts < 50 * n_probes:
        # no more attempts than probes still needed, so every draw is used;
        # one row (x, y) per attempt: the stream of one draw of x, then of y
        k = min(n_probes - len(windings), 50 * n_probes - attempts)
        draws = rng.uniform((x_lo, y_lo), (x_hi, y_hi), size=(k, 2))
        windings += [result for result in winding_numbers(trace, draws.view(complex)[:, 0])
                     if isinstance(result, WindingResult)]
        attempts += k
    if len(windings) < n_probes:
        raise ResolutionError(
            f"could not place {n_probes} determinate probes "
            f"(managed {len(windings)} in {attempts} attempts)"
        )
    rows = [{
        "w": wres.w,
        "verdict": verdict,
        "winding": details["winding"],
        "preimages_inside": details["preimages_inside"],
        "min_jacobian": details["min_jacobian"],
    } for wres, (verdict, details) in zip(
        windings, cross_check_many(map_spec, windings, r=args.radius))]
    tally = Counter(row["verdict"] for row in rows)
    n_disagree = tally[CrossCheck.DISAGREE]
    body = {
        "radius": args.radius,
        "seed": args.seed,
        "n_probes": len(rows),
        "n_skipped": attempts - len(windings),
        "n_agree": tally[CrossCheck.AGREE],
        "n_disagree": n_disagree,
        "n_indeterminate_multiplicity": tally[CrossCheck.INDETERMINATE_MULTIPLICITY],
        "probes": rows,
    }
    _emit_report("oracle", _plain(body), args.report)
    if n_disagree:
        print(f"error: winding and preimage counts disagree at "
              f"{n_disagree} probe(s)", file=sys.stderr)
        return 3
    return 0


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of a random-coefficient conjecture sweep."""

    trials: int = 50
    p: int = 1
    m: int = 2
    max_degree: int = 6
    coefficient_scale: float = 0.2
    seed: int = 42
    margin_requirement: float = 0.0
    grid: tuple[int, int] = (32, 32)

    def __post_init__(self):
        # kept as ints and floats, so that a numpy scalar draws and reports as a Python one
        for name, lo, hi in (("trials", 1, MAX_TRIALS), ("p", 1, MAX_ORDER), ("m", 2, MAX_ORDER),
                             ("max_degree", self.p, MAX_ORDER), ("seed", 0, math.inf)):
            object.__setattr__(self, name, require_int(getattr(self, name), lo, hi, name))
        for name in ("coefficient_scale", "margin_requirement"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
                raise ParameterError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "grid", check_scan_grid(self.grid))


_SWEEP_BLOCK = 16  # trials whose margins share one unit circle
_SWEEP_RADIUS = 0.999  # the circle |z| = r each kept trial's valence scan traces


def _sweep_trial(config: SweepConfig, trial: int, map_spec: HarmonicMapSpec,
                 margin: float | PoleError) -> dict:
    """The row of one sweep trial from its margin, with a valence scan when
    kept."""
    margin = None if isinstance(margin, PoleError) else margin
    kept = margin is not None and margin > config.margin_requirement
    row = {
        "trial": trial,
        "coeffs": map_spec.h.coeffs,
        "margin": margin,
        "kept": kept,
        "max_valence": None,
        "consistent_with_p": None,
        "candidate": False,
    }
    if kept:
        report = valence_scan(map_spec, r=_SWEEP_RADIUS, grid=config.grid, n_samples=2048)
        row["max_valence"] = report.max_valence
        row["consistent_with_p"] = report.consistent_with_p
        row["candidate"] = report.max_valence > config.p
    return row


def _sweep_block(config: SweepConfig, rng: np.random.Generator, start: int) -> list[dict]:
    """The rows of the block of trials from ``start``, drawn in trial order
    from ``rng``, their margins taken on one unit circle; the block's specs
    are freed on return."""
    n_free = config.max_degree - config.p  # coefficients above z**p
    map_specs = []
    for _ in range(min(_SWEEP_BLOCK, config.trials - start)):
        draw = rng.standard_normal(2 * n_free) if n_free else np.zeros(0)
        coeffs = (1 + 0j,) + tuple(
            config.coefficient_scale * complex(draw[2 * i], draw[2 * i + 1])
            / (math.sqrt(2.0) * (config.p + 1 + i))
            for i in range(n_free))
        map_specs.append(HarmonicMapSpec(PolySeries(config.p, coeffs), config.m))
    margins = monotonicity_margins(map_specs)
    return [_sweep_trial(config, start + i, map_spec, margin)
            for i, (map_spec, margin) in enumerate(zip(map_specs, margins))]


def run_sweep(config: SweepConfig) -> dict:
    """Draw random h, keep those passing the margin test, scan their valence.

    One fixed-size block of normal deviates is drawn per trial whether or
    not the sample is kept, so the sample stream for a given seed never
    shifts when the acceptance region changes.  The coefficient a_n is
    scaled by coefficient_scale / n: the margin condition acts on h', whose
    z**(n-1) coefficient is n a_n, so this puts every derivative coefficient
    on the coefficient_scale level regardless of degree.

    The trials run in fixed blocks of ``_SWEEP_BLOCK``, each drawn in trial
    order just before it runs, so at most one block of specs is alive at a
    time whatever the trial count.  Returns the body of the ``conjecture``
    report, without its envelope.
    """
    rng = np.random.default_rng(config.seed)
    samples: list[dict] = []
    for start in range(0, config.trials, _SWEEP_BLOCK):
        samples += _sweep_block(config, rng, start)
    n_kept = sum(row["kept"] for row in samples)
    candidates = [row["trial"] for row in samples if row["candidate"]]
    return {
        "config": {**_plain(config), "radius": _SWEEP_RADIUS},
        "n_kept": n_kept,
        "n_candidates": len(candidates),
        "candidates": candidates,
        "samples": samples,
    }


def cmd_conjecture(args) -> int:
    config = SweepConfig(
        trials=args.trials, p=args.p, m=args.m, max_degree=args.max_degree,
        coefficient_scale=args.scale, seed=args.seed,
        margin_requirement=args.margin_requirement,
        grid=_grid_pair(args.grid),
    )
    report = run_sweep(config)
    _emit_report("conjecture", _plain(report), args.report)
    if report["n_kept"] == 0:
        print("error: acceptance region empty; lower coefficient_scale",
              file=sys.stderr)
        return 3
    if report["n_candidates"]:
        print(f"warning: {report['n_candidates']} counterexample candidate(s) "
              "flagged for high-precision review (not asserted)", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch

class _Parser(argparse.ArgumentParser):
    # usage errors are input errors; keep them on exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_input(sp):
    sp.add_argument("--input", "-i", required=True,
                    help="spec file path, or preset:<name>[,k=v...]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hvl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("verify", help="run the cusp-count criterion")
    _add_input(sp)
    sp.add_argument("--report", "--out", dest="report", default=None)
    sp.add_argument("--samples", type=int, default=8192,
                    help="phase grid size (power of two, 1024 to 2**20)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("trace", help="sample an image circle to CSV")
    _add_input(sp)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--points", "--samples", dest="points", type=int, default=4096,
                    help="trace samples (256 to 2**20)")
    sp.add_argument("--out", "--report", dest="out", default=None)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("render", help="draw the image domain to SVG")
    _add_input(sp)
    sp.add_argument("--samples", type=int, default=2048,
                    help="samples per curve (512 to 2**20)")
    sp.add_argument("--out", "--report", dest="out", default=None)
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("valence", help="winding-number sweep over a probe grid")
    _add_input(sp)
    sp.add_argument("--radius", type=float, default=0.999)
    sp.add_argument("--grid", default="64x64", help="probe grid, WxH")
    sp.add_argument("--samples", type=int, default=4096,
                    help="trace samples (256 to 2**20)")
    sp.add_argument("--report", "--out", dest="report", default=None)
    sp.set_defaults(fn=cmd_valence)

    sp = sub.add_parser("oracle",
                        help="cross-check windings against Newton preimages")
    _add_input(sp)
    sp.add_argument("--radius", type=float, default=0.999)
    sp.add_argument("--samples", type=int, default=20,
                    help="number of probes (1 to 10000)")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--report", "--out", dest="report", default=None)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("conjecture", help="seeded random sweep of the margin class")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--max-degree", dest="max_degree", type=int, default=6)
    sp.add_argument("--scale", type=float, default=0.2,
                    help="coefficient scale of the random stream")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--margin-requirement", dest="margin_requirement",
                    type=float, default=0.0)
    sp.add_argument("--grid", default="32x32", help="per-sample probe grid, WxH")
    sp.add_argument("--report", "--out", dest="report", default=None)
    sp.set_defaults(fn=cmd_conjecture)
    return parser


# Built by the first main call and reused by later calls in the same
# process; only a program that calls main repeatedly gains from it.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecFileError, ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HvlError as exc:
        # quadrature, unwrap, scan-quality, resolution, probe, pole trouble
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
