#!/usr/bin/env python3
"""Run the cusp-count criterion on every built-in preset and print what it
found: phase-level crossings, boundary hypotheses, monotonicity margin.

Usage:
    python3 checks_on_presets.py
"""

import math

from hvl import check_criterion, detect_cusps, presets


def describe(name, spec):
    report = check_criterion(spec)
    n_exp = 2 * spec.p + spec.m - 1
    print(f"--- {name} (p={spec.p}, m={spec.m}, expect {n_exp} cusps) ---")
    print(f"  hypotheses hold       : {report.hypotheses_hold}")
    if report.min_modulus_boundary is not None:
        print(f"  min |H| on boundary   : {report.min_modulus_boundary:.6f}")
        print(f"  winding of H          : {report.winding_boundary}")
    if report.monotonicity_margin is not None:
        print(f"  monotonicity margin   : {report.monotonicity_margin:.6g}")
    print(f"  crossings found       : {report.total_roots}")
    print(f"  criterion satisfied   : {report.criterion_satisfied}")
    if report.failure_reason:
        print(f"  reason                : {report.failure_reason}")
    if report.criterion_satisfied:
        cusps = detect_cusps(spec, report)
        angles = ", ".join(f"{a / math.pi:+.3f} pi" for a in sorted(cusps.angles))
        print(f"  cusp angles           : {angles}")
        print(f"  max |phi'| at cusps   : {max(cusps.speeds):.3e}")
    print()


def main():
    for name in ("example1", "example2", "star", "octagon"):
        describe(name, getattr(presets, name)())
    print("note: the flat-sided presets fail the criterion on purpose; their")
    print("h' blows up on |z| = 1, which the hypotheses exclude.")


if __name__ == "__main__":
    main()
