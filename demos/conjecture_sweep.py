#!/usr/bin/env python3
"""Stress the univalence question for p = 1, m = 2 with random polynomials.

Random h = z + a_2 z^2 + ... + a_d z^d are drawn with a seeded generator;
those whose monotonicity margin is positive get a winding-number valence
scan.  The conjecture under test: a positive margin forces max valence 1.
Any sample with a higher count would be flagged as a counterexample
candidate (never asserted: the scan is numerical, not a proof).

Usage:
    python3 conjecture_sweep.py [trials] [seed]
"""

import sys

from hvl.cli import SweepConfig, run_sweep


def main():
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 42
    config = SweepConfig(trials=trials, seed=seed)
    print(f"sweep: {trials} trials, p={config.p}, m={config.m}, "
          f"degree <= {config.max_degree}, scale {config.coefficient_scale}, "
          f"seed {seed}")
    report = run_sweep(config)
    kept = [row for row in report["samples"] if row["kept"]]
    print(f"kept {len(kept)} samples with positive margin")
    if kept:
        margins = sorted(row["margin"] for row in kept)
        print(f"  margin range: {margins[0]:.4f} .. {margins[-1]:.4f}")
        worst = max(row["max_valence"] for row in kept)
        print(f"  max valence over kept samples: {worst}")
    print(f"counterexample candidates: {report['n_candidates']}")
    if report["n_candidates"]:
        for t in report["candidates"]:
            row = report["samples"][t]
            print(f"  trial {t}: margin {row['margin']:.4f}, "
                  f"max_valence {row['max_valence']}  <- review with a finer scan")
    else:
        print("no sample with positive margin exceeded valence 1")


if __name__ == "__main__":
    main()
