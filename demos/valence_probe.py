#!/usr/bin/env python3
"""Count how many times each preset covers the plane.

Two independent routes are compared at a few probe points: the winding
number of the image of |z| = 0.999 (argument principle) and the number of
Newton preimages strictly inside that circle.  A full probe-grid scan then
reports the maximum winding seen anywhere.  A probe whose winding cannot be
trusted (too close to the curve, or the trace too coarse there) is reported
as skipped, as the ``oracle`` subcommand does.

Usage:
    python3 valence_probe.py
"""

import numpy as np

from hvl import (
    IndeterminateProbeError,
    ResolutionError,
    cross_check,
    presets,
    trace_circle,
    valence_scan,
)


def main():
    rng = np.random.default_rng(2024)
    for name in ("example1", "example2", "star", "octagon"):
        spec = getattr(presets, name)()
        print(f"--- {name} (p={spec.p}) ---")
        trace = trace_circle(spec, 0.999, 4096)
        report = valence_scan(spec, r=0.999, grid=(64, 64), trace=trace)
        print(f"  max winding over 64x64 probes : {report.max_valence}")
        print(f"  attained at {report.n_attained} probes, "
              f"{report.n_indeterminate} indeterminate")
        print(f"  consistent with p             : {report.consistent_with_p}")
        # spot-check three probes against the Newton oracle
        exemplars = list(report.attained_at[:1])
        lo, hi = trace.points.real.min(), trace.points.real.max()
        lo2, hi2 = trace.points.imag.min(), trace.points.imag.max()
        while len(exemplars) < 3:
            w = complex(rng.uniform(lo, hi), rng.uniform(lo2, hi2))
            if np.min(np.abs(trace.points - w)) > 0.01:
                exemplars.append(w)
        for w in exemplars:
            try:
                verdict, details = cross_check(spec, w, r=0.999, trace=trace)
            except (IndeterminateProbeError, ResolutionError) as exc:
                print(f"  w = {w:+.3f}: skipped, indeterminate ({exc})")
                continue
            print(f"  w = {w:+.3f}: winding {details['winding']}, "
                  f"preimages {details['preimages_inside']} -> {verdict.value}")
        print()


if __name__ == "__main__":
    main()
