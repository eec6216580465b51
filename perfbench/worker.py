"""One workload run inside a fresh interpreter: import hvl, run the job list.

Run by ``perfbench/run.py``; not meant to be started by hand.  The worker
imports hvl from ``<root>/src``, changes into the run directory, and runs
the job list in passes, one job at a time (a closed loop with one client),
until starting another pass would overrun ``--seconds``.  Each job's output
is checked after the job's timer stops.  With ``--trace 1`` the tracer
wraps hvl's public functions before the first job.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
from checks import check_job


def _import_hvl(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hvl.cli

    here = Path(hvl.cli.__file__).resolve()
    if src not in here.parents:
        raise SystemExit(f"error: imported hvl from {here}, not from {src}")
    return hvl.cli


def run_passes(jobs, seconds, check, cli, tracer=None):
    """Run the job list in passes; returns one record per pass.

    ``cli.main`` is looked up on every call, so wrappers installed on the
    module are the ones called.
    """
    start = time.perf_counter()
    passes = []
    while True:
        rec = {"job_s": [], "job_cpu_s": [], "rc": [], "failures": []}
        pass_start = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = cli.main(list(job["argv"]))
            except SystemExit as exc:  # argparse usage errors exit
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed job, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            rec["job_s"].append(t1 - t0)
            rec["job_cpu_s"].append(c1 - c0)
            rec["rc"].append(rc)
            reason = check(job, rc) if isinstance(rc, int) else f"raised {rc}"
            if reason is not None:
                rec["failures"].append({"job": job["id"], "argv": job["argv"], "reason": reason})
        rec["pass_s"] = time.perf_counter() - pass_start
        passes.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["pass_s"] for p in passes) > seconds:
            return passes


def _indeterminate(jobs):
    """Indeterminate scan probes plus skipped oracle probes, over all probes."""
    bad = total = 0
    for job in jobs:
        if job["cmd"] not in ("valence", "oracle"):
            continue
        with open(job["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        if job["cmd"] == "valence":
            bad += doc["n_indeterminate"]
            total += doc["n_probes"]
        else:
            bad += doc["n_skipped"]
            total += doc["n_skipped"] + doc["n_probes"]
    return bad, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = _import_hvl(Path(args.root))
    plan_path = Path(args.plan).resolve()
    result_path = Path(args.result).resolve()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(plan_path.parent)
    tracer = tracing.Tracer().install() if args.trace else None
    out = {"wrappers_installed": tracing.installed_wrappers()}
    passes = run_passes(plan["jobs"], args.seconds, check_job, cli, tracer)
    out["passes"] = passes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["indeterminate"], out["probes"] = _indeterminate(plan["jobs"])
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer.totals, len(passes),
                                              tracing.cache_entries())
        tracer.write_spans(result_path.with_suffix(".spans.csv"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
