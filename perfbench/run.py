"""hvl benchmark: run one workload and print its metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload poly-certify --seed 1 --seconds 40 --trace 0

The job list and spec files are generated from ``--seed`` into
``perfbench/out/<workload>-s<seed>-t<trace>/``.  A fresh interpreter runs
the jobs in a closed loop through ``hvl.cli.main`` (see worker.py); every
output is checked against answers computed without hvl (see checks.py).
Set-up time is measured separately, as the median of several fresh
interpreters importing ``hvl.cli``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics, from a second worker with the tracer installed, and the tracing
overhead against an untraced worker run for the same time.  A run record
(machine, versions, commit, seed, threads, src/hvl line count and every
metric) is written next to the outputs as ``record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 9
# HVL_THREADS is the only source of threads: OpenBLAS's own pool would spin
# on the second CPU and add noise without speeding anything up.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # every run must end well within 180 s


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def measure_setup(env) -> list[float]:
    """Seconds from spawning an interpreter to ``hvl.cli`` imported, per sample."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import hvl.cli; print('ready', flush=True)")
    cmd = [sys.executable, "-c", code]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe did not import hvl.cli")
        out.append(t1 - t0)
    return out


def run_worker(run_dir: Path, env, seconds: float, trace: int, tag: str, deadline: float) -> dict:
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--plan", str(run_dir / "plan.json"), "--result", str(result),
           "--seconds", str(seconds), "--trace", str(trace)]
    with open(run_dir / f"{tag}.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; see {run_dir / (tag + '.log')}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(plan: dict, res: dict) -> tuple[dict, dict]:
    """Metrics of one untraced worker run, plus facts for the record."""
    jobs, passes = plan["jobs"], res["passes"]
    n_jobs = len(jobs)

    def per_job(key):
        # each job's median over the passes: on a shared machine a burst of
        # CPU steal spoils one repetition of a job, not the metric
        return [statistics.median(p[key][i] for p in passes) for i in range(n_jobs)]

    job_s = per_job("job_s")
    ranked = sorted(job_s)
    rank = n_jobs - 10  # nearest-rank percentile with 10 jobs beyond it
    trials = sum(j["expect"].get("trials", 0) for j in jobs) or n_jobs
    metrics = {
        "wall_s": sum(job_s),
        "job_p50_s": statistics.median(ranked),
        "job_tail_s": ranked[rank - 1],
        "trials_per_s": trials / sum(job_s),
        "cpu_s": sum(per_job("job_cpu_s")),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    facts = {
        "jobs": n_jobs,
        "passes": len(passes),
        "trials_per_pass": trials,
        "job_tail_percentile": round(100.0 * rank / n_jobs, 2),
        "pass_wall_s": [sum(p["job_s"]) for p in passes],
        "indeterminate_ratio": res["indeterminate"] / res["probes"] if res["probes"] else None,
        "indeterminate_probes": res["indeterminate"],
        "probes": res["probes"],
    }
    return metrics, facts


def _src_facts() -> dict:
    files = sorted((ROOT / "src" / "hvl").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None  # the benchmark may run from an export that is not a repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_hvl_lines": lines}


def _record_facts(plan: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": plan["seed"],
        "workload": plan["workload"],
        "HVL_THREADS": plan["threads"],
        **PINNED_ENV,
        **_src_facts(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one hvl benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "hvl" / "__init__.py").is_file():
        return _fail(f"no hvl sources under {ROOT / 'src'}; run from a checkout of the repository")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    plan = make_plan(args.workload, args.seed)
    run_dir = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for name, doc in plan["specs"].items():
        (run_dir / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    (run_dir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    env = dict(os.environ, HVL_THREADS=str(plan["threads"]), **PINNED_ENV)

    record = {"facts": _record_facts(plan)}
    try:
        if args.trace:
            plain = run_worker(run_dir, env, args.seconds / 2, 0, "untraced", deadline)
            res = run_worker(run_dir, env, args.seconds / 2, 1, "traced", deadline)
            base, _ = end_to_end(plan, plain)
            traced, facts = end_to_end(plan, res)
            values = dict(res["layers"])
            values["bench.trace_overhead_s"] = traced["wall_s"] - base["wall_s"]
            results = [plain, res]
            if res["wrappers_installed"] == 0 or plain["wrappers_installed"] != 0:
                raise RuntimeError("tracer wrappers were not installed only in the traced run")
        else:
            setup = measure_setup(env)
            res = run_worker(run_dir, env, args.seconds, 0, "untraced", deadline)
            values, facts = end_to_end(plan, res)
            values["setup_s"] = statistics.median(setup)
            facts["setup_samples_s"] = setup
            results = [res]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        return _fail(str(exc))

    failures = [f for r in results for p in r["passes"] for f in p["failures"]]
    attempted = sum(len(p["job_s"]) for r in results for p in r["passes"])
    record["facts"].update(facts)
    record["facts"]["fail_ratio"] = len(failures) / attempted
    record["metrics"] = values
    record["failures"] = failures[:50]
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    f = record["facts"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {f['jobs']} jobs x "
          f"{f['passes']} passes, tail at p{f['job_tail_percentile']}, "
          f"fail_ratio={f['fail_ratio']:.4g}, indeterminate_ratio={f['indeterminate_ratio']}, "
          f"wall {time.perf_counter() - started:.1f} s")
    for fail in failures[:5]:
        print(f"  failed {fail['job']} {' '.join(fail['argv'])}: {fail['reason']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
