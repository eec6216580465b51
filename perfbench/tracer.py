"""Spans and counters around hvl's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every ``hvl`` module
namespace that binds it (``hvl.valence.eval_f_many`` and
``hvl.geometry.eval_f_many`` are separate bindings of one function), and
two methods on their classes, so calls between modules pass through the
wrappers and nested calls get parent spans.  Spans stay in memory until
``write_spans``.  Self time is a span's duration minus the spans it opened
on the same thread; spans opened on pool threads are roots of their own.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

_perf = time.perf_counter
_cpu = time.process_time


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _points(i, name):
    return lambda a, k, r: {"points": int(np.size(_arg(a, k, i, name)))}


def _eval_f_name(a, k):
    return "fncore.eval_f.series" if _arg(a, k, 0, "map_spec").g_coeffs is not None \
        else "fncore.eval_f.rational"


def _unwrap(a, k, table):
    return {"inserted_points": int(table.t.size) - (int(_arg(a, k, 1, "grid_size", 8192)) + 1)}


def _trace(a, k, trace):
    return {"samples": int(trace.t.size), "clamped": int(np.count_nonzero(trace.clamped))}


def _scan(a, k, report):
    return {"probes": report.n_probes, "indeterminate": report.n_indeterminate}


def _newton(a, k, pre):
    return {"starts": pre.n_converged + pre.n_dropped, "converged": pre.n_converged,
            "dropped": pre.n_dropped}


def _sweep(a, k, report):
    return {"trials": len(report["samples"]), "kept": report["n_kept"]}


# (module, attribute, span name or name function, counters from the call)
FUNCTIONS = (
    ("hvl.fncore", "eval_f_many", _eval_f_name, _points(1, "zs")),
    ("hvl.fncore", "eval_normalized_deriv_many", "fncore.eval_H", _points(1, "zs")),
    ("hvl.fncore", "eval_h_prime_many", "fncore.eval_h_prime", _points(1, "zs")),
    ("hvl.fncore", "eval_h_second_many", "fncore.eval_h_second", _points(1, "zs")),
    ("hvl.criterion", "check_monotonicity_margin", "criterion.margin", None),
    ("hvl.criterion", "unwrap_boundary_phase", "criterion.unwrap", _unwrap),
    ("hvl.criterion", "find_criterion_roots", "criterion.roots",
     lambda a, k, r: {"count": len(r)}),
    ("hvl.criterion", "check_criterion", "criterion.check", None),
    ("hvl.geometry", "trace_circle", "geometry.trace", _trace),
    ("hvl.valence", "valence_scan", "valence.scan", _scan),
    ("hvl.valence", "winding_number", "valence.winding", None),
    ("hvl.valence", "newton_preimages", "valence.newton", _newton),
    ("hvl.valence", "cross_check", "valence.cross_check", None),
    ("hvl.render", "render_scene", "render.scene", None),
    ("hvl.cli", "run_sweep", "cli.sweep", _sweep),
    ("hvl.cli", "main", "cli.main", None),
)

# (module, class, method, span name, counters)
METHODS = (
    ("hvl.criterion", "PhaseTable", "eval_many", "criterion.phase_eval", None),
    ("hvl.geometry", "CurveTrace", "point_at", "geometry.point_at", _points(1, "tq")),
)


class Tracer:
    """Collects spans (job, name, start, end, parent, thread) and counters."""

    def __init__(self):
        self.spans: list[list] = []  # [job, name, t0, t1, parent, thread, child_s]
        self.totals: dict[str, dict[str, float]] = {}
        self.job = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._scans_active = 0
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _add(self, name, counters):
        with self._lock:
            tot = self.totals.setdefault(name, {})
            for key, val in counters.items():
                tot[key] = tot.get(key, 0) + val

    def _wrap(self, fn, name, measure):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            rec = [tracer.job, span_name, 0.0, 0.0, parent[0] if parent else None,
                   threading.get_ident(), 0.0]
            extra = {"calls": 1}
            scan = span_name == "valence.scan"
            if scan:
                with tracer._lock:
                    tracer._scans_active += 1
                cpu0 = _cpu()
            elif span_name == "valence.winding" and tracer._scans_active:
                extra["in_scan"] = 1
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append((idx, rec))
            rec[2] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = _perf()
                stack.pop()
                if parent:
                    parent[1][6] += rec[3] - rec[2]
                if scan:
                    with tracer._lock:
                        tracer._scans_active -= 1
                    extra["cpu_s"] = _cpu() - cpu0
                    extra["worker_s"] = (rec[3] - rec[2]) * int(_arg(args, kwargs, 5, "workers", 1))
            extra["wall_s"] = rec[3] - rec[2]
            extra["self_s"] = extra["wall_s"] - rec[6]
            if measure is not None:
                extra.update(measure(args, kwargs, result))
            tracer._add(span_name, extra)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_tracer__ = True
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced name in every hvl module that binds it."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "hvl" or key.startswith("hvl."))]
        for mod_name, attr, name, measure in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(original, name, measure)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for mod_name, cls_name, attr, name, measure in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, measure))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job,name,start_s,end_s,parent,thread,self_s\n")
            for job, name, t0, t1, parent, tid, child in self.spans:
                fh.write(f"{job},{name},{t0:.9f},{t1:.9f},"
                         f"{'' if parent is None else parent},{tid},{t1 - t0 - child:.9f}\n")


def installed_wrappers() -> int:
    """How many traced names in the loaded hvl modules are wrapped now."""
    count = 0
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "hvl" or key.startswith("hvl.")):
            continue
        for value in list(vars(mod).values()):
            targets = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            count += sum(1 for v in targets if getattr(v, "__perfbench_tracer__", False))
    return count


# metrics that are a span's per-pass total, named <span name>.<counter>
PER_PASS = (
    "fncore.eval_f.series.calls", "fncore.eval_f.series.points", "fncore.eval_f.series.self_s",
    "fncore.eval_f.rational.calls", "fncore.eval_f.rational.points",
    "fncore.eval_f.rational.self_s",
    "fncore.eval_H.points", "fncore.eval_H.self_s",
    "fncore.eval_h_prime.points", "fncore.eval_h_prime.self_s",
    "fncore.eval_h_second.points", "fncore.eval_h_second.self_s",
    "criterion.margin.calls", "criterion.margin.self_s",
    "criterion.unwrap.self_s", "criterion.unwrap.inserted_points",
    "criterion.roots.calls", "criterion.roots.count", "criterion.roots.self_s",
    "criterion.phase_eval.calls",
    "geometry.trace.calls", "geometry.trace.samples", "geometry.trace.clamped",
    "geometry.trace.self_s", "geometry.point_at.calls", "geometry.point_at.points",
    "valence.scan.calls", "valence.scan.probes", "valence.scan.indeterminate",
    "valence.scan.self_s", "valence.scan.cpu_s",
    "valence.winding.calls", "valence.winding.self_s",
    "valence.newton.calls", "valence.newton.self_s", "valence.newton.dropped",
    "valence.cross_check.calls", "render.scene.calls", "render.scene.self_s",
    "cli.main.self_s", "cli.sweep.trials",
)


def layer_metrics(totals: dict, passes: int, cache_entries: int) -> dict:
    """Per-pass layer metrics from the tracer's totals (see BENCHMARK.json)."""
    def get(name, key):
        return float(totals.get(name, {}).get(key, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in PER_PASS:
        name, key = metric.rsplit(".", 1)
        out[metric] = get(name, key) / passes
    f_self, f_pts = ([get(f"fncore.eval_f.{kind}", key) for kind in ("series", "rational")]
                     for key in ("self_s", "points"))
    out["fncore.eval_f.self_s"] = sum(f_self) / passes
    out["fncore.eval_f.us_per_point"] = 1e6 * ratio(sum(f_self), sum(f_pts))
    out["fncore.eval_f.rational.us_per_point"] = 1e6 * ratio(f_self[1], f_pts[1])
    out["fncore.cache_entries"] = float(cache_entries)
    out["criterion.roots.ms_per_root"] = 1e3 * ratio(get("criterion.roots", "self_s"),
                                                     get("criterion.roots", "count"))
    out["valence.scan.indeterminate_ratio"] = ratio(get("valence.scan", "indeterminate"),
                                                    get("valence.scan", "probes"))
    out["valence.scan.scalar_fallbacks"] = get("valence.winding", "in_scan") / passes
    out["valence.scan.parallel_eff"] = ratio(get("valence.scan", "cpu_s"),
                                             get("valence.scan", "worker_s"))
    out["valence.newton.converged_ratio"] = ratio(get("valence.newton", "converged"),
                                                  get("valence.newton", "starts"))
    out["cli.sweep.kept_ratio"] = ratio(get("cli.sweep", "kept"), get("cli.sweep", "trials"))
    out["cli.sweep.ms_per_trial"] = 1e3 * ratio(get("cli.sweep", "wall_s"),
                                                get("cli.sweep", "trials"))
    return out


def cache_entries() -> int:
    """Entries held by hvl's spec-keyed lru caches."""
    import hvl.fncore as fncore

    names = ("_series_tables", "_rational_tables", "denominator_roots", "normalized_deriv_roots")
    return sum(getattr(fncore, n).cache_info().currsize for n in names if hasattr(fncore, n))
