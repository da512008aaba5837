"""Per-layer tracing from outside the program.

``Tracer`` wraps every public function of every ``lbverify`` module and
replaces the function under each name that binds it, including the names
other modules bound with ``from ... import`` (``suites.field_residual``,
``congruence.w_eval`` ...), which patching the defining module alone would
miss.  ``install``/``uninstall`` swap the wrappers in and out, so untraced
ops run the program's own functions.

Each call records a span: its name, its duration and the span that caused it.
Spans are aggregated in memory by call path (``cli.main/suites.build_...``),
per thread, and harvested once per op; a run writes them as JSON lines at its
end.  A span's self time is its duration minus the time of its child spans.
A few wrappers also count work at the boundary: evaluated points, integrand
evaluations (by wrapping the callable argument), scan statuses, 2F1 branches
and errors, report rows and bytes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter


class Tracer:
    def __init__(self, package):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[tuple[dict, dict]] = []
        self._owner: list = []
        modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__) if not m.name.startswith("_")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        self._patches = [
            (mod, name, obj, wrappers[obj])
            for mod in modules
            for name, obj in list(vars(mod).items())
            if inspect.isfunction(obj) and obj in wrappers
        ]
        self.special_function_error = getattr(
            importlib.import_module(f"{package.__name__}.errors"), "SpecialFunctionError"
        )

    def install(self) -> None:
        """Trace calls from now on; the calling thread owns the op's root span."""
        self._owner = self._table().stack
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def _table(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = defaultdict(lambda: [0, 0.0, 0.0])  # path -> calls, total s, self s
            local.counts = defaultdict(float)
            with self._lock:
                self._tables.append((local.spans, local.counts))
        return local

    def harvest(self) -> dict:
        """Merge and reset every thread's spans and counts (call between ops)."""
        spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        counts: dict[str, float] = defaultdict(float)
        with self._lock:
            for t_spans, t_counts in self._tables:
                for path, (calls, total, own) in list(t_spans.items()):
                    agg = spans[path]
                    agg[0] += calls
                    agg[1] += total
                    agg[2] += own
                for key, value in list(t_counts.items()):
                    counts[key] += value
                t_spans.clear()
                t_counts.clear()
        return {"spans": {p: [c, t * 1e3, s * 1e3] for p, (c, t, s) in spans.items()}, "counts": dict(counts)}

    def _wrap(self, name: str, fn):
        pre = _PRE.get(name)
        post = _POST.get(name)
        cpu = name == "suites.build_sweep_report"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._table()
            stack = local.stack
            parent = stack[-1] if stack else None
            # A span opened on a pool thread is caused by the span the owning
            # thread has open (the sweep builder): it becomes that span's
            # child, and the interval it covers leaves the builder's self time.
            cause = tracer._owner[-1] if parent is None and stack is not tracer._owner and tracer._owner else None
            path = f"{(parent or cause)[0]}/{name}" if parent or cause else name
            frame = [path, 0.0, name, None]
            if pre is not None:
                args = pre(local.counts, parent, args, kwargs)
            stack.append(frame)
            c0 = time.process_time() if cpu else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except tracer.special_function_error:
                if name == "special_functions.hyp2f1":
                    local.counts["special_functions.hyp2f1.errors"] += 1
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                elif cause is not None:
                    with tracer._lock:
                        if cause[3] is None:
                            cause[3] = []
                        cause[3].append((t0, t0 + dt))
                own = dt - frame[1]
                if frame[3]:
                    own -= _covered(frame[3], t0, t0 + dt)
                agg = local.spans[path]
                agg[0] += 1
                agg[1] += dt
                agg[2] += own
                if cpu:
                    local.counts["suites.sweep.cpu_s"] += time.process_time() - c0
                    local.counts["suites.sweep.wall_s"] += dt
            if post is not None:
                post(local.counts, args, result)
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _points(key):
    def pre(counts, parent, args, kwargs):
        counts[key] += np.size(args[1] if len(args) > 1 else kwargs["r"])
        return args
    return pre


def _count_evals(key, skip_inside=None):
    """Wrap the callable first argument so that its evaluations are counted."""
    def pre(counts, parent, args, kwargs):
        if skip_inside is not None and parent is not None and parent[2] == skip_inside:
            return args  # the recursive call already counts through the outer wrapper
        fn = args[0]

        def counted(x):
            counts[key] += 1
            return fn(x)
        return (counted,) + tuple(args[1:])
    return pre


def _hyp2f1_pre(counts, parent, args, kwargs):
    if args[3] < -0.5:
        counts["special_functions.hyp2f1.pfaff"] += 1
    return args


def _scan_post(counts, args, result):
    counts["congruence.scan_points"] += len(result)
    counts["congruence.scan_ok"] += sum(1 for s in result if s.status == "ok")


def _emit_post(counts, args, result):
    counts["report.rows"] += len(args[0].rows)
    counts["report.bytes"] += len(result)


_PRE = {
    "model.w_eval": _points("model.w_eval.points"),
    "model.f_eval": _points("model.f_eval.points"),
    "model.metric_eval": _points("model.metric_eval.points"),
    "special_functions.hyp2f1": _hyp2f1_pre,
    "numerics.adaptive_simpson": _count_evals("numerics.adaptive_simpson.integrand_evals",
                                              skip_inside="numerics.adaptive_simpson"),
    "numerics.bracket_sign_changes": _count_evals("numerics.bracket_sign_changes.evals"),
}
_POST = {
    "congruence.null_rate_sign_scan": _scan_post,
    "congruence.timelike_scan": _scan_post,
    "report.emit_csv": _emit_post,
    "report.emit_json": _emit_post,
}


def by_name(spans: dict[str, list]) -> dict[str, list]:
    """Per function: calls and inclusive ms of its outermost (non-recursive) spans, self ms of all."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for path, (calls, total, own) in spans.items():
        parts = path.split("/")
        name = parts[-1]
        agg = out[name]
        if name not in parts[:-1]:
            agg[0] += calls
            agg[1] += total
        agg[2] += own
    return out


#: (metric, unit, field of ``by_name``, function).
_SPAN_METRICS = [
    ("model.w_eval.calls", "calls/op", "calls", "model.w_eval"),
    ("model.w_eval.self_ms", "ms/op", "self_ms", "model.w_eval"),
    ("model.f_eval.calls", "calls/op", "calls", "model.f_eval"),
    ("model.f_eval.self_ms", "ms/op", "self_ms", "model.f_eval"),
    ("model.metric_eval.calls", "calls/op", "calls", "model.metric_eval"),
    ("model.metric_eval.self_ms", "ms/op", "self_ms", "model.metric_eval"),
    ("congruence.null_rate_sign_scan.ms", "ms/op", "ms", "congruence.null_rate_sign_scan"),
    ("congruence.timelike_scan.ms", "ms/op", "ms", "congruence.timelike_scan"),
    ("congruence.focusing_sign_map.ms", "ms/op", "ms", "congruence.focusing_sign_map"),
    ("congruence.radius_candidates.ms", "ms/op", "ms", "congruence.radius_candidates"),
    ("congruence.focusing_polynomial_roots.ms", "ms/op", "ms", "congruence.focusing_polynomial_roots"),
    ("special_functions.hyp2f1.calls", "calls/op", "calls", "special_functions.hyp2f1"),
    ("numerics.adaptive_simpson.calls", "calls/op", "calls", "numerics.adaptive_simpson"),
    ("numerics.adaptive_simpson.ms", "ms/op", "ms", "numerics.adaptive_simpson"),
    ("numerics.bracket_sign_changes.calls", "calls/op", "calls", "numerics.bracket_sign_changes"),
    ("numerics.bracket_sign_changes.ms", "ms/op", "ms", "numerics.bracket_sign_changes"),
    ("numerics.bisect.calls", "calls/op", "calls", "numerics.bisect"),
    ("numerics.bisect.ms", "ms/op", "ms", "numerics.bisect"),
    ("numerics.central_diff.calls", "calls/op", "calls", "numerics.central_diff"),
    ("numerics.five_point_diffs.calls", "calls/op", "calls", "numerics.five_point_diffs"),
    ("curvature.field_residual.ms", "ms/op", "ms", "curvature.field_residual"),
    ("curvature.ricci_diagonal_fd.calls", "calls/op", "calls", "curvature.ricci_diagonal_fd"),
    ("curvature.ricci_diagonal_fd.ms", "ms/op", "ms", "curvature.ricci_diagonal_fd"),
    ("energy_conditions.stress_decompose.calls", "calls/op", "calls", "energy_conditions.stress_decompose"),
    ("energy_conditions.stress_decompose.ms", "ms/op", "ms", "energy_conditions.stress_decompose"),
    ("energy_conditions.region_scan.ms", "ms/op", "ms", "energy_conditions.region_scan"),
    ("scalar_field.scalar_profile.ms", "ms/op", "ms", "scalar_field.scalar_profile"),
    ("stability.jacobian_eigen.ms", "ms/op", "ms", "stability.jacobian_eigen"),
] + [
    (f"suites.build_{kind}_report.self_ms", "ms/op", "self_ms", f"suites.build_{kind}_report")
    for kind in ("verify", "stability", "energy", "congruence", "tortoise", "sweep")
]

_COUNT_METRICS = [
    ("model.w_eval.points", "points/op", "model.w_eval.points"),
    ("special_functions.hyp2f1.errors", "errors/op", "special_functions.hyp2f1.errors"),
    ("numerics.adaptive_simpson.integrand_evals", "evals/op", "numerics.adaptive_simpson.integrand_evals"),
    ("numerics.bracket_sign_changes.evals", "evals/op", "numerics.bracket_sign_changes.evals"),
    ("congruence.scan_points", "points/op", "congruence.scan_points"),
    ("report.rows", "rows/op", "report.rows"),
    ("report.bytes", "bytes/op", "report.bytes"),
]


#: Modules whose summed self time is reported as ``<module>.self_ms``.
MODULES = ("cli", "suites", "report", "model", "congruence", "curvature", "energy_conditions",
           "scalar_field", "stability", "numerics", "special_functions")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge(into: dict, trace: dict) -> None:
    """Add one harvested trace ({"spans": ..., "counts": ...}) into another."""
    for path, (calls, total, own) in trace["spans"].items():
        agg = into["spans"].setdefault(path, [0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += total
        agg[2] += own
    for key, value in trace["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0.0) + value


def layer_metrics(op_traces: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged over the traced ops."""
    total = {"spans": {}, "counts": {}}
    for trace in op_traces:
        merge(total, trace)
    counts = defaultdict(float, total["counts"])
    names = by_name(total["spans"])
    n = max(1, len(op_traces))
    module_self: dict[str, float] = defaultdict(float)
    for name, (_, _, own) in list(names.items()):
        module_self[name.split(".", 1)[0]] += own
    field = {"calls": 0, "ms": 1, "self_ms": 2}
    out = {metric: (names[fn][field[how]] / n, unit) for metric, unit, how, fn in _SPAN_METRICS}
    for metric, unit, key in _COUNT_METRICS:
        out[metric] = (counts[key] / n, unit)
    model_fns = ("model.w_eval", "model.f_eval", "model.metric_eval")
    out["model.points_per_call"] = (_ratio(sum(counts[f"{fn}.points"] for fn in model_fns),
                                           sum(names[fn][0] for fn in model_fns)), "points/call")
    out["congruence.ok_share"] = (_ratio(counts["congruence.scan_ok"], counts["congruence.scan_points"]), "ratio")
    # The program reaches 2F1 only through hyp2f1, whose own span is a thin
    # dispatcher: its self time is that of the whole special_functions layer.
    out["special_functions.hyp2f1.self_ms"] = (module_self["special_functions"] / n, "ms/op")
    for module in MODULES:
        out[f"{module}.self_ms"] = (module_self[module] / n, "ms/op")
    out["special_functions.hyp2f1.pfaff_share"] = (
        _ratio(counts["special_functions.hyp2f1.pfaff"], names["special_functions.hyp2f1"][0]), "ratio")
    out["suites.sweep.cpu_per_wall"] = (_ratio(counts["suites.sweep.cpu_s"], counts["suites.sweep.wall_s"]), "ratio")
    out["report.emit.ms"] = ((names["report.emit_csv"][1] + names["report.emit_json"][1]) / n, "ms/op")
    out["cli.main_ms"] = (names["cli.main"][1] / n, "ms/op")
    return out
