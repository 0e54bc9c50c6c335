"""Outside-in tracing of the program's layers, and the per-layer metrics.

The traced child replaces public functions of each cstar_index module with
wrappers that record a span (name, start, end, parent, attribute).  Every
module that imported the function by name gets the wrapper too, so calls
through `cli` and `topological` are seen.  The projector closures that
`measure.project_m` returns are wrapped as `measure.projector_eval`; they
nest (P(P u) evaluates P u inside), which is why self time is reported.

Spans stay in memory until the child exits.  The per-layer metrics are
computed from them in the parent, never from the untraced runs.
"""

from __future__ import annotations

import importlib
import math
import time

# module -> public functions wrapped in the traced run
TRACED = {
    "exact": ("lefschetz_point_sum",),
    "analytic": ("kappa",),
    "model": ("kawasaki_from_json_dict",),
    "topological": ("verify_identity", "hrr_term", "mu_closed"),
    "galerkin": (
        "build_dbar_matrix",
        "gram_matrices",
        "exact_index",
        "heat_spectra",
        "laplacian_pairing_defect",
        "supertrace",
    ),
    "measure": (
        "radial_density",
        "lambda_m",
        "unity_check",
        "pullback_measure_total",
        "project_m",
        "projector_axioms_check",
    ),
    "cli": ("main", "render_sweep"),
}

POINT_SUM = "exact.lefschetz_point_sum"
PROJECTOR_EVAL = "measure.projector_eval"
CLOSED_FORMS = ("topological.hrr_term", "topological.mu_closed", "analytic.kappa")


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index, attribute]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attribute=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            attr = None if attribute is None else attribute(*args, **kwargs)
            span = [name, 0.0, 0.0, parent, attr]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Replace every traced function in every cstar_index module."""
        modules = {
            name: importlib.import_module(f"cstar_index.{name}") for name in TRACED
        }
        modules[""] = importlib.import_module("cstar_index")
        for mod_name, funcs in TRACED.items():
            for func in funcs:
                orig = getattr(modules[mod_name], func)
                wrapper = self.wrap(f"{mod_name}.{func}", orig, _ATTRIBUTES.get(func))
                if func == "project_m":
                    wrapper = self._wrap_project_m(wrapper)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    def _wrap_project_m(self, traced_project_m):
        def project_m(*args, **kwargs):
            return self.wrap(PROJECTOR_EVAL, traced_project_m(*args, **kwargs))

        return project_m


def _point_sum_key(n, a, b):
    return [n, a % n, b % n]


def _radii(r, params):
    return int(getattr(r, "size", 1))


_ATTRIBUTES = {"lefschetz_point_sum": _point_sum_key, "radial_density": _radii}


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _slope(xs, ys) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans, names) -> dict[str, float]:
    """The named per-layer metrics of one child process, from its spans.

    A name is `<span name>.calls`, `.s` (summed duration) or `.self_s`,
    or one of the derived metrics of the point sum, the closed forms and
    the radial-density radii computed below.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + own

    seen: set[tuple] = set()
    cold_s = warm_s = 0.0
    cold_log_n, cold_log_t = [], []
    points = 0
    for name, start, end, _, attr in spans:
        if name == POINT_SUM:
            key = tuple(attr)
            if key in seen:
                warm_s += end - start
            else:
                seen.add(key)
                cold_s += end - start
                cold_log_n.append(math.log(key[0]))
                cold_log_t.append(math.log(max(end - start, 1e-9)))
        elif name == "measure.radial_density":
            points += attr
    exponent = _slope(cold_log_n, cold_log_t) if len(set(cold_log_n)) > 1 else 0.0

    out = {
        "exact.point_sum.calls": calls.get(POINT_SUM, 0),
        "exact.point_sum.distinct": len(seen),
        "exact.point_sum.cold_s": cold_s,
        "exact.point_sum.warm_s": warm_s,
        "exact.point_sum.order_exponent": exponent,
        "topological.closed_forms.s": sum(total.get(n, 0.0) for n in CLOSED_FORMS),
        "measure.radial_density.points": points,
    }
    sources = {"calls": calls, "s": total, "self_s": self_total}
    for metric in names:
        if metric not in out:
            span_name, kind = metric.rsplit(".", 1)
            out[metric] = sources[kind].get(span_name, 0)
    return {metric: out[metric] for metric in names}
