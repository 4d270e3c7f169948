"""Per-layer tracing of vpscatter from outside the package.

Wrappers replace the package's public functions and class boundaries in
every ``vpscatter.*`` namespace that holds them (modules import functions by
name, so ``integrate`` lives in ``scattering`` and ``cli`` as well as in
``kinetic``).  Each call records a span ``(op, name, start, end, parent)``
in memory; counts are read at the same boundaries from arguments and return
values.  A span's self time is its duration minus the time its child spans
cover, and a layer's self time is the sum over its spans, so the layers
partition each op's wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute path) of every boundary the traced run wraps.  The
# span name is "<module>.<attribute path>"; its layer is the module.
BOUNDARIES = (
    ("kinetic", "integrate"),
    ("kinetic", "transport_rhs"),
    ("kinetic", "assemble_source_history"),
    ("kinetic", "density_trace"),
    ("kinetic", "StateInterpolant.__init__"),
    ("kinetic", "StateInterpolant.at_pairs"),
    ("kinetic", "StateInterpolant.all_rows"),
    ("kinetic", "AsymptoticDatum.sample"),
    ("kinetic", "AsymptoticDatum.trace"),
    ("kinetic", "HistoryFieldProvider.__call__"),
    ("kinetic", "SelfConsistentFieldProvider.__call__"),
    ("field", "poisson_fixed_point"),
    ("field", "electric_from_density"),
    ("field", "h_of_field"),
    ("field", "weighted_density_norm"),
    ("gevrey", "n1_at_time"),
    ("gevrey", "norm_N2"),
    ("gevrey", "weighted_norm_report"),
    ("volterra", "build_discrete_resolvent"),
    ("volterra", "solve_resolvent"),
    ("volterra", "solve_direct_backward"),
    ("dispersion", "penrose_scan"),
    ("dispersion", "dispersion_on_axis"),
    ("dispersion", "inverse_laplace_Khat"),
    ("dispersion", "absolute_first_moment"),
    ("scattering", "fixed_point_drive"),
    ("scattering", "apply_map_F"),
    ("scattering", "iterate_distance"),
    ("scattering", "build_resolvent_tables"),
    ("scattering", "free_extension"),
    ("scattering", "efield_weighted_norms"),
    ("scattering", "roundtrip_check"),
    ("scattering", "state_to_physical"),
    ("cli", "main"),
)
# Factories of the equilibria the CLI builds; their products get a traced
# ``mu_hat`` (span "model.mu_hat").
EQUILIBRIUM_FACTORIES = ("maxwellian", "two_stream", "bump_on_tail")

OP_SPAN = "cli.op"

# per-layer metrics: name -> unit, in report order
LAYER_METRICS = {
    "kinetic.integrations": "count",
    "kinetic.rk_stages": "count",
    "kinetic.cell_updates": "count",
    "kinetic.spline_builds": "count",
    "kinetic.spline_build_s": "s",
    "kinetic.interp_points": "count",
    "kinetic.interp_s": "s",
    "kinetic.truncated_frac": "ratio",
    "kinetic.source_s": "s",
    "kinetic.self_s": "s",
    "field.solves": "count",
    "field.picard_iters": "count",
    "field.picard_per_solve": "ratio",
    "field.h_series_calls": "count",
    "field.gate_rejects": "count",
    "field.self_s": "s",
    "gevrey.n1_evals": "count",
    "gevrey.n2_evals": "count",
    "gevrey.self_s": "s",
    "volterra.table_builds": "count",
    "volterra.solves": "count",
    "volterra.lag_products": "count",
    "volterra.self_s": "s",
    "dispersion.scan_modes": "count",
    "dispersion.axis_scans": "count",
    "dispersion.axis_scans_per_mode": "ratio",
    "dispersion.kernel_tables": "count",
    "dispersion.penrose_s": "s",
    "dispersion.kernel_s": "s",
    "dispersion.self_s": "s",
    "model.mu_hat_calls": "count",
    "model.mu_hat_points": "count",
    "model.self_s": "s",
    "scattering.passes": "count",
    "scattering.pass_s": "s",
    "scattering.verify_s": "s",
    "scattering.distance_s": "s",
    "scattering.self_s": "s",
    "cli.ops": "count",
    "cli.artifact_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}
LAYERS = ("kinetic", "field", "gevrey", "volterra", "dispersion", "model",
          "scattering", "cli")
# counts that must repeat exactly from op to op
EXACT_COUNTS = ("kinetic.integrations", "kinetic.rk_stages",
                "kinetic.spline_builds", "kinetic.cell_updates",
                "field.picard_iters", "scattering.passes",
                "dispersion.axis_scans", "volterra.lag_products")


class CoverageError(RuntimeError):
    """A boundary the traced run must wrap is gone, or recorded no calls."""


class Tracer:
    """In-memory span log; counts keyed by metric name, per op."""

    def __init__(self):
        self.spans = []  # [op, name, start, end, parent]
        self.counts = defaultdict(Counter)
        self.op = -1
        self._root = None
        self._op_stack = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # a span opened on a fresh worker thread (the CLI's per-mode pools)
        # hangs under the span the op's thread is waiting in
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_stack = self._stack()
        self._root = self.open(OP_SPAN)

    def end_op(self) -> None:
        self.close(self._root)
        self._root = None

    def count(self, key: str, amount=1) -> None:
        self.counts[self.op][key] += amount

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, name, start, end, parent in self.spans:
                handle.write(json.dumps([op, name, round(start, 7),
                                         round(end, 7), parent]) + "\n")


def _traced(tracer: Tracer, name: str, fn, counter=None):
    """``fn`` inside a span; ``counter(tracer, args, kwargs, result)`` runs
    inside the span after the call, ``counter(..., exc)`` on failure."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if counter is not None:
                counter(tracer, args, kwargs, exc)
            tracer.close(idx)
            raise
        if counter is not None:
            counter(tracer, args, kwargs, result)
        tracer.close(idx)
        return result

    return traced


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


# -- counts read from arguments and return values -------------------------

def _count_transport(tracer, args, kwargs, result):
    tracer.count("kinetic.cell_updates", _arg(args, kwargs, 0, "state").values.size)


def _count_lookup(pairs: bool):
    # mirrors TruncationCounter: every lookup is counted, off-grid ones are
    # those beyond the edge (on-lattice modes only, for pointwise lookups)
    def count(tracer, args, kwargs, result):
        interp = args[0]
        eta = np.asarray(_arg(args, kwargs, 2 if pairs else 1, "eta"), dtype=float)
        off = np.abs(eta) > interp._edge
        if pairs:
            k, off = np.broadcast_arrays(np.asarray(_arg(args, kwargs, 1, "k")), off)
            off = off & (np.abs(k) <= interp.grid.k_max)
        tracer.count("kinetic.interp_points", off.size)
        tracer.count("kinetic.truncated", int(np.count_nonzero(off)))
    return count


def _count_poisson(tracer, args, kwargs, result):
    if not isinstance(result, BaseException):
        tracer.count("field.picard_iters", result.iters)
    elif type(result).__name__ == "NoContractionError" \
            and "smallness gate" in str(result):
        tracer.count("field.gate_rejects")


def _count_resolvent(tracer, args, kwargs, result):
    source = _arg(args, kwargs, 2, "source")
    n_t = source.values.shape[0]
    active = int(np.count_nonzero(np.asarray(source.k_values) != 0))
    tracer.count("volterra.lag_products", active * n_t * n_t // 2)


def _count_scan(tracer, args, kwargs, result):
    tracer.count("dispersion.scan_modes", 2 * int(_arg(args, kwargs, 2, "k_scan_max")))


def _count_mu_hat(tracer, args, kwargs, result):
    tracer.count("model.mu_hat_points", int(np.size(args[0])))


COUNTERS = {
    "kinetic.transport_rhs": _count_transport,
    "kinetic.StateInterpolant.at_pairs": _count_lookup(pairs=True),
    "kinetic.StateInterpolant.all_rows": _count_lookup(pairs=False),
    "field.poisson_fixed_point": _count_poisson,
    "volterra.solve_resolvent": _count_resolvent,
    "volterra.solve_direct_backward": _count_resolvent,
    "dispersion.penrose_scan": _count_scan,
    "model.mu_hat": _count_mu_hat,
}
# metrics that count calls of spans
CALLS = {
    "kinetic.integrations": ("kinetic.integrate",),
    "kinetic.rk_stages": ("kinetic.transport_rhs",),
    "kinetic.spline_builds": ("kinetic.StateInterpolant.__init__",),
    "field.h_series_calls": ("field.h_of_field",),
    "gevrey.n1_evals": ("gevrey.n1_at_time",),
    "gevrey.n2_evals": ("gevrey.norm_N2",),
    "volterra.table_builds": ("volterra.build_discrete_resolvent",),
    "volterra.solves": ("volterra.solve_resolvent",
                        "volterra.solve_direct_backward"),
    "dispersion.axis_scans": ("dispersion.dispersion_on_axis",),
    "dispersion.kernel_tables": ("dispersion.inverse_laplace_Khat",),
    "model.mu_hat_calls": ("model.mu_hat",),
    "scattering.passes": ("scattering.apply_map_F",),
    "cli.ops": ("cli.main",),
}
# metrics that sum self times of spans
SELF_TIMES = {
    "kinetic.spline_build_s": ("kinetic.StateInterpolant.__init__",),
    "kinetic.interp_s": ("kinetic.StateInterpolant.at_pairs",
                         "kinetic.StateInterpolant.all_rows"),
    "kinetic.source_s": ("kinetic.assemble_source_history",),
}
# metrics that sum whole durations of spans, children included
TOTAL_TIMES = {
    "dispersion.penrose_s": ("dispersion.penrose_scan",),
    "dispersion.kernel_s": ("dispersion.inverse_laplace_Khat",),
    "scattering.pass_s": ("scattering.apply_map_F",),
    "scattering.verify_s": ("scattering.roundtrip_check",),
    "scattering.distance_s": ("scattering.iterate_distance",),
}


# -- installing the wrappers -----------------------------------------------

def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "vpscatter"
                                    or name.startswith("vpscatter."))]


class Installation:
    """Wrappers in place; ``remove()`` restores every replaced name."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []
        import vpscatter.cli  # noqa: F401 - loads every package module
        modules = _package_modules()
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        try:
            for module, path in BOUNDARIES:
                self._wrap(by_name, modules, module, path)
            for factory in EQUILIBRIUM_FACTORIES:
                self._wrap_factory(by_name, modules, factory)
        except BaseException:
            self.remove()
            raise

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, by_name, modules, module, path) -> None:
        name = f"{module}.{path}"
        owner = by_name.get(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, "__dict__", {}).get(attr)
        if original is None:
            raise CoverageError(f"boundary {name} no longer exists")
        traced = _traced(self.tracer, name, original, COUNTERS.get(name))
        if outer:  # a method: replacing it on the class covers every holder
            self._replace(owner, attr, traced)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, traced)

    def _wrap_factory(self, by_name, modules, factory) -> None:
        model = by_name["model"]
        original = model.__dict__.get(factory)
        if original is None:
            raise CoverageError(f"equilibrium factory model.{factory} is gone")
        tracer = self.tracer

        @functools.wraps(original)
        def build(*args, **kwargs):
            eq = original(*args, **kwargs)
            mu_hat = _traced(tracer, "model.mu_hat", eq.mu_hat,
                             COUNTERS["model.mu_hat"])
            return dataclasses.replace(eq, mu_hat=mu_hat)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, build)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- per-op metrics -----------------------------------------------------------

def _self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[4] is not None:
            children[span[4]].append(idx)
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(idx, ()), key=lambda c: spans[c][2]):
            lo, hi = max(spans[c][2], reach), min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def op_metrics(tracer: Tracer, op: int, extra_counts: dict) -> dict:
    """Per-layer metrics of one traced op."""
    first = next(i for i, s in enumerate(tracer.spans) if s[0] == op)
    last = max(i for i, s in enumerate(tracer.spans) if s[0] == op)
    # parents are absolute indices; rebase them onto this op's slice
    spans = [[s[0], s[1], s[2], s[3], None if s[4] is None else s[4] - first]
             for s in tracer.spans[first:last + 1]]
    selfs = _self_times(spans)
    self_by_name = Counter()
    total_by_name = Counter()
    calls = Counter()
    for span, own in zip(spans, selfs):
        self_by_name[span[1]] += own
        total_by_name[span[1]] += span[3] - span[2]
        calls[span[1]] += 1
    counts = Counter(tracer.counts[op])
    counts.update(extra_counts)
    m = {key: float(counts[key]) for key in (
        "kinetic.cell_updates", "kinetic.interp_points", "field.picard_iters",
        "field.gate_rejects", "volterra.lag_products", "dispersion.scan_modes",
        "model.mu_hat_points", "cli.artifact_bytes")}
    for table, source in ((CALLS, calls), (SELF_TIMES, self_by_name),
                          (TOTAL_TIMES, total_by_name)):
        for key, names in table.items():
            m[key] = float(sum(source[name] for name in names))
    for name, own in self_by_name.items():
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + own
    for layer in LAYERS:
        m.setdefault(f"{layer}.self_s", 0.0)
    m["kinetic.truncated_frac"] = (counts["kinetic.truncated"]
                                   / max(counts["kinetic.interp_points"], 1))
    # a solve is a Poisson call from outside the Picard loop, whose own
    # electric_from_density calls belong to it
    inner = sum(1 for s in spans if s[1] == "field.electric_from_density"
                and s[4] is not None
                and spans[s[4]][1] == "field.poisson_fixed_point")
    m["field.solves"] = float(calls["field.poisson_fixed_point"]
                              + calls["field.electric_from_density"] - inner)
    m["field.picard_per_solve"] = (counts["field.picard_iters"]
                                   / max(calls["field.poisson_fixed_point"], 1))
    m["dispersion.axis_scans_per_mode"] = (
        m["dispersion.axis_scans"] / max(m["dispersion.scan_modes"], 1))
    m["_span_calls"] = dict(calls)
    return m


def check_coverage(per_op: list, expected_spans) -> None:
    """Every boundary expected on the workload recorded calls in every op."""
    for metrics in per_op:
        missing = [n for n in expected_spans if not metrics["_span_calls"].get(n)]
        if missing:
            raise CoverageError("no calls recorded at " + ", ".join(missing))
