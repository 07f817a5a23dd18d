"""Boundary tracing from outside the package: spans, self time, layer metrics.

A layer is one latticediff module.  A span records one call that crosses
into a layer: the span name, its layer, start and end on the
`time.perf_counter` clock, and the index of the span that was open when it
started (its parent).  The tracer wraps every public function under each
attribute through which a layer module reaches it, so
`spectral.assemble_fiber` is the generator function as spectral sees it and
`reservoir.plane_wave_average` the sphere function as reservoir sees it.
The package source is never edited; the wrappers are removed when the
traced region ends.

A call from a layer into itself crosses no boundary and records no span.
Spans started on another thread have no parent; the package's worker
threads (the KMC blocks) call no public function, so none are recorded.
"""

import contextlib
import functools
import importlib
import inspect
import math
import threading
import time
from dataclasses import dataclass

LAYERS = ("cli", "model", "reservoir", "sphere", "generator", "spectral",
          "kmc", "diagrams")
PACKAGE = "latticediff"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int = None
    work: float = 0.0   # computed work count of the call, see COUNTERS

    @property
    def duration(self):
        return self.end - self.start


def _bound(func, args, kwargs):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _fiber_bytes(func, args, kwargs, block):
    arrays = getattr(block, "__dict__", {}).values()
    return float(sum(getattr(a, "nbytes", 0) for a in arrays))


def _node_evals(func, args, kwargs, values):
    arguments = _bound(func, args, kwargs)
    nodes = arguments.get("order", 1) if arguments.get("d", 1) >= 2 else 2
    return float(getattr(values, "size", 1) * nodes)


def expected_events(table, n_traj, t_final):
    """Walkers x t_final x the Gibbs-mean escape rate: the event count a
    KMC ensemble is expected to process, computed from the rate table."""
    import numpy as np
    from latticediff import generator

    rates = inspect.unwrap(generator.escape_rates)(table)
    gibbs = np.exp(-table.beta * np.asarray(table.levels))
    return float(n_traj * t_final * (gibbs @ rates) / gibbs.sum())


def _kmc_events(func, args, kwargs, stats):
    arguments = _bound(func, args, kwargs)
    table = arguments.get("table")
    if table is None:
        from latticediff import generator
        table = inspect.unwrap(generator.build_rate_table)(arguments["cfg"])
    return expected_events(table, stats.n_traj, stats.t_final)


def _mc_samples(func, args, kwargs, report):
    return float(_bound(func, args, kwargs).get("mc_samples", 0))


# Geometry helpers that build quadrature weights; their microseconds count
# to the caller, so that the sphere layer measures plane-wave averaging.
UNTRACED = {"sphere.surface_area", "sphere.direction_nodes"}

# span name -> (metric, count function): computed work counts, attached to
# the span of each call.  They come from arguments and results, not from
# counters inside the package.
COUNTERS = {
    "generator.assemble_fiber": ("generator.bytes", _fiber_bytes),
    "sphere.plane_wave_average": ("sphere.node_evals", _node_evals),
    "kmc.run_ensemble": ("kmc.expected_events", _kmc_events),
    "diagrams.check_lemma_bounds": ("diagrams.samples", _mc_samples),
}


class Tracer:
    """Collects spans in memory; `installed()` wraps the layer boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name, layer):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, layer, self.clock(), math.nan, parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = self.clock()

    def current_layer(self):
        stack = self._stack()
        return self.spans[stack[-1]].layer if stack else None

    def wrap(self, func, layer):
        name = f"{layer}.{func.__name__}"
        _, counter = COUNTERS.get(name, (None, None))

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.current_layer() == layer:
                return func(*args, **kwargs)
            with self.span(name, layer) as record:
                result = func(*args, **kwargs)
            if counter is not None:
                record.work = counter(func, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, func, layer in boundary_targets():
                saved.append((module, attr, func))
                setattr(module, attr, self.wrap(func, layer))
            yield self
        finally:
            for module, attr, func in reversed(saved):
                setattr(module, attr, func)


def layer_modules():
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}")
            for layer in LAYERS}


def boundary_targets():
    """(module, attribute, function, layer) for each public package function
    found in a layer module's namespace, whether defined there or imported
    from another layer, apart from UNTRACED."""
    modules = layer_modules()
    owner = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
    targets = []
    for module in modules.values():
        for attr, obj in sorted(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ not in owner):
                continue
            layer = owner[obj.__module__]
            if f"{layer}.{obj.__name__}" not in UNTRACED:
                targets.append((module, attr, obj, layer))
    return targets


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _ancestors(spans, index):
    parent = spans[index].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


def _under(spans, index, layer):
    return any(spans[a].layer == layer for a in _ancestors(spans, index))


# name -> unit of every per-layer metric `layer_metrics` returns.
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("busy_s", "s"), ("calls", "count"))},
    "generator.bytes": "B",
    "spectral.fibers": "count",
    "sphere.node_evals": "count",
    "kmc.expected_events": "count",
    "kmc.ns_per_event": "ns",
    "diagrams.samples": "count",
    "bench.glue_s": "s",
    "trace.wall_s": "s",
    "trace.attributed_frac": "1",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, root):
    """Per-layer metrics of the spans under the root span `spans[root]`.

    busy_s counts a layer's outermost spans (time the layer was on the
    stack); self_s subtracts the child spans of other layers.  Spans of
    layer "bench" are the benchmark's own glue.  trace.attributed_frac is
    the share of the root's duration covered by layer and glue spans.
    """
    selfs = self_times(spans)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    for i, span in enumerate(spans):
        if root not in _ancestors(spans, i):
            continue
        if span.layer == "bench":
            metrics["bench.glue_s"] += selfs[i]
            continue
        metrics[f"{span.layer}.self_s"] += selfs[i]
        metrics[f"{span.layer}.calls"] += 1
        if not _under(spans, i, span.layer):
            metrics[f"{span.layer}.busy_s"] += span.duration
        if span.name in COUNTERS:
            metrics[COUNTERS[span.name][0]] += span.work
        if span.name == "generator.assemble_fiber" and _under(spans, i, "spectral"):
            metrics["spectral.fibers"] += 1
    if metrics["kmc.expected_events"]:
        metrics["kmc.ns_per_event"] = (1e9 * metrics["kmc.busy_s"]
                                       / metrics["kmc.expected_events"])
    wall = spans[root].duration
    metrics["trace.wall_s"] = wall
    metrics["trace.attributed_frac"] = (wall - selfs[root]) / wall
    return metrics

