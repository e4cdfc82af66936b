"""Span tracer for the sweep benchmark, installed from outside ``src/``.

The tracer wraps the public entry points of each layer of
``docs/ARCHITECTURE.md`` (the ``TARGETS`` table below) so that a sweep run
records one span per call: name, layer, start, end, parent span and the
experiment run it belongs to.  Spans stay in memory; :meth:`Tracer.summary`
folds them into per-layer self times and counters when the run ends.

A module-level function is rebound in its defining module *and* in every
``repro`` module that imported it by name, because a call through such a
binding would otherwise escape the trace.  Methods are rebound on the class
that defines them.

Calls into :class:`repro.perf.cache.ArtifactCache` get special handling:
the ``compute`` callable passed to ``get_or_compute`` runs in its own span,
charged to the *caller's* layer, so ``perf.cache`` self time is the cache's
own work (lookup, unpickling, disk writes, eviction scans) and never the
artifact's construction.  Each cache call is classified as a hit or a miss
from the change in ``CacheStats`` across the call, excluding the change
made by nested cache calls inside ``compute``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "runtime", "experiments", "graphs", "gcn", "predictor", "stages",
    "mapping", "allocation", "pipeline", "backends.analytic",
    "backends.trace", "accelerators", "core", "hardware", "serving",
    "perf.cache",
)

CACHE_NAMESPACES: Tuple[str, ...] = (
    "datasets", "workloads", "predictors", "predictor-datasets",
    "fitted-regressors", "timing-tables", "allocation", "trace_programs",
    "kernel_tuner",
)

# layer -> "module:qualname" wrap targets (the layer's public calls).
TARGETS: Dict[str, Tuple[str, ...]] = {
    "runtime": (
        "repro.runtime.session:Session.__init__",
        "repro.runtime.session:Session.workload",
        "repro.runtime.session:Session.predictor",
        "repro.runtime.session:Session.stamp",
    ),
    "experiments": (
        "repro.experiments.registry:run_experiment",
    ),
    "graphs": (
        "repro.graphs.datasets:load_dataset",
        "repro.graphs.graph:Graph.from_edges",
        "repro.graphs.sparsify:sparsify_by_degree",
    ),
    "gcn": (
        "repro.gcn.batched:train_replicas",
        "repro.gcn.batched:BatchedNodeTrainer.train",
        "repro.gcn.batched:BatchedLinkTrainer.train",
        "repro.gcn.trainer:NodeClassificationTrainer.train",
    ),
    "predictor": (
        "repro.predictor.dataset:generate_dataset",
        "repro.predictor.predictor:TimePredictor.fit",
        "repro.predictor.predictor:TimePredictor.predict_stage_times",
        "repro.predictor.predictor:PerKindRegressor.fit",
        "repro.predictor.regressors:Regressor.fit",
        "repro.predictor.profiler:profile_stage_times",
    ),
    "stages": (
        "repro.stages.workload:workload_from_dataset",
        "repro.stages.latency:StageTimingModel.__init__",
        "repro.stages.latency:StageTimingModel.stage_time_matrix",
    ),
    "mapping": (
        "repro.mapping.vertex_map:interleaved_mapping",
        "repro.mapping.selective:build_update_plan",
        "repro.mapping.tiling:plan_tiling",
    ),
    "allocation": (
        "repro.allocation.greedy:greedy_allocation",
        "repro.allocation.baselines:exhaustive_allocation",
        "repro.allocation.batched:allocate_many",
    ),
    "pipeline": (
        "repro.pipeline.simulator:simulate_pipeline",
    ),
    "backends.analytic": (
        "repro.backends.analytic:AnalyticBackend.stage_time_matrix",
        "repro.backends.analytic:AnalyticBackend.service_times_ns",
        "repro.backends.analytic:AnalyticBackend.epoch_stats",
    ),
    "backends.trace": (
        "repro.backends.trace:TraceBackend.stage_time_matrix",
        "repro.backends.trace:TraceBackend.service_times_ns",
        "repro.backends.trace:TraceBackend.epoch_stats",
        "repro.backends.trace:compiled_stage_program",
        "repro.backends.trace:compile_stage_program",
        "repro.backends.trace:replay_stage_times",
    ),
    "accelerators": (
        "repro.accelerators.base:AcceleratorModel.run",
        "repro.accelerators.base:AcceleratorModel.build_timing_model",
    ),
    "core": (
        "repro.core.cosim:CoSimulation.run",
        "repro.core.scheduler:MultiTenantScheduler.equal_split",
        "repro.core.scheduler:MultiTenantScheduler.greedy_split",
    ),
    "hardware": (
        "repro.hardware.functional_gcn:FunctionalGCN.forward",
        "repro.hardware.endurance:estimate_lifetime",
    ),
    "serving": (
        "repro.serving.service:run_serving",
        "repro.serving.cost:build_serving_system",
        "repro.serving.engine:simulate_serving",
        "repro.serving.batching:form_batches",
    ),
    "perf.cache": (
        "repro.perf.cache:cache_key",
        "repro.perf.cache:ArtifactCache.get_or_compute",
    ),
}

_CACHE_METHOD = "repro.perf.cache:ArtifactCache.get_or_compute"
_REPLAY = "repro.backends.trace:replay_stage_times"
_COMPILE = "repro.backends.trace:compile_stage_program"
_FIT_NAMESPACE = "fitted-regressors"
_COMPUTE_PREFIX = "compute:"


def metric_names() -> List[str]:
    """Every per-layer metric name the traced run emits, in order.

    ``trace.overhead_s`` is filled in by ``run.py``, which alone sees the
    untraced sweep; the rest come from :meth:`Tracer.summary`.
    """
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    names += ["predictor.fits", "backends.trace.compiles", "backends.trace.records",
              "trace.coverage", "trace.overhead_s"]
    for ns in CACHE_NAMESPACES:
        names += [f"perf.cache.{ns}.{k}" for k in ("hits", "misses", "hit_ratio")]
    return names


def metric_unit(name: str) -> Tuple[str, str]:
    """(unit, better) for a per-layer metric name."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith(".hit_ratio") or name == "trace.coverage":
        return "ratio", "higher"
    if name.endswith(".hits"):
        return "count", "higher"
    return "count", "lower"


def all_targets() -> List[Tuple[str, str]]:
    """``(layer, target)`` for every wrap target."""
    return [(layer, t) for layer, targets in TARGETS.items() for t in targets]


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute)`` for a ``module:qualname``."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """In-memory span recorder; one per sweep process.

    The sweep is serial, so one stack of open spans is enough.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # [name, layer, start, end, parent index or -1, run id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.run_id: Optional[str] = None
        self.records_replayed = 0
        self.cache_counts: Dict[str, List[int]] = {}
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, self.clock(), None, parent, self.run_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        self._stack.pop()

    def current_layer(self) -> str:
        return self.spans[self._stack[-1]][1] if self._stack else "experiments"

    def run(self, run_id: str) -> "_RunSpan":
        """Root span for one experiment run; its descendants share ``run_id``."""
        return _RunSpan(self, run_id)

    # ------------------------------------------------------------------
    def _plain(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def _replay(self, fn: Callable, name: str, layer: str) -> Callable:
        inner = self._plain(fn, name, layer)

        @functools.wraps(fn)
        def traced(records, *args, **kwargs):
            self.records_replayed += len(records)
            return inner(records, *args, **kwargs)

        return traced

    def _cache(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(cache, namespace, key, *args, **kwargs):
            stats = cache.stats
            nested = [0, 0]
            if args or "compute" in kwargs:
                compute = args[0] if args else kwargs.pop("compute")
                caller = tracer.current_layer()

                def compute_span():
                    hits, misses = stats.hits, stats.misses
                    index = tracer.open(_COMPUTE_PREFIX + namespace, caller)
                    try:
                        return compute()
                    finally:
                        tracer.close(index)
                        nested[0] += stats.hits - hits
                        nested[1] += stats.misses - misses

                args = (compute_span,) + tuple(args[1:])
            hits, misses = stats.hits, stats.misses
            index = tracer.open(name, layer)
            try:
                return fn(cache, namespace, key, *args, **kwargs)
            finally:
                tracer.close(index)
                counts = tracer.cache_counts.setdefault(namespace, [0, 0])
                counts[0] += stats.hits - hits - nested[0]
                counts[1] += stats.misses - misses - nested[1]

        return traced

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for layer, target in all_targets():
            owner, attr, raw = resolve(target)
            if target == _CACHE_METHOD:
                factory = self._cache
            elif target == _REPLAY:
                factory = self._replay
            else:
                factory = self._plain
            if isinstance(raw, classmethod):
                wrapped = classmethod(factory(raw.__func__, target, layer))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(factory(raw.__func__, target, layer))
            else:
                wrapped = factory(raw, target, layer)
            self._rebind(owner, attr, raw, wrapped)
            if not isinstance(owner, type):
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(module).items()):
                        swapped = _swap(value, raw, wrapped)
                        if swapped is not value:
                            self._rebind(module, name, value, swapped)

    def _rebind(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # ------------------------------------------------------------------
    def summary(self, window: Tuple[float, float]) -> Dict[str, Any]:
        """Fold the spans into per-layer metrics.

        A span's self time is its duration minus the time its child spans
        cover (children of one serial span never overlap, so that is the
        sum of their durations).  Coverage is the share of ``window`` (the
        sweep's first experiment call to its last result) that root spans
        cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        per_target: Counter = Counter()
        fits = compiles = 0
        covered = 0.0
        lo, hi = window
        for (name, layer, start, end, parent, _), children in zip(self.spans, child_time):
            self_s[layer] += (end - start) - children
            per_target[name] += 1
            if name.startswith(_COMPUTE_PREFIX):
                fits += name == _COMPUTE_PREFIX + _FIT_NAMESPACE
            else:
                calls[layer] += 1
            compiles += name == _COMPILE
            if parent < 0:
                covered += max(0.0, min(end, hi) - max(start, lo))
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_s[layer]
            metrics[f"{layer}.calls"] = calls[layer]
        metrics["predictor.fits"] = fits
        metrics["backends.trace.compiles"] = compiles
        metrics["backends.trace.records"] = self.records_replayed
        metrics["trace.coverage"] = covered / (hi - lo) if hi > lo else 0.0
        for ns in CACHE_NAMESPACES:
            hits, misses = self.cache_counts.get(ns, (0, 0))
            metrics[f"perf.cache.{ns}.hits"] = hits
            metrics[f"perf.cache.{ns}.misses"] = misses
            metrics[f"perf.cache.{ns}.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        return {
            "metrics": metrics,
            "spans_per_target": dict(per_target),
            "unlisted_namespaces": sorted(set(self.cache_counts) - set(CACHE_NAMESPACES)),
        }


def _swap(value: Any, raw: Any, wrapped: Any, depth: int = 2) -> Any:
    """``value`` with ``raw`` replaced by ``wrapped``.

    Also looks inside ``functools.partial`` objects and module-level
    tuples/lists of them (e.g. ``abl_allocator.ALLOCATORS``), which bind
    the function at import time.  Returns ``value`` itself when unchanged.
    """
    if value is raw:
        return wrapped
    if isinstance(value, functools.partial) and value.func is raw:
        return functools.partial(wrapped, *value.args, **value.keywords)
    if depth and type(value) in (tuple, list):
        items = [_swap(item, raw, wrapped, depth - 1) for item in value]
        if any(new is not old for new, old in zip(items, value)):
            return type(value)(items)
    return value


class _RunSpan:
    def __init__(self, tracer: Tracer, run_id: str) -> None:
        self.tracer, self.run_id = tracer, run_id

    def __enter__(self) -> None:
        self.tracer.run_id = self.run_id
        self.index = self.tracer.open("run_all", "experiments")

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.index)
        self.tracer.run_id = None
