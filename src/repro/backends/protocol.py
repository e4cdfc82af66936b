"""The `SimulationBackend` protocol: programs in, timing records out.

PIMSIM-NN argues PIM performance numbers are only trustworthy when they
come from an explicit instruction-level contract, and MNSIM-2.0 shows
the behaviour-level interface that lets analytic and detailed engines
coexist.  This module is that contract for the reproduction:

* an :class:`EpochProgram` is the *lowered* description of one training
  epoch on one accelerator — the stage chain's per-micro-batch operation
  counts (row reads, MVM activations, update writes, reload writes) as
  exposed by the :class:`~repro.stages.latency.StageTimingModel`
  front-end, plus the replica assignment and pipeline regime;
* a :class:`SimulationBackend` turns programs into :class:`EpochTiming`
  records — the ``(stages, microbatches)`` latency matrix, the scheduled
  :class:`~repro.pipeline.simulator.PipelineResult`, and backend
  statistics.  Energy stays activity-count-based and backend-independent
  (:meth:`AcceleratorModel._energy` charges the same event counts under
  either engine, integrating idle leakage over the backend's makespan);
* backends register by name (:func:`register_backend`) and one of them
  is *ambient* per process — :func:`use_backend` scopes it, so consumers
  deep in the call tree (accelerator models, the serving cost model, the
  profiling estimator) consult :func:`active_backend` instead of
  threading an engine handle through every call.

The default ambient backend is ``"analytic"``; with it active, every
code path is byte-identical to the pre-protocol implementation (the
golden-hash suite pins this).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.pipeline.simulator import (
    PipelineResult,
    ScheduleMode,
    simulate_pipeline,
)
from repro.stages.latency import StageTimingModel


@dataclass(frozen=True)
class EpochProgram:
    """One lowered training epoch: what a backend prices.

    Parameters
    ----------
    timing:
        The lowering front-end.  It owns the workload, hardware config,
        calibration params, and update plan, and exposes the lowered
        per-(stage, micro-batch) operation counts (input-row streams,
        MVM activations, adjacency scan reads, busiest-crossbar update
        rows, reload rows) every backend derives its numbers from.
    replicas:
        Per-stage replica assignment (the allocator's output); ``None``
        means one replica everywhere.
    schedule:
        Pipeline regime for :func:`simulate_pipeline`.
    microbatches_per_batch:
        Batch granularity for ``INTRA_BATCH`` drains.
    full_round:
        Epoch write phase.  ``None`` prices the expected minor-period
        mix of partial and full vertex-update rounds (what a whole
        training run averages to); ``True``/``False`` price one specific
        phase (the co-simulation charges epochs individually).
    """

    timing: StageTimingModel
    replicas: Optional[np.ndarray] = None
    schedule: ScheduleMode = ScheduleMode.INTRA_INTER
    microbatches_per_batch: Optional[int] = None
    full_round: Optional[bool] = None

    @property
    def num_stages(self) -> int:
        """Stage-chain depth."""
        return len(self.timing.stages)

    @property
    def num_microbatches(self) -> int:
        """Micro-batches per epoch."""
        return self.timing.workload.num_microbatches

    def replica_vector(self) -> np.ndarray:
        """The per-stage replica counts as an int64 vector."""
        if self.replicas is None:
            return np.ones(self.num_stages, dtype=np.int64)
        return np.broadcast_to(
            np.asarray(self.replicas, dtype=np.int64), (self.num_stages,)
        )


@dataclass
class EpochTiming:
    """What a backend produces for one epoch: latency, schedule, stats.

    ``times_ns`` is the per-(stage, micro-batch) latency matrix the
    pipeline schedule was built from; ``stats`` carries backend-specific
    accounting (the trace backend reports instruction counts, which the
    conformance suite checks conserve the workload's operation totals).
    The optional ``energy`` slot is filled by the accelerator model's
    activity-count energy accounting, which is backend-independent.
    """

    backend: str
    times_ns: np.ndarray
    pipeline: PipelineResult
    stats: Dict[str, Any] = field(default_factory=dict)
    energy: Optional[Any] = None  # EnergyBreakdown, attached by callers

    @property
    def total_time_ns(self) -> float:
        """Epoch makespan under the scheduled pipeline."""
        return self.pipeline.total_time_ns


class SimulationBackend(ABC):
    """One pricing engine behind the backend protocol.

    Concrete backends implement :meth:`stage_time_matrix` (programs in,
    latency matrices out) and :meth:`service_times_ns` (the serving
    path's batch-cost law); :meth:`simulate_epoch` composes the matrix
    with the shared Eq. 3/4 pipeline scheduler, which is deliberately
    common infrastructure — backends differ in how they price operations,
    not in the paper's scheduling constraints.
    """

    #: Registry key; subclasses override.
    name: str = ""

    # ------------------------------------------------------------------
    @abstractmethod
    def stage_time_matrix(self, program: EpochProgram) -> np.ndarray:
        """Price a program: the ``(stages, microbatches)`` latency matrix."""

    @abstractmethod
    def service_times_ns(
        self,
        model: Any,  # repro.serving.cost.ServingCostModel
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        """Integer-ns ``(stages, batches)`` serving service-time matrix."""

    def epoch_stats(self, program: EpochProgram) -> Dict[str, Any]:
        """Backend-specific accounting attached to :class:`EpochTiming`."""
        return {}

    # ------------------------------------------------------------------
    def simulate_epoch(self, program: EpochProgram) -> EpochTiming:
        """Price and schedule one epoch."""
        times = self.stage_time_matrix(program)
        pipeline = simulate_pipeline(
            times, mode=program.schedule,
            microbatches_per_batch=program.microbatches_per_batch,
        )
        return EpochTiming(
            backend=self.name,
            times_ns=times,
            pipeline=pipeline,
            stats=self.epoch_stats(program),
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_backends: Dict[str, SimulationBackend] = {}


def register_backend(backend: SimulationBackend) -> SimulationBackend:
    """Register a backend instance under its ``name``."""
    if not backend.name:
        raise ConfigError("backend must declare a non-empty name")
    _backends[backend.name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    """The registered backend names, registration order."""
    return tuple(_backends)


def get_backend(name: str) -> SimulationBackend:
    """Look a backend up by name."""
    backend = _backends.get(name)
    if backend is None:
        raise ConfigError(
            f"unknown simulation backend {name!r}; "
            f"registered: {', '.join(_backends) or '(none)'}"
        )
    return backend


# ----------------------------------------------------------------------
# Ambient (process-wide) backend
# ----------------------------------------------------------------------
DEFAULT_BACKEND = "analytic"

_active: str = DEFAULT_BACKEND


def active_backend_name() -> str:
    """The process-wide active backend name."""
    return _active


def active_backend() -> SimulationBackend:
    """The process-wide active backend instance."""
    return get_backend(_active)


def set_active_backend(name: str) -> str:
    """Set the process-wide backend; returns the previous name."""
    global _active
    get_backend(name)  # validate eagerly
    previous = _active
    _active = name
    return previous


@contextmanager
def use_backend(name: str):
    """Scope the active backend (the Session/driver entry point)."""
    previous = set_active_backend(name)
    try:
        yield get_backend(name)
    finally:
        set_active_backend(previous)


def resolve_backend(
    backend: Union[None, str, SimulationBackend],
) -> SimulationBackend:
    """Normalise a backend argument: ``None`` means the ambient one."""
    if backend is None:
        return active_backend()
    if isinstance(backend, SimulationBackend):
        return backend
    return get_backend(backend)
