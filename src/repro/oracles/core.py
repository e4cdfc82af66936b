"""Co-simulation oracle: the per-micro-batch epoch-table loop.

The analytic backend's pinned-phase ``stage_time_matrix`` (what
:meth:`repro.core.cosim.CoSimulation.run` charges per epoch) is checked
against :func:`epoch_times_reference` by ``tests/core/test_cosim.py`` and
``tests/backends/test_analytic_identity.py``.
"""

from __future__ import annotations

import numpy as np

from repro.stages.latency import StageTimingModel
from repro.stages.stage import StageKind, StageSpec


def epoch_write_ns(
    timing: StageTimingModel, stage: StageSpec, mb: int, full_round: bool,
) -> float:
    """Write time for a specific epoch phase (not the expected mix)."""
    cfg = timing.config
    per_row = cfg.row_write_latency_ns * timing.params.write_pulses
    if stage.kind is StageKind.AGGREGATION:
        rows = timing._write_max_rows(mb, full_round=full_round)
        return rows * per_row
    if stage.kind is StageKind.COMBINATION:
        rows = min(cfg.crossbar_rows, stage.mapped_rows)
        return rows * per_row / timing.workload.num_microbatches
    return 0.0


def epoch_times_reference(
    timing: StageTimingModel, replicas: np.ndarray, full_round: bool,
) -> np.ndarray:
    """Whole-epoch ``(stages, microbatches)`` table for one write phase,
    one scalar (stage, micro-batch) entry at a time."""
    times = np.empty(
        (len(timing.stages), timing.workload.num_microbatches),
    )
    for i, stage in enumerate(timing.stages):
        for mb in range(timing.workload.num_microbatches):
            compute = timing.compute_time_ns(stage, mb, int(replicas[i]))
            write = epoch_write_ns(timing, stage, mb, full_round)
            reload = timing.reload_time_ns(stage, mb)
            times[i, mb] = compute + write + reload
    return times
