"""Pipeline-layer oracle: the double-loop Eq. 3/4 scheduler.

:func:`repro.pipeline.simulator.simulate_pipeline` (the running-maximum
scan) is pinned against :func:`simulate_pipeline_reference` event by
event by ``tests/pipeline/test_simulator_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PipelineError
from repro.pipeline.simulator import (
    PipelineResult,
    ScheduleMode,
    _validate_times,
)


def simulate_pipeline_reference(
    times_ns: np.ndarray,
    mode: ScheduleMode = ScheduleMode.INTRA_INTER,
    microbatches_per_batch: Optional[int] = None,
) -> PipelineResult:
    """The original pure-Python scheduling loop; orders of magnitude
    slower than the scan form on large grids."""
    times = _validate_times(times_ns)
    num_stages, num_mbs = times.shape

    starts = np.zeros_like(times)
    ends = np.zeros_like(times)

    if mode is ScheduleMode.SERIAL:
        clock = 0.0
        for mb in range(num_mbs):
            for stage in range(num_stages):
                starts[stage, mb] = clock
                clock += times[stage, mb]
                ends[stage, mb] = clock
        return PipelineResult(starts=starts, ends=ends, mode=mode)

    batch = num_mbs if microbatches_per_batch is None else microbatches_per_batch
    if batch < 1:
        raise PipelineError("microbatches_per_batch must be >= 1")

    # batch_drain[k] = time when batch k may begin (INTRA_BATCH only).
    drain_until = 0.0
    for mb in range(num_mbs):
        if mode is ScheduleMode.INTRA_BATCH and mb % batch == 0 and mb > 0:
            drain_until = float(ends[:, mb - batch:mb].max())
        for stage in range(num_stages):
            earliest = drain_until
            if stage > 0:
                earliest = max(earliest, ends[stage - 1, mb])  # Eq. (4)
            if mb > 0:
                earliest = max(earliest, ends[stage, mb - 1])  # Eq. (3)
            starts[stage, mb] = earliest
            ends[stage, mb] = earliest + times[stage, mb]
    return PipelineResult(starts=starts, ends=ends, mode=mode)
