"""Vectorized pipeline recurrence vs the retained double-loop reference.

``simulate_pipeline`` solves the Eq. 3-6 recurrence with per-row
cummax/cumsum scans; ``simulate_pipeline_reference`` keeps the original
micro-batch loop.  They must agree on every shape, schedule mode, batch
granularity, and on degenerate inputs (zero times, single stage, single
micro-batch).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracles.pipeline import simulate_pipeline_reference
from repro.pipeline.simulator import ScheduleMode, simulate_pipeline


def _assert_equivalent(times, mode, batch):
    fast = simulate_pipeline(times, mode=mode, microbatches_per_batch=batch)
    slow = simulate_pipeline_reference(
        times, mode=mode, microbatches_per_batch=batch,
    )
    np.testing.assert_allclose(
        fast.starts, slow.starts, rtol=1e-12, atol=1e-9,
    )
    np.testing.assert_allclose(fast.ends, slow.ends, rtol=1e-12, atol=1e-9)
    assert fast.mode is slow.mode


@settings(max_examples=120, deadline=None)
@given(
    num_stages=st.integers(min_value=1, max_value=9),
    num_mbs=st.integers(min_value=1, max_value=33),
    mode=st.sampled_from(list(ScheduleMode)),
    batch=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zero_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_vectorized_matches_reference(
    num_stages, num_mbs, mode, batch, seed, zero_fraction,
):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 100.0, size=(num_stages, num_mbs))
    # Zero-time entries model empty micro-batches (e.g. a last partial
    # micro-batch with no edges in an edge-proportional stage).
    times[rng.random(times.shape) < zero_fraction] = 0.0
    _assert_equivalent(times, mode, batch)


def test_all_zero_times():
    times = np.zeros((4, 6))
    for mode in ScheduleMode:
        _assert_equivalent(times, mode, 2)
        assert simulate_pipeline(times, mode=mode).total_time_ns == 0.0


def test_single_stage_single_microbatch():
    times = np.array([[3.5]])
    for mode in ScheduleMode:
        _assert_equivalent(times, mode, 1)


def test_batch_larger_than_microbatch_count():
    times = np.random.default_rng(3).uniform(1, 10, size=(3, 5))
    for mode in ScheduleMode:
        _assert_equivalent(times, mode, 100)
