"""Vectorized timing tables vs the scalar per-micro-batch methods.

``StageTimingModel`` gained whole-epoch vector methods
(``compute_times_ns`` / ``write_times_ns`` / ``reload_times_ns`` /
``stage_time_matrix`` / ``stage_activity_totals``); the scalar
per-(stage, micro-batch) methods remain the reference semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import dc_sbm_graph
from repro.mapping.selective import build_update_plan
from repro.oracles.predictor import profile_stage_times_reference
from repro.predictor.profiler import profile_stage_times
from repro.stages.latency import StageTimingModel, TimingParams
from repro.stages.workload import Workload


def _timing_model(strategy: str, reload_penalty: float = 0.0,
                  micro_batch: int = 24) -> StageTimingModel:
    graph = dc_sbm_graph(
        num_vertices=100, num_communities=3, avg_degree=7.0,
        random_state=4, name="latvec",
    )
    # 100 vertices / micro_batch 24 leaves a partial last micro-batch.
    workload = Workload(
        graph=graph, layer_dims=[(16, 32), (32, 8)],
        micro_batch=micro_batch,
    )
    plan = build_update_plan(graph, strategy=strategy)
    params = TimingParams(reload_penalty=reload_penalty)
    return StageTimingModel(workload, params=params, update_plan=plan)


@pytest.mark.parametrize("strategy", ["full", "osu", "isu"])
@pytest.mark.parametrize("replicas", [1, 3])
def test_vector_times_match_scalar(strategy, replicas):
    timing = _timing_model(strategy, reload_penalty=0.3)
    num_mbs = timing.workload.num_microbatches
    for stage in timing.stages:
        expect_c = [timing.compute_time_ns(stage, mb, replicas)
                    for mb in range(num_mbs)]
        expect_w = [timing.write_time_ns(stage, mb)
                    for mb in range(num_mbs)]
        expect_r = [timing.reload_time_ns(stage, mb)
                    for mb in range(num_mbs)]
        np.testing.assert_allclose(
            timing.compute_times_ns(stage, replicas), expect_c, rtol=1e-12,
        )
        np.testing.assert_allclose(
            timing.write_times_ns(stage), expect_w, rtol=1e-12,
        )
        np.testing.assert_allclose(
            timing.reload_times_ns(stage), expect_r, rtol=1e-12,
        )
        np.testing.assert_allclose(
            timing.microbatch_times_ns(stage, replicas),
            [timing.microbatch_time_ns(stage, mb, replicas)
             for mb in range(num_mbs)],
            rtol=1e-12,
        )


@pytest.mark.parametrize("strategy", ["full", "isu"])
def test_stage_time_matrix_matches_scalar_grid(strategy):
    timing = _timing_model(strategy)
    stages = timing.stages
    replicas = np.arange(1, len(stages) + 1)
    matrix = timing.stage_time_matrix(replicas)
    assert matrix.shape == (len(stages), timing.workload.num_microbatches)
    for i, stage in enumerate(stages):
        np.testing.assert_allclose(
            matrix[i],
            [timing.microbatch_time_ns(stage, mb, int(replicas[i]))
             for mb in range(timing.workload.num_microbatches)],
            rtol=1e-12,
        )
    # replicas=None means one replica everywhere.
    np.testing.assert_allclose(
        timing.stage_time_matrix(), timing.stage_time_matrix(
            np.ones(len(stages), dtype=np.int64),
        ),
    )


@pytest.mark.parametrize("strategy", ["full", "osu", "isu"])
def test_activity_totals_match_scalar_sum(strategy):
    timing = _timing_model(strategy)
    num_mbs = timing.workload.num_microbatches
    for stage in timing.stages:
        total = timing.stage_activity_totals(stage)
        acts = [timing.activity(stage, mb) for mb in range(num_mbs)]
        assert total.mvm_row_streams == sum(a.mvm_row_streams for a in acts)
        assert total.rows_written == sum(a.rows_written for a in acts)
        assert total.buffer_bytes == pytest.approx(
            sum(a.buffer_bytes for a in acts), rel=1e-12,
        )
        assert total.offchip_bytes == pytest.approx(
            sum(a.offchip_bytes for a in acts), rel=1e-12,
        )


def test_profiler_matches_reference():
    timing = _timing_model("isu", reload_penalty=0.2)
    fast = profile_stage_times(timing, epochs=3)
    slow = profile_stage_times_reference(timing, epochs=3)
    assert fast.stage_times_ns.keys() == slow.stage_times_ns.keys()
    for name, value in slow.stage_times_ns.items():
        assert fast.stage_times_ns[name] == pytest.approx(value, rel=1e-12)
    assert fast.overhead_ns == pytest.approx(slow.overhead_ns, rel=1e-12)
