"""The analytic backend: closed-form latency laws (the historical path).

This is a *boundary move*, not a new model: every method delegates to the
same :class:`~repro.stages.latency.StageTimingModel` vector forms and the
same serving cost law the pre-protocol code called directly, in the same
order, on the same floats — results are byte-identical to the code this
refactor carved the protocol out of.  The golden-hash suite and
``tests/backends/test_analytic_identity.py`` pin that equivalence.

What "analytic" means here: each (stage, micro-batch) latency is a
closed-form expression — operation counts *divided* by the effective
parallelism (``work / min(replicas, work_items)``) — so fractional
lane occupancy is averaged away.  The trace backend prices the same
lowered programs with per-lane ceil arithmetic instead; comparing the
two is the cross-validation experiment's job.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.backends.protocol import (
    EpochProgram,
    SimulationBackend,
    register_backend,
)


class AnalyticBackend(SimulationBackend):
    """Closed-form stage latency tables behind the backend protocol."""

    name = "analytic"

    def stage_time_matrix(self, program: EpochProgram) -> np.ndarray:
        timing = program.timing
        if program.full_round is None:
            # The expected-mix epoch: exactly StageTimingModel's own
            # whole-epoch matrix (the pre-protocol AcceleratorModel call).
            return timing.stage_time_matrix(program.replicas)
        # One specific write phase: the co-simulation's per-epoch table
        # (pinned against repro.oracles.core.epoch_times_reference).
        replicas = program.replica_vector()
        return np.stack([
            timing.compute_times_ns(stage, int(replicas[i]))
            + timing.phase_write_times_ns(stage, program.full_round)
            + timing.reload_times_ns(stage)
            for i, stage in enumerate(timing.stages)
        ])

    def service_times_ns(
        self,
        model: Any,  # repro.serving.cost.ServingCostModel
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        # Term-for-term the pre-protocol ServingCostModel.batch_times_ns
        # body (kept as repro.oracles.serving.batch_times_ns_reference);
        # quantised once at the end, byte-identical int64 output.
        sizes_f = np.asarray(sizes, dtype=np.float64)
        edges_f = np.asarray(edges, dtype=np.float64)
        out = np.empty((model.num_stages, sizes_f.size))
        for s in range(model.num_stages):
            replicas = float(model.replicas[s])
            if model.is_edge_stage[s]:
                effective = np.minimum(
                    replicas * model.intrinsic_edge_parallelism,
                    np.maximum(1.0, edges_f),
                )
                scan = sizes_f * model.stage_factor[s] * model.read_latency_ns
                out[s] = (edges_f * model.mvm_latency_ns + scan) / effective
            else:
                effective = np.minimum(replicas, sizes_f)
                out[s] = (
                    sizes_f * model.stage_factor[s] * model.mvm_latency_ns
                    / effective
                )
        return np.rint(out).astype(np.int64)

    def epoch_stats(self, program: EpochProgram) -> Dict[str, Any]:
        return {"model": "closed-form"}


ANALYTIC_BACKEND = register_backend(AnalyticBackend())
