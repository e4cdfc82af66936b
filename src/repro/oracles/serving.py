"""Serving-layer oracles: the scalar queueing event loop (behind
:func:`repro.serving.engine.simulate_serving`) and the pre-protocol
per-batch service-time loop (behind the analytic backend's
``service_times_ns``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.serving.cost import ServingCostModel
from repro.serving.engine import ServingTimeline, _validate


def simulate_serving_reference(
    dispatch_ns: np.ndarray,
    stage_times_ns: np.ndarray,
    num_servers: int,
    balancer: str = "rr",
) -> ServingTimeline:
    """The scalar event loop.

    Processes dispatch events in time order; for each, picks the server
    (round-robin counter or shortest-horizon scan) and walks the batch
    through the server's stage chain with scalar max/add updates.
    Orders of magnitude slower than :func:`simulate_serving` on large
    timelines — that gap is the ``serving`` section of
    ``bench_hotpaths.py``.
    """
    dispatch, times = _validate(
        dispatch_ns, stage_times_ns, num_servers, balancer,
    )
    num_stages, num_batches = times.shape
    starts = np.zeros_like(times)
    ends = np.zeros_like(times)
    assignment = np.zeros(num_batches, dtype=np.int64)
    # Per-server state: when each stage last became free, and the
    # server's backlog horizon (its last batch's final completion).
    avail = np.zeros((num_servers, num_stages), dtype=np.int64)
    horizon = np.zeros(num_servers, dtype=np.int64)

    for k in range(num_batches):
        if balancer == "rr":
            server = k % num_servers
        else:
            server = 0
            for r in range(1, num_servers):
                if horizon[r] < horizon[server]:
                    server = r
        ready = dispatch[k]
        for s in range(num_stages):
            begin = max(ready, avail[server, s])
            finish = begin + times[s, k]
            starts[s, k] = begin
            ends[s, k] = finish
            avail[server, s] = finish
            ready = finish
        horizon[server] = ready
        assignment[k] = server
    return ServingTimeline(
        assignment=assignment, starts=starts, ends=ends,
        num_servers=num_servers, balancer=balancer,
    )


def batch_times_ns_reference(
    model: ServingCostModel,
    sizes: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """The pre-protocol ``ServingCostModel.batch_times_ns`` loop."""
    sizes_f = np.asarray(sizes, dtype=np.float64)
    edges_f = np.asarray(edges, dtype=np.float64)
    if sizes_f.shape != edges_f.shape or sizes_f.ndim != 1:
        raise ConfigError("sizes and edges must be matching 1-D vectors")
    out = np.empty((model.num_stages, sizes_f.size))
    for s in range(model.num_stages):
        replicas = float(model.replicas[s])
        if model.is_edge_stage[s]:
            effective = np.minimum(
                replicas * model.intrinsic_edge_parallelism,
                np.maximum(1.0, edges_f),
            )
            # stage_factor holds the adjacency scan groups here.
            scan = sizes_f * model.stage_factor[s] * model.read_latency_ns
            out[s] = (edges_f * model.mvm_latency_ns + scan) / effective
        else:
            effective = np.minimum(replicas, sizes_f)
            out[s] = (
                sizes_f * model.stage_factor[s] * model.mvm_latency_ns
                / effective
            )
    return np.rint(out).astype(np.int64)
