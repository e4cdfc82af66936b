"""Hardware-layer oracles: per-row batch MVM, per-edge aggregation (bit
for bit, seeded noise streams and event counters included) and the
per-crossbar wear-levelling loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError, MappingError
from repro.graphs.graph import Graph
from repro.hardware.endurance import rows_written_per_epoch
from repro.hardware.engine import MappedMatrix
from repro.mapping.selective import UpdatePlan


def mvm_batch_reference(
    mapped: MappedMatrix, matrix: np.ndarray,
) -> np.ndarray:
    """Per-row loop over :meth:`MappedMatrix.mvm`."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise MappingError("mvm_batch expects 2-D input")
    return np.stack([mapped.mvm(row) for row in matrix])


def aggregate_reference(
    graph: Graph,
    mapped_features: MappedMatrix,
    resident: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-edge one-hot MVM loop.

    For each vertex, every neighbour's resident feature row is activated
    with a unit input (one wordline fires per edge) and the bitline
    currents accumulate onto the vertex's seed row — ``resident[v]`` (the
    ``A + I`` self loop) or zero — the hardware analogue of summing
    neighbour features.
    """
    if mapped_features.shape[0] != graph.num_vertices:
        raise MappingError("mapped feature matrix does not cover the graph")
    n = graph.num_vertices
    dim = mapped_features.shape[1]
    out = np.zeros((n, dim), dtype=np.float32)
    for v in range(n):
        acc = (
            np.zeros(dim, dtype=np.float32) if resident is None
            else np.array(resident[v], dtype=np.float32)
        )
        for u in graph.neighbors(v):
            one_hot = np.zeros(n, dtype=np.float32)
            one_hot[u] = 1.0
            acc += mapped_features.mvm(one_hot)
        out[v] = acc
    return out


def wear_levelled_rates_reference(
    plan: UpdatePlan,
    rotation_period_epochs: int = 100,
) -> np.ndarray:
    """Per-crossbar-mean loop form of
    :func:`~repro.hardware.endurance.wear_levelled_rates`.

    ``np.mean`` uses pairwise summation while ``bincount`` sums
    sequentially, so agreement is allclose-level rather than bit-level.
    """
    if rotation_period_epochs < 1:
        raise ConfigError("rotation_period_epochs must be >= 1")
    rates = rows_written_per_epoch(plan)
    mapping = plan.mapping
    levelled = np.empty_like(rates)
    for crossbar in range(mapping.num_crossbars):
        members = mapping.vertices_on(crossbar)
        levelled[members] = rates[members].mean()
    return levelled + 1.0 / rotation_period_epochs
