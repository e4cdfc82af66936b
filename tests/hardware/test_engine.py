"""Functional engine: numerics match numpy, costs match the analytic model."""

import numpy as np
import pytest

from repro.errors import MappingError
from repro.graphs.generators import dc_sbm_graph
from repro.hardware.config import DEFAULT_CONFIG
from repro.hardware.engine import MappedMatrix, aggregate, combine


@pytest.fixture(scope="module")
def weights():
    rng = np.random.default_rng(0)
    return rng.normal(size=(100, 48)).astype(np.float32)


def test_mapped_matrix_structure(weights):
    mapped = MappedMatrix(weights)
    assert mapped.shape == (100, 48)
    # 100 rows -> 2 row tiles; 48 cols -> 2 col tiles of 32 values.
    assert mapped.plan.row_tiles == 2
    assert mapped.plan.col_tiles == 2
    assert mapped.num_crossbars == 4
    np.testing.assert_allclose(mapped.resident_matrix(), weights)


def test_mvm_matches_numpy(weights):
    mapped = MappedMatrix(weights)
    rng = np.random.default_rng(1)
    x = rng.normal(size=100).astype(np.float32)
    np.testing.assert_allclose(mapped.mvm(x), x @ weights,
                               rtol=1e-3, atol=1e-3)


def test_mvm_batch_matches_numpy(weights):
    mapped = MappedMatrix(weights)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 100)).astype(np.float32)
    np.testing.assert_allclose(combine(x, mapped), x @ weights,
                               rtol=1e-3, atol=1e-3)


def test_zero_segments_skip_activations(weights):
    mapped = MappedMatrix(weights)
    before = mapped.stats().mvm_reads
    x = np.zeros(100, dtype=np.float32)
    x[:4] = 1.0  # only the first row tile has non-zero input
    mapped.mvm(x)
    delta = mapped.stats().mvm_reads - before
    assert delta == mapped.plan.col_tiles  # one activation per col tile


def test_program_latency_is_serial_per_crossbar(weights):
    mapped = MappedMatrix(weights)
    # Busiest tile programs min(rows, 64) rows serially.
    expected = 64 * DEFAULT_CONFIG.row_write_latency_ns
    assert mapped.program_latency_ns == pytest.approx(expected)


def test_rewrite_rows_updates_values_and_cost(weights):
    mapped = MappedMatrix(weights)
    rows = np.array([0, 1, 70])
    new = np.zeros((3, 48), dtype=np.float32)
    latency = mapped.rewrite_rows(rows, new)
    resident = mapped.resident_matrix()
    np.testing.assert_allclose(resident[rows], 0.0)
    np.testing.assert_allclose(resident[2], weights[2], rtol=1e-6)
    # Busiest row tile got 2 rows (ids 0 and 1) -> 2 serial writes.
    assert latency == pytest.approx(
        2 * DEFAULT_CONFIG.row_write_latency_ns,
    )


def test_rewrite_validation(weights):
    mapped = MappedMatrix(weights)
    with pytest.raises(MappingError):
        mapped.rewrite_rows(np.array([0]), np.zeros((1, 5)))
    with pytest.raises(MappingError):
        mapped.rewrite_rows(np.array([200]), np.zeros((1, 48)))


def test_mvm_input_length_checked(weights):
    mapped = MappedMatrix(weights)
    with pytest.raises(MappingError):
        mapped.mvm(np.zeros(99))
    with pytest.raises(MappingError):
        MappedMatrix(np.zeros((0, 3)))


def test_aggregate_matches_adjacency_matmul():
    graph = dc_sbm_graph(48, 2, 4.0, random_state=0)
    rng = np.random.default_rng(3)
    features = rng.normal(size=(48, 8)).astype(np.float32)
    mapped = MappedMatrix(features)
    hardware_sums = aggregate(graph, mapped)
    reference = graph.adjacency_matmul(features)
    np.testing.assert_allclose(hardware_sums, reference,
                               rtol=1e-3, atol=1e-3)


def test_aggregate_edge_serial_cost():
    graph = dc_sbm_graph(48, 2, 4.0, random_state=0)
    features = np.ones((48, 8), dtype=np.float32)
    mapped = MappedMatrix(features)
    before = mapped.stats().mvm_reads
    aggregate(graph, mapped)
    activations = mapped.stats().mvm_reads - before
    # One activation per directed edge (times the single col tile).
    assert activations == graph.num_arcs


def test_aggregate_seeds_with_resident_rows():
    # A resident seed adds the A + I self loop: (A + I) @ features.
    graph = dc_sbm_graph(48, 2, 4.0, random_state=0)
    rng = np.random.default_rng(4)
    features = rng.normal(size=(48, 8)).astype(np.float32)
    mapped = MappedMatrix(features)
    out = aggregate(graph, mapped, resident=features)
    reference = graph.adjacency_matmul(features) + features
    np.testing.assert_allclose(out, reference, rtol=1e-3, atol=1e-3)


def test_aggregate_wrong_graph_size():
    graph = dc_sbm_graph(48, 2, 4.0, random_state=0)
    mapped = MappedMatrix(np.ones((30, 8), dtype=np.float32))
    with pytest.raises(MappingError):
        aggregate(graph, mapped)
