"""SpMM equivalence: cached-CSR / segment-sum kernels vs the scatter oracle.

``Graph.adjacency_matmul`` (scipy CSR when available, ``np.add.reduceat``
segment-sum otherwise) must match ``adjacency_matmul_reference`` — the
original ``np.add.at`` scatter — on every graph, including degree-0
vertices and edgeless graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.graph as graph_mod
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.graph import Graph
from repro.oracles.graphs import adjacency_matmul_reference


def _random_graph(num_vertices: int, edge_seeds: list) -> Graph:
    """Graph from drawn (u, v) pairs; isolated vertices are common."""
    edges = [
        (u % num_vertices, v % num_vertices) for u, v in edge_seeds
    ]
    return Graph.from_edges(num_vertices, edges, name="prop")


@settings(max_examples=60, deadline=None)
@given(
    num_vertices=st.integers(min_value=1, max_value=40),
    edge_seeds=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
        max_size=120,
    ),
    feature_dim=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
def test_adjacency_matmul_matches_reference(
    num_vertices, edge_seeds, feature_dim, data,
):
    graph = _random_graph(num_vertices, edge_seeds)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal(
        (num_vertices, feature_dim)
    ).astype(np.float32)
    expected = adjacency_matmul_reference(graph, matrix)
    np.testing.assert_allclose(
        graph.adjacency_matmul(matrix), expected, rtol=1e-5, atol=1e-5,
    )
    # Degree-0 rows must aggregate to exactly zero.
    isolated = graph.degrees == 0
    assert np.all(expected[isolated] == 0.0)


@settings(max_examples=30, deadline=None)
@given(
    num_vertices=st.integers(min_value=1, max_value=30),
    edge_seeds=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
        max_size=90,
    ),
)
def test_segment_sum_fallback_matches_reference(num_vertices, edge_seeds):
    """The scipy-free reduceat path must agree with the oracle too."""
    graph = _random_graph(num_vertices, edge_seeds)
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((num_vertices, 5)).astype(np.float32)
    saved = graph_mod._sparse
    graph_mod._sparse = None
    try:
        fallback = graph.adjacency_matmul(matrix)
    finally:
        graph_mod._sparse = saved
    np.testing.assert_allclose(
        fallback,
        adjacency_matmul_reference(graph, matrix),
        rtol=1e-5, atol=1e-5,
    )


def test_edgeless_graph_aggregates_to_zero():
    graph = Graph.from_edges(5, [], name="empty")
    matrix = np.ones((5, 3), dtype=np.float32)
    assert np.all(graph.adjacency_matmul(matrix) == 0.0)
    assert np.all(adjacency_matmul_reference(graph, matrix) == 0.0)


def test_dtype_normalised_to_float32_once():
    """float64 input is converted at the boundary, not per operation."""
    graph = dc_sbm_graph(
        num_vertices=64, num_communities=2, avg_degree=6.0,
        random_state=0, name="dtype",
    )
    matrix64 = np.random.default_rng(0).standard_normal((64, 8))
    for op in (
        graph.adjacency_matmul,
        graph.mean_adjacency_matmul,
        graph.normalized_adjacency_matmul,
    ):
        assert op(matrix64).dtype == np.float32
        assert op(matrix64.astype(np.float32)).dtype == np.float32


def test_normalized_and_mean_matmul_1d_and_2d_agree():
    graph = dc_sbm_graph(
        num_vertices=48, num_communities=2, avg_degree=5.0,
        random_state=1, name="1d2d",
    )
    vec = np.random.default_rng(1).standard_normal(48).astype(np.float32)
    for op in (graph.mean_adjacency_matmul,
               graph.normalized_adjacency_matmul):
        np.testing.assert_allclose(
            op(vec), op(vec[:, None])[:, 0], rtol=1e-6, atol=1e-6,
        )


def test_lazy_cache_not_pickled():
    """Pickling (disk cache) drops the rebuildable CSR/cache structures."""
    import pickle

    graph = dc_sbm_graph(
        num_vertices=32, num_communities=2, avg_degree=4.0,
        random_state=2, name="pickle",
    )
    matrix = np.ones((32, 4), dtype=np.float32)
    before = graph.adjacency_matmul(matrix)  # populates the lazy cache
    clone = pickle.loads(pickle.dumps(graph))
    assert clone._lazy == {}
    np.testing.assert_allclose(clone.adjacency_matmul(matrix), before)
    assert clone.content_fingerprint() == graph.content_fingerprint()
