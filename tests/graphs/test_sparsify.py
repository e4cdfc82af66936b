"""Sparsifiers and degree-based selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.graph import Graph
from repro.graphs.sparsify import (
    degree_rank,
    drop_edges_random,
    sparsify_by_degree,
    top_degree_vertices,
)
from repro.oracles.graphs import sparsify_by_degree_reference


def test_top_degree_vertices_selects_highest(tiny_graph):
    top = top_degree_vertices(tiny_graph, 0.5)
    assert len(top) == 3
    assert top[0] == 0  # degree 3 is the max
    selected_degrees = tiny_graph.degrees[top]
    unselected = np.setdiff1d(np.arange(6), top)
    assert selected_degrees.min() >= tiny_graph.degrees[unselected].max()


def test_top_degree_deterministic_ties(tiny_graph):
    a = top_degree_vertices(tiny_graph, 0.5)
    b = top_degree_vertices(tiny_graph, 0.5)
    np.testing.assert_array_equal(a, b)


def test_top_degree_bounds(tiny_graph):
    assert len(top_degree_vertices(tiny_graph, 0.0)) == 0
    assert len(top_degree_vertices(tiny_graph, 1.0)) == 6
    with pytest.raises(GraphError):
        top_degree_vertices(tiny_graph, 1.5)


def test_degree_rank_descending(small_graph):
    order = degree_rank(small_graph)
    degs = small_graph.degrees[order]
    assert np.all(np.diff(degs) <= 0)


def test_drop_edges_random(small_graph):
    sparse = drop_edges_random(small_graph, 0.5, random_state=0)
    assert sparse.num_vertices == small_graph.num_vertices
    assert sparse.num_edges == pytest.approx(
        small_graph.num_edges * 0.5, abs=1,
    )
    assert drop_edges_random(small_graph, 0.0).num_edges == small_graph.num_edges
    assert drop_edges_random(small_graph, 1.0).num_edges == 0
    with pytest.raises(GraphError):
        drop_edges_random(small_graph, -0.1)


def test_sparsify_by_degree_keeps_important_subgraph(small_graph):
    theta = 0.5
    pruned = sparsify_by_degree(small_graph, theta)
    important = set(top_degree_vertices(small_graph, theta).tolist())
    for u, v in pruned.edge_list():
        assert u in important and v in important
    assert pruned.num_edges <= small_graph.num_edges
    assert pruned.num_vertices == small_graph.num_vertices


@given(theta=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_selection_size_matches_theta(theta):
    g = dc_sbm_graph(120, 3, 6.0, random_state=0)
    top = top_degree_vertices(g, theta)
    assert len(top) == int(round(theta * g.num_vertices))


@pytest.mark.parametrize("mode", ["both", "either"])
def test_sparsify_by_degree_matches_reference(mode):
    # CSR arc filtering must build exactly the graph the edge-list
    # rebuild oracle builds, edgeless graphs included.
    graph = dc_sbm_graph(
        512, 3, 16.0, random_state=5, feature_dim=64,
        feature_noise=4.0, intra_ratio=0.7,
    )
    edgeless = Graph.from_edges(
        40, np.empty((0, 2), dtype=np.int64), name="edgeless",
    )
    for source in (graph, edgeless):
        for theta in (0.0, 0.25, 1.0):
            oracle = sparsify_by_degree_reference(source, theta, mode)
            got = sparsify_by_degree(source, theta, mode)
            assert got.content_fingerprint() == oracle.content_fingerprint()
            assert got.name == oracle.name
