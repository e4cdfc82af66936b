"""``Graph.from_edges`` vs its oracle ``from_edges_reference``.

The production build dedupes packed edge keys with a sort plus a
neighbour mask (no hash-based ``np.unique``), skips the ``lexsort`` when
the dedupe already left ``(src, dst)`` sorted, counts rows with
``np.bincount`` and takes ndarray input without a list round trip.  The
CSR arrays and the content fingerprint — the dataset cache key — must
equal the oracle's exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.graph import Graph
from repro.oracles.graphs import from_edges_reference


def _assert_same(num_vertices, edges, **kwargs):
    ref = from_edges_reference(num_vertices, edges, **kwargs)
    fast = Graph.from_edges(num_vertices, edges, **kwargs)
    assert fast.indptr.dtype == ref.indptr.dtype == np.int64
    assert fast.indices.dtype == ref.indices.dtype == np.int64
    np.testing.assert_array_equal(fast.indptr, ref.indptr)
    np.testing.assert_array_equal(fast.indices, ref.indices)
    assert fast.content_fingerprint() == ref.content_fingerprint()
    return fast


EDGES = [(0, 1), (2, 1), (1, 0), (3, 3), (4, 2), (2, 4), (0, 1), (4, 0)]


@pytest.mark.parametrize("undirected", [True, False])
@pytest.mark.parametrize("dedup", [True, False])
@pytest.mark.parametrize("as_array", [True, False])
def test_flag_grid_matches_oracle(undirected, dedup, as_array):
    # Duplicates, a reversed duplicate and a self-loop (3, 3).
    edges = np.array(EDGES) if as_array else list(EDGES)
    _assert_same(5, edges, undirected=undirected, dedup=dedup)


def test_list_of_tuples_and_generator_input():
    _assert_same(5, EDGES)
    fast = Graph.from_edges(5, (pair for pair in EDGES))
    np.testing.assert_array_equal(
        fast.indices, from_edges_reference(5, EDGES).indices,
    )


@pytest.mark.parametrize("edges", [[], np.empty((0, 2), dtype=np.int64),
                                   np.empty(0)])
@pytest.mark.parametrize("num_vertices", [0, 4])
def test_empty_edge_list(edges, num_vertices):
    graph = _assert_same(num_vertices, edges)
    assert graph.num_arcs == 0
    assert graph.indptr.size == num_vertices + 1


def test_only_self_loops():
    graph = _assert_same(3, [(0, 0), (2, 2)])
    assert graph.num_arcs == 0


def test_features_labels_and_name_carried():
    features = np.arange(10, dtype=np.float32).reshape(5, 2)
    labels = np.array([0, 1, 0, 1, 1])
    graph = _assert_same(5, EDGES, features=features, labels=labels,
                         name="g")
    assert graph.name == "g"


@pytest.mark.parametrize("edges", [[(0, 5)], [(-1, 0)], [(0, 1, 2)],
                                   np.array([1, 2])])
def test_invalid_input_raises_like_oracle(edges):
    with pytest.raises(GraphError):
        from_edges_reference(5, edges)
    with pytest.raises(GraphError):
        Graph.from_edges(5, edges)


def test_generated_dataset_graph_matches_oracle():
    graph = dc_sbm_graph(num_vertices=300, num_communities=3,
                         avg_degree=8.0, random_state=3)
    _assert_same(graph.num_vertices, graph.edge_list())
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    arcs = np.stack([src, graph.indices], axis=1)
    _assert_same(graph.num_vertices, arcs, undirected=False)


@given(
    num_vertices=st.integers(1, 30),
    data=st.data(),
    undirected=st.booleans(),
    dedup=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_random_edge_lists_match_oracle(num_vertices, data, undirected,
                                        dedup):
    vertex = st.integers(0, num_vertices - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    _assert_same(num_vertices, np.array(edges, dtype=np.int64),
                 undirected=undirected, dedup=dedup)
