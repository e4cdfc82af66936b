"""Graph-layer oracles: the scatter-add SpMM behind
``Graph.adjacency_matmul`` and the edge-list rebuild behind
``sparsify_by_degree``'s CSR arc filtering.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.sparsify import top_degree_vertices


def adjacency_matmul_reference(graph: Graph, matrix: np.ndarray) -> np.ndarray:
    """Scatter-add (``np.add.at``) ``A @ matrix``."""
    matrix = np.asarray(matrix, dtype=np.float32)
    graph._check_rows(matrix)
    out = np.zeros_like(matrix)
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    np.add.at(out, src, matrix[graph.indices])
    return out


def sparsify_by_degree_reference(
    graph: Graph, theta: float, mode: str = "both",
) -> Graph:
    """Filter the undirected edge list, then rebuild the graph from it."""
    if mode not in ("both", "either"):
        raise GraphError(f"mode must be 'both' or 'either', got {mode!r}")
    important = np.zeros(graph.num_vertices, dtype=bool)
    important[top_degree_vertices(graph, theta)] = True
    edges = graph.edge_list()
    if edges.size:
        if mode == "both":
            keep = important[edges[:, 0]] & important[edges[:, 1]]
        else:
            keep = important[edges[:, 0]] | important[edges[:, 1]]
        edges = edges[keep]
    return Graph.from_edges(
        graph.num_vertices, edges,
        features=graph.features, labels=graph.labels,
        name=f"{graph.name}-deg-sparse",
    )
