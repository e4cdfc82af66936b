"""Graph-layer oracles: the scatter-add SpMM behind
``Graph.adjacency_matmul``, the edge-list rebuild behind
``sparsify_by_degree``'s CSR arc filtering, and the
``np.unique``/``lexsort``/``np.add.at`` CSR build behind
``Graph.from_edges``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

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


def from_edges_reference(
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    features: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
    name: str = "graph",
    undirected: bool = True,
    dedup: bool = True,
) -> Graph:
    """The original ``Graph.from_edges``: list round trip, hash-based
    ``np.unique`` dedupe, unconditional ``lexsort``, ``np.add.at`` row
    counts."""
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    edge_array = np.asarray(list(edges), dtype=np.int64)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    if edge_array.size and (
        edge_array.min() < 0 or edge_array.max() >= num_vertices
    ):
        raise GraphError("edge endpoints out of range")

    src = edge_array[:, 0]
    dst = edge_array[:, 1]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if dedup and src.size:
        packed = src * np.int64(num_vertices) + dst
        packed = np.unique(packed)
        src = packed // num_vertices
        dst = packed % num_vertices

    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return Graph(indptr, dst, features=features, labels=labels, name=name)
