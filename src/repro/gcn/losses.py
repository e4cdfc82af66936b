"""Losses and metrics for node classification and link prediction."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import TrainingError

try:  # scipy is optional: the bincount fallback covers its absence.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - environment-dependent
    _sparse = None


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilisation."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy_loss(
    logits: np.ndarray,
    labels: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise TrainingError("logits must be (n, classes); labels (n,)")
    if logits.shape[0] == 0:
        raise TrainingError("empty batch")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise TrainingError("labels out of range of logit columns")
    probs = softmax(logits)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(np.float32)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    if logits.shape[0] == 0:
        raise TrainingError("empty batch")
    return float((logits.argmax(axis=1) == labels).mean())


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    Branch-free form of the classic two-sided evaluation: with
    ``z = exp(-|x|)`` the positive side is ``1 / (1 + z)`` and the
    negative side ``z / (1 + z)`` — the same per-element operations the
    masked implementation performs, so the result is bit-identical, but
    without the boolean gather/scatter copies (about 2x faster on the
    link trainer's score vectors).  The result is float64.
    """
    x = np.asarray(x)
    neg = x < 0
    ax = np.where(neg, x, -x)  # -|x| (maps +0.0 to -0.0; exp is exact there)
    z = np.exp(ax, out=ax) if ax.dtype.kind == "f" else np.exp(ax)
    denom = z + 1.0
    num = np.where(neg, z, 1.0)
    out = np.divide(num, denom, out=num)
    if out.dtype != np.float64:
        out = out.astype(np.float64)
    return out


def link_logits(
    embeddings: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Dot-product decoder scores for an ``(m, 2)`` edge array."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise TrainingError("edges must be (m, 2)")
    return np.einsum(
        "ij,ij->i", embeddings[edges[:, 0]], embeddings[edges[:, 1]],
    )


def edge_scatter_plan(
    rows: np.ndarray,
    cols: np.ndarray,
    num_vertices: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR pattern of the fused edge-gradient scatter.

    ``rows``/``cols`` are the concatenated scatter targets/sources in
    the exact order the reference issues its ``np.add.at`` calls; the
    stable sort keeps that order *within* each target row, so summing a
    row's entries left-to-right reproduces the reference accumulation
    order bit-for-bit (duplicate edges included).  The plan depends only
    on the edge pattern, so callers training several replicas on the
    same edges may build it once per epoch and apply it per replica.
    """
    # The stable argsort is radix-based for ints, so narrowing the key
    # dtype speeds it up ~6x; the permutation it returns is unchanged.
    if num_vertices <= np.iinfo(np.int16).max:
        sort_keys = rows.astype(np.int16)
    elif num_vertices <= np.iinfo(np.int32).max:
        sort_keys = rows.astype(np.int32)
    else:
        sort_keys = rows
    order = np.argsort(sort_keys, kind="stable")
    counts = np.bincount(rows, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return order, indptr, cols[order].astype(np.int32)


def apply_edge_scatter(
    order: np.ndarray,
    indptr: np.ndarray,
    sorted_cols: np.ndarray,
    data: np.ndarray,
    embeddings: np.ndarray,
) -> np.ndarray:
    """Apply a fused edge-gradient scatter plan.

    Computes ``grad[r] = sum_i data[i] * embeddings[cols[i]]`` over the
    plan's entries for row ``r``, accumulating in storage order — a
    sparse ``[V, V] @ [V, d]`` SpMM when scipy is present, a flat
    ``bincount`` otherwise.  Both are bit-identical to the sequential
    ``np.add.at`` reference.
    """
    num_vertices = indptr.shape[0] - 1
    emb64 = np.asarray(embeddings, dtype=np.float64)
    if _sparse is not None:
        mat = _sparse.csr_matrix(
            (data[order], sorted_cols, indptr),
            shape=(num_vertices, num_vertices),
        )
        return mat @ emb64
    contribs = data[order][:, None] * emb64[sorted_cols]
    dim = emb64.shape[1]
    rows = np.repeat(np.arange(num_vertices, dtype=np.int64), np.diff(indptr))
    flat = (rows[:, None] * dim + np.arange(dim, dtype=np.int64)).ravel()
    return np.bincount(
        flat, weights=contribs.ravel(), minlength=num_vertices * dim,
    ).reshape(num_vertices, dim)


class EdgeScatter:
    """A fused edge-gradient scatter with a reusable sparse pattern.

    :func:`apply_edge_scatter` rebuilds its CSR matrix (and upcasts the
    embeddings) on every call; when the same edge pattern is applied
    with several coefficient vectors — the replica-batched link trainer
    applies one epoch's plan once per replica — the pattern, the sorted
    data buffer, and the float64 embedding buffer can all be reused.
    ``apply`` is bit-identical to :func:`apply_edge_scatter` on the same
    plan: the sorted-data gather and the float64 SpMM see the same values
    in the same storage order.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        num_vertices: int,
    ) -> None:
        self.order, self.indptr, self.sorted_cols = edge_scatter_plan(
            rows, cols, num_vertices,
        )
        self._mat = None
        if _sparse is not None:
            self._mat = _sparse.csr_matrix(
                (
                    np.empty(self.order.shape[0], dtype=np.float64),
                    self.sorted_cols,
                    self.indptr,
                ),
                shape=(num_vertices, num_vertices),
            )

    def apply(
        self,
        data: np.ndarray,
        embeddings: np.ndarray,
        emb64_buf: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``grad[v] = sum_i data[i] * embeddings[cols[i]]`` per plan row.

        ``emb64_buf`` is an optional preallocated float64 ``[V, d]``
        scratch the embeddings are cast into (saves the allocation).
        """
        if self._mat is None:
            return apply_edge_scatter(
                self.order, self.indptr, self.sorted_cols, data, embeddings,
            )
        np.take(data, self.order, out=self._mat.data)
        if emb64_buf is None:
            emb = np.asarray(embeddings, dtype=np.float64)
        else:
            np.copyto(emb64_buf, embeddings)
            emb = emb64_buf
        return self._mat @ emb


def _bce_terms(
    embeddings: np.ndarray,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> Tuple[float, int, list, list, list]:
    """Shared loss/coefficient computation for the fused BCE paths."""
    total = 0.0
    count = 0
    rows_parts: list = []
    cols_parts: list = []
    data_parts: list = []
    for edges, label in ((pos_edges, 1.0), (neg_edges, 0.0)):
        if edges.size == 0:
            continue
        scores = link_logits(embeddings, edges)
        probs = sigmoid(scores)
        total += float(-(
            label * np.log(probs + 1e-12)
            + (1 - label) * np.log(1 - probs + 1e-12)
        ).sum())
        count += edges.shape[0]
        coeff = probs - label
        rows_parts += [edges[:, 0], edges[:, 1]]
        cols_parts += [edges[:, 1], edges[:, 0]]
        data_parts += [coeff, coeff]
    return total, count, rows_parts, cols_parts, data_parts


def link_bce_loss(
    embeddings: np.ndarray,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Binary cross-entropy over positive/negative edges.

    Returns the loss and its gradient w.r.t. the vertex embeddings.
    The per-edge gradient scatters run as one stably-ordered sparse SpMM
    (``edge_scatter_plan`` / ``apply_edge_scatter``), which preserves
    the per-target accumulation order of sequential ``np.add.at``
    scatters.
    """
    pos_edges = np.asarray(pos_edges, dtype=np.int64)
    neg_edges = np.asarray(neg_edges, dtype=np.int64)
    if pos_edges.size == 0 and neg_edges.size == 0:
        raise TrainingError("need at least one edge")
    total, count, rows_parts, cols_parts, data_parts = _bce_terms(
        embeddings, pos_edges, neg_edges,
    )
    order, indptr, sorted_cols = edge_scatter_plan(
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        embeddings.shape[0],
    )
    grad = apply_edge_scatter(
        order, indptr, sorted_cols, np.concatenate(data_parts), embeddings,
    )
    return total / count, (grad / count).astype(np.float32)


def link_accuracy(
    embeddings: np.ndarray,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> float:
    """Balanced accuracy of the dot-product decoder at threshold 0."""
    pos = link_logits(embeddings, pos_edges) > 0 if pos_edges.size else np.array([])
    neg = link_logits(embeddings, neg_edges) <= 0 if neg_edges.size else np.array([])
    correct = float(pos.sum() + neg.sum())
    total = pos.size + neg.size
    if total == 0:
        raise TrainingError("need at least one evaluation edge")
    return correct / total
