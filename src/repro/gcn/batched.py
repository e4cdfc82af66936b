"""Replica-batched GCN training: R compatible runs in one tensor pass.

The ablation/table experiments (tab05, fig16, abl-model-family,
abl-weight-staleness, ...) train fleets of *small* GCNs that differ only
in seed, staleness schedule, or one hyperparameter.  This module stacks
R such runs into one extra leading tensor dimension — weights
``[R, in, out]``, activations ``[R, V, d]`` — and advances all R
replicas with one batched forward/backward/Adam step per epoch.

**Bit-identity contract.**  Every batched replica reproduces its serial
counterpart (:class:`~repro.gcn.trainer.NodeClassificationTrainer` /
:class:`~repro.gcn.trainer.LinkPredictionTrainer`, or the
``train_with_split`` harness loop) bit-for-bit: losses, metrics, and
final weights.  The building blocks this rests on, each covered by
``tests/gcn/test_batched_equivalence.py``:

* stacked ``np.matmul`` equals per-slice 2-D matmul (including the
  broadcast ``[V, d] @ [R, d, o]`` and transposed-operand forms);
* the SpMM batches by column-stacking ``[R, V, d]`` into ``[V, R*d]``
  (``normalized_adjacency_matmul`` is column-independent);
* scalar loss reductions extract each replica's contiguous row before
  reducing (2-D axis reductions use different pairwise-summation
  blocking than the serial 1-D reduce, so ``picked[r].mean()`` matches
  where ``picked.mean(axis=-1)[r]`` does not);
* per-replica RNG streams are *named* through the Session
  (:meth:`repro.runtime.Session.replica_rng`) but seeded exactly as the
  serial trainers seed theirs (``np.random.default_rng(random_state)``
  for the trainer stream and the model stream), and drawn in the serial
  order — init by layer, then split, then per-epoch dropout/noise/
  negative draws — so stream positions coincide after a full run;
* staleness batches via a per-replica refresh mask: plan-less replicas
  carry an all-ones mask row, and multiplying a float32 gradient by 1.0
  is bitwise the identity, so mixed vanilla/ISU groups stay eligible.

Groups must agree on everything *except* seed, update plan, and (for the
split path) gradient delay: same graph object, task, dims, epochs,
learning rate, dropout, noise sigma, and eval cadence.  Singletons and
incompatible replicas fall back to the serial trainers, which remain the
reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.gcn.losses import (
    EdgeScatter,
    sigmoid,
    softmax,
)
from repro.gcn.model import GCN
from repro.gcn.optim import Adam
from repro.gcn.trainer import (
    LinkPredictionTrainer,
    NodeClassificationTrainer,
    TrainingResult,
    _split_indices,
    _validate_schedule,
)
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan
from repro.perf import profile

NODE_TEST_FRACTION = 0.3  # NodeClassificationTrainer default
LINK_TEST_FRACTION = 0.2  # LinkPredictionTrainer default


@dataclass(frozen=True, eq=False)
class ReplicaSpec:
    """One training run, described for replica batching.

    Field defaults mirror the serial trainers'.  ``test_fraction=None``
    resolves to the task default (0.3 node / 0.2 link).  Replicas group
    together when they agree on every field except ``random_state`` and
    ``update_plan``.
    """

    graph: Graph
    task: str
    epochs: int
    random_state: int = 0
    update_plan: Optional[UpdatePlan] = None
    hidden_dim: int = 64
    embedding_dim: int = 64
    num_layers: int = 2
    learning_rate: float = 0.01
    dropout: float = 0.0
    test_fraction: Optional[float] = None
    analog_noise_sigma: float = 0.0
    start_epoch: int = 0
    eval_every: int = 1

    def resolved_test_fraction(self) -> float:
        """The task-default split fraction unless overridden."""
        if self.test_fraction is not None:
            return self.test_fraction
        if self.task == "link":
            return LINK_TEST_FRACTION
        return NODE_TEST_FRACTION

    def group_key(self) -> Tuple:
        """Replicas sharing this key may train in one batched group."""
        return (
            id(self.graph), self.task, self.epochs, self.hidden_dim,
            self.embedding_dim, self.num_layers, self.learning_rate,
            self.dropout, self.resolved_test_fraction(),
            self.analog_noise_sigma, self.start_epoch, self.eval_every,
        )


def _replica_streams(
    session,
    index: int,
    random_state: int,
) -> Dict[str, np.random.Generator]:
    """The two named per-replica streams, seeded as the serial trainers.

    ``trainer`` mirrors the trainer's ``self._rng`` (split + negative
    sampling); ``model`` mirrors the GCN's ``self._rng`` (weight init,
    dropout masks, analog noise).  Both are raw ``default_rng(seed)``
    streams — the serial construction, pinned by the golden hashes — and
    registered on the session under their replica-qualified names.
    """
    return {
        "trainer": session.replica_rng(f"replica{index}/trainer", random_state),
        "model": session.replica_rng(f"replica{index}/model", random_state),
    }


# ----------------------------------------------------------------------
# Stacked model: [R, in, out] weights, [R, V, d] activations
# ----------------------------------------------------------------------
def _stacked_adjacency(graph: Graph, x: np.ndarray) -> np.ndarray:
    """Batched ``A_hat @ x[r]`` by column-stacking the replica blocks."""
    r, v, d = x.shape
    flat = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(v, r * d)
    out = graph.normalized_adjacency_matmul(flat)
    return np.ascontiguousarray(out.reshape(v, r, d).transpose(1, 0, 2))


class _BatchedStore:
    """Stacked :class:`~repro.gcn.model.StaleFeatureStore`: one
    ``[R, V, d]`` buffer per layer, refreshed through a per-replica row
    mask (``masks=None`` = full refresh, as is every first refresh)."""

    def __init__(self, num_layers: int) -> None:
        self._buffers: List[Optional[np.ndarray]] = [None] * num_layers

    def refresh(
        self,
        layer: int,
        values: np.ndarray,
        masks: Optional[np.ndarray],
    ) -> None:
        buffer = self._buffers[layer]
        if buffer is None or masks is None:
            if values.dtype == np.float32 and values.flags["C_CONTIGUOUS"]:
                # Full refreshes adopt the array: ``values`` is always a
                # fresh matmul output the caller never touches again, so
                # skipping the [R, V, d] copy leaves the stored bits
                # unchanged.
                self._buffers[layer] = values
            else:
                self._buffers[layer] = np.array(values, dtype=np.float32)
            return
        np.copyto(buffer, values, where=masks[:, :, None])

    def read(self, layer: int) -> np.ndarray:
        buffer = self._buffers[layer]
        if buffer is None:
            raise TrainingError(f"layer {layer} buffer never refreshed")
        return buffer


class _StackedGCN:
    """R GCNs with identical dims advanced as one ``[R, ...]`` model.

    Forward/backward mirror :class:`~repro.gcn.model.GCN` operation for
    operation; per-replica randomness (dropout, analog noise) draws from
    each replica's own ``model`` stream in the serial order.
    """

    def __init__(
        self,
        dims: Sequence[Tuple[int, int]],
        dropout: float,
        analog_noise_sigma: float,
        params: Dict[str, np.ndarray],
        model_rngs: Optional[List[np.random.Generator]],
    ) -> None:
        self._dims = [tuple(d) for d in dims]
        self._dropout = dropout
        self._analog_noise = analog_noise_sigma
        self.params = params
        self._rngs = model_rngs
        self.num_replicas = next(iter(params.values())).shape[0]
        self._dropout_scratch: Dict[Tuple[int, int], np.ndarray] = {}

    @property
    def num_layers(self) -> int:
        return len(self._dims)

    @classmethod
    def from_seeds(
        cls,
        dims: Sequence[Tuple[int, int]],
        dropout: float,
        analog_noise_sigma: float,
        model_rngs: List[np.random.Generator],
    ) -> "_StackedGCN":
        """Draw each replica's init from its own stream, in serial order
        (replica-outer, layer-inner — exactly one GCN construction per
        stream)."""
        per_layer: List[List[np.ndarray]] = [[] for _ in dims]
        for rng in model_rngs:
            for i, (d_in, d_out) in enumerate(dims):
                scale = np.sqrt(2.0 / (d_in + d_out))
                per_layer[i].append(
                    rng.normal(0.0, scale, size=(d_in, d_out))
                    .astype(np.float32)
                )
        params = {
            f"W{i}": np.stack(stack) for i, stack in enumerate(per_layer)
        }
        return cls(dims, dropout, analog_noise_sigma, params, model_rngs)

    @classmethod
    def from_models(cls, models: Sequence[GCN]) -> "_StackedGCN":
        """Stack pre-constructed (already initialised) GCNs.

        Used by the split-harness path, where callers build and seed the
        models themselves; requires ``dropout == 0`` and no analog noise
        (no per-epoch model randomness to replicate).
        """
        first = models[0]
        params = {
            key: np.stack([m.params[key] for m in models])
            for key in first.params
        }
        return cls(first.layer_dims, 0.0, 0.0, params, model_rngs=None)

    def unstack_params(self, replica: int) -> Dict[str, np.ndarray]:
        """One replica's parameter dict (copies)."""
        return {key: val[replica].copy() for key, val in self.params.items()}

    # ------------------------------------------------------------------
    def forward(
        self,
        graph: Graph,
        features: np.ndarray,
        store: Optional[_BatchedStore] = None,
        masks: Optional[np.ndarray] = None,
        training: bool = False,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, dict]:
        """Batched forward; ``masks`` is the ``[R, V]`` refresh mask
        (None = every replica refreshes fully this round)."""
        if params is None:
            params = self.params
        # Elementwise mask/dropout products run in place on the owned
        # aggregation output: the same values the out-of-place products
        # give, without the [R, V, d] temporaries.
        cache: dict = {"inputs": [], "masks": [], "fresh": [], "dropout": []}
        hidden: np.ndarray = features  # [V, d0] shared, then [R, V, d]
        for i in range(self.num_layers):
            cache["inputs"].append(hidden)
            combined = np.matmul(hidden, params[f"W{i}"])
            if store is not None:
                store.refresh(i, combined, masks)
                effective = store.read(i)
                fresh = masks  # all-ones rows are bitwise no-ops downstream
            else:
                fresh = None
                effective = combined
            cache["fresh"].append(fresh)
            aggregated = _stacked_adjacency(graph, effective)
            if self._analog_noise > 0:
                factors = np.stack([
                    rng.normal(
                        1.0, self._analog_noise, size=aggregated.shape[1:],
                    ).astype(np.float32)
                    for rng in self._rngs
                ])
                aggregated = aggregated * factors
            if i < self.num_layers - 1:
                mask = aggregated > 0
                hidden = np.multiply(aggregated, mask, out=aggregated)
                cache["masks"].append(mask)
                if training and self._dropout > 0:
                    shape = hidden.shape[1:]
                    scratch = self._dropout_scratch.get(shape)
                    if scratch is None:
                        scratch = np.empty(shape, dtype=np.float64)
                        self._dropout_scratch[shape] = scratch
                    keeps = []
                    for rng in self._rngs:
                        rng.random(out=scratch)
                        keep = (scratch >= self._dropout).astype(np.float32)
                        keep /= (1.0 - self._dropout)
                        keeps.append(keep)
                    keep_stack = np.stack(keeps)
                    hidden = np.multiply(hidden, keep_stack, out=hidden)
                    cache["dropout"].append(keep_stack)
                else:
                    cache["dropout"].append(None)
            else:
                hidden = aggregated
                cache["masks"].append(None)
                cache["dropout"].append(None)
        return hidden, cache

    def backward(
        self,
        graph: Graph,
        cache: dict,
        grad_output: np.ndarray,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Batched backward mirroring :meth:`GCN.backward` per slice.

        Elementwise products run in place, which may scribble on
        ``grad_output`` — every caller owns that buffer and fully
        rewrites it before the next use.
        """
        if params is None:
            params = self.params
        grads: Dict[str, np.ndarray] = {}
        grad = np.asarray(grad_output, dtype=np.float32)
        for i in range(self.num_layers - 1, -1, -1):
            keep = cache["dropout"][i]
            if keep is not None:
                grad = np.multiply(grad, keep, out=grad)
            mask = cache["masks"][i]
            if mask is not None:
                grad = np.multiply(grad, mask, out=grad)
            grad_combined = _stacked_adjacency(graph, grad)
            fresh = cache["fresh"][i]
            if fresh is not None:
                np.multiply(
                    grad_combined, fresh[:, :, None], out=grad_combined,
                )
            inputs = cache["inputs"][i]
            if inputs.ndim == 2:  # shared features: broadcast over R
                grads[f"W{i}"] = np.matmul(inputs.T, grad_combined)
            else:
                grads[f"W{i}"] = np.matmul(
                    inputs.transpose(0, 2, 1), grad_combined,
                )
            if i > 0:
                grad = np.matmul(
                    grad_combined, params[f"W{i}"].transpose(0, 2, 1),
                )
        return grads


# ----------------------------------------------------------------------
# Batched losses/metrics (per-replica-row scalar reductions)
# ----------------------------------------------------------------------
def _cross_entropy_replicas(
    logits: np.ndarray,
    labels: np.ndarray,
) -> Tuple[List[float], np.ndarray]:
    """Batched :func:`~repro.gcn.losses.cross_entropy_loss`.

    ``logits`` is ``[R, n, C]``, ``labels`` ``[R, n]``.  Scalar losses
    extract each replica's contiguous probability row before the 1-D
    ``mean`` so the pairwise-summation blocking matches the serial path.
    """
    logits64 = np.asarray(logits, dtype=np.float64)
    num_replicas, n, num_classes = logits64.shape
    if labels.min() < 0 or labels.max() >= num_classes:
        raise TrainingError("labels out of range of logit columns")
    probs = softmax(logits64.reshape(num_replicas * n, num_classes))
    probs = probs.reshape(num_replicas, n, num_classes)
    rows = np.arange(n)
    losses = []
    for r in range(num_replicas):
        picked = probs[r, rows, labels[r]]
        losses.append(float(-np.log(picked + 1e-12).mean()))
    grad = probs
    grad[np.arange(num_replicas)[:, None], rows[None, :], labels] -= 1.0
    return losses, (grad / n).astype(np.float32)


def _accuracy_replicas(logits: np.ndarray, labels: np.ndarray) -> List[float]:
    """Batched top-1 accuracy; ``logits`` ``[R, n, C]``, labels ``[R, n]``."""
    preds = logits.argmax(axis=-1)
    return [
        float((preds[r] == labels[r]).mean()) for r in range(preds.shape[0])
    ]


class _EdgeScoreBuffers:
    """Preallocated gather buffers for dot-product decoder scores.

    ``np.take(..., out=buf, mode="clip")`` into warm buffers skips the
    per-call 6-odd-MB allocation churn of ``embeddings[edges[:, 0]]``;
    the einsum over the buffers returns the same bits as the serial
    :func:`~repro.gcn.losses.link_logits` (gathers are exact copies).
    """

    def __init__(self, capacity: int, dim: int) -> None:
        self._a = np.empty((capacity, dim), dtype=np.float32)
        self._b = np.empty((capacity, dim), dtype=np.float32)

    def scores(
        self,
        embeddings: np.ndarray,
        idx0: np.ndarray,
        idx1: np.ndarray,
    ) -> np.ndarray:
        m = idx0.shape[0]
        a, b = self._a[:m], self._b[:m]
        np.take(embeddings, idx0, axis=0, out=a, mode="clip")
        np.take(embeddings, idx1, axis=0, out=b, mode="clip")
        return np.einsum("ij,ij->i", a, b)


def _bce_sum_terms(
    probs: np.ndarray,
    num_replicas: int,
    log_buf: np.ndarray,
) -> List[float]:
    """Per-replica BCE totals from the ``[2R, E]`` probability matrix.

    Row ``r`` holds replica ``r``'s positive-edge probabilities, row
    ``R + r`` its negative-edge ones.  The serial form is
    ``-(label*log(p + 1e-12) + (1-label)*log(1 - p + 1e-12)).sum()``;
    with ``label`` exactly 1.0 or 0.0 the zero-weighted log contributes
    ``±0.0`` per element (its argument is finite and positive), and
    ``x + ±0.0 == x`` bitwise for every value the kept log produces, so
    evaluating only the weighted log is bit-identical at a quarter of
    the elementwise work.  Each row is contiguous, so the 1-D ``sum``
    keeps the serial pairwise-summation blocking.
    """
    totals = []
    for r in range(num_replicas):
        np.add(probs[r], 1e-12, out=log_buf)
        np.log(log_buf, out=log_buf)
        total = float(-log_buf.sum())
        np.subtract(1.0, probs[num_replicas + r], out=log_buf)
        np.add(log_buf, 1e-12, out=log_buf)
        np.log(log_buf, out=log_buf)
        total += float(-log_buf.sum())
        totals.append(total)
    return totals


# ----------------------------------------------------------------------
# Batched trainers
# ----------------------------------------------------------------------
def _epoch_masks(
    specs: Sequence[ReplicaSpec],
    num_vertices: int,
    epoch: int,
) -> Optional[np.ndarray]:
    """The ``[R, V]`` refresh mask for one epoch, or None when every
    replica refreshes fully (plan-less, or a minor-refresh epoch)."""
    rows = []
    partial = False
    for spec in specs:
        plan = spec.update_plan
        if plan is None:
            rows.append(None)
            continue
        updated = plan.vertices_updated_at(epoch)
        if updated.size == num_vertices:
            rows.append(None)
            continue
        row = np.zeros(num_vertices, dtype=bool)
        row[updated] = True
        rows.append(row)
        partial = True
    if not partial:
        return None
    masks = np.ones((len(specs), num_vertices), dtype=bool)
    for r, row in enumerate(rows):
        if row is not None:
            masks[r] = row
    return masks


class BatchedNodeTrainer:
    """R node-classification runs, one batched pass per epoch."""

    def __init__(
        self,
        graph: Graph,
        specs: Sequence[ReplicaSpec],
        session,
    ) -> None:
        if graph.features is None or graph.labels is None:
            raise TrainingError("node task needs features and labels")
        self._graph = graph
        self._specs = list(specs)
        first = self._specs[0]
        self.streams = [
            _replica_streams(session, i, spec.random_state)
            for i, spec in enumerate(self._specs)
        ]
        dims: List[Tuple[int, int]] = []
        d_in = graph.feature_dim
        for layer in range(first.num_layers):
            d_out = (
                graph.num_classes if layer == first.num_layers - 1
                else first.hidden_dim
            )
            dims.append((d_in, d_out))
            d_in = d_out
        self.model = _StackedGCN.from_seeds(
            dims, first.dropout, first.analog_noise_sigma,
            [s["model"] for s in self.streams],
        )
        self._optimizer = Adam(learning_rate=first.learning_rate)
        splits = [
            _split_indices(
                graph.num_vertices, spec.resolved_test_fraction(),
                self.streams[i]["trainer"],
            )
            for i, spec in enumerate(self._specs)
        ]
        self.train_idx = np.stack([s[0] for s in splits])
        self.test_idx = np.stack([s[1] for s in splits])
        self._store = _BatchedStore(first.num_layers)

    @profile.phase(profile.PHASE_TRAINING_BATCHED)
    def train(self) -> List[TrainingResult]:
        first = self._specs[0]
        epochs, start_epoch = first.epochs, first.start_epoch
        eval_every = first.eval_every
        _validate_schedule(epochs, start_epoch, eval_every)
        if first.analog_noise_sigma > 0:
            eval_every = 1  # eval forwards draw RNG; keep streams fixed
        reuse_logits = (
            first.dropout == 0.0 and first.analog_noise_sigma == 0.0
        )
        graph = self._graph
        features = graph.features
        labels = graph.labels
        num_replicas = len(self._specs)
        results = [TrainingResult() for _ in self._specs]
        train_labels = np.stack([labels[idx] for idx in self.train_idx])
        test_labels = np.stack([labels[idx] for idx in self.test_idx])
        replica_rows = np.arange(num_replicas)[:, None]
        grad_buffer: Optional[np.ndarray] = None
        last_epoch = start_epoch + epochs - 1
        no_updates = np.zeros((num_replicas, graph.num_vertices), dtype=bool)
        for epoch in range(start_epoch, start_epoch + epochs):
            masks = _epoch_masks(self._specs, graph.num_vertices, epoch)
            logits, cache = self.model.forward(
                graph, features, store=self._store, masks=masks,
                training=True,
            )
            picked = logits[replica_rows, self.train_idx]
            losses, grad_logits = _cross_entropy_replicas(
                picked, train_labels,
            )
            if grad_buffer is None:
                grad_buffer = np.zeros_like(logits)
            else:
                grad_buffer.fill(0.0)
            grad_buffer[replica_rows, self.train_idx] = grad_logits
            grads = self.model.backward(graph, cache, grad_buffer)
            self._optimizer.step(self.model.params, grads)

            for r, loss in enumerate(losses):
                results[r].losses.append(loss)
            evaluate = (
                (epoch - start_epoch + 1) % eval_every == 0
                or epoch == last_epoch
            )
            if not evaluate:
                continue
            if reuse_logits:
                eval_logits = logits
            else:
                eval_logits, _ = self.model.forward(
                    graph, features, store=self._store, masks=no_updates,
                    training=False,
                )
            train_metrics = _accuracy_replicas(
                eval_logits[replica_rows, self.train_idx], train_labels,
            )
            test_metrics = _accuracy_replicas(
                eval_logits[replica_rows, self.test_idx], test_labels,
            )
            for r in range(num_replicas):
                results[r].eval_epochs.append(epoch)
                results[r].train_metrics.append(train_metrics[r])
                results[r].test_metrics.append(test_metrics[r])
        profile.accrue_calls(
            profile.PHASE_TRAINING_BATCHED, num_replicas - 1,
        )
        return results


class BatchedLinkTrainer:
    """R link-prediction runs, one batched pass per epoch.

    When every replica shares a seed (the tab05/fig16 shape) the edge
    split and the per-epoch negative draws coincide, so the fused
    gradient-scatter plan (:func:`~repro.gcn.losses.edge_scatter_plan`)
    is built once per epoch and applied per replica.
    """

    def __init__(
        self,
        graph: Graph,
        specs: Sequence[ReplicaSpec],
        session,
    ) -> None:
        if graph.features is None:
            raise TrainingError("link task needs vertex features")
        self._graph = graph
        self._specs = list(specs)
        first = self._specs[0]
        self.streams = [
            _replica_streams(session, i, spec.random_state)
            for i, spec in enumerate(self._specs)
        ]
        dims: List[Tuple[int, int]] = []
        d_in = graph.feature_dim
        for layer in range(first.num_layers):
            d_out = (
                first.embedding_dim if layer == first.num_layers - 1
                else first.hidden_dim
            )
            dims.append((d_in, d_out))
            d_in = d_out
        self.model = _StackedGCN.from_seeds(
            dims, first.dropout, first.analog_noise_sigma,
            [s["model"] for s in self.streams],
        )
        self._optimizer = Adam(learning_rate=first.learning_rate)
        edges = graph.edge_list()
        if edges.shape[0] < 4:
            raise TrainingError("graph too small for a link split")
        self.train_pos: List[np.ndarray] = []
        self.test_pos: List[np.ndarray] = []
        self.test_neg: List[np.ndarray] = []
        for i, spec in enumerate(self._specs):
            rng = self.streams[i]["trainer"]
            train_rows, test_rows = _split_indices(
                edges.shape[0], spec.resolved_test_fraction(), rng,
            )
            self.train_pos.append(edges[train_rows])
            self.test_pos.append(edges[test_rows])
            self.test_neg.append(
                self._sample_negatives(rng, self.test_pos[-1].shape[0])
            )
        self._shared_seed = all(
            spec.random_state == first.random_state for spec in self._specs
        )
        dim = first.embedding_dim
        capacity = max(
            max(p.shape[0] for p in self.train_pos),
            max(
                tp.shape[0] + tn.shape[0]
                for tp, tn in zip(self.test_pos, self.test_neg)
            ),
        )
        self._buffers = _EdgeScoreBuffers(capacity, dim)
        # Contiguous index columns for the fixed edge sets.
        self._pos_idx = [
            (np.ascontiguousarray(p[:, 0]), np.ascontiguousarray(p[:, 1]))
            for p in self.train_pos
        ]
        # Test pos/neg gathers fused into one take per endpoint column;
        # the score vector splits back at ``m`` (row slices are views).
        self._test_idx = [
            (
                np.concatenate([tp[:, 0], tn[:, 0]]),
                np.concatenate([tp[:, 1], tn[:, 1]]),
                tp.shape[0],
            )
            for tp, tn in zip(self.test_pos, self.test_neg)
        ]
        # Every replica splits the same edge list with the same fraction,
        # so train pos/neg counts agree across replicas; scores live in
        # one [2R, E] matrix (pos rows then neg rows) so the sigmoid and
        # the BCE log run once per epoch instead of 4R times.
        num_edges = self.train_pos[0].shape[0]
        num_replicas = len(self._specs)
        self._scores = np.empty(
            (2 * num_replicas, num_edges), dtype=np.float32,
        )
        self._log_buf = np.empty(num_edges, dtype=np.float64)
        self._data_buf = np.empty(4 * num_edges, dtype=np.float64)
        self._emb64_buf = np.empty((graph.num_vertices, dim), dtype=np.float64)
        self._store = _BatchedStore(first.num_layers)

    def _sample_negatives(
        self, rng: np.random.Generator, count: int,
    ) -> np.ndarray:
        n = self._graph.num_vertices
        src = rng.integers(0, n, size=2 * count + 8)
        dst = rng.integers(0, n, size=2 * count + 8)
        keep = src != dst
        return np.stack([src[keep], dst[keep]], axis=1)[:count]

    def _sample_negative_columns(
        self, rng: np.random.Generator, count: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Same stream draws as :meth:`_sample_negatives`, but returned
        as the two contiguous endpoint columns the epoch loop gathers
        with — skips the ``stack`` + ``ascontiguousarray`` round trip."""
        n = self._graph.num_vertices
        src = rng.integers(0, n, size=2 * count + 8)
        dst = rng.integers(0, n, size=2 * count + 8)
        keep = src != dst
        return src[keep][:count], dst[keep][:count]

    def _link_accuracy_from_scores(
        self, pos_scores: np.ndarray, neg_scores: np.ndarray,
    ) -> float:
        correct = float(
            (pos_scores > 0).sum() + (neg_scores <= 0).sum()
        )
        return correct / (pos_scores.size + neg_scores.size)

    @profile.phase(profile.PHASE_TRAINING_BATCHED)
    def train(self) -> List[TrainingResult]:
        first = self._specs[0]
        epochs, start_epoch = first.epochs, first.start_epoch
        eval_every = first.eval_every
        _validate_schedule(epochs, start_epoch, eval_every)
        if first.analog_noise_sigma > 0:
            eval_every = 1
        reuse_embeddings = (
            first.dropout == 0.0 and first.analog_noise_sigma == 0.0
        )
        graph = self._graph
        features = graph.features
        num_vertices = graph.num_vertices
        num_replicas = len(self._specs)
        results = [TrainingResult() for _ in self._specs]
        buffers = self._buffers
        last_epoch = start_epoch + epochs - 1
        no_updates = np.zeros((num_replicas, num_vertices), dtype=bool)
        grad_emb: Optional[np.ndarray] = None
        for epoch in range(start_epoch, start_epoch + epochs):
            masks = _epoch_masks(self._specs, num_vertices, epoch)
            embeddings, cache = self.model.forward(
                graph, features, store=self._store, masks=masks,
                training=True,
            )
            neg_idx = [
                self._sample_negative_columns(
                    self.streams[r]["trainer"], self.train_pos[r].shape[0],
                )
                for r in range(num_replicas)
            ]
            # Fused BCE: all replicas' scores in one [2R, E] matrix so
            # sigmoid runs once per epoch; one scatter plan per epoch
            # (shared across replicas when the seeds agree).
            scores = self._scores
            for r in range(num_replicas):
                p0, p1 = self._pos_idx[r]
                n0, n1 = neg_idx[r]
                scores[r] = buffers.scores(embeddings[r], p0, p1)
                scores[num_replicas + r] = buffers.scores(
                    embeddings[r], n0, n1,
                )
            probs = sigmoid(scores)
            losses = _bce_sum_terms(probs, num_replicas, self._log_buf)
            num_edges = scores.shape[1]
            count = 2 * num_edges
            scatter = None
            if grad_emb is None:
                grad_emb = np.empty_like(embeddings)
            data = self._data_buf
            for r in range(num_replicas):
                if scatter is None or not self._shared_seed:
                    p0, p1 = self._pos_idx[r]
                    n0, n1 = neg_idx[r]
                    scatter = EdgeScatter(
                        np.concatenate([p0, p1, n0, n1]),
                        np.concatenate([p1, p0, n1, n0]),
                        num_vertices,
                    )
                # Coefficients in the serial concatenation order:
                # [coeff_pos, coeff_pos, neg_probs, neg_probs].
                np.subtract(probs[r], 1.0, out=data[:num_edges])
                data[num_edges:2 * num_edges] = data[:num_edges]
                data[2 * num_edges:3 * num_edges] = probs[num_replicas + r]
                data[3 * num_edges:] = probs[num_replicas + r]
                grad = scatter.apply(
                    data, embeddings[r], emb64_buf=self._emb64_buf,
                )
                # In-place divide, then let the assignment cast to f32 —
                # the same rounding as ``(grad / count).astype(float32)``.
                np.divide(grad, count, out=grad)
                grad_emb[r] = grad
                losses[r] = losses[r] / count
            grads = self.model.backward(graph, cache, grad_emb)
            self._optimizer.step(self.model.params, grads)

            for r, loss in enumerate(losses):
                results[r].losses.append(loss)
            evaluate = (
                (epoch - start_epoch + 1) % eval_every == 0
                or epoch == last_epoch
            )
            if not evaluate:
                continue
            if reuse_embeddings:
                eval_emb = embeddings
                train_pos_scores = [scores[r] for r in range(num_replicas)]
                train_neg_scores = [
                    scores[num_replicas + r] for r in range(num_replicas)
                ]
            else:
                eval_emb, _ = self.model.forward(
                    graph, features, store=self._store,
                    masks=no_updates, training=False,
                )
                train_pos_scores = [
                    buffers.scores(eval_emb[r], *self._pos_idx[r])
                    for r in range(num_replicas)
                ]
                train_neg_scores = [
                    buffers.scores(eval_emb[r], *neg_idx[r])
                    for r in range(num_replicas)
                ]
            for r in range(num_replicas):
                cat0, cat1, num_test_pos = self._test_idx[r]
                test_scores = buffers.scores(eval_emb[r], cat0, cat1)
                results[r].eval_epochs.append(epoch)
                results[r].train_metrics.append(
                    self._link_accuracy_from_scores(
                        train_pos_scores[r], train_neg_scores[r],
                    )
                )
                results[r].test_metrics.append(
                    self._link_accuracy_from_scores(
                        test_scores[:num_test_pos],
                        test_scores[num_test_pos:],
                    )
                )
        profile.accrue_calls(
            profile.PHASE_TRAINING_BATCHED, num_replicas - 1,
        )
        return results


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def _serial_result(spec: ReplicaSpec) -> TrainingResult:
    """Train one replica on the retained serial reference path."""
    kwargs = dict(
        hidden_dim=spec.hidden_dim,
        num_layers=spec.num_layers,
        learning_rate=spec.learning_rate,
        dropout=spec.dropout,
        test_fraction=spec.resolved_test_fraction(),
        analog_noise_sigma=spec.analog_noise_sigma,
    )
    if spec.task == "link":
        trainer = LinkPredictionTrainer(
            spec.graph, random_state=spec.random_state,
            embedding_dim=spec.embedding_dim, **kwargs,
        )
    elif spec.task == "node":
        trainer = NodeClassificationTrainer(
            spec.graph, random_state=spec.random_state, **kwargs,
        )
    else:
        raise TrainingError(f"unknown task {spec.task!r}")
    return trainer.train(
        epochs=spec.epochs, update_plan=spec.update_plan,
        start_epoch=spec.start_epoch, eval_every=spec.eval_every,
    )


def train_replicas(
    specs: Sequence[ReplicaSpec],
    session=None,
    min_batch: int = 2,
) -> List[TrainingResult]:
    """Train every replica, batching compatible groups.

    Replicas sharing a :meth:`ReplicaSpec.group_key` train together in
    one stacked pass; groups smaller than ``min_batch`` fall back to the
    serial trainers.  Results come back in input order and are
    bit-identical to training each spec serially.
    """
    if not specs:
        return []
    for spec in specs:
        if spec.task not in ("node", "link"):
            raise TrainingError(f"unknown task {spec.task!r}")
    if session is None:
        from repro.runtime import default_session

        session = default_session()
    groups: Dict[Tuple, List[int]] = {}
    for position, spec in enumerate(specs):
        groups.setdefault(spec.group_key(), []).append(position)
    results: List[Optional[TrainingResult]] = [None] * len(specs)
    for positions in groups.values():
        group = [specs[p] for p in positions]
        if len(group) < min_batch:
            for position, spec in zip(positions, group):
                results[position] = _serial_result(spec)
            continue
        if group[0].task == "link":
            trainer = BatchedLinkTrainer(group[0].graph, group, session)
        else:
            trainer = BatchedNodeTrainer(group[0].graph, group, session)
        for position, result in zip(positions, trainer.train()):
            results[position] = result
    return results


# ----------------------------------------------------------------------
# Split-harness path (train_with_split consumers)
# ----------------------------------------------------------------------
@profile.phase(profile.PHASE_TRAINING_BATCHED)
def train_split_replicas(
    graph: Graph,
    models: Sequence[GCN],
    epochs: int,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    *,
    learning_rate: float = 0.01,
    update_plans: Optional[Sequence[Optional[UpdatePlan]]] = None,
    use_store: bool = False,
    param_delays: Optional[Sequence[int]] = None,
) -> List[float]:
    """Batched ``train_with_split``: best test accuracy per replica.

    Replicates the harness loop exactly — full-graph forward, CE on the
    train vertices, Adam on live params, greedy best-of-epochs test
    accuracy — for R pre-constructed GCNs sharing dims and split.
    ``update_plans`` (with ``use_store``) reproduces the staleness-store
    call shape; ``param_delays`` reproduces the PipeDream delayed-
    gradient shape (forward/backward under weights ``delay`` updates
    old, optimizer stepping live weights).  The caller checks
    eligibility; this function assumes identical dims, zero dropout and
    noise, and a shared split.
    """
    num_replicas = len(models)
    specs_plans = (
        list(update_plans) if update_plans is not None
        else [None] * num_replicas
    )
    delays = (
        list(param_delays) if param_delays is not None
        else [0] * num_replicas
    )
    stacked = _StackedGCN.from_models(models)
    optimizer = Adam(learning_rate=learning_rate)
    store = _BatchedStore(stacked.num_layers) if use_store else None
    labels = graph.labels
    train_labels = np.stack([labels[train_idx]] * num_replicas)
    test_labels = labels[test_idx]
    max_delay = max(delays)
    history: List[Dict[str, np.ndarray]] = []
    num_vertices = graph.num_vertices
    grad_buffer: Optional[np.ndarray] = None
    best = [0.0] * num_replicas
    plan_specs = [
        ReplicaSpec(graph=graph, task="node", epochs=epochs, update_plan=p)
        for p in specs_plans
    ]
    no_updates = np.zeros((num_replicas, num_vertices), dtype=bool)
    for epoch in range(epochs):
        stale_params: Optional[Dict[str, np.ndarray]] = None
        if max_delay > 0:
            # Serial semantics: snapshot live params at epoch start, use
            # the snapshot from `delay` epochs ago (clamped to epoch 0).
            history.append({
                key: val.copy() for key, val in stacked.params.items()
            })
            if len(history) > max_delay + 1:
                history.pop(0)
            base = epoch - len(history) + 1  # epoch of history[0]
            stale_params = {
                key: np.stack([
                    history[max(0, epoch - delays[r]) - base][key][r]
                    for r in range(num_replicas)
                ])
                for key in stacked.params
            }
        masks = (
            _epoch_masks(plan_specs, num_vertices, epoch)
            if use_store else None
        )
        logits, cache = stacked.forward(
            graph, graph.features, store=store, masks=masks,
            training=True, params=stale_params,
        )
        picked = logits[:, train_idx]
        _, grad_logits = _cross_entropy_replicas(picked, train_labels)
        if grad_buffer is None:
            grad_buffer = np.zeros_like(logits)
        else:
            grad_buffer.fill(0.0)
        grad_buffer[:, train_idx] = grad_logits
        grads = stacked.backward(
            graph, cache, grad_buffer, params=stale_params,
        )
        optimizer.step(stacked.params, grads)

        eval_logits, _ = stacked.forward(
            graph, graph.features, store=store,
            masks=no_updates if use_store else None, training=False,
        )
        test_accs = _accuracy_replicas(
            eval_logits[:, test_idx],
            np.stack([test_labels] * num_replicas),
        )
        for r in range(num_replicas):
            best[r] = max(best[r], test_accs[r])
    # Write the trained weights back so callers observing the models see
    # the same final state the serial loop leaves behind.
    for r, model in enumerate(models):
        model.params = stacked.unstack_params(r)
    profile.accrue_calls(profile.PHASE_TRAINING_BATCHED, num_replicas - 1)
    return best
