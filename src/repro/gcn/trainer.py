"""GCN training loops with selective vertex updating (accuracy substrate).

Two trainers cover the paper's two task families (Table III): node
classification (proteins/arxiv/products/Cora) and link prediction
(ddi/collab/ppa).  Both support an :class:`~repro.mapping.selective.UpdatePlan`
so the ISU accuracy experiments (Table V, Fig. 16a/b) run the exact
staleness semantics the hardware implements: important vertices refresh on
crossbars every epoch, the rest every ``minor_period`` epochs.

**Fast path.**  ``train`` skips the historical duplicate eval forward:
because evaluation runs with an empty update set, it reads the *same*
crossbar-resident combination outputs the training forward just wrote, so
when the model draws no eval-time randomness (``dropout == 0`` and
``analog_noise_sigma == 0``) the eval output equals the training logits
bit-for-bit and is reused instead of recomputed.  ``eval_every`` further
strides metric evaluation (the last epoch is always evaluated); losses are
unaffected because the eval forward has no side effects when the noise
sigma is zero — with analog noise the eval forward advances the model's
RNG stream, so per-epoch cadence is forced to keep runs reproducible.
:mod:`repro.oracles.gcn` keeps the original evaluate-every-epoch loops as
the equivalence oracles (``tests/gcn/test_trainer_fastpath.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.gcn.losses import (
    accuracy,
    cross_entropy_loss,
    link_accuracy,
    link_bce_loss,
)
from repro.gcn.model import GCN, StaleFeatureStore
from repro.gcn.optim import Adam
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan
from repro.perf import profile

# Shared empty update set for eval forwards (never mutated).
_NO_UPDATES = np.array([], dtype=np.int64)


@dataclass
class TrainingResult:
    """Loss/metric history of one training run.

    ``losses`` has one entry per epoch; the metric lists have one entry
    per *evaluated* epoch (``eval_epochs`` records which — every epoch
    under the default ``eval_every=1`` cadence).
    """

    losses: List[float] = field(default_factory=list)
    train_metrics: List[float] = field(default_factory=list)
    test_metrics: List[float] = field(default_factory=list)
    eval_epochs: List[int] = field(default_factory=list)

    @property
    def final_test_metric(self) -> float:
        """Metric at the last epoch."""
        if not self.test_metrics:
            raise TrainingError("no epochs recorded")
        return self.test_metrics[-1]

    @property
    def best_test_metric(self) -> float:
        """Best evaluated-epoch metric (what the paper tables report)."""
        if not self.test_metrics:
            raise TrainingError("no epochs recorded")
        return max(self.test_metrics)


def _split_indices(
    count: int,
    test_fraction: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    order = rng.permutation(count)
    cut = int(round(count * (1.0 - test_fraction)))
    if cut == 0 or cut == count:
        raise TrainingError("split leaves an empty train or test set")
    return np.sort(order[:cut]), np.sort(order[cut:])


def _validate_schedule(epochs: int, start_epoch: int, eval_every: int) -> None:
    if epochs < 1:
        raise TrainingError("epochs must be >= 1")
    if start_epoch < 0:
        raise TrainingError("start_epoch must be >= 0")
    if eval_every < 1:
        raise TrainingError("eval_every must be >= 1")


class NodeClassificationTrainer:
    """Full-batch node-classification training with optional staleness."""

    def __init__(
        self,
        graph: Graph,
        hidden_dim: int = 64,
        num_layers: int = 2,
        learning_rate: float = 0.01,
        dropout: float = 0.0,
        test_fraction: float = 0.3,
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None or graph.labels is None:
            raise TrainingError("node task needs features and labels")
        if num_layers < 1:
            raise TrainingError("num_layers must be >= 1")
        self._graph = graph
        self._rng = np.random.default_rng(random_state)
        dims: List[Tuple[int, int]] = []
        d_in = graph.feature_dim
        for layer in range(num_layers):
            d_out = graph.num_classes if layer == num_layers - 1 else hidden_dim
            dims.append((d_in, d_out))
            d_in = d_out
        self.model = GCN(dims, dropout=dropout, random_state=random_state,
                         analog_noise_sigma=analog_noise_sigma)
        self._optimizer = Adam(learning_rate=learning_rate)
        self.train_idx, self.test_idx = _split_indices(
            graph.num_vertices, test_fraction, self._rng,
        )
        self._store = StaleFeatureStore(self.model.num_layers)
        self._grad_buffer: Optional[np.ndarray] = None

    @profile.phase(profile.PHASE_TRAINING)
    def train(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
        eval_every: int = 1,
    ) -> TrainingResult:
        """Run training; with a plan, apply its per-epoch update schedule.

        ``start_epoch`` offsets the plan's epoch phase so callers driving
        the loop one epoch at a time (the co-simulator) keep the ISU
        minor-refresh cadence.  ``eval_every`` strides metric evaluation
        (the final epoch is always evaluated); losses are recorded every
        epoch regardless and match the evaluate-every-epoch oracle
        (:func:`repro.oracles.gcn.train_node_reference`) exactly.
        """
        _validate_schedule(epochs, start_epoch, eval_every)
        if self.model.analog_noise_sigma > 0:
            eval_every = 1  # eval forwards draw RNG; keep the stream fixed
        reuse_logits = (
            self.model.dropout == 0.0
            and self.model.analog_noise_sigma == 0.0
        )
        graph = self._graph
        features = graph.features
        labels = graph.labels
        store = self._store
        result = TrainingResult()
        last_epoch = start_epoch + epochs - 1
        for epoch in range(start_epoch, start_epoch + epochs):
            updated = (
                None if update_plan is None
                else update_plan.vertices_updated_at(epoch)
            )
            logits, cache = self.model.forward(
                graph, features, store=store, updated=updated, training=True,
            )
            loss, grad_logits = cross_entropy_loss(
                logits[self.train_idx], labels[self.train_idx],
            )
            if (
                self._grad_buffer is None
                or self._grad_buffer.shape != logits.shape
            ):
                self._grad_buffer = np.zeros_like(logits)
            else:
                self._grad_buffer.fill(0.0)
            grad_full = self._grad_buffer
            grad_full[self.train_idx] = grad_logits
            grads = self.model.backward(graph, cache, grad_full)
            self._optimizer.step(self.model.params, grads)

            result.losses.append(loss)
            evaluate = (
                (epoch - start_epoch + 1) % eval_every == 0
                or epoch == last_epoch
            )
            if not evaluate:
                continue
            if reuse_logits:
                # Eval runs with an empty update set, so it reads the
                # resident (stale) combination outputs the training
                # forward just wrote: without dropout or analog noise the
                # eval output *is* the training logits, bit for bit.
                eval_logits = logits
            else:
                eval_logits, _ = self.model.forward(
                    graph, features, store=store, updated=_NO_UPDATES,
                    training=False,
                )
            result.eval_epochs.append(epoch)
            result.train_metrics.append(
                accuracy(eval_logits[self.train_idx], labels[self.train_idx])
            )
            result.test_metrics.append(
                accuracy(eval_logits[self.test_idx], labels[self.test_idx])
            )
        return result


class LinkPredictionTrainer:
    """Link prediction with a dot-product decoder and negative sampling."""

    def __init__(
        self,
        graph: Graph,
        hidden_dim: int = 64,
        embedding_dim: int = 64,
        num_layers: int = 2,
        learning_rate: float = 0.01,
        dropout: float = 0.0,
        test_fraction: float = 0.2,
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None:
            raise TrainingError("link task needs vertex features")
        self._graph = graph
        self._rng = np.random.default_rng(random_state)
        dims: List[Tuple[int, int]] = []
        d_in = graph.feature_dim
        for layer in range(num_layers):
            d_out = embedding_dim if layer == num_layers - 1 else hidden_dim
            dims.append((d_in, d_out))
            d_in = d_out
        self.model = GCN(dims, dropout=dropout, random_state=random_state,
                         analog_noise_sigma=analog_noise_sigma)
        self._optimizer = Adam(learning_rate=learning_rate)

        edges = graph.edge_list()
        if edges.shape[0] < 4:
            raise TrainingError("graph too small for a link split")
        train_rows, test_rows = _split_indices(
            edges.shape[0], test_fraction, self._rng,
        )
        self.train_pos = edges[train_rows]
        self.test_pos = edges[test_rows]
        self.test_neg = self._sample_negatives(self.test_pos.shape[0])
        self._store = StaleFeatureStore(self.model.num_layers)

    def _sample_negatives(self, count: int) -> np.ndarray:
        n = self._graph.num_vertices
        src = self._rng.integers(0, n, size=2 * count + 8)
        dst = self._rng.integers(0, n, size=2 * count + 8)
        keep = src != dst
        return np.stack([src[keep], dst[keep]], axis=1)[:count]

    @profile.phase(profile.PHASE_TRAINING)
    def train(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
        eval_every: int = 1,
    ) -> TrainingResult:
        """Run training; with a plan, apply its per-epoch update schedule.

        ``start_epoch`` offsets the plan's epoch phase (see the node
        trainer's docstring); ``eval_every`` strides metric evaluation
        exactly as there.
        """
        _validate_schedule(epochs, start_epoch, eval_every)
        if self.model.analog_noise_sigma > 0:
            eval_every = 1  # eval forwards draw RNG; keep the stream fixed
        reuse_embeddings = (
            self.model.dropout == 0.0
            and self.model.analog_noise_sigma == 0.0
        )
        graph = self._graph
        features = graph.features
        store = self._store
        result = TrainingResult()
        last_epoch = start_epoch + epochs - 1
        for epoch in range(start_epoch, start_epoch + epochs):
            updated = (
                None if update_plan is None
                else update_plan.vertices_updated_at(epoch)
            )
            embeddings, cache = self.model.forward(
                graph, features, store=store, updated=updated, training=True,
            )
            neg = self._sample_negatives(self.train_pos.shape[0])
            loss, grad_emb = link_bce_loss(embeddings, self.train_pos, neg)
            grads = self.model.backward(graph, cache, grad_emb)
            self._optimizer.step(self.model.params, grads)

            result.losses.append(loss)
            evaluate = (
                (epoch - start_epoch + 1) % eval_every == 0
                or epoch == last_epoch
            )
            if not evaluate:
                continue
            if reuse_embeddings:
                eval_emb = embeddings
            else:
                eval_emb, _ = self.model.forward(
                    graph, features, store=store, updated=_NO_UPDATES,
                    training=False,
                )
            result.eval_epochs.append(epoch)
            result.train_metrics.append(
                link_accuracy(eval_emb, self.train_pos, neg)
            )
            result.test_metrics.append(
                link_accuracy(eval_emb, self.test_pos, self.test_neg)
            )
        return result


def make_trainer(
    graph: Graph,
    task: str,
    random_state: int = 0,
    **kwargs,
):
    """Factory: ``"node"`` or ``"link"`` trainer for a graph."""
    if task == "node":
        return NodeClassificationTrainer(
            graph, random_state=random_state, **kwargs,
        )
    if task == "link":
        return LinkPredictionTrainer(
            graph, random_state=random_state, **kwargs,
        )
    raise TrainingError(f"unknown task {task!r}")
