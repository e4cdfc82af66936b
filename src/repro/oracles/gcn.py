"""GCN-layer oracles: the evaluate-every-epoch training loops.

``train(eval_every=k)`` on either serial trainer must be exactly these
loops observed at the evaluated epochs: losses on every epoch and the
metrics at the evaluated ones, bit for bit
(``tests/gcn/test_trainer_fastpath.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gcn.losses import (
    accuracy,
    cross_entropy_loss,
    link_accuracy,
    link_bce_loss,
)
from repro.gcn.trainer import (
    LinkPredictionTrainer,
    NodeClassificationTrainer,
    TrainingResult,
    _validate_schedule,
)
from repro.mapping.selective import UpdatePlan


def train_node_reference(
    trainer: NodeClassificationTrainer,
    epochs: int = 60,
    update_plan: Optional[UpdatePlan] = None,
    start_epoch: int = 0,
) -> TrainingResult:
    """Evaluate-every-epoch ``NodeClassificationTrainer.train``."""
    _validate_schedule(epochs, start_epoch, eval_every=1)
    graph = trainer._graph
    features = graph.features
    labels = graph.labels
    train_idx, test_idx = trainer.train_idx, trainer.test_idx
    store = trainer._store
    result = TrainingResult()
    for epoch in range(start_epoch, start_epoch + epochs):
        updated = (
            None if update_plan is None
            else update_plan.vertices_updated_at(epoch)
        )
        logits, cache = trainer.model.forward(
            graph, features, store=store, updated=updated, training=True,
        )
        loss, grad_logits = cross_entropy_loss(
            logits[train_idx], labels[train_idx],
        )
        grad_full = np.zeros_like(logits)
        grad_full[train_idx] = grad_logits
        grads = trainer.model.backward(graph, cache, grad_full)
        trainer._optimizer.step(trainer.model.params, grads)

        eval_logits, _ = trainer.model.forward(
            graph, features, store=store,
            updated=np.array([], dtype=np.int64), training=False,
        )
        result.losses.append(loss)
        result.eval_epochs.append(epoch)
        result.train_metrics.append(
            accuracy(eval_logits[train_idx], labels[train_idx])
        )
        result.test_metrics.append(
            accuracy(eval_logits[test_idx], labels[test_idx])
        )
    return result


def train_link_reference(
    trainer: LinkPredictionTrainer,
    epochs: int = 60,
    update_plan: Optional[UpdatePlan] = None,
    start_epoch: int = 0,
) -> TrainingResult:
    """Evaluate-every-epoch ``LinkPredictionTrainer.train``."""
    _validate_schedule(epochs, start_epoch, eval_every=1)
    graph = trainer._graph
    features = graph.features
    store = trainer._store
    result = TrainingResult()
    for epoch in range(start_epoch, start_epoch + epochs):
        updated = (
            None if update_plan is None
            else update_plan.vertices_updated_at(epoch)
        )
        embeddings, cache = trainer.model.forward(
            graph, features, store=store, updated=updated, training=True,
        )
        neg = trainer._sample_negatives(trainer.train_pos.shape[0])
        loss, grad_emb = link_bce_loss(embeddings, trainer.train_pos, neg)
        grads = trainer.model.backward(graph, cache, grad_emb)
        trainer._optimizer.step(trainer.model.params, grads)

        eval_emb, _ = trainer.model.forward(
            graph, features, store=store,
            updated=np.array([], dtype=np.int64), training=False,
        )
        result.losses.append(loss)
        result.eval_epochs.append(epoch)
        result.train_metrics.append(
            link_accuracy(eval_emb, trainer.train_pos, neg)
        )
        result.test_metrics.append(
            link_accuracy(eval_emb, trainer.test_pos, trainer.test_neg)
        )
    return result
