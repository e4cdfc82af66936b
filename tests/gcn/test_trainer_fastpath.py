"""Strided-eval trainer fast path vs the evaluate-every-epoch reference.

``train(eval_every=k)`` must be *exactly* the reference loop observed at
every k-th epoch: losses are recorded every epoch and must match the
reference's bit for bit (the skipped eval forwards have no side effects
when the analog-noise sigma is zero), and the metrics recorded at the
evaluated epochs must equal the reference's values at those same epochs.
Covered for both trainers (node classification and link prediction),
with and without an ISU :class:`UpdatePlan`, with and without dropout
(dropout exercises the recompute-eval branch; without it the eval
forward is skipped entirely and the training logits are reused).
"""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.trainer import LinkPredictionTrainer, NodeClassificationTrainer
from repro.graphs.generators import dc_sbm_graph
from repro.mapping.selective import build_update_plan
from repro.oracles.gcn import train_link_reference, train_node_reference


@pytest.fixture(scope="module")
def graph():
    return dc_sbm_graph(
        240, 3, 10.0, random_state=0, feature_dim=12, intra_ratio=0.9,
    )


@pytest.fixture(scope="module")
def plan(graph):
    return build_update_plan(graph, "isu", theta=0.5, minor_period=5)


def _node(graph, **kwargs):
    return NodeClassificationTrainer(
        graph, hidden_dim=24, num_layers=2, random_state=1, **kwargs,
    )


def _link(graph, **kwargs):
    return LinkPredictionTrainer(
        graph, hidden_dim=24, embedding_dim=16, random_state=1, **kwargs,
    )


def _train_reference(trainer, **kwargs):
    if isinstance(trainer, NodeClassificationTrainer):
        return train_node_reference(trainer, **kwargs)
    return train_link_reference(trainer, **kwargs)


def _assert_strided_matches_reference(make_trainer, epochs, eval_every,
                                      update_plan=None):
    fast = make_trainer().train(
        epochs=epochs, eval_every=eval_every, update_plan=update_plan,
    )
    ref = _train_reference(
        make_trainer(), epochs=epochs, update_plan=update_plan,
    )
    assert fast.losses == ref.losses  # exact: same training computation
    expected_epochs = sorted(
        {e for e in range(epochs) if (e + 1) % eval_every == 0}
        | {epochs - 1}
    )
    assert fast.eval_epochs == expected_epochs
    assert ref.eval_epochs == list(range(epochs))
    for position, epoch in enumerate(fast.eval_epochs):
        assert fast.train_metrics[position] == ref.train_metrics[epoch]
        assert fast.test_metrics[position] == ref.test_metrics[epoch]


@pytest.mark.parametrize("eval_every", [1, 3, 7])
def test_node_trainer_strided_eval(graph, eval_every):
    _assert_strided_matches_reference(
        lambda: _node(graph), epochs=12, eval_every=eval_every,
    )


@pytest.mark.parametrize("eval_every", [1, 4])
def test_node_trainer_strided_eval_with_plan(graph, plan, eval_every):
    _assert_strided_matches_reference(
        lambda: _node(graph), epochs=12, eval_every=eval_every,
        update_plan=plan,
    )


@pytest.mark.parametrize("eval_every", [1, 3, 7])
def test_link_trainer_strided_eval(graph, eval_every):
    _assert_strided_matches_reference(
        lambda: _link(graph), epochs=12, eval_every=eval_every,
    )


@pytest.mark.parametrize("eval_every", [1, 4])
def test_link_trainer_strided_eval_with_plan(graph, plan, eval_every):
    _assert_strided_matches_reference(
        lambda: _link(graph), epochs=12, eval_every=eval_every,
        update_plan=plan,
    )


def test_dropout_takes_recompute_branch_and_still_matches(graph):
    # With dropout the eval forward cannot reuse the training logits;
    # the fast path recomputes it, exactly like the reference.
    _assert_strided_matches_reference(
        lambda: _node(graph, dropout=0.3), epochs=8, eval_every=3,
    )


def test_final_epoch_always_evaluated(graph):
    result = _node(graph).train(epochs=10, eval_every=100)
    assert result.eval_epochs == [9]
    assert len(result.test_metrics) == 1
    assert len(result.losses) == 10


def test_start_epoch_keeps_plan_phase(graph, plan):
    fast = _node(graph).train(
        epochs=7, start_epoch=3, eval_every=2, update_plan=plan,
    )
    ref = train_node_reference(
        _node(graph), epochs=7, start_epoch=3, update_plan=plan,
    )
    assert fast.losses == ref.losses
    for position, epoch in enumerate(fast.eval_epochs):
        index = epoch - 3
        assert fast.test_metrics[position] == ref.test_metrics[index]


def test_analog_noise_forces_per_epoch_cadence(graph):
    # Eval forwards draw read noise from the model's RNG stream, so the
    # fast path pins eval_every back to 1 to keep runs reproducible.
    trainer = _node(graph, analog_noise_sigma=0.05)
    result = trainer.train(epochs=6, eval_every=3)
    assert result.eval_epochs == list(range(6))


def test_eval_every_validation(graph):
    with pytest.raises(TrainingError):
        _node(graph).train(epochs=5, eval_every=0)


def test_strided_result_properties(graph):
    result = _node(graph).train(epochs=9, eval_every=4)
    assert result.eval_epochs == [3, 7, 8]
    assert result.final_test_metric == result.test_metrics[-1]
    assert result.best_test_metric == max(result.test_metrics)
