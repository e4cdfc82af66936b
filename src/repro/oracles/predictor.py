"""Predictor-layer oracles: the scalar profiling loop (behind
:func:`repro.predictor.profiler.profile_stage_times`), the
allocation-heavy MLP fit (behind ``MLPRegressor._fit``), the
``np.unique``/``.mean()`` CART split search (behind
``DecisionTreeRegressor._best_split``) and the per-tree-cached boosting
loop (behind ``GradientBoostingRegressor._fit``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PredictorError
from repro.predictor.mlp import MLPRegressor
from repro.predictor.profiler import ProfilingResult
from repro.predictor.regressors import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
)
from repro.stages.latency import StageTimingModel


def profile_stage_times_reference(
    timing_model: StageTimingModel,
    epochs: int = 1,
) -> ProfilingResult:
    """Original per-(stage, micro-batch) loop."""
    if epochs < 1:
        raise PredictorError("epochs must be >= 1")
    workload = timing_model.workload
    stage_times: Dict[str, float] = {}
    total = 0.0
    for stage in timing_model.stages:
        per_stage = 0.0
        for mb in range(workload.num_microbatches):
            per_stage += timing_model.microbatch_time_ns(stage, mb, 1)
        stage_times[stage.name] = per_stage / workload.num_microbatches
        total += per_stage
    return ProfilingResult(
        stage_times_ns=stage_times,
        overhead_ns=total * epochs,
        epochs_profiled=epochs,
    )


def mlp_fit_reference(
    model: MLPRegressor, x: np.ndarray, y: np.ndarray,
) -> None:
    """The original allocation-heavy ``MLPRegressor._fit`` loop: identical
    RNG stream and update maths, fresh temporaries every step."""
    rng = np.random.default_rng(model._seed)
    model._y_mean = float(y.mean())
    model._y_std = float(y.std()) or 1.0
    targets = (y - model._y_mean) / model._y_std

    dims = [x.shape[1], *model._hidden, 1]
    model._init_params(dims, rng)
    m_w = [np.zeros_like(w) for w in model._weights]
    v_w = [np.zeros_like(w) for w in model._weights]
    m_b = [np.zeros_like(b) for b in model._biases]
    v_b = [np.zeros_like(b) for b in model._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    model.loss_history = []

    n = x.shape[0]
    for _ in range(model._epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, model._batch_size):
            batch = order[start:start + model._batch_size]
            xb, yb = x[batch], targets[batch]
            pred, acts = model._forward(xb)
            err = pred.ravel() - yb
            epoch_loss += float((err ** 2).sum())

            # Backprop through the MSE head.
            grad = (2.0 / xb.shape[0]) * err[:, None]
            grads_w: List[np.ndarray] = [None] * len(model._weights)
            grads_b: List[np.ndarray] = [None] * len(model._biases)
            for layer in range(len(model._weights) - 1, -1, -1):
                grads_w[layer] = (
                    acts[layer].T @ grad + model._decay * model._weights[layer]
                )
                grads_b[layer] = grad.sum(axis=0)
                if layer > 0:
                    grad = grad @ model._weights[layer].T
                    grad = grad * (acts[layer] > 0)

            step += 1
            correction1 = 1 - beta1 ** step
            correction2 = 1 - beta2 ** step
            for layer in range(len(model._weights)):
                g_w, g_b = grads_w[layer], grads_b[layer]
                m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * g_w
                v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * g_w ** 2
                m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * g_b
                v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * g_b ** 2
                model._weights[layer] -= model._lr * (
                    (m_w[layer] / correction1)
                    / (np.sqrt(v_w[layer] / correction2) + eps)
                )
                model._biases[layer] -= model._lr * (
                    (m_b[layer] / correction1)
                    / (np.sqrt(v_b[layer] / correction2) + eps)
                )
        model.loss_history.append(epoch_loss / n)


def best_split_reference(
    tree: DecisionTreeRegressor, x: np.ndarray, y: np.ndarray,
) -> Optional[Tuple[int, float]]:
    """The original split search: ``np.unique`` candidates and
    ``((a - a.mean()) ** 2).sum()`` impurities."""
    best_gain = 0.0
    best: Optional[Tuple[int, float]] = None
    parent_sse = float(((y - y.mean()) ** 2).sum())
    for feature in range(x.shape[1]):
        column = x[:, feature]
        unique = np.unique(column)
        if unique.size < 2:
            continue
        if unique.size > tree._max_candidates:
            quantiles = np.linspace(0, 100, tree._max_candidates + 2)[1:-1]
            candidates = np.unique(np.percentile(column, quantiles))
        else:
            candidates = (unique[:-1] + unique[1:]) / 2
        for threshold in candidates:
            mask = column <= threshold
            left, right = y[mask], y[~mask]
            if left.size == 0 or right.size == 0:
                continue
            sse = (
                float(((left - left.mean()) ** 2).sum())
                + float(((right - right.mean()) ** 2).sum())
            )
            gain = parent_sse - sse
            if gain > best_gain:
                best_gain = gain
                best = (feature, float(threshold))
    return best


def gradient_boosting_fit_reference(
    model: GradientBoostingRegressor, x: np.ndarray, y: np.ndarray,
) -> None:
    """The original boosting loop: every inner tree goes through the
    public, artifact-cached ``fit`` (one cache entry per tree)."""
    model._base = float(y.mean())
    residual = y - model._base
    model._trees = []
    for _ in range(model._n_estimators):
        tree = DecisionTreeRegressor(
            max_depth=model._max_depth, min_samples_split=4,
        )
        tree.fit(x, residual)
        update = tree.predict(x)
        residual = residual - model._learning_rate * update
        model._trees.append(tree)
