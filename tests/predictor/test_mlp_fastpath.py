"""MLP fast-path fit vs the retained reference loop, plus fit memoisation.

``_fit`` draws every epoch's shuffle as one ``(epochs, n)`` permutation
matrix up front and runs the Adam update in preallocated scratch with the
same IEEE operations in the same order as the oracle
``repro.oracles.predictor.mlp_fit_reference`` (``g * g``
standing in, bitwise-equally, for ``g ** 2``).  Weights, biases and the
loss history must therefore match *bit for bit*, not just approximately.

The base ``Regressor.fit`` additionally memoises fitted state through the
content-keyed artifact cache: a second fit of equal configuration on
equal data restores identical state without recomputation.
"""

import numpy as np
import pytest

from repro.oracles.predictor import mlp_fit_reference
from repro.perf import get_cache
from repro.predictor.mlp import MLPRegressor
from repro.predictor.regressors import RidgeRegressor


def _training_data(seed=0, n=300, dims=11):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, dims))
    y = 3.0 * x[:, 0] - x[:, 1] ** 2 + rng.normal(0.0, 0.1, n) + 5.0
    return x, y


@pytest.mark.parametrize("hidden,epochs", [
    ((256,), 30),          # the paper's three-layer shape
    ((64, 64), 25),        # two hidden layers
    ((32, 32, 32), 20),    # depth-5 shape from the Fig. 9b sweep
])
def test_fit_bit_identical_to_reference(hidden, epochs):
    x, y = _training_data()
    xn = (x - x.mean(axis=0)) / x.std(axis=0)
    fast = MLPRegressor(hidden_layers=hidden, epochs=epochs, random_state=7)
    ref = MLPRegressor(hidden_layers=hidden, epochs=epochs, random_state=7)
    fast._fit(xn, y)
    mlp_fit_reference(ref, xn, y)
    assert len(fast._weights) == len(ref._weights)
    for w_fast, w_ref in zip(fast._weights, ref._weights):
        np.testing.assert_array_equal(w_fast, w_ref)
    for b_fast, b_ref in zip(fast._biases, ref._biases):
        np.testing.assert_array_equal(b_fast, b_ref)
    assert fast.loss_history == ref.loss_history
    assert (fast._y_mean, fast._y_std) == (ref._y_mean, ref._y_std)


def test_fit_bit_identical_with_partial_final_batch():
    # n not divisible by batch_size exercises the short-batch epilogue.
    x, y = _training_data(seed=1, n=130)
    xn = (x - x.mean(axis=0)) / x.std(axis=0)
    fast = MLPRegressor(epochs=15, batch_size=64, random_state=2)
    ref = MLPRegressor(epochs=15, batch_size=64, random_state=2)
    fast._fit(xn, y)
    mlp_fit_reference(ref, xn, y)
    for w_fast, w_ref in zip(fast._weights, ref._weights):
        np.testing.assert_array_equal(w_fast, w_ref)
    assert fast.loss_history == ref.loss_history


def test_public_fit_predict_unchanged():
    x, y = _training_data(seed=3, n=200)
    model = MLPRegressor(epochs=40, random_state=0).fit(x, y)
    pred = model.predict(x)
    assert pred.shape == (200,)
    # The standardised net must track the target scale reasonably.
    assert model.rmse(x, y) < np.std(y)


def test_fit_memoised_across_equal_instances():
    x, y = _training_data(seed=4, n=150)
    before = get_cache().stats.hits
    a = MLPRegressor(epochs=10, random_state=5).fit(x, y)
    after_first = get_cache().stats.hits
    b = MLPRegressor(epochs=10, random_state=5).fit(x, y)
    assert get_cache().stats.hits > after_first  # second fit was a hit
    for w_a, w_b in zip(a._weights, b._weights):
        np.testing.assert_array_equal(w_a, w_b)
    np.testing.assert_array_equal(b.predict(x), a.predict(x))
    assert a.loss_history == b.loss_history
    # Restored state is an independent copy, not an alias.
    assert a._weights[0] is not b._weights[0]


def test_fit_cache_distinguishes_config_and_data():
    x, y = _training_data(seed=6, n=120)
    base = MLPRegressor(epochs=8, random_state=0).fit(x, y)
    other_seed = MLPRegressor(epochs=8, random_state=1).fit(x, y)
    assert any(
        not np.array_equal(w_a, w_b)
        for w_a, w_b in zip(base._weights, other_seed._weights)
    )
    other_data = MLPRegressor(epochs=8, random_state=0).fit(x, y + 1.0)
    assert other_data._y_mean != base._y_mean


def test_cache_hit_does_not_touch_global_rng():
    x, y = _training_data(seed=8, n=100)
    RidgeRegressor().fit(x, y)  # prime the cache
    np.random.seed(123)
    expected = np.random.default_rng(0).random()  # unrelated stream
    np.random.seed(123)
    RidgeRegressor().fit(x, y)  # hit
    draw_after_hit = float(np.random.random())
    np.random.seed(123)
    assert draw_after_hit == float(np.random.random())
    assert expected == np.random.default_rng(0).random()
