"""Tree-regressor fast paths vs their oracles, and fitted-regressor keys.

* ``DecisionTreeRegressor._best_split`` dedupes candidates with a sort
  plus a neighbour mask and computes impurities as ``add.reduce / size``
  and ``d * d``; it must choose exactly the split of
  ``repro.oracles.predictor.best_split_reference``.
* ``GradientBoostingRegressor`` fits its inner trees uncached: one fit
  publishes one ``fitted-regressors`` artifact (the ensemble) and
  predicts bit-identically to the per-tree-cached oracle loop.
* The fitted-regressor cache key hashes the estimator's pre-fit
  ``__dict__``; pinning it keeps existing disk-cache entries addressable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracles.predictor import (
    best_split_reference,
    gradient_boosting_fit_reference,
)
from repro.perf import ArtifactCache
from repro.predictor import regressors
from repro.predictor.mlp import MLPRegressor
from repro.predictor.regressors import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
)


@st.composite
def _split_problems(draw):
    n = draw(st.integers(2, 70))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["ties", "constant", "spread"]))
        if kind == "ties":
            # Few distinct values: many tied rows per candidate.
            pool = draw(st.lists(
                st.floats(-5, 5, allow_nan=False), min_size=1, max_size=4,
            ))
            col = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        elif kind == "constant":
            col = [draw(st.floats(-5, 5, allow_nan=False))] * n
        else:
            # Up to n distinct values: > 32 unique takes the percentile path.
            col = draw(st.lists(
                st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n,
            ))
        columns.append(col)
    x = np.array(columns, dtype=np.float64).T
    y = np.array(draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n,
    )))
    max_candidates = draw(st.sampled_from([4, 32]))
    return x, y, max_candidates


@given(_split_problems())
@settings(max_examples=150, deadline=None)
def test_best_split_matches_oracle(problem):
    x, y, max_candidates = problem
    tree = DecisionTreeRegressor(max_candidates=max_candidates)
    assert tree._best_split(x, y) == best_split_reference(tree, x, y)


def test_best_split_percentile_path_matches_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 3))
    x[:, 1] = np.round(x[:, 1])  # ties alongside > 32 unique values
    y = x[:, 0] ** 2 + rng.normal(0.0, 0.1, 200)
    tree = DecisionTreeRegressor()
    assert np.unique(x[:, 0]).size > 32
    best = tree._best_split(x, y)
    assert best is not None
    assert best == best_split_reference(tree, x, y)


def _fig09_like(seed=0, n=82, dims=10):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dims))
    x[:, 3] = np.round(x[:, 3])
    x[:, 4] = 1.0  # a constant feature column
    y = x[:, 0] ** 2 - x[:, 1] + rng.normal(0.0, 0.1, n)
    return x, y


def _fitted_entries(cache):
    return sum(1 for ns, _ in cache._memory if ns == "fitted-regressors")


def test_boosting_publishes_one_artifact_and_matches_oracle(monkeypatch):
    cache = ArtifactCache()
    monkeypatch.setattr(regressors, "get_cache", lambda: cache)
    x, y = _fig09_like()
    model = GradientBoostingRegressor(n_estimators=25).fit(x, y)
    assert _fitted_entries(cache) == 1

    # The oracle: per-tree cached fits with the original split search.
    monkeypatch.setattr(
        DecisionTreeRegressor, "_best_split",
        lambda tree, a, b: best_split_reference(tree, a, b),
    )
    ref = GradientBoostingRegressor(n_estimators=25)
    ref._x_mean = x.mean(axis=0)
    ref._x_std = x.std(axis=0)
    ref._x_std[ref._x_std == 0] = 1.0
    ref._fitted = True
    gradient_boosting_fit_reference(ref, (x - ref._x_mean) / ref._x_std, y)
    assert _fitted_entries(cache) == 1 + 25  # one artifact per oracle tree

    assert model._base == ref._base
    x_test = np.vstack([x, _fig09_like(seed=1)[0]])
    assert model.predict(x_test).tobytes() == ref.predict(x_test).tobytes()


# The pre-fit attribute snapshot each fitted-regressor cache key hashes.
PRE_FIT_STATE = [
    (MLPRegressor, {
        "_x_mean": None, "_x_std": None, "_fitted": False,
        "_hidden": (256,), "_epochs": 200, "_batch_size": 64,
        "_lr": 1e-3, "_decay": 1e-5, "_seed": 0,
        "_weights": [], "_biases": [], "_y_mean": 0.0, "_y_std": 1.0,
        "loss_history": [],
    }),
    (DecisionTreeRegressor, {
        "_x_mean": None, "_x_std": None, "_fitted": False,
        "_max_depth": 8, "_min_samples_split": 8, "_max_candidates": 32,
        "_root": None,
    }),
    (GradientBoostingRegressor, {
        "_x_mean": None, "_x_std": None, "_fitted": False,
        "_n_estimators": 80, "_learning_rate": 0.1, "_max_depth": 3,
        "_trees": [], "_base": 0.0,
    }),
]


@pytest.mark.parametrize("cls,expected", PRE_FIT_STATE,
                         ids=[cls.__name__ for cls, _ in PRE_FIT_STATE])
def test_pre_fit_state_pinned(cls, expected):
    state = cls().__dict__
    assert state == expected
    assert {k: type(v) for k, v in state.items()} == {
        k: type(v) for k, v in expected.items()
    }
