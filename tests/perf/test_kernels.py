"""``kernels.sorted_unique`` equals ``np.unique`` on the inputs it serves."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.perf import kernels


def _assert_same(values: np.ndarray) -> None:
    got = kernels.sorted_unique(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@given(hnp.arrays(
    np.int64, st.integers(0, 200),
    elements=st.integers(-(2 ** 62), 2 ** 62) | st.integers(-5, 5),
))
@settings(max_examples=200, deadline=None)
def test_sorted_unique_matches_np_unique_int64(values):
    _assert_same(values)


@given(hnp.arrays(
    np.float64, st.integers(0, 200),
    elements=st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.5]),
))
@settings(max_examples=200, deadline=None)
def test_sorted_unique_matches_np_unique_float64(values):
    _assert_same(values)


def test_sorted_unique_sizes_zero_and_one():
    for dtype in (np.int64, np.float64):
        _assert_same(np.empty(0, dtype=dtype))
        _assert_same(np.array([7], dtype=dtype))
