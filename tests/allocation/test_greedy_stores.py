"""LazyMaxKeys vs IndexedMaxHeap: the engine's store against the oracle's.

The run-skipping engine keeps Algorithm 1's longest-stage heap as a lazy
``heapq`` (:class:`~repro.allocation.heap.LazyMaxKeys`); the
one-purchase-per-iteration oracle keeps it as the paper's indexed heap.
Both must answer ``top`` and the runner-up query under the same strict
total order ``(key, -insertion_order)`` for every key assignment the
engine can reach (keys only ever decrease), or the two walks diverge.
These tests pin that down at the store level (random decrease sequences
with forced ties) and end to end (byte-equal allocations on random
problems with duplicated stage times).
"""

import numpy as np
import pytest

from repro.allocation.greedy import greedy_allocation
from repro.allocation.heap import LazyMaxKeys
from repro.allocation.problem import AllocationProblem
from repro.oracles.allocation import (
    IndexedMaxHeap,
    greedy_allocation_reference,
)


def _random_problem(rng: np.random.Generator) -> AllocationProblem:
    n = int(rng.integers(2, 24))
    times = rng.uniform(10.0, 5000.0, n)
    # Force duplicate times (and hence tied keys) in about half the
    # problems, the regime where tie-breaking order actually matters.
    if rng.random() < 0.5 and n >= 4:
        times[n // 2] = times[0]
        times[-1] = times[1]
    floors = rng.uniform(0.0, 50.0, n) if rng.random() < 0.5 else None
    return AllocationProblem(
        stage_names=[f"S{i}" for i in range(n)],
        times_ns=times,
        crossbars_per_replica=rng.integers(1, 5, n),
        budget=int(rng.integers(0, 200)),
        replica_caps=rng.integers(1, 33, n),
        num_microbatches=int(rng.integers(1, 65)),
        fixed_floors_ns=floors,
    )


@pytest.mark.parametrize("include_max_bonus", [True, False])
def test_greedy_identical_across_stores(include_max_bonus):
    rng = np.random.default_rng(7)
    for _ in range(40):
        problem = _random_problem(rng)
        engine = greedy_allocation(
            problem, include_max_bonus=include_max_bonus, memoize=False,
        )
        oracle = greedy_allocation_reference(
            problem, include_max_bonus=include_max_bonus,
        )
        np.testing.assert_array_equal(engine.replicas, oracle.replicas)
        assert engine.makespan_ns == oracle.makespan_ns


def test_stores_agree_on_random_query_sequences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 16))
        # Draw keys from a tiny set so ties are the rule, not the
        # exception.
        keys = rng.choice([1.0, 2.5, 2.5, 7.0, 9.0], size=n)
        lazy = LazyMaxKeys(keys.tolist())
        heap = IndexedMaxHeap()
        for stage, key in enumerate(keys):
            heap.push(float(key), stage)
        for _ in range(60):
            stage = int(rng.integers(0, n))
            if rng.random() < 0.5:
                lowered = heap.key_of(stage) - float(rng.choice([0.0, 1.5]))
                lazy.update(stage, lowered)
                heap.update(stage, lowered)
            _, top_stage = heap.top()
            assert lazy.top() == top_stage
            top, second_key, second_stage = lazy.top_and_second()
            assert top == top_stage
            assert second_key == heap.max_excluding(top_stage)
            if second_stage >= 0:
                assert lazy.key_of(second_stage) == second_key
            assert lazy.key_of(stage) == heap.key_of(stage)


def test_lazy_store_ties_break_by_smallest_stage():
    lazy = LazyMaxKeys([1.0] * 6)
    heap = IndexedMaxHeap([(1.0, stage) for stage in range(6)])
    assert lazy.top() == heap.top()[1] == 0
    lazy.update(0, 0.0)
    heap.update(0, 0.0)
    assert lazy.top() == heap.top()[1] == 1
    assert lazy.top_and_second() == (1, 1.0, 2)
    assert heap.max_excluding(1) == 1.0
    only = LazyMaxKeys([3.0])
    assert only.top_and_second(default=5.0) == (0, 5.0, -1)
