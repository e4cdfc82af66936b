"""Vectorized exhaustive allocator vs the retained Python-loop reference.

The vectorized form replaces the per-candidate Python sweep with a
bisected feasibility frontier plus one broadcast over the
``(candidates, stages)`` grid, and dedupes candidates whose base replica
vectors coincide.  None of that may change the answer: the reference
sweeps candidates in descending order keeping strict improvements, and
deduplication keeps the first-seen (largest ``t_max``) representative of
every vector, so the winning allocation is identical.
"""

import numpy as np
import pytest

from repro.allocation.baselines import exhaustive_allocation
from repro.allocation.problem import AllocationProblem
from repro.oracles.allocation import exhaustive_allocation_reference


def _random_problem(rng: np.random.Generator, n=None) -> AllocationProblem:
    n = int(rng.integers(2, 16)) if n is None else n
    times = rng.uniform(50.0, 20000.0, n)
    if rng.random() < 0.3:
        times[int(rng.integers(0, n))] = 0.0  # idle stage
    floors = rng.uniform(0.0, 100.0, n) if rng.random() < 0.5 else None
    return AllocationProblem(
        stage_names=[f"S{i}" for i in range(n)],
        times_ns=times,
        crossbars_per_replica=rng.integers(1, 4, n),
        budget=int(rng.integers(0, 300)),
        replica_caps=rng.integers(1, 65, n),
        num_microbatches=int(rng.integers(1, 33)),
        fixed_floors_ns=floors,
    )


def test_matches_reference_on_random_problems():
    rng = np.random.default_rng(13)
    for _ in range(30):
        problem = _random_problem(rng)
        vec = exhaustive_allocation(problem)
        ref = exhaustive_allocation_reference(problem)
        np.testing.assert_array_equal(vec.replicas, ref.replicas)
        assert vec.makespan_ns == ref.makespan_ns
        assert vec.strategy == ref.strategy == "exhaustive"


def test_zero_budget_stays_serial():
    rng = np.random.default_rng(1)
    problem = AllocationProblem(
        stage_names=["A", "B", "C"],
        times_ns=rng.uniform(100.0, 1000.0, 3),
        crossbars_per_replica=np.array([2, 2, 2]),
        budget=0,
        replica_caps=np.array([8, 8, 8]),
        num_microbatches=4,
    )
    vec = exhaustive_allocation(problem)
    ref = exhaustive_allocation_reference(problem)
    np.testing.assert_array_equal(vec.replicas, np.ones(3, dtype=np.int64))
    np.testing.assert_array_equal(vec.replicas, ref.replicas)


def test_unit_caps_force_serial():
    problem = AllocationProblem(
        stage_names=["A", "B"],
        times_ns=np.array([500.0, 700.0]),
        crossbars_per_replica=np.array([1, 1]),
        budget=50,
        replica_caps=np.array([1, 1]),
        num_microbatches=8,
    )
    vec = exhaustive_allocation(problem)
    ref = exhaustive_allocation_reference(problem)
    np.testing.assert_array_equal(vec.replicas, ref.replicas)
    np.testing.assert_array_equal(vec.replicas, [1, 1])


def test_large_stage_count_still_identical():
    rng = np.random.default_rng(42)
    problem = AllocationProblem(
        stage_names=[f"S{i}" for i in range(64)],
        times_ns=rng.uniform(100.0, 50000.0, 64),
        crossbars_per_replica=rng.integers(8, 65, 64),
        budget=1024,
        replica_caps=np.full(64, 4096, dtype=np.int64),
        num_microbatches=32,
    )
    vec = exhaustive_allocation(problem)
    ref = exhaustive_allocation_reference(problem)
    np.testing.assert_array_equal(vec.replicas, ref.replicas)
    assert vec.makespan_ns == ref.makespan_ns


def test_improves_on_serial_when_budget_allows():
    problem = AllocationProblem(
        stage_names=["AG1", "CO1", "AG2", "CO2"],
        times_ns=np.array([8000.0, 1000.0, 6000.0, 900.0]),
        crossbars_per_replica=np.array([2, 1, 2, 1]),
        budget=40,
        replica_caps=np.array([16, 16, 16, 16]),
        num_microbatches=16,
    )
    result = exhaustive_allocation(problem)
    assert result.replicas.max() > 1
    serial_makespan = (
        problem.times_ns.sum()
        + (problem.num_microbatches - 1) * problem.times_ns.max()
    )
    assert result.makespan_ns < serial_makespan
