"""Crossbar resource allocation: Algorithm 1 and baseline policies."""

from repro.allocation.heap import LazyMaxKeys
from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.allocation.greedy import greedy_allocation
from repro.allocation.batched import allocate_many
from repro.allocation.baselines import (
    combination_only_allocation,
    exhaustive_allocation,
    fixed_ratio_allocation,
    serial_allocation,
    uniform_allocation,
)

__all__ = [
    "LazyMaxKeys",
    "AllocationProblem",
    "AllocationResult",
    "greedy_allocation",
    "allocate_many",
    "combination_only_allocation",
    "exhaustive_allocation",
    "fixed_ratio_allocation",
    "serial_allocation",
    "uniform_allocation",
]
