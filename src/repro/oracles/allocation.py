"""Allocation-layer oracles: the one-purchase-per-iteration Algorithm 1
loop with the paper's indexed max-heap, and the Python-loop exhaustive
sweep.  ``abl-allocator`` also runs the greedy loop as its explicit
"greedy (reference loop)" row.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.allocation.baselines import (
    _keep_best_composition,
    _refinement_sub_problem,
    serial_allocation,
)
from repro.allocation.greedy import greedy_allocation
from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.errors import AllocationError
from repro.perf import profile


class IndexedMaxHeap:
    """Max-heap of (key, item) pairs with O(log n) key updates by item.

    The paper's heap: ``findNode`` + reheapify through a position map
    from item to heap slot, so keys may move both up and down.  Items
    must be hashable and unique.  Ties are broken by insertion order
    (earlier insertions win) so behaviour is deterministic.
    """

    def __init__(self, entries: Optional[Iterable[Tuple[float, object]]] = None) -> None:
        self._heap: List[Tuple[float, int, object]] = []
        self._pos: Dict[object, int] = {}
        self._counter = 0
        if entries is not None:
            for key, item in entries:
                self.push(key, item)

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, item: object) -> bool:
        return item in self._pos

    # ------------------------------------------------------------------
    def push(self, key: float, item: object) -> None:
        """Insert a new item with the given key."""
        if item in self._pos:
            raise AllocationError(f"item {item!r} already in heap")
        self._heap.append((float(key), self._counter, item))
        self._counter += 1
        self._pos[item] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def top(self) -> Tuple[float, object]:
        """The (key, item) pair with the maximum key."""
        if not self._heap:
            raise AllocationError("heap is empty")
        key, _, item = self._heap[0]
        return key, item

    def pop(self) -> Tuple[float, object]:
        """Remove and return the maximum (key, item) pair."""
        key, item = self.top()
        self._swap(0, len(self._heap) - 1)
        self._heap.pop()
        del self._pos[item]
        if self._heap:
            self._sift_down(0)
        return key, item

    def key_of(self, item: object) -> float:
        """Current key of ``item``."""
        index = self._pos.get(item)
        if index is None:
            raise AllocationError(f"item {item!r} not in heap")
        return self._heap[index][0]

    def update(self, item: object, new_key: float) -> None:
        """Change ``item``'s key and restore the heap property."""
        index = self._pos.get(item)
        if index is None:
            raise AllocationError(f"item {item!r} not in heap")
        old_key, order, _ = self._heap[index]
        self._heap[index] = (float(new_key), order, item)
        if new_key > old_key:
            self._sift_up(index)
        else:
            self._sift_down(index)

    def remove(self, item: object) -> None:
        """Delete ``item`` from the heap."""
        index = self._pos.get(item)
        if index is None:
            raise AllocationError(f"item {item!r} not in heap")
        last = len(self._heap) - 1
        self._swap(index, last)
        self._heap.pop()
        del self._pos[item]
        if index < len(self._heap):
            self._sift_down(index)
            self._sift_up(index)

    def items(self) -> List[Tuple[float, object]]:
        """All (key, item) pairs in arbitrary heap order."""
        return [(key, item) for key, _, item in self._heap]

    def max_excluding(self, item: object, default: float = 0.0) -> float:
        """Largest key among entries other than ``item`` (floored at
        ``default``), without materialising the entries.

        O(1) by the heap invariant: when ``item`` is not at the root the
        root key is the answer; when it is, the second-largest key must
        sit at one of the root's children.
        """
        index = self._pos.get(item)
        if index is None:
            raise AllocationError(f"item {item!r} not in heap")
        if len(self._heap) == 1:
            return default
        if index != 0:
            return max(default, self._heap[0][0])
        best = default
        for child in (1, 2):
            if child < len(self._heap) and self._heap[child][0] > best:
                best = self._heap[child][0]
        return best

    # ------------------------------------------------------------------
    def _greater(self, a: int, b: int) -> bool:
        ka, oa, _ = self._heap[a]
        kb, ob, _ = self._heap[b]
        return (ka, -oa) > (kb, -ob)

    def _swap(self, a: int, b: int) -> None:
        self._heap[a], self._heap[b] = self._heap[b], self._heap[a]
        self._pos[self._heap[a][2]] = a
        self._pos[self._heap[b][2]] = b

    def _sift_up(self, index: int) -> None:
        while index > 0:
            parent = (index - 1) // 2
            if self._greater(index, parent):
                self._swap(index, parent)
                index = parent
            else:
                return

    def _sift_down(self, index: int) -> None:
        size = len(self._heap)
        while True:
            left = 2 * index + 1
            right = left + 1
            largest = index
            if left < size and self._greater(left, largest):
                largest = left
            if right < size and self._greater(right, largest):
                largest = right
            if largest == index:
                return
            self._swap(index, largest)
            index = largest

    def is_valid(self) -> bool:
        """Check the heap invariant (used by property tests)."""
        for index in range(1, len(self._heap)):
            parent = (index - 1) // 2
            if self._greater(index, parent):
                return False
        for item, index in self._pos.items():
            if self._heap[index][2] is not item and self._heap[index][2] != item:
                return False
        return True


@profile.phase(profile.PHASE_ALLOCATION)
def greedy_allocation_reference(
    problem: AllocationProblem,
    include_max_bonus: bool = True,
) -> AllocationResult:
    """One-purchase-per-iteration Algorithm 1 — the equivalence oracle.

    Every optimisation of the hot path (the run-skipping engine, the
    batched ``allocate_many``) is pinned against this loop: same decision
    sequence, bit-identical replica vectors, asserted by
    ``tests/allocation/test_engine_equivalence.py`` and re-measured by
    ``benchmarks/perf/bench_hotpaths.py``.  Both priority queues are
    indexed max-heaps (:class:`IndexedMaxHeap`), whose
    ``(key, -insertion_order)`` total order the engine's stores reproduce.
    """
    n = problem.num_stages
    # Python scalars throughout the loop: element-wise numpy indexing and
    # numpy scalar arithmetic dominate the original profile, and IEEE
    # float64 ops give bit-identical results either way.
    replicas = [1] * n
    budget = int(problem.budget)
    times = problem.times_ns.tolist()
    floors = (
        problem.fixed_floors_ns.tolist()
        if problem.fixed_floors_ns is not None
        else [0.0] * n
    )
    caps = problem.replica_caps.tolist()
    costs = problem.crossbars_per_replica.tolist()

    heap_v = IndexedMaxHeap()
    heap_p = IndexedMaxHeap()
    for stage in range(n):
        base = times[stage]
        gain = 0.0 if caps[stage] <= 1 else base - base / 2
        heap_v.push(gain / costs[stage], stage)
        heap_p.push(base + floors[stage], stage)

    b_minus_1 = problem.num_microbatches - 1
    use_bonus = include_max_bonus and b_minus_1 > 0
    unaffordable: set = set()
    while budget > 0:
        # Candidate A: best plain adjust value.
        value_a, stage_a = heap_v.top()
        # Candidate B: the longest stage, whose replica also cuts T_max.
        chosen = stage_a
        chosen_value = value_a
        if use_bonus:
            _, stage_p = heap_p.top()
            count_p = replicas[stage_p]
            base_p = times[stage_p]
            gain_p = (
                base_p / count_p - base_p / (count_p + 1)
                if count_p < caps[stage_p] else 0.0
            )
            if gain_p > 0 and stage_p not in unaffordable:
                old_max = base_p / count_p + floors[stage_p]
                new_time = base_p / (count_p + 1) + floors[stage_p]
                second = heap_p.max_excluding(stage_p)
                delta_max = max(0.0, old_max - max(new_time, second))
                value_p = (gain_p + b_minus_1 * delta_max) / costs[stage_p]
                if value_p > chosen_value:
                    chosen = stage_p
                    chosen_value = value_p

        if chosen_value <= 0.0:
            break  # nobody can improve (caps reached)
        cost = costs[chosen]
        if cost > budget:
            # Cannot afford the best stage any more; permanently disable it
            # and retry with the rest.
            unaffordable.add(chosen)
            heap_v.update(chosen, 0.0)
            if heap_v.top()[0] <= 0.0:
                break
            continue

        count = replicas[chosen] + 1
        replicas[chosen] = count
        budget -= cost
        base_c = times[chosen]
        new_gain = (
            base_c / count - base_c / (count + 1)
            if count < caps[chosen] else 0.0
        )
        heap_v.update(
            chosen, new_gain / cost if cost <= budget else 0.0,
        )
        heap_p.update(chosen, base_c / count + floors[chosen])
        if heap_v.top()[0] <= 0.0:
            break

    return AllocationResult(
        problem=problem,
        replicas=np.array(replicas, dtype=np.int64),
        strategy="gopim-greedy",
    )


def exhaustive_allocation_reference(
    problem: AllocationProblem,
) -> AllocationResult:
    """The original Python-loop T_max sweep (equivalence oracle).

    For every candidate bottleneck time (each stage's time at each feasible
    replica count), compute the cheapest assignment achieving it, spend any
    leftover budget with the plain greedy, and keep the best makespan.
    Complexity is O(sum(caps) * S) — fine for tests, far too slow for the
    multi-day scales the paper quotes for real DP on *products*.
    """
    floors = (
        problem.fixed_floors_ns
        if problem.fixed_floors_ns is not None
        else np.zeros(problem.num_stages)
    )
    candidates = set()
    for stage in range(problem.num_stages):
        cap = int(problem.replica_caps[stage])
        base = problem.times_ns[stage]
        # Sample replica counts geometrically to bound the sweep size.
        r = 1
        while r <= cap:
            candidates.add(base / r + floors[stage])
            r = max(r + 1, int(r * 1.1))
        candidates.add(base / cap + floors[stage])

    best: AllocationResult = serial_allocation(problem)
    best_makespan = best.makespan_ns
    for t_max in sorted(candidates, reverse=True):
        replicas = np.ones(problem.num_stages, dtype=np.int64)
        feasible = True
        for stage in range(problem.num_stages):
            need = problem.times_ns[stage]
            available = t_max - floors[stage]
            if need <= 0:
                continue
            if available <= 0:
                feasible = False
                break
            required = int(np.ceil(need / available))
            if required > problem.replica_caps[stage]:
                feasible = False
                break
            replicas[stage] = max(1, required)
        if not feasible:
            continue
        cost = problem.crossbar_cost(replicas)
        if cost > problem.budget:
            continue
        # Spend the leftover on the plain sum-term greedy.
        refined = greedy_allocation(
            _refinement_sub_problem(problem, replicas, cost),
            include_max_bonus=True,
        )
        best, best_makespan = _keep_best_composition(
            problem, replicas, refined, best, best_makespan,
        )
    if best.strategy != "exhaustive":
        best = AllocationResult(
            problem=problem, replicas=best.replicas, strategy="exhaustive",
        )
    return best
