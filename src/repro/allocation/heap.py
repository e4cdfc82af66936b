"""The longest-stage heap of Algorithm 1 (Section V-B).

The paper's allocator keeps two max heaps — one over per-stage *adjust
values*, one over per-stage *execution times*.  The run-skipping engine
replaces the adjust-value heap with wave arithmetic and keeps the
execution-time heap as :class:`LazyMaxKeys`.  The paper's indexed heap
(``findNode`` + reheapify) drives the one-purchase-per-iteration oracle
in :mod:`repro.oracles.allocation`.
"""

from __future__ import annotations

import heapq as _heapq
from typing import Iterable, List, Tuple


class LazyMaxKeys:
    """Lazy (tombstone-based) max-heap over integer stage ids.

    The run-skipping engine (:mod:`repro.allocation.engine`) queries the
    longest-stage heap once per *lead change* rather than once per
    purchase, and its keys only ever decrease.  A plain ``heapq`` with
    stale entries left in place — an entry is live iff its key matches
    the stage's current key — makes every update an O(log n) push and
    every query an amortised O(log n) pop-until-live, with no O(n)
    ``argmax`` scans.  The total order matches the oracle's indexed heap:
    ``(key, -insertion_order)`` with stage id as insertion order, i.e.
    ties break toward the *smallest* stage id.

    Only the engine's query shapes are supported: ``top()`` and
    ``top_and_second()``; updates go through :meth:`update`.
    """

    def __init__(self, keys: Iterable[float]) -> None:
        self._keys: List[float] = [float(k) for k in keys]
        self._heap: List[Tuple[float, int]] = [
            (-key, stage) for stage, key in enumerate(self._keys)
        ]
        _heapq.heapify(self._heap)

    def key_of(self, stage: int) -> float:
        """Current key of ``stage``."""
        return self._keys[stage]

    def update(self, stage: int, new_key: float) -> None:
        """Change ``stage``'s key (keys must only decrease over time)."""
        self._keys[stage] = new_key
        _heapq.heappush(self._heap, (-new_key, stage))

    def top(self) -> int:
        """Stage with the maximum key (ties: smallest stage id)."""
        heap, keys = self._heap, self._keys
        while True:
            neg_key, stage = heap[0]
            if -neg_key == keys[stage]:
                return stage
            _heapq.heappop(heap)

    def top_and_second(self, default: float = 0.0):
        """``(top_stage, second_key, second_stage)`` in one query.

        ``second_key`` is the largest key among stages *other than* the
        top one, floored at ``default`` (the same contract as
        ``max_excluding``); ``second_stage`` is its holder, or ``-1``
        when the floor wins or no other stage exists.
        """
        heap, keys = self._heap, self._keys
        top_stage = self.top()
        popped: List[Tuple[float, int]] = []
        second_key = default
        second_stage = -1
        while heap:
            neg_key, stage = heap[0]
            if -neg_key != keys[stage]:
                _heapq.heappop(heap)
                continue
            if stage == top_stage:
                popped.append(_heapq.heappop(heap))
                continue
            if -neg_key > default:
                second_key = -neg_key
                second_stage = stage
            break
        for entry in popped:
            _heapq.heappush(heap, entry)
        return top_stage, second_key, second_stage
