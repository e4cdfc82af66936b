"""Batched Algorithm 1: P independent problems as one ``[P, S]`` walk.

The exhaustive baseline's refinement loop — and any sweep that builds
many sibling accelerator configurations — runs the greedy over dozens of
*independent* allocation problems that differ only in their numbers.
Running them one at a time pays the full Python interpreter cost per
purchase, P times over.  :func:`allocate_many` instead advances all P
walks in lock-step: one iteration buys (at most) one replica for *every*
still-active problem via elementwise ``[P, S]`` numpy state.

Exactness: every quantity is computed with the same float64 expressions
as :func:`~repro.oracles.allocation.greedy_allocation_reference`, applied
elementwise — IEEE-754 arithmetic is identical scalar-by-scalar, argmax
ties break to the first (smallest stage id) exactly like the priority
stores, and problems are padded to a common stage count with dead stages
(zero time, cap 1) *after* their real stages so padding can never win a
tie.  Per-problem results are bit-identical to serial runs, asserted by
``tests/allocation/test_engine_equivalence.py``.

Results are memoised through the same content-keyed ``"allocation"``
cache namespace as :func:`~repro.allocation.greedy.greedy_allocation`,
so the two entry points share warm results in either direction.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.perf import profile
from repro.perf.cache import cache_key, get_cache


def _batched_counts(
    problems: Sequence[AllocationProblem], include_max_bonus: bool,
) -> List[np.ndarray]:
    """Replica counts for each problem, decision-identical to serial."""
    num_problems = len(problems)
    widths = [p.num_stages for p in problems]
    S = max(widths)

    # Dead-stage padding: zero time and cap 1 make the padded stored
    # value 0.0 and the padded pipeline time 0.0, and sitting *after*
    # the real stages they lose every argmax tie to them.
    times = np.zeros((num_problems, S), dtype=np.float64)
    costs = np.ones((num_problems, S), dtype=np.int64)
    caps = np.ones((num_problems, S), dtype=np.int64)
    floors = np.zeros((num_problems, S), dtype=np.float64)
    budget = np.zeros(num_problems, dtype=np.int64)
    b1 = np.zeros(num_problems, dtype=np.int64)
    for i, p in enumerate(problems):
        w = widths[i]
        times[i, :w] = p.times_ns
        costs[i, :w] = p.crossbars_per_replica
        caps[i, :w] = p.replica_caps
        if p.fixed_floors_ns is not None:
            floors[i, :w] = p.fixed_floors_ns
        budget[i] = int(p.budget)
        b1[i] = p.num_microbatches - 1

    counts = np.ones((num_problems, S), dtype=np.int64)
    gain0 = np.where(caps > 1, times - times / 2, 0.0)
    stored = gain0 / costs
    T = times + floors
    unaffordable = np.zeros((num_problems, S), dtype=bool)
    use_bonus = (b1 > 0) if include_max_bonus else np.zeros(num_problems, dtype=bool)
    rows = np.arange(num_problems)
    active = budget > 0

    while active.any():
        # Candidate A: best plain adjust value (first-max tie-break).
        value_a = stored.max(axis=1)
        stage_a = stored.argmax(axis=1)
        # Candidate B: the longest stage.
        stage_p = T.argmax(axis=1)
        base_p = times[rows, stage_p]
        count_p = counts[rows, stage_p]
        gain_p = np.where(
            count_p < caps[rows, stage_p],
            base_p / count_p - base_p / (count_p + 1),
            0.0,
        )
        masked = T.copy()
        masked[rows, stage_p] = -np.inf
        second = np.maximum(masked.max(axis=1), 0.0)
        floors_p = floors[rows, stage_p]
        old_max = base_p / count_p + floors_p
        new_time = base_p / (count_p + 1) + floors_p
        delta_max = np.maximum(0.0, old_max - np.maximum(new_time, second))
        value_p = (gain_p + b1 * delta_max) / costs[rows, stage_p]
        eligible = use_bonus & (gain_p > 0) & ~unaffordable[rows, stage_p]
        bonus_win = eligible & (value_p > value_a)
        chosen = np.where(bonus_win, stage_p, stage_a)
        chosen_value = np.where(bonus_win, value_p, value_a)

        active = active & (chosen_value > 0.0)
        cost_c = costs[rows, chosen]
        cannot = active & (cost_c > budget)
        buy = active & ~cannot

        # Unaffordable event: permanently disable the stage.
        unaffordable[rows, chosen] = unaffordable[rows, chosen] | cannot

        # Purchase: bump the count, pay, recompute value and time.
        old_counts = counts[rows, chosen]
        new_counts = old_counts + 1
        counts[rows, chosen] = np.where(buy, new_counts, old_counts)
        budget = budget - np.where(buy, cost_c, 0)
        base_c = times[rows, chosen]
        new_gain = np.where(
            new_counts < caps[rows, chosen],
            base_c / new_counts - base_c / (new_counts + 1),
            0.0,
        )
        new_stored = np.where(cost_c <= budget, new_gain / cost_c, 0.0)
        old_stored = stored[rows, chosen]
        stored[rows, chosen] = np.where(
            cannot, 0.0, np.where(buy, new_stored, old_stored),
        )
        floors_c = floors[rows, chosen]
        old_T = T[rows, chosen]
        T[rows, chosen] = np.where(buy, base_c / new_counts + floors_c, old_T)

        # Post-event breaks: best value gone non-positive, or broke.
        active = active & (stored.max(axis=1) > 0.0) & (budget > 0)

    return [counts[i, :w].copy() for i, w in enumerate(widths)]


@profile.phase(profile.PHASE_ALLOCATION)
def allocate_many(
    problems: Sequence[AllocationProblem],
    include_max_bonus: bool = True,
    *,
    memoize: bool = True,
) -> List[AllocationResult]:
    """Algorithm 1 over many problems at once.

    Returns one :class:`AllocationResult` per problem, in order, each
    bit-identical to ``greedy_allocation(problem, include_max_bonus)``.
    With ``memoize=True`` (default) warm problems are served from the
    ``"allocation"`` cache and only the misses enter the batched walk.
    """
    # Imported here to avoid a circular import at module load
    # (greedy -> engine, batched -> greedy constants).
    from repro.allocation.greedy import _ENGINE_REVISION, ALLOCATION_NAMESPACE

    problems = list(problems)
    if not problems:
        return []
    results: List[AllocationResult] = [None] * len(problems)  # type: ignore[list-item]
    cache = get_cache() if memoize else None
    keys: List[str] = []
    misses: List[int] = []
    if cache is not None:
        for i, problem in enumerate(problems):
            key = cache_key(
                "greedy", _ENGINE_REVISION,
                problem.content_fingerprint(), bool(include_max_bonus),
            )
            keys.append(key)
            hit = cache.get(ALLOCATION_NAMESPACE, key)
            if hit is not None:
                results[i] = AllocationResult(
                    problem=problem,
                    replicas=np.array(hit["replicas"], dtype=np.int64),
                    strategy=hit["strategy"],
                )
            else:
                misses.append(i)
    else:
        misses = list(range(len(problems)))

    if misses:
        counts = _batched_counts([problems[i] for i in misses], include_max_bonus)
        for i, replicas in zip(misses, counts):
            problem = problems[i]
            if cache is not None:
                cache.put(
                    ALLOCATION_NAMESPACE, keys[i],
                    {
                        "replicas": replicas,
                        "strategy": "gopim-greedy",
                        "provenance": {
                            "engine": _ENGINE_REVISION,
                            "include_max_bonus": bool(include_max_bonus),
                            "problem_fingerprint": problem.content_fingerprint(),
                        },
                    },
                )
            results[i] = AllocationResult(
                problem=problem,
                replicas=np.array(replicas, dtype=np.int64),
                strategy="gopim-greedy",
            )
    return results
