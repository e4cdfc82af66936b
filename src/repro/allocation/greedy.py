"""Algorithm 1: max-heap based greedy crossbar allocation (Section V-B).

Two indexed max-heaps drive the loop, exactly as in the paper:

* ``H_p`` holds each stage's current effective execution time — its top is
  the pipeline's longest stage, the one whose time multiplies ``(B-1)`` in
  Eq. (6);
* ``H_v`` holds each stage's *adjust value*: the makespan reduction per
  crossbar of buying one more replica.

Each iteration considers the best plain candidate (``H_v.top``) and the
longest stage (``H_p.top``, whose replica also shrinks the ``(B-1)*T_max``
term), buys one replica for the better of the two, updates both heaps
top-down, and decrements the free-crossbar budget — repeating until the
budget is exhausted or no stage can improve (cap reached / unaffordable).

Decision time is O(total replicas x log S), versus the multi-day dynamic
programming of prior work (the paper's [27]); the DP stand-in lives in
:mod:`repro.allocation.baselines` for the overhead comparison.

The public :func:`greedy_allocation` runs the run-skipping engine of
:mod:`repro.allocation.engine` — decision-identical to the one-purchase-
per-iteration loop kept as the oracle
:func:`repro.oracles.allocation.greedy_allocation_reference`, but an
order of magnitude faster at synthesis-scale budgets — and
memoises results through the content-keyed artifact cache
(:mod:`repro.perf.cache`, ``"allocation"`` namespace) so repeated
accelerator builds and warm sweeps skip the search entirely.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.engine import greedy_allocation_counts
from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.perf import profile
from repro.perf.cache import cache_key, get_cache

#: Cache namespace shared by every memoised allocator result.
ALLOCATION_NAMESPACE = "allocation"

#: Engine revision stamped into cache keys and provenance: bump when the
#: decision sequence could change, so stale entries can never resurface.
_ENGINE_REVISION = "run-skipping-v1"


@profile.phase(profile.PHASE_ALLOCATION)
def greedy_allocation(
    problem: AllocationProblem,
    include_max_bonus: bool = True,
    *,
    memoize: bool = True,
) -> AllocationResult:
    """Run Algorithm 1 and return the replica assignment.

    ``include_max_bonus=False`` drops the ``(B-1) * T_max`` term from the
    adjust values (used by the exhaustive baseline's refinement step and
    by ablation benchmarks).

    The default path runs the run-skipping engine and routes the result
    through the two-tier artifact cache, keyed on the problem's
    :meth:`~AllocationProblem.content_fingerprint` — two identical
    problems (same stages, times, costs, budget, caps, ``B``, floors)
    share one search regardless of where they were built.  Pass
    ``memoize=False`` for an honest cold search (ablation timing).
    """
    if not memoize:
        return AllocationResult(
            problem=problem,
            replicas=greedy_allocation_counts(problem, include_max_bonus),
            strategy="gopim-greedy",
        )
    key = cache_key(
        "greedy", _ENGINE_REVISION,
        problem.content_fingerprint(), bool(include_max_bonus),
    )

    def compute() -> dict:
        return {
            "replicas": greedy_allocation_counts(problem, include_max_bonus),
            "strategy": "gopim-greedy",
            "provenance": {
                "engine": _ENGINE_REVISION,
                "include_max_bonus": bool(include_max_bonus),
                "problem_fingerprint": problem.content_fingerprint(),
            },
        }

    cached = get_cache().get_or_compute(ALLOCATION_NAMESPACE, key, compute)
    # Copy on the way out: the memory tier hands back the stored object,
    # and results must not alias each other.
    return AllocationResult(
        problem=problem,
        replicas=np.array(cached["replicas"], dtype=np.int64),
        strategy=cached["strategy"],
    )
