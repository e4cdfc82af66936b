"""Run-skipping greedy engine behind :func:`greedy_allocation`.

The reference loop (the oracle
:func:`repro.oracles.allocation.greedy_allocation_reference`) performs one
O(S) priority-store scan per replica purchased — fine at quick-sweep
budgets, hopeless at the budget-10^5 scales of multi-chip scalability
sweeps and design-space synthesis.  This engine reproduces the exact
decision sequence with two observations:

1. **Plain purchases follow a precomputable sorted stream.**  The plain
   adjust value of stage ``i`` at replica count ``k`` is the static
   quantity ``v_i(k) = (P_i/k - P_i/(k+1)) / X_i``; absent bonus wins and
   affordability events, the greedy consumes exactly the entries
   ``(v_i(k), i, k)`` in descending-value order.  Generating the entries
   up front (bounded by a budget-coverage threshold, regenerated in
   waves if the walk outruns them) replaces every per-purchase ``argmax``
   with a stream-pointer increment.

2. **The bonus candidate only changes at lead changes.**  The Eq. (6)
   bonus value ``(gain_p + (B-1)*delta) / X_p`` depends only on the
   longest stage ``p``, its runner-up ``r``, and the affordability flags
   — all static while the walk buys *other* stages.  So between
   purchases of ``p``/``r`` the engine buys a whole run of stream
   entries with a cached bonus value and no heap queries; once the
   longest stage can never be bought again (cap or permanently
   unaffordable) — or when ``include_max_bonus=False`` — the bonus is
   dead for the rest of the walk and the remaining stream is consumed in
   closed form: a vectorized validity mask + cost cumsum per wave buys
   thousands of replicas per numpy pass.

Exactness discipline: every float the engine compares or stores is
computed with the *same scalar expressions* as the reference loop
(IEEE-754 float64 either way), ties are broken identically
(``(value, -insertion_order)``, with stage id as insertion order), and
all edge paths — ``unaffordable`` events, post-purchase budget zeroing,
cap saturation, gain underflow, and the three early-break conditions —
are replayed one-for-one.  ``tests/allocation/test_engine_equivalence.py``
asserts bit-identical replica vectors against the reference across
randomized problem families.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.heap import LazyMaxKeys
from repro.allocation.problem import AllocationProblem

# Above this many candidate entries, the generator truncates the stream
# at a value threshold chosen so the generated entries' total crossbar
# cost still covers the remaining budget with margin; the walk
# regenerates from live state if it ever consumes the whole stream.
_MAX_FULL_ENTRIES = 65536
_COVER_FACTOR = 1.25


def _entry_stream(times, costs, caps, counts, budget, need_first):
    """Sorted candidate purchases from the current walk state.

    Returns ``(values, stages, ks, entry_costs)`` sorted by
    ``(-value, stage, k)`` — descending value, ties to the smaller stage
    id then the smaller replica count, matching the reference store's
    ``(key, -insertion_order)`` order.  Only stages with a currently
    positive stored value (``need_first``) contribute; each contributes
    at least its *current* entry ``k = counts[i]`` (so permanently
    unaffordable stages still surface for their event) and at most its
    cap / solo-budget bound.
    """
    lo = counts
    hi = np.minimum(caps - 1, counts - 1 + budget // costs)
    hi = np.where(need_first, np.maximum(hi, lo), lo - 1)
    total = int(np.maximum(hi - lo + 1, 0).sum())
    if total > _MAX_FULL_ENTRIES:
        # Find the largest value threshold whose entries' total cost
        # still covers the budget with margin: v_i(k) ~ P_i/(k(k+1)X_i),
        # so k_i(lam) solves k(k+1) <= P_i/(X_i lam).
        target = _COVER_FACTOR * float(budget)
        costs_f = costs.astype(np.float64)
        hi_f = hi.astype(np.float64)
        lo_f = lo.astype(np.float64)
        lam_lo, lam_hi = 0.0, float(
            (times / (costs_f * lo_f * (lo_f + 1.0))).max()
        ) * 2.0 + 1.0

        def coverage(lam: float) -> float:
            a = times / (costs_f * lam)
            k_cap = np.floor((np.sqrt(1.0 + 4.0 * a) - 1.0) / 2.0)
            n = np.clip(np.minimum(hi_f, k_cap) - lo_f + 1.0, 0.0, None)
            n = np.where(need_first, np.maximum(n, 1.0), n)
            return float((costs_f * n).sum())

        for _ in range(60):
            mid = 0.5 * (lam_lo + lam_hi)
            if coverage(mid) >= target:
                lam_lo = mid
            else:
                lam_hi = mid
        if lam_lo > 0.0:
            a = times / (costs_f * lam_lo)
            k_cap = np.floor((np.sqrt(1.0 + 4.0 * a) - 1.0) / 2.0)
            k_cap = np.minimum(k_cap, hi_f).astype(np.int64)
            hi = np.where(need_first, np.maximum(k_cap, lo), lo - 1)

    n_per_stage = np.maximum(hi - lo + 1, 0)
    total = int(n_per_stage.sum())
    empty = (
        np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
    )
    if total == 0:
        return empty
    stages = np.repeat(np.arange(times.size, dtype=np.int64), n_per_stage)
    offsets = np.concatenate(([0], np.cumsum(n_per_stage)[:-1]))
    ks = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, n_per_stage)
        + np.repeat(lo, n_per_stage)
    )
    base = times[stages]
    kf = ks.astype(np.float64)
    # Identical expression to the reference's stored value: two
    # divisions, a subtraction, then the cost division.
    values = (base / kf - base / (kf + 1.0)) / costs[stages]
    keep = values > 0.0
    if not keep.all():
        values, stages, ks = values[keep], stages[keep], ks[keep]
    if values.size == 0:
        return empty
    # Entries are generated stage-major with ascending k, so a stable
    # sort on descending value breaks ties by (stage, k) — exactly the
    # (-value, stage, k) lexicographic order, at a third of the cost of
    # a three-key lexsort.
    order = np.argsort(-values, kind="stable")
    values = values[order]
    stages = stages[order]
    ks = ks[order]
    return values, stages, ks, costs[stages]


def greedy_allocation_counts(
    problem: AllocationProblem, include_max_bonus: bool = True,
) -> np.ndarray:
    """Replica counts of Algorithm 1, decision-identical to the reference."""
    n = problem.num_stages
    times = problem.times_ns
    costs = problem.crossbars_per_replica
    caps = problem.replica_caps
    floors = (
        problem.fixed_floors_ns
        if problem.fixed_floors_ns is not None
        else np.zeros(n, dtype=np.float64)
    )
    budget = int(problem.budget)
    b1 = problem.num_microbatches - 1
    use_bonus = include_max_bonus and b1 > 0

    times_l = times.tolist()
    costs_l = costs.tolist()
    caps_l = caps.tolist()
    floors_l = floors.tolist()
    counts_l = [1] * n

    # Initial stored values, by the reference's exact expressions.
    gain0 = np.where(caps > 1, times - times / 2, 0.0)
    positive_np = (gain0 / costs) > 0.0
    positive_l = positive_np.tolist()
    pos_count = int(positive_np.sum())

    # Stream state (generated lazily; regenerated in waves on exhaustion).
    sv_a = ss_a = sk_a = sc_a = None  # numpy views for the vectorized path
    sv_l = ss_l = sk_l = sc_l = None  # list views for the scalar path
    pos = 0
    stream_len = 0

    def regen(as_lists: bool) -> None:
        nonlocal sv_a, ss_a, sk_a, sc_a, sv_l, ss_l, sk_l, sc_l
        nonlocal pos, stream_len
        sv_a, ss_a, sk_a, sc_a = _entry_stream(
            times, costs, caps,
            np.array(counts_l, dtype=np.int64), budget,
            np.array(positive_l, dtype=bool),
        )
        pos = 0
        stream_len = sv_a.size
        if as_lists:
            sv_l = sv_a.tolist()
            ss_l = ss_a.tolist()
            sk_l = sk_a.tolist()
            sc_l = sc_a.tolist()

    mode_vector = not use_bonus
    done = False
    unaffordable = [False] * n

    if not mode_vector:
        heap_p = LazyMaxKeys((times + floors).tolist())
        # Cached bonus candidate: valid between purchases of the longest
        # stage cp / its runner-up cr and affordability events.
        cp = -1
        cr = -1
        cvalue_p = 0.0
        cache_ok = False
        regen(as_lists=True)

    while not mode_vector and budget > 0:
        # Advance the stream head past consumed/stale/disabled entries.
        while True:
            while pos < stream_len and not (
                positive_l[ss_l[pos]] and sk_l[pos] == counts_l[ss_l[pos]]
            ):
                pos += 1
            if pos < stream_len or pos_count == 0:
                break
            regen(as_lists=True)
        head_ok = pos < stream_len

        if head_ok:
            stage = ss_l[pos]
            value = sv_l[pos]
            if (
                cache_ok
                and value >= cvalue_p
                and stage != cp
                and stage != cr
                and sc_l[pos] <= budget
            ):
                # Run fast path: the cached bonus value cannot win
                # against this entry and cannot have changed, so this is
                # a plain purchase with no store queries.
                cost = sc_l[pos]
                count = counts_l[stage] + 1
                counts_l[stage] = count
                budget -= cost
                base_c = times_l[stage]
                new_gain = (
                    base_c / count - base_c / (count + 1)
                    if count < caps_l[stage] else 0.0
                )
                new_stored = new_gain / cost if cost <= budget else 0.0
                if new_stored <= 0.0:
                    positive_l[stage] = False
                    pos_count -= 1
                heap_p.update(stage, base_c / count + floors_l[stage])
                pos += 1
                if pos_count == 0:
                    done = True
                    break
                continue

        # Lead change / event: one full reference-equivalent iteration.
        value_a = sv_l[pos] if head_ok else 0.0
        stage_a = ss_l[pos] if head_ok else -1
        chosen = stage_a
        chosen_value = value_a
        via_head = head_ok
        cache_ok = False
        p = heap_p.top()
        count_p = counts_l[p]
        base_p = times_l[p]
        gain_p = (
            base_p / count_p - base_p / (count_p + 1)
            if count_p < caps_l[p] else 0.0
        )
        if gain_p > 0 and not unaffordable[p]:
            _, second, r = heap_p.top_and_second()
            old_max = base_p / count_p + floors_l[p]
            new_time = base_p / (count_p + 1) + floors_l[p]
            delta_max = max(0.0, old_max - max(new_time, second))
            value_p = (gain_p + b1 * delta_max) / costs_l[p]
            cp = p
            cr = r
            cvalue_p = value_p
            cache_ok = True
            if value_p > chosen_value:
                chosen = p
                chosen_value = value_p
                via_head = False
        else:
            # The longest stage can never be bought again (cap reached,
            # or permanently unaffordable), so no stage's pipeline time
            # ever overtakes it: the bonus is dead for the rest of the
            # walk.  Hand the remaining budget to the vectorized path.
            mode_vector = True
            if head_ok:
                continue

        if chosen_value <= 0.0:
            done = True
            break
        cost = costs_l[chosen]
        if cost > budget:
            unaffordable[chosen] = True
            cache_ok = False
            if positive_l[chosen]:
                positive_l[chosen] = False
                pos_count -= 1
            if pos_count == 0:
                done = True
                break
            continue
        count = counts_l[chosen] + 1
        counts_l[chosen] = count
        budget -= cost
        base_c = times_l[chosen]
        new_gain = (
            base_c / count - base_c / (count + 1)
            if count < caps_l[chosen] else 0.0
        )
        new_stored = new_gain / cost if cost <= budget else 0.0
        now_positive = new_stored > 0.0
        if positive_l[chosen] != now_positive:
            pos_count += 1 if now_positive else -1
            positive_l[chosen] = now_positive
        heap_p.update(chosen, base_c / count + floors_l[chosen])
        if via_head:
            pos += 1
        if chosen == cp or chosen == cr:
            cache_ok = False
        if pos_count == 0:
            done = True
            break

    if not done and mode_vector:
        # Bonus-free tail (or the whole walk when the bonus is off):
        # consume the sorted stream in closed-form runs.  Validity is one
        # mask (a stage's pending entries carry consecutive ks, so
        # ``k >= count`` marks exactly the purchasable ones in order),
        # affordability events fall out of the running cost cumsum.
        counts_np = np.array(counts_l, dtype=np.int64)
        positive_np = np.array(positive_l, dtype=bool)
        if sv_a is None:
            regen(as_lists=False)
        while budget > 0 and pos_count > 0:
            if pos >= stream_len:
                counts_l = counts_np.tolist()
                positive_l = positive_np.tolist()
                regen(as_lists=False)
                continue
            seg_s = ss_a[pos:]
            seg_k = sk_a[pos:]
            seg_c = sc_a[pos:]
            valid = positive_np[seg_s] & (seg_k >= counts_np[seg_s])
            vidx = np.flatnonzero(valid)
            if vidx.size == 0:
                pos = stream_len
                continue
            vcost = seg_c[vidx]
            cum = np.cumsum(vcost)
            # First entry whose purchase would leave its own stage
            # unaffordable (cum + cost > budget) — the weaker condition,
            # so it fires at or before the cannot-afford-at-all event
            # (cum > budget).
            over_after = (cum + vcost) > budget
            event = bool(over_after.any())
            if event:
                j = int(np.argmax(over_after))
                if cum[j] > budget:
                    consume = j  # cannot afford entry j at all
                    event_kind = "unaffordable"
                else:
                    consume = j + 1  # bought, but zeroed by the budget
                    event_kind = "zeroed"
                event_stage = int(seg_s[vidx[j]])
            else:
                consume = vidx.size
            if consume:
                budget -= int(cum[consume - 1])
                # A stage's pending entries carry consecutive ks from
                # its current count, so the purchases per stage are a
                # prefix of them: final count = count + bought.
                bought = np.bincount(seg_s[vidx[:consume]], minlength=n)
                uniq = np.flatnonzero(bought)
                counts_np[uniq] += bought[uniq]
                finals = counts_np[uniq]
                for s_, c_ in zip(uniq.tolist(), finals.tolist()):
                    base_c = times_l[s_]
                    gain = (
                        base_c / c_ - base_c / (c_ + 1)
                        if c_ < caps_l[s_] else 0.0
                    )
                    if gain / costs_l[s_] <= 0.0 and positive_np[s_]:
                        positive_np[s_] = False
                        pos_count -= 1
            if event:
                if positive_np[event_stage]:
                    positive_np[event_stage] = False
                    pos_count -= 1
                if event_kind == "unaffordable":
                    # The entry stays unconsumed; it is invalid now and
                    # the next pass skips it.
                    pos = pos + int(vidx[j])
                else:
                    pos = pos + int(vidx[j]) + 1
            else:
                pos = stream_len
        return counts_np

    return np.array(counts_l, dtype=np.int64)
