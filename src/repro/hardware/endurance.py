"""ReRAM endurance / array-lifetime model.

Section IV-A justifies the SRAM Weight Manager by endurance: ReRAM cells
survive ~10^8 writes versus SRAM's ~10^16.  The same arithmetic has a
consequence the paper leaves implicit: **vertex updating wears out the
feature-mapped crossbars**, and ISU — by cutting write traffic and
balancing it across crossbars — extends the array's useful life.

The model is deliberately simple: a crossbar row dies after
``endurance_writes`` row writes; the array's lifetime is set by the
*most-written* row (wear is not levelled across rows because a vertex's
features live at a fixed wordline).  Lifetime is reported in training
epochs and in wall-clock terms given an epoch's simulated duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import ConfigError
from repro.mapping.selective import UpdatePlan

RERAM_ENDURANCE_WRITES = 10 ** 8
SRAM_ENDURANCE_WRITES = 10 ** 16


@dataclass(frozen=True)
class LifetimeReport:
    """Array-lifetime estimate under one update scheme.

    The *worst* row (a hub vertex, refreshed every epoch) wears at the
    same rate under every scheme — selective updating cannot help the
    rows it keeps updating.  What ISU changes is the array-wide picture:
    the median row's write rate drops by up to the minor period, and the
    total wear (== write energy) drops proportionally.
    """

    scheme: str
    writes_per_epoch_worst_row: float
    writes_per_epoch_median_row: float
    writes_per_epoch_mean: float
    epochs_to_wearout_worst: float
    epochs_to_wearout_median: float
    pulses_per_write: int

    def lifetime_seconds(self, epoch_time_ns: float) -> float:
        """Wall-clock worst-row lifetime at a given epoch duration."""
        if epoch_time_ns <= 0:
            raise ConfigError("epoch_time_ns must be positive")
        return self.epochs_to_wearout_worst * epoch_time_ns * 1e-9


def rows_written_per_epoch(plan: UpdatePlan) -> np.ndarray:
    """Expected per-vertex row writes per epoch under a plan's schedule.

    Important vertices are written every epoch; the rest once per minor
    period.
    """
    n = plan.graph.num_vertices
    rates = np.full(n, 1.0 / plan.minor_period)
    rates[plan.important] = 1.0
    return rates


def estimate_lifetime(
    plan: UpdatePlan,
    scheme_name: str,
    endurance_writes: int = RERAM_ENDURANCE_WRITES,
    pulses_per_write: int = 2,
    layers_sharing_row: int = 1,
) -> LifetimeReport:
    """Epochs until the most-written wordline wears out.

    ``layers_sharing_row`` multiplies wear when several AG stages map the
    same vertex row onto the same physical crossbars (conservative: 1
    assumes distinct pools per stage, which GoPIM's allocation uses).
    """
    if endurance_writes < 1:
        raise ConfigError("endurance_writes must be >= 1")
    if pulses_per_write < 1:
        raise ConfigError("pulses_per_write must be >= 1")
    if layers_sharing_row < 1:
        raise ConfigError("layers_sharing_row must be >= 1")
    rates = rows_written_per_epoch(plan)
    factor = pulses_per_write * layers_sharing_row
    worst = float(rates.max()) * factor
    median = float(np.median(rates)) * factor
    mean = float(rates.mean()) * factor
    return LifetimeReport(
        scheme=scheme_name,
        writes_per_epoch_worst_row=worst,
        writes_per_epoch_median_row=median,
        writes_per_epoch_mean=mean,
        epochs_to_wearout_worst=(
            endurance_writes / worst if worst > 0 else float("inf")
        ),
        epochs_to_wearout_median=(
            endurance_writes / median if median > 0 else float("inf")
        ),
        pulses_per_write=pulses_per_write,
    )


def compare_schemes(
    plans: Dict[str, UpdatePlan],
    endurance_writes: int = RERAM_ENDURANCE_WRITES,
    pulses_per_write: int = 2,
) -> Dict[str, LifetimeReport]:
    """Lifetime reports for several named update schemes."""
    return {
        name: estimate_lifetime(
            plan, name, endurance_writes=endurance_writes,
            pulses_per_write=pulses_per_write,
        )
        for name, plan in plans.items()
    }


def wear_levelled_rates(
    plan: UpdatePlan,
    rotation_period_epochs: int = 100,
) -> np.ndarray:
    """Per-row write rates under wordline rotation (wear levelling).

    A simple future-work extension: every ``rotation_period_epochs`` the
    mapper rotates each crossbar's vertex-to-wordline assignment by one
    slot, so over many rotations every physical row absorbs the *average*
    write rate of the vertices sharing its crossbar.  The rotation itself
    costs one extra full write round per period, charged here as an added
    ``1 / rotation_period`` to every row.

    Returns the asymptotic per-vertex-slot write rates.
    """
    if rotation_period_epochs < 1:
        raise ConfigError("rotation_period_epochs must be >= 1")
    rates = rows_written_per_epoch(plan)
    mapping = plan.mapping
    # Segment means via bincount: sum and count each crossbar's rates in
    # two O(N) passes, then gather — replaces the per-crossbar Python
    # loop (equivalence: tests/hardware/test_endurance_vectorized.py).
    groups = mapping.crossbar_of
    counts = np.bincount(groups, minlength=mapping.num_crossbars)
    sums = np.bincount(groups, weights=rates, minlength=mapping.num_crossbars)
    means = sums / np.maximum(counts, 1)  # empty crossbars are never read
    return means[groups] + 1.0 / rotation_period_epochs


def estimate_lifetime_with_leveling(
    plan: UpdatePlan,
    scheme_name: str,
    rotation_period_epochs: int = 100,
    endurance_writes: int = RERAM_ENDURANCE_WRITES,
    pulses_per_write: int = 2,
) -> LifetimeReport:
    """Lifetime under wordline rotation (compare with the static mapping).

    Wear levelling is what finally extends the *worst* row's life: the hub
    rows' per-epoch writes get amortised across all wordlines of their
    crossbar, at the price of the periodic rotation writes.
    """
    rates = wear_levelled_rates(plan, rotation_period_epochs)
    factor = pulses_per_write
    worst = float(rates.max()) * factor
    median = float(np.median(rates)) * factor
    mean = float(rates.mean()) * factor
    return LifetimeReport(
        scheme=f"{scheme_name}+leveling",
        writes_per_epoch_worst_row=worst,
        writes_per_epoch_median_row=median,
        writes_per_epoch_mean=mean,
        epochs_to_wearout_worst=(
            endurance_writes / worst if worst > 0 else float("inf")
        ),
        epochs_to_wearout_median=(
            endurance_writes / median if median > 0 else float("inf")
        ),
        pulses_per_write=pulses_per_write,
    )
