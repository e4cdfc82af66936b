"""Pinned workload definitions for the sweep benchmark.

The experiment ids are pinned here rather than read from the registry when
a run starts, so a registry change shows up as a self-test failure instead
of silently changing what a workload measures.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

QUICK_IDS: Tuple[str, ...] = (
    "fig04", "fig05", "fig06", "fig07", "fig09", "fig13", "fig14", "fig15",
    "fig16", "fig17", "tab05", "tab06", "tab07", "abl-allocator", "abl-isu",
    "abl-tta", "abl-variation", "abl-crossbar-size", "abl-features",
    "abl-motivation", "abl-endurance", "abl-samples", "abl-quantization",
    "abl-scheduler", "abl-weight-staleness", "abl-model-family",
    "srv_tail_latency", "srv_batching_policy", "srv_saturation",
    "bke_cross_validation",
)

# The experiments whose spec lists the trace backend.
TRACE_IDS: Tuple[str, ...] = (
    "fig04", "fig13", "fig14", "fig15", "fig16", "fig17", "tab06", "tab07",
    "abl-isu", "abl-tta", "abl-crossbar-size", "abl-model-family",
    "srv_tail_latency", "srv_batching_policy", "srv_saturation",
    "bke_cross_validation",
)

# Columns that hold wall-clock measurements (the registry's
# WALL_CLOCK_EXPERIMENTS); they are dropped before hashing.
WALL_CLOCK_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "abl-allocator": ("decision time (ms)",),
}

# OpenBLAS threads for every sweep process: at or below nproc, and 1 keeps
# cpu_s equal to the work done rather than to spinning helper threads.
BLAS_THREADS = 1

# Cache namespace the trace-cold workload starts without.
TRACE_PROGRAMS = "trace_programs"


@dataclass(frozen=True)
class Workload:
    ids: Tuple[str, ...]
    backend: str
    # "empty": REPRO_CACHE_DIR starts empty.
    # "primed": filled by a priming sweep of the same ids at the same seed.
    # "primed-no-trace-programs": primed, then trace_programs removed.
    start: str


# Why each workload exists: perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {
    "quick-cold": Workload(QUICK_IDS, "analytic", "empty"),
    "quick-warm": Workload(QUICK_IDS, "analytic", "primed"),
    "trace-cold": Workload(TRACE_IDS, "trace", "primed-no-trace-programs"),
}


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS loaded in this process, if found."""
    try:
        with open("/proc/self/maps") as handle:
            maps = handle.read()
    except OSError:
        return None
    libs = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "blas" in line.lower() and line.rstrip().endswith(".so")
    })
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None
