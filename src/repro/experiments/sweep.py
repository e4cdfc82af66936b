"""Parallel sweep scheduling: longest jobs first, shared warm caches.

``run_all(jobs=N)`` used to ``pool.map`` the registry order onto a
default ``ProcessPoolExecutor``.  That loses twice: registry order packs
badly (the longest experiment can start last and overhang the makespan),
and spawn-style workers begin cold — no warm in-process artifact cache,
so each worker regenerates datasets the parent already has.  This module
fixes the scheduling half of the perf story:

* **LPT ordering** — experiments are submitted longest-first, using
  per-experiment wall times recorded from prior runs (serial or
  parallel).  Unknown experiments are assumed long and scheduled first.
  Times live in memory for the session and, when a cache directory is
  configured, persist to ``<cache_dir>/sweep/wall_times.json`` (or the
  ``REPRO_SWEEP_TIMES`` path) so a fresh process schedules well too.
* **Fork workers** — the pool uses the ``fork`` start method where
  available, so workers inherit the parent's warm in-memory artifact
  cache instead of starting cold.
* **Shared disk tier** — when the user has no ``REPRO_CACHE_DIR`` set, a
  session-scoped scratch directory is used for the sweep and the
  parent's memory cache is spilled into it, so workers share artifacts
  computed *during* the sweep across process boundaries too.
* **One BLAS thread per worker** — each worker pins its BLAS pool to a
  single thread (best effort, via the loaded OpenBLAS's control symbol)
  so N workers don't contend for N x T threads.

Determinism is untouched: scheduling only changes *when* an experiment
runs, and every experiment re-seeds from its id before running, so the
result tables stay byte-identical to a serial sweep (wall-clock-
measuring experiments excepted, as always).
"""

from __future__ import annotations

import atexit
import ctypes
import json
import multiprocessing as mp
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.perf.cache import ENV_DISK_CACHE, get_cache

ENV_SWEEP_TIMES = "REPRO_SWEEP_TIMES"

# Exported thread-count setters across OpenBLAS builds (vanilla, ILP64,
# and scipy's vendored copies); the first one present is used.
_BLAS_THREAD_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads_64_",
)

_session_times: Dict[str, float] = {}
_shared_dir: Optional[str] = None

#: Seed durations for experiments that have never run on this machine,
#: so the LPT scheduler places them sensibly on first contact instead of
#: treating them as unknowns.  Measured times (disk or session) always
#: override these.  Units: seconds on a ~1-core CI worker.
SEED_WALL_TIMES: Dict[str, float] = {
    "quick:srv_tail_latency": 6.0,
    "full:srv_tail_latency": 20.0,
    "quick:srv_batching_policy": 2.0,
    "full:srv_batching_policy": 8.0,
    "quick:srv_saturation": 2.5,
    "full:srv_saturation": 10.0,
    # Training-heavy experiments, re-seeded after replica batching cut
    # their trainer time ~7x (cold-cache quick runs on a 1-core worker;
    # full values are rough 5x extrapolations — only first contact uses
    # them, and overestimating a long job is the safe LPT direction).
    "quick:fig16": 6.0,
    "full:fig16": 30.0,
    "quick:tab05": 2.5,
    "full:tab05": 12.0,
    "quick:tab06": 0.1,
    "full:tab06": 0.5,
    "quick:abl-model-family": 0.3,
    "full:abl-model-family": 2.0,
    "quick:abl-weight-staleness": 0.1,
    "full:abl-weight-staleness": 0.5,
    "quick:abl-variation": 0.2,
    "full:abl-variation": 1.0,
    # Allocation-heavy experiments, re-seeded after the run-skipping
    # Algorithm 1 engine and the content-keyed allocation cache: within
    # one run, repeated accelerator builds now share their greedy
    # searches, and the searches themselves vectorize.  Cold-cache
    # quick runs measured on a 1-core worker; full values are rough
    # 4-5x extrapolations (overestimating a long job is the safe LPT
    # direction).  abl-allocator also gained a reference-loop row, so
    # its seed is a fresh measurement, not a scaled-down old one.
    "quick:fig13": 7.5,
    "full:fig13": 35.0,
    "quick:abl-scheduler": 6.0,
    "full:abl-scheduler": 28.0,
    "quick:abl-allocator": 2.0,
    "full:abl-allocator": 9.0,
    # Trace backend (backend="trace"): accelerator-heavy experiments pay
    # the one-off per-(workload, stage) program compilation on first
    # contact — memoised through the artifact cache afterwards — plus
    # the per-replay scoreboard arithmetic, so cold quick walls sit
    # modestly above their analytic counterparts.  Training-only and
    # serving-queueing experiments barely move.  Full values are the
    # usual conservative 4-5x extrapolations (overestimating a long job
    # is the safe LPT direction).
    "trace-quick:fig13": 9.0,
    "trace-full:fig13": 40.0,
    "trace-quick:fig14": 2.5,
    "trace-full:fig14": 10.0,
    "trace-quick:fig17": 2.0,
    "trace-full:fig17": 9.0,
    "trace-quick:abl-scheduler": 7.0,
    "trace-full:abl-scheduler": 32.0,
    "trace-quick:abl-allocator": 2.5,
    "trace-full:abl-allocator": 11.0,
    "trace-quick:srv_tail_latency": 6.5,
    "trace-full:srv_tail_latency": 22.0,
    "trace-quick:fig16": 6.5,
    "trace-full:fig16": 32.0,
    "trace-quick:tab05": 2.5,
    "trace-full:tab05": 12.0,
    "trace-quick:bke_cross_validation": 5.0,
    "trace-full:bke_cross_validation": 20.0,
    # The cross-validation experiment itself runs both engines whatever
    # the session backend is, so its analytic-session walls match.
    "quick:bke_cross_validation": 5.0,
    "full:bke_cross_validation": 20.0,
}


def limit_blas_threads(threads: int = 1) -> bool:
    """Pin the already-loaded BLAS to ``threads`` threads (best effort).

    Environment variables (``OMP_NUM_THREADS`` etc.) only work before
    the library loads, which has long happened by the time a forked
    worker starts — so this walks the process's loaded shared objects
    for an OpenBLAS and calls its thread-control entry point directly.
    Returns whether any library was adjusted.
    """
    try:
        with open("/proc/self/maps") as handle:
            maps = handle.read()
    except OSError:
        return False
    libs = {
        line.split()[-1]
        for line in maps.splitlines()
        if "blas" in line.lower() and line.rstrip().endswith(".so")
    }
    adjusted = False
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            setter = getattr(lib, symbol, None)
            if setter is None:
                continue
            arg = (
                ctypes.c_int64(threads)
                if "64" in symbol
                else ctypes.c_int(threads)
            )
            try:
                setter(arg)
            except (ctypes.ArgumentError, OSError):
                continue
            adjusted = True
            break
    return adjusted


def _worker_init(threads: int) -> None:
    limit_blas_threads(threads)


# ----------------------------------------------------------------------
# Wall-time persistence
# ----------------------------------------------------------------------
def wall_time_key(
    experiment_id: str, quick: bool, backend: str = "analytic",
) -> str:
    """Store key: quick/full (and analytic/trace) runs have unrelated
    durations.  Default-backend keys keep the historical
    ``quick:``/``full:`` forms so recorded times survive the backend's
    introduction; other backends prefix them (``trace-quick:fig13``)."""
    mode = "quick" if quick else "full"
    if backend != "analytic":
        mode = f"{backend}-{mode}"
    return f"{mode}:{experiment_id}"


def _times_path() -> Optional[str]:
    override = os.environ.get(ENV_SWEEP_TIMES, "").strip()
    if override:
        return override
    root = os.environ.get(ENV_DISK_CACHE, "").strip()
    if root:
        return os.path.join(root, "sweep", "wall_times.json")
    return None


def load_wall_times() -> Dict[str, float]:
    """Known per-experiment wall times, freshest source winning."""
    merged: Dict[str, float] = dict(SEED_WALL_TIMES)
    path = _times_path()
    if path and os.path.exists(path):
        try:
            with open(path) as handle:
                disk = json.load(handle)
            merged.update({
                str(k): float(v) for k, v in disk.items()
                if isinstance(v, (int, float))
            })
        except (OSError, ValueError):
            pass
    merged.update(_session_times)
    return merged


def record_wall_times(times: Dict[str, float]) -> None:
    """Remember measured durations (session memory + optional disk)."""
    _session_times.update(times)
    path = _times_path()
    if path is None:
        return
    merged = load_wall_times()
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp",
        )
        with os.fdopen(fd, "w") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
        os.replace(tmp_name, path)
    except OSError:
        pass  # persistence is advisory; scheduling falls back gracefully


def lpt_order(
    experiment_ids: Sequence[str],
    quick: bool,
    cost_hints: Optional[Dict[str, float]] = None,
    backend: str = "analytic",
) -> List[int]:
    """Submission order: longest processing time first.

    Experiments without a recorded duration sort before everything else
    (an unknown job could be the long pole; starting it late is the one
    unrecoverable mistake); among those, declared spec ``cost_hints``
    order the likely-longest first.  Ties keep the request order.
    """
    times = load_wall_times()
    hints = cost_hints or {}
    known = [
        times.get(wall_time_key(eid, quick, backend))
        for eid in experiment_ids
    ]
    return sorted(
        range(len(experiment_ids)),
        key=lambda i: (
            known[i] is not None,
            -(
                known[i]
                if known[i] is not None
                else hints.get(experiment_ids[i], 0.0)
            ),
            i,
        ),
    )


# ----------------------------------------------------------------------
# Shared scratch cache tier
# ----------------------------------------------------------------------
def _shared_cache_dir() -> str:
    """Session-scoped disk-cache root for sweeps without a user cache."""
    global _shared_dir
    if _shared_dir is None:
        _shared_dir = tempfile.mkdtemp(prefix="repro-sweep-cache-")
        atexit.register(shutil.rmtree, _shared_dir, ignore_errors=True)
    return _shared_dir


def _pool_context() -> mp.context.BaseContext:
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def run_scheduled(
    tasks: Sequence[Tuple],
    jobs: int,
    quick: bool,
    execute: Callable[[Tuple], Tuple[object, float, dict]],
    phase_log: Optional[Dict[str, dict]] = None,
    cost_hints: Optional[Dict[str, float]] = None,
    backend: str = "analytic",
) -> List[object]:
    """Fan ``tasks`` out over a worker pool, longest jobs first.

    Each task is a tuple whose first element is the experiment id;
    ``execute`` must return ``(result, seconds, phases)``.  Measured
    durations feed the next run's LPT ordering (with ``cost_hints``
    breaking ties among unmeasured experiments), and the per-experiment
    phase profiles fill ``phase_log`` (same shape as the serial path's).
    Results come back in *task* order, regardless of scheduling.
    """
    own_cache_tier = not os.environ.get(ENV_DISK_CACHE, "").strip()
    if own_cache_tier:
        os.environ[ENV_DISK_CACHE] = _shared_cache_dir()
    try:
        # Seed the (possibly fresh) disk tier from the parent's warm
        # memory so workers share pre-sweep artifacts even under spawn.
        get_cache().spill_to_disk()
        order = lpt_order(
            [task[0] for task in tasks], quick, cost_hints=cost_hints,
            backend=backend,
        )
        results: List[object] = [None] * len(tasks)
        durations: Dict[str, float] = {}
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            mp_context=_pool_context(),
            initializer=_worker_init,
            initargs=(1,),
        ) as pool:
            futures = [
                (index, pool.submit(execute, tasks[index]))
                for index in order
            ]
            for index, future in futures:
                result, seconds, phases = future.result()
                results[index] = result
                durations[
                    wall_time_key(tasks[index][0], quick, backend)
                ] = seconds
                if phase_log is not None:
                    phase_log[tasks[index][0]] = {
                        "wall_s": seconds, "phases": phases,
                    }
        record_wall_times(durations)
        return results
    finally:
        if own_cache_tier:
            os.environ.pop(ENV_DISK_CACHE, None)
