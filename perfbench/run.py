"""End-to-end sweep benchmark for the GoPIM reproduction.

    python3 perfbench/run.py --workload quick-cold --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each measured sweep is a fresh process
(``perfbench/runner.py``) that calls ``repro.experiments.registry.run_all``
for every pinned experiment id of the workload, quick tier, exact numerics,
serially, with OpenBLAS pinned to ``BLAS_THREADS`` threads.  Sweeps repeat
until ``--seconds`` of measurement have passed (at least one); the end-to-end
metrics are medians over them.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it holds the environment stamp,
the cache state the workload started from, per-experiment digests and
times, and which experiments' digests depend on the seed.

State kept between runs lives in ``.perfbench_work/`` at the checkout root:
``base-<backend>/`` is a cache filled once per checkout by seed-0 sweeps
(golden-checked), which the primed workloads copy and then top up with a
priming sweep at the run's own seed; ``digests/`` holds every
digest set seen per (backend, seed), which later runs must reproduce.
Nothing else in the checkout is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracer import metric_names, metric_unit
from workloads import BLAS_THREADS, QUICK_IDS, TRACE_IDS, TRACE_PROGRAMS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = ROOT / "tests" / "experiments" / "golden_quick_hashes.json"
CHILD_TIMEOUT_S = 170
# Sweep processes run with address-space randomisation off and a fixed
# string-hash seed: in an interleaved test, fig09 alone took 40-50 s with a
# random layout per process and 40.4-41.0 s with a fixed one.
NO_ASLR = ["setarch", platform.machine(), "-R"] if shutil.which("setarch") else []


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an experiment failure)."""


class Run:
    """Sweeps, checks and failure accounting for one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.dir = WORK / "run"
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, List[str]] = {}
        self._children = 0
        self.golden = json.loads(GOLDEN.read_text())

    # ------------------------------------------------------------------
    def start(self, ids, seed: int, backend: str, cache: Path,
              trace: Optional[Path] = None, setup_only: bool = False) -> tuple:
        """Start one sweep process; :meth:`finish` collects it."""
        self._children += 1
        out = self.dir / f"child-{self._children}.json"
        log = out.with_suffix(".log")
        cmd = [*NO_ASLR, sys.executable, str(HERE / "runner.py"), "--ids", *ids,
               "--seed", str(seed), "--backend", backend, "--out", str(out)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ)
        env.pop("REPRO_CACHE_MAX_MB", None)
        env.pop("REPRO_SWEEP_TIMES", None)
        env.update(
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
            REPRO_CACHE_DIR=str(cache),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
            PYTHONHASHSEED="0",
        )
        with open(log, "w") as sink:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=sink, stderr=subprocess.STDOUT,
            )
        return proc, out, log, spawned

    def finish(self, started: List[tuple]) -> List[dict]:
        """Wait for started processes; none outlives this call."""
        results = []
        try:
            for proc, out, log, spawned in started:
                try:
                    proc.wait(timeout=CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired as exc:
                    raise BenchError(f"sweep process timed out after {exc.timeout} s") from exc
                if proc.returncode != 0:
                    raise BenchError(
                        f"sweep process exited {proc.returncode}:\n"
                        f"{log.read_text()[-4000:]}"
                    )
                result = json.loads(out.read_text())
                result["setup_s"] = result["first_call"] - spawned
                results.append(result)
        finally:
            for proc, *_ in started:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return results

    def setup_sample(self, cache: Path) -> float:
        wl = self.workload
        started = self.start(wl.ids, self.seed, wl.backend, cache, setup_only=True)
        return self.finish([started])[0]["setup_s"]

    def sweep(self, cache: Path, seed: Optional[int] = None,
              ids=None, backend: Optional[str] = None,
              reference: Optional[Dict[str, str]] = None,
              label: str = "measured") -> dict:
        """One checked sweep; failures are charged to this run."""
        seed = self.seed if seed is None else seed
        ids = self.workload.ids if ids is None else ids
        backend = backend or self.workload.backend
        result, = self.finish([self.start(ids, seed, backend, cache)])
        self.check(result, ids, seed, backend, reference, label)
        return result

    def check(self, result: dict, ids, seed: int, backend: str,
              reference: Optional[Dict[str, str]], label: str) -> None:
        """Charge the sweep's exceptions and digest mismatches to this run."""
        self.attempted += len(ids)
        digests = result["digests"]
        bad = {i: [f"{label}: raised\n{e}"] for i, e in result["errors"].items()}
        checks = [("recorded", self.record(backend, seed, digests))]
        if reference is not None:
            checks.append(("reference", reference))
        if seed == 0 and backend == "analytic":
            checks.append(("golden", self.golden))
        for experiment_id, digest in digests.items():
            for what, expected in checks:
                if experiment_id in expected and expected[experiment_id] != digest:
                    bad.setdefault(experiment_id, []).append(
                        f"{label}: digest differs from {what}")
        for experiment_id, reasons in bad.items():
            self.failures.setdefault(experiment_id, []).extend(reasons)
        self.failed += len(bad)

    def record(self, backend: str, seed: int, digests: Dict[str, str]) -> Dict[str, str]:
        """Digests seen before for (backend, seed); adds the new ones."""
        path = WORK / "digests" / f"{backend}-{seed}.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        merged = {**digests, **known}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(merged, indent=1, sort_keys=True))
        return known

    def seed_dependent(self, backend: str, digests: Dict[str, str]) -> Optional[List[str]]:
        """Ids whose digest at this seed differs from seed 0 (if known)."""
        path = WORK / "digests" / f"{backend}-0.json"
        if not path.exists():
            return None
        seed0 = json.loads(path.read_text())
        return sorted(i for i, d in digests.items() if i in seed0 and seed0[i] != d)

    # ------------------------------------------------------------------
    def base(self, backend: str) -> Path:
        """The per-checkout cache a primed workload copies.

        ``analytic``: filled by a cold seed-0 sweep of every quick
        experiment.  ``trace``: that cache plus a seed-0 trace sweep.
        """
        base = WORK / f"base-{backend}"
        if base.exists():
            return base
        tmp = WORK / f"base-{backend}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        if backend == "analytic":
            tmp.mkdir(parents=True)
            ids = QUICK_IDS
        else:
            shutil.copytree(self.base("analytic"), tmp)
            ids = TRACE_IDS
        before = self.failed
        self.sweep(tmp, seed=0, ids=ids, backend=backend, label=f"base-{backend}")
        if self.failed > before:
            return tmp  # used for this run only, never published
        os.replace(tmp, base)
        return base

    def prepare(self, cache: Path) -> None:
        """Bring ``cache`` to the workload's start state before a sweep."""
        if self.workload.start == "empty":
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir(parents=True)
        elif self.workload.start == "primed-no-trace-programs":
            shutil.rmtree(cache / TRACE_PROGRAMS, ignore_errors=True)


def dir_state(cache: Path) -> dict:
    namespaces: Dict[str, int] = {}
    total = 0
    for path in cache.rglob("*"):
        if path.is_file():
            total += path.stat().st_size
            ns = path.relative_to(cache).parts[0]
            namespaces[ns] = namespaces.get(ns, 0) + 1
    return {"bytes": total, "files_per_namespace": dict(sorted(namespaces.items()))}


def environment(children: List[dict]) -> dict:
    import numpy

    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True,
                text=True, timeout=20,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "aslr": "off" if NO_ASLR else "on",
        "pythonhashseed": "0",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": sorted({c.get("blas_threads") for c in children}, key=str),
    }


def timed_run(bench: Run, cache: Path, reference, seconds: float):
    """End-to-end metrics: medians over untraced sweeps."""
    # Set-up samples bracket the measured sweeps, so a slow minute on a
    # shared host does not move all of them together.
    setups = [bench.setup_sample(cache)]
    sweeps: List[dict] = []
    measure_start = time.monotonic()
    while not sweeps or time.monotonic() - measure_start < seconds:
        bench.prepare(cache)
        result = bench.sweep(cache, reference=reference)
        result["cache_disk_mb"] = dir_state(cache)["bytes"] / 1e6
        sweeps.append(result)
    setups.append(bench.setup_sample(cache))
    setups += [s["setup_s"] for s in sweeps]

    def median(key: str) -> float:
        return statistics.median(s[key] for s in sweeps)

    metrics = {
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "cache_disk_mb": (median("cache_disk_mb"), "MB"),
        "ok_ratio": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
    }
    extra = {
        "sweeps": [{k: s[k] for k in ("wall_s", "cpu_s", "setup_s",
                                      "peak_rss_mb", "cache_disk_mb")}
                   for s in sweeps],
        "setup_samples_s": setups,
    }
    return sweeps, metrics, extra


def traced_run(bench: Run, cache: Path, reference):
    """Per-layer metrics from a traced sweep beside an untraced one."""
    # The two sweeps run side by side, one per CPU, from copies of one start
    # state.  Both see the same host conditions, so their difference is the
    # tracing overhead rather than drift between two minutes of a shared
    # machine, and a cold pair stays well inside the run time limit.
    wl, seed = bench.workload, bench.seed
    twin = bench.dir / "cache-traced"
    shutil.copytree(cache, twin)
    plain, traced = bench.finish([
        bench.start(wl.ids, seed, wl.backend, cache),
        bench.start(wl.ids, seed, wl.backend, twin, trace=bench.dir / "spans.json"),
    ])
    bench.check(plain, wl.ids, seed, wl.backend, reference, "untraced")
    bench.check(traced, wl.ids, seed, wl.backend, reference or plain["digests"], "traced")
    emitted = dict(traced["trace"]["metrics"])
    emitted["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: (emitted[name], metric_unit(name)[0]) for name in metric_names()}
    extra = {
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": plain["wall_s"],
        "spans_per_target": traced["trace"]["spans_per_target"],
        "unlisted_namespaces": traced["trace"]["unlisted_namespaces"],
    }
    return [plain, traced], metrics, extra


def run(workload: str, seed: int, seconds: float, trace: bool):
    bench = Run(workload, seed)
    shutil.rmtree(bench.dir, ignore_errors=True)
    bench.dir.mkdir(parents=True)
    cache = bench.dir / "cache"
    wl = bench.workload

    reference = None
    if wl.start != "empty":
        shutil.copytree(bench.base(wl.backend), cache)
        reference = bench.sweep(cache, label="priming")["digests"]
    bench.prepare(cache)
    cache_start = {"state": wl.start, **dir_state(cache)}

    if trace:
        children, metrics, extra = traced_run(bench, cache, reference)
    else:
        children, metrics, extra = timed_run(bench, cache, reference, seconds)
    first = children[0]
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "experiments": list(wl.ids),
        "backend": wl.backend,
        "cache_start": cache_start,
        "environment": environment(children),
        "digests": first["digests"],
        "seed_dependent": bench.seed_dependent(wl.backend, first["digests"]),
        "experiment_seconds": first["seconds"],
        "failures": bench.failures,
        "waited_s": "not reported: the sweep is serial, nothing queues",
        **extra,
    }
    summary = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still reaps its sweep processes: SystemExit unwinds
    # through the ``finally`` in ``Run.finish``.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir() or not GOLDEN.is_file():
        print("perfbench: run from a checkout holding src/repro and the "
              "golden hashes", file=sys.stderr)
        return 2
    try:
        details, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
