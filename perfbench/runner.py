"""One sweep in a fresh process: the unit every benchmark measurement runs.

    python3 perfbench/runner.py --ids fig04 fig05 --seed 0 --backend analytic \
        --out result.json [--trace spans.json] [--setup-only]

Imports the experiment registry, builds a ``Session`` for
``RunSpec(seed=..., backend=...)`` (quick tier, exact numerics) and calls
``repro.experiments.registry.run_all`` once per experiment id, serially.
``REPRO_CACHE_DIR`` and the BLAS thread count come from the environment the
parent sets.  The result file holds the monotonic time of the first
experiment call (the parent subtracts its spawn time to get set-up time),
the sweep's wall and CPU seconds, peak RSS, one digest per experiment and
any exception.  With ``--trace`` the layer tracer is installed first and its
spans are written to the given file once, after the last result.  With
``--setup-only`` the process stops at the first experiment call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WALL_CLOCK_COLUMNS, blas_threads


def rows_digest(experiment_id: str, rows) -> str:
    """sha256 of an experiment's rows, in the golden-hash test's form.

    Wall-clock columns are dropped first; every other column stays.
    """
    dropped = WALL_CLOCK_COLUMNS.get(experiment_id, ())
    if dropped:
        rows = [{k: v for k, v in row.items() if k not in dropped} for row in rows]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=str).encode(),
    ).hexdigest()


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ids", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--backend", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.experiments import registry
    from repro.runtime import RunSpec, Session

    registry.specs()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    session = Session(RunSpec(seed=args.seed, backend=args.backend))
    if session.spec.numerics != "exact":
        raise SystemExit("the benchmark measures the exact numerics tier")

    first_call = time.monotonic()
    result = {"first_call": first_call}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    digests, errors, seconds = {}, {}, {}
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for experiment_id in args.ids:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.run(experiment_id):
                    out = registry.run_all(quick=True, only=[experiment_id], session=session)
            else:
                out = registry.run_all(quick=True, only=[experiment_id], session=session)
            digests[experiment_id] = rows_digest(experiment_id, out[0].rows)
        except Exception:  # one failing experiment must not end the sweep
            errors[experiment_id] = traceback.format_exc(limit=5)
        seconds[experiment_id] = time.perf_counter() - t0
    end = time.perf_counter()
    result.update(
        wall_s=end - start,
        cpu_s=cpu_seconds() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        digests=digests,
        errors=errors,
        seconds=seconds,
        blas_threads=blas_threads(),
    )
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary((start, end))
        Path(args.trace).write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "run"],
             "spans": tracer.spans},
        ))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
