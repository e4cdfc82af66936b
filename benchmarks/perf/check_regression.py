"""CI regression guard: compare a bench report against the committed baseline.

``bench_hotpaths.py`` writes machine-dependent absolute seconds, so the
guard compares the *dimensionless* quantities: vectorized-vs-reference
speedups per section and the sweep's phase-attribution coverage.  A
measured speedup may fall to ``tolerance`` x its committed baseline value
(default 0.5 — CI runners are noisy and heterogeneous) before the guard
fails; coverage gets an absolute floor.  Hard correctness bits
(``bit_identical`` / ``byte_identical``) must simply hold.

Refresh the baseline after an intentional perf change::

    PYTHONPATH=src python benchmarks/perf/bench_hotpaths.py --quick \
        --out /tmp/bench.json
    python benchmarks/perf/check_regression.py --bench /tmp/bench.json \
        --write-baseline

Usage (CI)::

    python benchmarks/perf/check_regression.py --bench BENCH_hotpaths.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(HERE, "BENCH_baseline_quick.json")

# Sections whose ``speedup`` field is guarded.
SPEEDUP_SECTIONS = (
    "spmm", "simulator", "functional", "allocator", "greedy_allocation",
    "serving", "training", "backends",
)


def extract_baseline(report: dict) -> dict:
    """The guarded dimensionless quantities of one bench report."""
    baseline = {
        "speedups": {
            name: report[name]["speedup"]
            for name in SPEEDUP_SECTIONS
            if name in report
        },
        "phase_coverage": report["sweep"]["phase_coverage"],
    }
    return baseline


def check(report: dict, baseline: dict, tolerance: float,
          coverage_floor: float) -> list:
    """Return a list of regression messages (empty = pass)."""
    problems = []
    for name, committed in baseline.get("speedups", {}).items():
        section = report.get(name)
        if section is None:
            problems.append(f"{name}: section missing from bench report")
            continue
        measured = section["speedup"]
        floor = tolerance * committed
        if measured < floor:
            problems.append(
                f"{name}: speedup {measured:.2f}x is below "
                f"{tolerance:.0%} of the committed {committed:.2f}x "
                f"baseline (floor {floor:.2f}x)"
            )
        if section.get("bit_identical") is False:
            problems.append(f"{name}: vectorized path diverged (bit_identical)")
    sweep = report.get("sweep", {})
    if sweep.get("byte_identical") is False:
        problems.append("sweep: parallel output diverged from serial")
    coverage = sweep.get("phase_coverage")
    if coverage is None:
        problems.append("sweep: phase_coverage missing from bench report")
    elif coverage < coverage_floor:
        problems.append(
            f"sweep: phase coverage {coverage:.0%} is below the "
            f"{coverage_floor:.0%} floor"
        )
    return problems


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="BENCH_hotpaths.json",
                        help="bench report to check")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fraction of the baseline speedup "
                             "(default 0.5)")
    parser.add_argument("--coverage-floor", type=float, default=0.75,
                        help="absolute phase-coverage floor (default 0.75)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="refresh the baseline from --bench instead "
                             "of checking")
    args = parser.parse_args(argv)

    with open(args.bench) as handle:
        report = json.load(handle)

    if args.write_baseline:
        baseline = extract_baseline(report)
        with open(args.baseline, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.baseline}")
        for name, speedup in baseline["speedups"].items():
            print(f"  {name:<10} {speedup:8.1f}x")
        print(f"  {'coverage':<10} {baseline['phase_coverage']:8.0%}")
        return 0

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    problems = check(report, baseline, args.tolerance, args.coverage_floor)
    if problems:
        for problem in problems:
            print(f"REGRESSION: {problem}")
        return 1
    print(f"no regressions vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%}, "
          f"coverage floor {args.coverage_floor:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
