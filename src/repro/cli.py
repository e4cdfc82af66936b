"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``datasets``
    List the synthetic paper datasets and their statistics.
``simulate DATASET``
    Run GoPIM (and optionally every baseline) on one dataset and print
    time/energy/speedups.
``gantt DATASET``
    Render a text Gantt chart of the GoPIM pipeline schedule.
``experiments [IDS...]``
    Run registered experiments and print their markdown tables.
``list``
    Print the collected experiment registry (id, cost hint, supported
    backends, datasets, title) without running anything.
``run ID``
    Run one experiment under a fresh session and print its table, or
    with ``--json`` the rows plus the full provenance block (run spec,
    spec hash, config fingerprint, registry ids).
``stats DATASET``
    Print a dataset's graph statistics (degree tail, homophily, Gini).
``lifetime DATASET``
    Print the ReRAM array-lifetime comparison across update schemes.
``area``
    Print the Table II-derived area report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.units import format_energy, format_time


def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.graphs.datasets import DATASET_SPECS

    header = (
        f"{'name':<9} {'task':<5} {'paper N':>9} {'sim N':>6} "
        f"{'paper deg':>9} {'sim deg':>8} {'dim':>5} {'layers':>6} {'theta':>6}"
    )
    print(header)
    print("-" * len(header))
    for spec in DATASET_SPECS.values():
        print(
            f"{spec.name:<9} {spec.task:<5} {spec.paper_vertices:>9} "
            f"{spec.sim_vertices:>6} {spec.paper_avg_degree:>9.1f} "
            f"{spec.sim_avg_degree:>8.1f} {spec.feature_dim:>5} "
            f"{spec.num_layers:>6} {spec.selective_threshold:>6.0%}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.accelerators import (
        gopim, gopim_vanilla, reflip, regraphx, serial, slimgnn_like,
    )
    from repro.runtime import default_session

    session = default_session()
    config = session.config
    workload = session.workload(args.dataset, seed=args.seed,
                                micro_batch=args.micro_batch)
    predictor = session.predictor(seed=args.seed)
    print(f"{args.dataset}: {workload.graph}")
    if args.all:
        systems = [serial(), slimgnn_like(), regraphx(), reflip(),
                   gopim_vanilla(time_predictor=predictor),
                   gopim(time_predictor=predictor)]
    else:
        systems = [serial(), gopim(time_predictor=predictor)]
    base = None
    for acc in systems:
        report = acc.run(workload, config)
        if base is None:
            base = report
        speedup = base.total_time_ns / report.total_time_ns
        saving = base.energy_pj / report.energy_pj
        print(
            f"  {report.accelerator:<14} {format_time(report.total_time_ns):>12} "
            f"{format_energy(report.energy_pj):>12} "
            f"speedup {speedup:>8.1f}x  energy {saving:>5.2f}x"
        )
        if args.detail:
            from repro.accelerators.report import render_report

            print()
            print(render_report(report))
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.accelerators import gopim, serial
    from repro.pipeline.trace import bottleneck_stage, render_gantt
    from repro.runtime import default_session

    session = default_session()
    config = session.config
    workload = session.workload(args.dataset, seed=args.seed)
    acc = (
        serial() if args.serial
        else gopim(time_predictor=session.predictor(seed=args.seed))
    )
    report = acc.run(workload, config)
    print(f"{acc.name} on {args.dataset} "
          f"(makespan {format_time(report.total_time_ns)}):")
    print(render_gantt(report.pipeline, report.stage_names,
                       width=args.width))
    print(f"bottleneck: "
          f"{bottleneck_stage(report.pipeline, report.stage_names)}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.harness import combine_markdown
    from repro.experiments.registry import run_all

    results = run_all(quick=args.quick, only=args.ids or None,
                      jobs=args.jobs, backend=args.backend)
    print(combine_markdown(results))
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.experiments.registry import specs

    collected = specs()
    width = max(len(spec_id) for spec_id in collected)
    header = (
        f"{'id':<{width}}  {'cost':>5}  {'backends':<15}  "
        f"{'datasets':<22}  title"
    )
    print(header)
    print("-" * len(header))
    for spec_id, spec in collected.items():
        datasets = ",".join(spec.datasets) if spec.datasets else "-"
        backends = ",".join(spec.backends)
        print(
            f"{spec_id:<{width}}  {spec.cost_hint:>5.1f}  "
            f"{backends:<15}  "
            f"{datasets:<22}  {spec.title}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.registry import run_all, specs
    from repro.runtime import RunSpec, Session

    session = Session(RunSpec(
        seed=args.seed,
        backend=args.backend or "analytic",
    ))
    result = run_all(
        quick=args.quick, only=[args.experiment_id], session=session,
    )[0]
    if not args.json:
        print(result.to_markdown())
        return 0
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "notes": result.notes,
        "rows": result.rows,
        "provenance": result.metadata.get("provenance", {}),
        "registry": list(specs()),
    }
    print(json.dumps(payload, indent=2, sort_keys=False, default=str))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graphs.stats import compute_stats
    from repro.runtime import default_session

    graph = default_session().graph(args.dataset, seed=args.seed)
    stats = compute_stats(graph)
    for key, value in stats.as_dict().items():
        if isinstance(value, float):
            print(f"{key:<18} {value:12.4g}")
        else:
            print(f"{key:<18} {value!s:>12}")
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from repro.hardware.endurance import (
        compare_schemes,
        estimate_lifetime_with_leveling,
    )
    from repro.mapping.selective import build_update_plan
    from repro.runtime import default_session

    graph = default_session().graph(args.dataset, seed=args.seed)
    plans = {
        "full": build_update_plan(graph, "full"),
        "OSU": build_update_plan(graph, "osu"),
        "ISU": build_update_plan(graph, "isu"),
    }
    reports = list(compare_schemes(plans).values())
    reports.append(estimate_lifetime_with_leveling(plans["ISU"], "ISU"))
    header = (
        f"{'scheme':<14} {'worst-row epochs':>17} "
        f"{'median-row epochs':>18} {'mean writes/epoch':>18}"
    )
    print(header)
    print("-" * len(header))
    for report in reports:
        print(
            f"{report.scheme:<14} {report.epochs_to_wearout_worst:>17.3g} "
            f"{report.epochs_to_wearout_median:>18.3g} "
            f"{report.writes_per_epoch_mean:>18.3g}"
        )
    return 0


def _cmd_area(_: argparse.Namespace) -> int:
    from repro.hardware.energy import area_report

    for key, value in area_report().items():
        print(f"{key:<20} {value:10.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GoPIM (HPCA 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset stand-ins")

    simulate = sub.add_parser("simulate", help="simulate one dataset")
    simulate.add_argument("dataset")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--micro-batch", type=int, default=64)
    simulate.add_argument("--all", action="store_true",
                          help="include every baseline")
    simulate.add_argument("--detail", action="store_true",
                          help="print the full per-stage/energy report")

    gantt = sub.add_parser("gantt", help="render a pipeline Gantt chart")
    gantt.add_argument("dataset")
    gantt.add_argument("--seed", type=int, default=0)
    gantt.add_argument("--width", type=int, default=72)
    gantt.add_argument("--serial", action="store_true",
                       help="show the Serial schedule instead of GoPIM")

    experiments = sub.add_parser("experiments", help="run experiments")
    experiments.add_argument("ids", nargs="*",
                             help="experiment ids (default: all)")
    experiments.add_argument("--quick", action="store_true")
    experiments.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes")
    experiments.add_argument("--backend", choices=("analytic", "trace"),
                             default=None,
                             help="simulation backend for every epoch "
                                  "(default: the session's, i.e. analytic)")

    sub.add_parser("list", help="print the experiment registry")

    run = sub.add_parser(
        "run", help="run one experiment with provenance",
    )
    run.add_argument("experiment_id", metavar="ID")
    run.add_argument("--seed", type=int, default=0,
                     help="session master seed")
    run.add_argument("--quick", action="store_true",
                     help="fast smoke parameters")
    run.add_argument("--backend", choices=("analytic", "trace"),
                     default=None,
                     help="simulation backend (trace replays compiled "
                          "instruction streams; provenance-stamped)")
    run.add_argument("--json", action="store_true",
                     help="emit rows plus the provenance block as JSON")

    stats = sub.add_parser("stats", help="graph statistics for a dataset")
    stats.add_argument("dataset")
    stats.add_argument("--seed", type=int, default=0)

    lifetime = sub.add_parser(
        "lifetime", help="array lifetime per update scheme",
    )
    lifetime.add_argument("dataset")
    lifetime.add_argument("--seed", type=int, default=0)

    sub.add_parser("area", help="print the area report")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "simulate": _cmd_simulate,
        "gantt": _cmd_gantt,
        "experiments": _cmd_experiments,
        "list": _cmd_list,
        "run": _cmd_run,
        "stats": _cmd_stats,
        "lifetime": _cmd_lifetime,
        "area": _cmd_area,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
