"""Self-tests of the sweep benchmark: python3 -m pytest perfbench/tests

They keep the benchmark honest against ``src/``: a renamed wrap target, a
retired experiment id or a layer metric the traced run stops emitting
fails here instead of silently zeroing a number.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
from workloads import QUICK_IDS, TRACE_IDS, WALL_CLOCK_COLUMNS, WORKLOADS

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent

# Experiments that between them reach every wrap target, per backend.  Each
# set is part of a workload with that backend, so a target reached here is
# reached on at least one workload.
COVERING = {
    "analytic": ("tab06", "tab07", "abl-samples", "abl-allocator", "abl-tta",
                 "abl-scheduler", "abl-quantization", "abl-endurance",
                 "fig16", "srv_batching_policy", "bke_cross_validation"),
    "trace": ("srv_batching_policy",),
}


def test_every_wrap_target_exists():
    assert set(tracer.TARGETS) == set(tracer.LAYERS)
    for _, target in tracer.all_targets():
        _, _, raw = tracer.resolve(target)
        assert callable(getattr(raw, "__func__", raw)), target


def test_pinned_ids_are_registered():
    from repro.experiments import registry

    specs = registry.specs()
    assert set(QUICK_IDS) <= set(specs)
    assert all("trace" in specs[i].backends for i in TRACE_IDS)
    assert set(WALL_CLOCK_COLUMNS) == set(registry.WALL_CLOCK_EXPERIMENTS)
    for backend, ids in COVERING.items():
        assert any(
            w.backend == backend and set(ids) <= set(w.ids)
            for w in WORKLOADS.values()
        ), backend


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    for entry in spec["per_layer"]:
        assert (entry["unit"], entry["better"]) == tracer.metric_unit(entry["name"])
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "cache_disk_mb", "ok_ratio",
    ]


def test_self_time_subtracts_children():
    # run 0..10 > outer 1..6 > inner 3..4
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]).__next__
    t = tracer.Tracer(clock=clock)
    with t.run("exp"):
        outer = t.open("outer", "gcn")
        inner = t.open("inner", "graphs")
        t.close(inner)
        t.close(outer)
    metrics = t.summary((0.0, 10.0))["metrics"]
    assert metrics["graphs.self_s"] == pytest.approx(1.0)
    assert metrics["gcn.self_s"] == pytest.approx(4.0)
    assert metrics["experiments.self_s"] == pytest.approx(5.0)
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert [span[5] for span in t.spans] == ["exp"] * 3


def test_every_target_records_a_span(tmp_path):
    reached = set()
    for backend, ids in COVERING.items():
        out = tmp_path / f"{backend}.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"), OPENBLAS_NUM_THREADS="1")
        subprocess.run(
            [sys.executable, str(HERE / "runner.py"), "--ids", *ids, "--seed", "0",
             "--backend", backend, "--out", str(out),
             "--trace", str(tmp_path / f"{backend}-spans.json")],
            check=True, env=env, cwd=ROOT, timeout=600,
        )
        result = json.loads(out.read_text())
        assert not result["errors"], result["errors"]
        reached |= set(result["trace"]["spans_per_target"])
    missing = [t for _, t in tracer.all_targets() if t not in reached]
    assert not missing, f"wrap targets that recorded no span: {missing}"
