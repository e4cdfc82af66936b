"""Experiment result JSON round-trip."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentResult
from repro.experiments.io import (
    FORMAT_VERSION,
    load_results,
    results_from_dict,
    results_to_dict,
    save_results,
)


@pytest.fixture
def results():
    return [
        ExperimentResult(
            experiment_id="fig05",
            title="Example",
            rows=[{"a": 1, "b": 2.5, "c": "x"}, {"a": 2, "b": None}],
            notes="Paper notes.",
        ),
        ExperimentResult(experiment_id="tab05", title="Other"),
    ]


def test_round_trip_via_file(results, tmp_path):
    path = tmp_path / "results.json"
    save_results(results, path)
    loaded = load_results(path)
    assert len(loaded) == 2
    assert loaded[0].experiment_id == "fig05"
    assert loaded[0].rows == results[0].rows
    assert loaded[0].notes == "Paper notes."
    assert loaded[1].rows == []
    # Types preserved through JSON.
    assert isinstance(loaded[0].rows[0]["a"], int)
    assert isinstance(loaded[0].rows[0]["b"], float)


def test_markdown_identical_after_round_trip(results, tmp_path):
    path = tmp_path / "results.json"
    save_results(results, path)
    loaded = load_results(path)
    assert loaded[0].to_markdown() == results[0].to_markdown()


def test_version_checked(results):
    payload = results_to_dict(results)
    payload["format_version"] = 999
    with pytest.raises(ExperimentError):
        results_from_dict(payload)


def test_malformed_payloads():
    with pytest.raises(ExperimentError):
        results_from_dict([])
    with pytest.raises(ExperimentError):
        results_from_dict({"format_version": FORMAT_VERSION, "results": {}})
    with pytest.raises(ExperimentError):
        results_from_dict({
            "format_version": FORMAT_VERSION,
            "results": [{"title": "missing id"}],
        })


def test_load_missing_file(tmp_path):
    with pytest.raises(ExperimentError):
        load_results(tmp_path / "absent.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ExperimentError):
        load_results(path)


def test_load_refuses_fast_tier_results(results, tmp_path):
    # Results saved by a checkout that still had the fast numerics tier
    # must not load as if they were exact.
    results[1].metadata["provenance"] = {"numerics": "fast"}
    path = tmp_path / "results.json"
    save_results(results, path)
    with pytest.raises(ExperimentError, match="'tab05'.*numerics='fast'"):
        load_results(path)


def test_load_accepts_exact_stamped_and_unstamped_results(results, tmp_path):
    results[0].metadata["provenance"] = {"numerics": "exact"}
    path = tmp_path / "results.json"
    save_results(results, path)
    assert [r.experiment_id for r in load_results(path)] == ["fig05", "tab05"]
