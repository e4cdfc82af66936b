"""Experiment result serialisation (JSON round-trip).

Lets long experiment sweeps be cached to disk and re-rendered without
re-running: ``save_results`` writes a list of
:class:`~repro.experiments.harness.ExperimentResult` to one JSON file,
``load_results`` restores them (floats stay floats, ints stay ints).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Union

from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentResult

FORMAT_VERSION = 1


def results_to_dict(results: Sequence[ExperimentResult]) -> dict:
    """The JSON-serialisable representation."""
    return {
        "format_version": FORMAT_VERSION,
        "results": [
            {
                "experiment_id": r.experiment_id,
                "title": r.title,
                "notes": r.notes,
                "rows": r.rows,
                "metadata": r.metadata,
            }
            for r in results
        ],
    }


def results_from_dict(payload: dict) -> List[ExperimentResult]:
    """Inverse of :func:`results_to_dict` (validates the envelope)."""
    if not isinstance(payload, dict):
        raise ExperimentError("payload must be a dict")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ExperimentError(
            f"unsupported format_version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    entries = payload.get("results")
    if not isinstance(entries, list):
        raise ExperimentError("payload['results'] must be a list")
    results = []
    for entry in entries:
        try:
            results.append(ExperimentResult(
                experiment_id=entry["experiment_id"],
                title=entry["title"],
                notes=entry.get("notes", ""),
                rows=list(entry.get("rows", [])),
                metadata=dict(entry.get("metadata", {})),
            ))
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed result entry: {exc}") from exc
    return results


def save_results(
    results: Sequence[ExperimentResult],
    path: Union[str, Path],
) -> None:
    """Write results as JSON."""
    Path(path).write_text(
        json.dumps(results_to_dict(results), indent=2, sort_keys=False),
    )


def load_results(path: Union[str, Path]) -> List[ExperimentResult]:
    """Read results back from JSON.

    Files written before the relaxed-identity numerics tier was retired
    may hold results stamped ``numerics: fast``; those are refused so a
    fast table can never pass as an exact one.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot load results from {path}: {exc}") from exc
    results = results_from_dict(payload)
    for result in results:
        provenance = result.metadata.get("provenance") or {}
        tier = provenance.get("numerics", "exact")
        if tier != "exact":
            raise ExperimentError(
                f"{path}: result {result.experiment_id!r} was produced "
                f"under the retired numerics={tier!r} tier; re-run it"
            )
    return results
