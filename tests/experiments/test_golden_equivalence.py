"""Golden-hash equivalence: refactors must not move a single byte.

``golden_quick_hashes.json`` records, for each experiment, the sha256 of
its quick-mode result rows as produced by the pre-``repro.runtime``
codebase.  Any change that perturbs an RNG derivation, a cache key, or
an iteration order shows up here as a hash mismatch — before it shows up
as a silently different EXPERIMENTS.md.

Every recorded id runs in tier-1 (all 16 take about 6 s on a 2-vCPU host).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_quick_hashes.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def rows_hash(result) -> str:
    return hashlib.sha256(
        json.dumps(result.rows, sort_keys=True, default=str).encode(),
    ).hexdigest()


def test_golden_file_covers_known_experiments():
    from repro.experiments.registry import specs

    unknown = set(GOLDEN) - set(specs())
    assert not unknown, f"golden ids not in the registry: {sorted(unknown)}"


@pytest.mark.parametrize("experiment_id", tuple(GOLDEN))
def test_quick_rows_match_golden_hash(experiment_id):
    from repro.experiments.registry import run_all

    result = run_all(only=[experiment_id], quick=True)[0]
    assert rows_hash(result) == GOLDEN[experiment_id], (
        f"{experiment_id}: quick-mode rows diverged from the recorded "
        f"golden hash — a refactor changed the numbers"
    )

