"""repro.perf: content keys, the two-tier cache, and the memo decorator."""

from __future__ import annotations

import dataclasses
import enum
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.generators import dc_sbm_graph
from repro.perf import (
    ENV_DISK_CACHE,
    ENV_DISK_CACHE_MAX_MB,
    ArtifactCache,
    CacheKeyError,
    cache_key,
    clear_cache,
    get_cache,
    memoized,
)


class Mode(enum.Enum):
    A = "a"
    B = "b"


@dataclasses.dataclass(frozen=True)
class Params:
    x: int
    y: float


class TestCacheKey:
    def test_deterministic_and_content_sensitive(self):
        assert cache_key(1, "a", 2.5) == cache_key(1, "a", 2.5)
        assert cache_key(1, "a") != cache_key(1, "b")
        assert cache_key(1) != cache_key(1.0)  # int vs float is content
        assert cache_key(True) != cache_key(1)

    def test_ndarray_keys_on_dtype_shape_and_bytes(self):
        a = np.arange(6, dtype=np.float32)
        assert cache_key(a) == cache_key(a.copy())
        assert cache_key(a) != cache_key(a.astype(np.float64))
        assert cache_key(a) != cache_key(a.reshape(2, 3))
        assert cache_key(a) != cache_key(a[::-1])

    def test_dict_order_does_not_matter(self):
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})

    def test_enum_dataclass_and_fingerprint_objects(self):
        assert cache_key(Mode.A) == cache_key(Mode.A)
        assert cache_key(Mode.A) != cache_key(Mode.B)
        assert cache_key(Params(1, 2.0)) == cache_key(Params(1, 2.0))
        assert cache_key(Params(1, 2.0)) != cache_key(Params(1, 3.0))
        g1 = dc_sbm_graph(num_vertices=24, num_communities=2,
                          avg_degree=3.0, random_state=0)
        g2 = dc_sbm_graph(num_vertices=24, num_communities=2,
                          avg_degree=3.0, random_state=1)
        assert cache_key(g1) == cache_key(g1)
        assert cache_key(g1) != cache_key(g2)

    def test_unhashable_raises_instead_of_colliding(self):
        with pytest.raises(CacheKeyError):
            cache_key(object())


class TestArtifactCache:
    def test_hit_miss_accounting(self):
        cache = ArtifactCache(disk_dir="")
        calls = []

        def compute():
            calls.append(1)
            return "artifact"

        assert cache.get_or_compute("ns", "k", compute) == "artifact"
        assert cache.get_or_compute("ns", "k", compute) == "artifact"
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.contains("ns", "k")
        assert not cache.contains("ns", "other")
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 0

    def test_namespaces_do_not_collide(self):
        cache = ArtifactCache(disk_dir="")
        cache.get_or_compute("ns1", "k", lambda: 1)
        assert cache.get_or_compute("ns2", "k", lambda: 2) == 2

    def test_disk_tier_round_trip(self, tmp_path):
        payload = {"arr": np.arange(5), "x": 3}
        writer = ArtifactCache(disk_dir=str(tmp_path))
        writer.get_or_compute("ns", "k", lambda: payload)
        # A fresh cache (fresh process stand-in) hits the disk tier.
        reader = ArtifactCache(disk_dir=str(tmp_path))
        got = reader.get_or_compute(
            "ns", "k", lambda: pytest.fail("should hit disk"),
        )
        assert reader.stats.disk_hits == 1
        np.testing.assert_array_equal(got["arr"], payload["arr"])

    def test_corrupt_disk_entry_recomputed(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.get_or_compute("ns", "k", lambda: 1)
        (tmp_path / "ns" / "k.pkl").write_bytes(b"not a pickle")
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        assert fresh.get_or_compute("ns", "k", lambda: 2) == 2

    def test_env_var_checked_at_call_time(self, tmp_path, monkeypatch):
        cache = ArtifactCache()
        monkeypatch.setenv(ENV_DISK_CACHE, str(tmp_path))
        cache.get_or_compute("ns", "k", lambda: "v")
        assert (tmp_path / "ns" / "k.pkl").exists()
        monkeypatch.delenv(ENV_DISK_CACHE)
        cache.get_or_compute("ns", "k2", lambda: "v2")
        assert not (tmp_path / "ns" / "k2.pkl").exists()

    def test_clear_disk(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.get_or_compute("ns", "k", lambda: 1)
        cache.clear(disk=True)
        assert not list(tmp_path.rglob("*.pkl"))


class TestDefaultCacheAndDecorator:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_memoized_decorator(self):
        calls = []

        @memoized("test-ns")
        def expensive(a, b=2):
            calls.append((a, b))
            return a * b

        assert expensive(3) == 6
        assert expensive(3) == 6
        assert expensive(3, b=4) == 12
        assert calls == [(3, 2), (3, 4)]
        assert expensive.__wrapped__(3) == 6  # bypasses the cache
        assert len(calls) == 3

    def test_clear_cache_resets_default(self):
        get_cache().get_or_compute("ns", "k", lambda: 1)
        assert get_cache().contains("ns", "k")
        clear_cache()
        assert not get_cache().contains("ns", "k")


def test_cross_process_determinism(tmp_path):
    """Keyed artifacts built in separate processes are identical.

    Two fresh interpreters generate the same dataset with a shared disk
    cache dir; the second must hit the first's entry, and the pickled
    artifact must equal a from-scratch build.
    """
    script = (
        "import sys, numpy as np\n"
        "from repro.graphs.datasets import load_dataset\n"
        "from repro.perf import get_cache\n"
        "g = load_dataset('cora', random_state=0)\n"
        "np.save(sys.argv[1], g.features)\n"
        "print(get_cache().stats.disk_hits)\n"
    )
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = {
        **os.environ,
        ENV_DISK_CACHE: str(tmp_path / "cache"),
        "PYTHONPATH": os.path.join(repo_root, "src"),
    }
    outs = []
    hits = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            capture_output=True, text=True, check=True, env=env,
        )
        outs.append(np.load(out))
        hits.append(int(proc.stdout.strip().splitlines()[-1]))
    np.testing.assert_array_equal(outs[0], outs[1])
    assert hits[0] == 0     # first process built it
    assert hits[1] >= 1     # second process loaded it from disk


class TestDiskCap:
    def _fill(self, cache, count, payload_kb=64):
        blob = np.zeros(payload_kb * 1024 // 8)
        for i in range(count):
            cache.get_or_compute("ns", f"k{i}", lambda b=blob, i=i: (i, b))

    def test_lru_eviction_over_cap(self, tmp_path, monkeypatch):
        # ~64 KB per artifact, cap at ~0.2 MB: the oldest entries go.
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "0.2")
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 6)
        remaining = sorted(p.name for p in tmp_path.rglob("*.pkl"))
        assert 0 < len(remaining) < 6
        total = sum(p.stat().st_size for p in tmp_path.rglob("*.pkl"))
        assert total <= 0.2e6
        # The newest key always survives.
        assert "k5.pkl" in remaining

    def test_disk_hit_refreshes_recency(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "0.2")
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 3)
        # Backdate everything (k0 oldest), then re-read k0 from disk
        # through a fresh cache: the hit must bump its recency so the
        # next overflow evicts k1 — the stalest entry — instead.
        for age, name in enumerate(("k0", "k1", "k2")):
            os.utime(tmp_path / "ns" / f"{name}.pkl", (age, age))
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        fresh.get_or_compute("ns", "k0", lambda: None)
        assert fresh.stats.disk_hits == 1
        fresh.get_or_compute(
            "ns", "k3", lambda: np.zeros(64 * 1024 // 8),
        )
        names = {p.name for p in tmp_path.rglob("*.pkl")}
        assert "k0.pkl" in names
        assert "k1.pkl" not in names

    def test_generous_default_keeps_everything(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_DISK_CACHE_MAX_MB, raising=False)
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 6)
        assert len(list(tmp_path.rglob("*.pkl"))) == 6

    def test_bad_cap_value_falls_back_to_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "not-a-number")
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 4)
        assert len(list(tmp_path.rglob("*.pkl"))) == 4

    @staticmethod
    def _count_scans(monkeypatch):
        calls = []
        rglob = Path.rglob

        def counting(self, pattern, *args, **kwargs):
            calls.append(pattern)
            return rglob(self, pattern, *args, **kwargs)

        monkeypatch.setattr(Path, "rglob", counting)
        return calls

    def test_writes_under_default_cap_scan_once(self, tmp_path, monkeypatch):
        # The write tally seeds from one scan; later writes under the cap
        # (and under the re-scan stride) never walk the directory again.
        monkeypatch.delenv(ENV_DISK_CACHE_MAX_MB, raising=False)
        scans = self._count_scans(monkeypatch)
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 20, payload_kb=4)
        for i in range(5):
            cache.put("other", f"p{i}", i)
        assert len(scans) == 1
        assert len(list(tmp_path.rglob("*.pkl"))) == 25

    def test_sibling_writer_caught_at_next_rescan(self, tmp_path, monkeypatch):
        # Cache B stands in for a --jobs worker sharing the directory:
        # A's tally never sees B's writes, so A notices them only at its
        # next re-scan — due once A itself has written 10% of the cap.
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "100")
        a = ArtifactCache(disk_dir=str(tmp_path))
        b = ArtifactCache(disk_dir=str(tmp_path))
        a.put("a", "seed", 0)  # seeds A's tally with one scan
        self._fill(b, 4, payload_kb=64)  # ~0.26 MB under B's cap
        for path in tmp_path.rglob("*.pkl"):
            os.utime(path, (1, 1))  # B's files are the stalest
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "0.2")
        scans = self._count_scans(monkeypatch)

        def disk_bytes():
            return sum(p.stat().st_size for p in tmp_path.rglob("*.pkl"))

        blob = np.zeros(1024)  # ~8 KB per write; re-scan stride is 20 KB
        writes = 0
        while not scans:
            a.put("a", f"k{writes}", blob)
            writes += 1
            assert writes <= 3, "no re-scan within the 10%-of-cap stride"
        assert disk_bytes() <= 0.2e6
        assert not (tmp_path / "ns" / "k0.pkl").exists()  # B's stalest
        assert (tmp_path / "a" / f"k{writes - 1}.pkl").exists()

    def test_clear_disk_reseeds_tally(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "0.2")
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 2)
        cache.clear(disk=True)
        scans = self._count_scans(monkeypatch)
        self._fill(cache, 1)
        assert len(scans) == 1  # the next write re-seeds from a scan


class TestSpillToDisk:
    def test_spills_memory_entries_to_new_tier(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_DISK_CACHE, raising=False)
        cache = ArtifactCache()
        cache.get_or_compute("ns", "k", lambda: 41)
        monkeypatch.setenv(ENV_DISK_CACHE, str(tmp_path))
        assert cache.spill_to_disk() == 1
        reader = ArtifactCache(disk_dir=str(tmp_path))
        assert reader.get_or_compute("ns", "k", lambda: -1) == 41

    def test_existing_files_not_rewritten(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.get_or_compute("ns", "k", lambda: 1)
        assert cache.spill_to_disk() == 0

    def test_noop_without_disk_tier(self, monkeypatch):
        monkeypatch.delenv(ENV_DISK_CACHE, raising=False)
        cache = ArtifactCache()
        cache.get_or_compute("ns", "k", lambda: 1)
        assert cache.spill_to_disk() == 0

    def test_unpicklable_entries_skipped(self, tmp_path):
        cache = ArtifactCache()
        cache.get_or_compute("ns", "bad", lambda: (lambda: None))
        cache._disk_dir = str(tmp_path)
        assert cache.spill_to_disk() == 0
