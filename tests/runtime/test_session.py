"""RunSpec/Session semantics: hashing, resolution, determinism."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ExperimentError
from repro.perf.cache import ArtifactCache
from repro.runtime import (
    EXPERIMENT_ARRAY_BYTES,
    RunSpec,
    Session,
    stream_seed,
)


def _rows_bytes(result):
    return json.dumps(result.rows, sort_keys=True, default=str).encode()


class TestRunSpec:
    def test_defaults_and_hash_stability(self):
        a, b = RunSpec(), RunSpec()
        assert a == b
        assert a.spec_hash() == b.spec_hash()
        assert a.array_bytes == EXPERIMENT_ARRAY_BYTES

    def test_hash_changes_with_any_field(self):
        base = RunSpec().spec_hash()
        assert RunSpec(seed=1).spec_hash() != base
        assert RunSpec(dataset="cora").spec_hash() != base
        assert RunSpec(scale=0.5).spec_hash() != base
        assert RunSpec(hardware=(("weight_bits", 8),)).spec_hash() != base

    def test_hardware_overrides_normalised(self):
        a = RunSpec(hardware={"weight_bits": 8, "crossbar_rows": 128})
        b = RunSpec(hardware=(("crossbar_rows", 128), ("weight_bits", 8)))
        assert a == b
        config = a.resolve_config()
        assert config.weight_bits == 8
        assert config.crossbar_rows == 128
        assert config.array_capacity_bytes == EXPERIMENT_ARRAY_BYTES

    def test_unknown_hardware_field_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(hardware={"not_a_field": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(seed=-1)
        with pytest.raises(ConfigError):
            RunSpec(micro_batch=0)
        with pytest.raises(ConfigError):
            RunSpec(scale=0.0)

    def test_dict_round_trip(self):
        spec = RunSpec(
            dataset="ddi", seed=3, scale=0.5,
            hardware={"weight_bits": 8}, accelerator="gopim",
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        # to_dict is JSON-serialisable as-is (worker task payloads).
        json.dumps(spec.to_dict())

    def test_spec_hashes_pinned(self):
        # Literal digests: removing a field must not move any recorded
        # provenance hash or cache key.
        assert RunSpec().spec_hash() == (
            "0d8662d274e4e8e50faf0bfe7fc162cd8c4f9139171c9aed9b6c38b1cd1b7bee"
        )
        assert RunSpec(backend="trace").spec_hash() == (
            "089d36a3647a32aea1ddda848c4ffbd3ba3b970dd8d378be8c529ce24e4cdeb0"
        )
        assert RunSpec(seed=3, dataset="cora", scale=0.5).spec_hash() == (
            "439ced15a564f07c02c1d065defc01f2dc5d450dbce1afe1491ef199c6e8dfdf"
        )

    @given(
        dataset=st.sampled_from([None, "cora", "ddi", "products"]),
        seed=st.integers(0, 2 ** 31),
        micro_batch=st.integers(1, 4096),
        scale=st.floats(1e-3, 1e3, allow_nan=False),
        array_bytes=st.integers(1, 2 ** 40),
        weight_bits=st.none() | st.integers(1, 16),
        accelerator=st.sampled_from([None, "gopim", "serial"]),
        backend=st.sampled_from(["analytic", "trace"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip_keeps_hash(
        self, dataset, seed, micro_batch, scale, array_bytes, weight_bits,
        accelerator, backend,
    ):
        hardware = {} if weight_bits is None else {"weight_bits": weight_bits}
        spec = RunSpec(
            dataset=dataset, seed=seed, micro_batch=micro_batch,
            scale=scale, array_bytes=array_bytes, hardware=hardware,
            accelerator=accelerator, backend=backend,
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        clone = RunSpec.from_dict(payload)
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_numerics_is_not_a_field(self):
        # Only the exact tier exists; the read-only property serves
        # readers of ``spec.numerics`` and never reaches dicts or hashes.
        spec = RunSpec()
        assert spec.numerics == "exact"
        assert "numerics" not in {f.name for f in fields(RunSpec)}
        assert "numerics" not in spec.to_dict()
        with pytest.raises(ConfigError):
            RunSpec.from_dict({"numerics": "fast"})
        with pytest.raises(TypeError):
            RunSpec(numerics="fast")

    def test_with_derives_variants(self):
        spec = RunSpec(dataset="ddi")
        assert spec.with_(seed=7).seed == 7
        assert spec.with_(seed=7).dataset == "ddi"
        assert spec.with_() == spec


class TestStreams:
    def test_stream_seed_stable_and_distinct(self):
        assert stream_seed(0, "noise") == stream_seed(0, "noise")
        assert stream_seed(0, "noise") != stream_seed(0, "init")
        assert stream_seed(0, "noise") != stream_seed(1, "noise")
        assert 0 <= stream_seed(0, "noise") < 2 ** 32

    def test_session_streams_independent(self):
        session = Session()
        a = session.rng("noise").standard_normal(4)
        b = session.rng("noise").standard_normal(4)
        assert a.tolist() == b.tolist()  # fresh generator per call
        c = session.rng("init").standard_normal(4)
        assert a.tolist() != c.tolist()


class TestSessionArtifacts:
    def test_workload_requires_dataset(self):
        with pytest.raises(ExperimentError):
            Session().workload()

    def test_spec_dataset_is_the_default(self):
        session = Session(RunSpec(dataset="cora"))
        assert session.workload().name == session.workload("cora").name

    def test_provenance_block_shape(self):
        session = Session(RunSpec(dataset="cora", seed=2))
        prov = session.provenance()
        assert prov["spec_hash"] == session.spec.spec_hash()
        assert prov["run_spec"]["dataset"] == "cora"
        assert prov["config_fingerprint"] == session.config_fingerprint()
        assert "numerics" not in prov


class TestDeterminism:
    """Same spec => byte-identical rows, however the caches are primed."""

    SPEC = RunSpec(seed=0)
    KWARGS = {"datasets": ("ddi",)}

    def _run(self, session):
        from repro.experiments.registry import run_experiment

        return run_experiment("fig06", session=session, **self.KWARGS)

    def test_cold_vs_warm_cache(self):
        session = Session(self.SPEC, cache=ArtifactCache())
        cold = self._run(session)     # empty cache: everything computed
        warm = self._run(session)     # same session: everything cached
        assert _rows_bytes(cold) == _rows_bytes(warm)

    def test_two_fresh_sessions_agree(self):
        a = self._run(Session(self.SPEC, cache=ArtifactCache()))
        b = self._run(Session(self.SPEC, cache=ArtifactCache()))
        assert _rows_bytes(a) == _rows_bytes(b)

    def test_provenance_stamp_matches_session(self):
        session = Session(self.SPEC, cache=ArtifactCache())
        result = session.stamp(self._run(session), "fig06")
        prov = result.metadata["provenance"]
        assert prov["spec_hash"] == self.SPEC.spec_hash()
        assert prov["experiment_id"] == "fig06"
