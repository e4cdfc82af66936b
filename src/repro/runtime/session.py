"""`Session`: the resolved runtime a :class:`RunSpec` deterministically implies.

Everything the old ``repro.experiments.context`` module held as
process-wide globals lives here instead, owned by one object that can be
constructed, passed around, pickled across worker processes (via its
spec), and torn down without leaking state:

* the resolved :class:`~repro.hardware.config.HardwareConfig`;
* named, seeded RNG streams (:meth:`Session.rng`) derived from the
  spec's master seed, so independent subsystems never share a stream;
* the content-keyed :class:`~repro.perf.cache.ArtifactCache` backing
  workloads, fitted predictors, and stage tables;
* the phase profiler (:mod:`repro.perf.profile`);
* result provenance — :meth:`Session.stamp` records the spec hash and
  config fingerprint into each
  :class:`~repro.experiments.harness.ExperimentResult`'s metadata.

Two Sessions built from equal specs are interchangeable: every artifact
they resolve is content-keyed, every stream they hand out is seeded from
the spec, so results are byte-identical regardless of cache temperature
or process boundaries (tests/runtime/test_session.py asserts this).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional

import numpy as np

from repro.perf import profile
from repro.perf.cache import ArtifactCache, cache_key, get_cache
from repro.runtime.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.harness import ExperimentResult
    from repro.predictor.predictor import TimePredictor
    from repro.stages.workload import Workload


def stream_seed(master_seed: int, stream: str) -> int:
    """Deterministic 32-bit seed for one named RNG stream.

    Stable across processes and Python versions (sha256, not ``hash``),
    and distinct per stream name, so subsystems drawing from different
    streams never interleave.
    """
    digest = hashlib.sha256(f"{master_seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Session:
    """One resolved run: config + RNG streams + cache + profiler.

    Parameters
    ----------
    spec:
        The :class:`RunSpec` to resolve; defaults to ``RunSpec()`` (the
        experiment-scale defaults every reproduced table runs under).
    cache:
        Artifact cache to use; defaults to the process-wide cache so
        sessions share deterministic artifacts (pass a fresh
        :class:`ArtifactCache` for an isolated cold-cache session).
    """

    def __init__(
        self,
        spec: Optional[RunSpec] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.spec = spec if spec is not None else RunSpec()
        self.config = self.spec.resolve_config()
        self.cache = cache if cache is not None else get_cache()
        self.profile = profile

    def __repr__(self) -> str:
        return f"Session(spec_hash={self.spec.spec_hash()[:12]})"

    # ------------------------------------------------------------------
    # Simulation backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The spec's simulation backend (``"analytic"`` or ``"trace"``)."""
        return self.spec.backend

    def activate_backend(self):
        """Context manager scoping the process simulation backend (the
        :mod:`repro.backends` protocol) to this session's.  The
        experiment driver wraps each run in it."""
        from repro import backends

        return backends.use_backend(self.spec.backend)

    # ------------------------------------------------------------------
    # RNG streams
    # ------------------------------------------------------------------
    def rng(self, stream: str, seed: Optional[int] = None) -> np.random.Generator:
        """A fresh generator for the named stream (deterministic per call).

        Equal ``(spec.seed, stream)`` always yields an identically seeded
        generator; different stream names yield independent streams.
        Pass ``seed`` to derive from an explicit master seed instead of
        the spec's (experiment ``run()`` overrides do).
        """
        master = self.spec.seed if seed is None else seed
        return np.random.default_rng(stream_seed(master, stream))

    def replica_rng(self, stream: str, seed: int) -> np.random.Generator:
        """A named stream seeded *raw* (no per-stream derivation).

        The replica-batched trainers (:mod:`repro.gcn.batched`) must
        reproduce the serial trainers' generators bit-for-bit, and those
        are seeded ``default_rng(random_state)`` directly — routing them
        through :func:`stream_seed` would change every draw.  This hands
        out exactly that generator while still *naming* the stream: each
        call is recorded in :attr:`replica_streams` (name -> generator),
        so the RNG-hygiene suite can inspect stream positions after a
        run and assert they match the serial counterparts'.

        Unlike :meth:`rng`, two distinct stream names with equal seeds
        intentionally return identically seeded generators — replicas
        that share a ``random_state`` must draw identical sequences.
        """
        generator = np.random.default_rng(seed)
        self.replica_streams[stream] = generator
        return generator

    @property
    def replica_streams(self) -> Dict[str, np.random.Generator]:
        """Live registry of named replica streams (latest per name)."""
        registry = getattr(self, "_replica_streams", None)
        if registry is None:
            registry = self._replica_streams = {}
        return registry

    # ------------------------------------------------------------------
    # Cached artifacts (the old experiments.context surface)
    # ------------------------------------------------------------------
    def workload(
        self,
        dataset: Optional[str] = None,
        seed: Optional[int] = None,
        micro_batch: Optional[int] = None,
        scale: Optional[float] = None,
    ) -> "Workload":
        """Cached Table IV workload (spec defaults, per-call overrides)."""
        from repro.stages.workload import workload_from_dataset

        name = dataset if dataset is not None else self.spec.dataset
        if name is None:
            from repro.errors import ExperimentError

            raise ExperimentError(
                "no dataset given and the session's RunSpec names none"
            )
        seed = self.spec.seed if seed is None else seed
        micro_batch = (
            self.spec.micro_batch if micro_batch is None else micro_batch
        )
        scale = self.spec.scale if scale is None else scale
        key = cache_key(name, seed, micro_batch, float(scale))
        return self.cache.get_or_compute(
            "workloads", key,
            lambda: workload_from_dataset(
                name, random_state=seed, micro_batch=micro_batch,
                scale=scale,
            ),
        )

    def graph(
        self,
        dataset: Optional[str] = None,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
    ):
        """The cached workload's graph (the per-dataset loop shorthand)."""
        return self.workload(dataset, seed=seed, scale=scale).graph

    def predictor(
        self,
        num_samples: int = 800,
        seed: Optional[int] = None,
    ) -> "TimePredictor":
        """Cached fitted TimePredictor (deterministic per (samples, seed))."""
        from repro.predictor.dataset import generate_dataset
        from repro.predictor.predictor import TimePredictor

        seed = self.spec.seed if seed is None else seed
        key = cache_key(num_samples, seed)

        def fit() -> "TimePredictor":
            dataset = generate_dataset(
                num_samples=num_samples, random_state=seed,
            )
            return TimePredictor().fit(dataset)

        return self.cache.get_or_compute("predictors", key, fit)

    def prefetch(self, datasets: Iterable[str]) -> int:
        """Warm the workload cache for the named datasets.

        Sweep drivers call this before forking workers so every worker
        inherits the (deterministic) workloads instead of regenerating
        them; returns how many datasets were touched.
        """
        count = 0
        for name in dict.fromkeys(datasets):  # de-dup, keep order
            self.workload(name)
            count += 1
        return count

    def clear_caches(self) -> None:
        """Drop this session's cached artifacts (tests / cold starts)."""
        self.cache.clear()

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    def config_fingerprint(self) -> str:
        """Content hash of the resolved hardware configuration."""
        return cache_key(self.config)

    def provenance(self) -> Dict[str, Any]:
        """The provenance block stamped into results and JSON outputs."""
        return {
            "spec_hash": self.spec.spec_hash(),
            "run_spec": self.spec.to_dict(),
            "config_fingerprint": self.config_fingerprint(),
            "backend": self.spec.backend,
        }

    def stamp(
        self,
        result: "ExperimentResult",
        experiment_id: Optional[str] = None,
    ) -> "ExperimentResult":
        """Record this session's provenance into a result's metadata."""
        block = self.provenance()
        if experiment_id is not None:
            block["experiment_id"] = experiment_id
        result.metadata["provenance"] = block
        return result


# ----------------------------------------------------------------------
# Process default
# ----------------------------------------------------------------------
_default_session: Optional[Session] = None


def default_session() -> Session:
    """The lazily created process-default session (``RunSpec()``)."""
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def set_default_session(session: Optional[Session]) -> Optional[Session]:
    """Replace the process default; returns the previous one."""
    global _default_session
    previous = _default_session
    _default_session = session
    return previous
