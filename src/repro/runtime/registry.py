"""Declarative experiment registry: specs collected, never hand-listed.

Each experiment module declares itself by decorating its ``run`` function
with :func:`experiment`::

    @experiment(
        "fig13",
        title="Overall speedup and energy saving",
        datasets=("ddi", "collab", "ppa", "proteins", "arxiv"),
        cost_hint=8.0,
        order=60,
    )
    def run(..., session=None) -> ExperimentResult: ...

The decorator registers an :class:`ExperimentSpec` (id, title, run
function, datasets needed, relative cost hint, quick-mode overrides,
wall-clock flag, rendering order) and returns the function unchanged, so
direct calls keep working.  :func:`collect_specs` imports every module
of :mod:`repro.experiments` and returns the collected specs ordered by
``(order, id)`` — there is no hand-maintained id→function map anywhere.

The spec metadata is what makes the registry more than a name table:

* ``datasets`` lets sweep drivers prefetch workloads before forking;
* ``cost_hint`` seeds LPT scheduling for experiments with no recorded
  wall time yet;
* ``quick`` holds the CI smoke parameterisation next to the experiment
  it parameterises;
* ``wall_clock`` marks tables that measure wall time (excluded from
  determinism checks).
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ExperimentError

SPEC_ATTRIBUTE = "experiment_spec"


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproducible experiment."""

    id: str
    title: str
    run: Callable[..., Any]
    datasets: Tuple[str, ...] = ()
    cost_hint: float = 1.0
    quick: Dict[str, Any] = field(default_factory=dict)
    wall_clock: bool = False
    order: int = 0
    module: str = ""
    #: Simulation backends this experiment's results *depend on*.
    #: Experiments that never touch the pricing path (pure training,
    #: graph statistics, predictor fitting) list only the default
    #: ``"analytic"`` — they run fine under any backend but produce
    #: identical rows.  Accelerator/serving experiments list every
    #: engine; ``repro list`` prints the matrix.
    backends: Tuple[str, ...] = ("analytic",)

    def __post_init__(self) -> None:
        if not self.id:
            raise ExperimentError("experiment id must be non-empty")
        if not callable(self.run):
            raise ExperimentError(f"{self.id}: run must be callable")
        if self.cost_hint < 0:
            raise ExperimentError(
                f"{self.id}: cost_hint must be >= 0, got {self.cost_hint}"
            )
        if not self.backends:
            raise ExperimentError(
                f"{self.id}: backends must name at least one engine"
            )
        from repro.backends import BACKEND_NAMES

        unknown = set(self.backends) - set(BACKEND_NAMES)
        if unknown:
            raise ExperimentError(
                f"{self.id}: unknown backend(s) "
                f"{', '.join(sorted(unknown))}; registered: "
                f"{', '.join(BACKEND_NAMES)}"
            )


_declared: Dict[str, ExperimentSpec] = {}


def experiment(
    experiment_id: str,
    *,
    title: str,
    datasets: Tuple[str, ...] = (),
    cost_hint: float = 1.0,
    quick: Optional[Dict[str, Any]] = None,
    wall_clock: bool = False,
    order: int = 0,
    backends: Tuple[str, ...] = ("analytic",),
) -> Callable[[Callable], Callable]:
    """Register the decorated run function as an experiment.

    Returns the function unchanged; the spec is attached as
    ``fn.experiment_spec`` and recorded for :func:`collect_specs`.
    """

    def register(fn: Callable) -> Callable:
        spec = ExperimentSpec(
            id=experiment_id,
            title=title,
            run=fn,
            datasets=tuple(datasets),
            cost_hint=float(cost_hint),
            quick=dict(quick or {}),
            wall_clock=wall_clock,
            order=order,
            module=fn.__module__,
            backends=tuple(backends),
        )
        existing = _declared.get(experiment_id)
        if existing is not None and existing.module != spec.module:
            raise ExperimentError(
                f"experiment id {experiment_id!r} declared twice: "
                f"{existing.module} and {spec.module}"
            )
        _declared[experiment_id] = spec
        setattr(fn, SPEC_ATTRIBUTE, spec)
        return fn

    return register


def declared_specs() -> Dict[str, ExperimentSpec]:
    """Specs registered so far (import order), without importing anything."""
    return dict(_declared)


def collect_specs(
    package: str = "repro.experiments",
) -> Dict[str, ExperimentSpec]:
    """Import every module of ``package`` and return the declared specs.

    Modules that declare no experiment (harness, io, sweep, ...) simply
    contribute nothing; partially initialised modules already in
    ``sys.modules`` are returned as-is by ``import_module``, so
    collection is safe to trigger from inside the package itself.
    Specs come back ordered by ``(order, id)`` — the order EXPERIMENTS.md
    renders in.
    """
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.ispkg:
            continue
        importlib.import_module(f"{package}.{info.name}")
    ordered = sorted(_declared.values(), key=lambda s: (s.order, s.id))
    return {spec.id: spec for spec in ordered}
