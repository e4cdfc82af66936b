"""Hardware/training co-simulation: time-to-accuracy curves.

The paper reports speedups and accuracy separately; what a system designer
ultimately cares about is their product — how fast the model reaches a
target accuracy in *hardware time*.  :class:`CoSimulation` runs the numpy
GCN trainer epoch by epoch while charging each epoch's simulated
accelerator time, honouring the ISU schedule both ways:

* training-side: the epoch's update set controls feature staleness;
* hardware-side: the epoch's update set controls the write-round cost
  (minor-refresh epochs are slower than important-only epochs).

This makes GoPIM-vs-Vanilla comparisons fair even when ISU slightly
perturbs per-epoch accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.accelerators.base import AcceleratorModel
from repro.backends import EpochProgram, resolve_backend
from repro.errors import TrainingError
from repro.gcn.trainer import make_trainer
from repro.graphs.datasets import get_spec
from repro.graphs.graph import Graph
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Session


@dataclass
class CoSimResult:
    """Per-epoch accuracy and cumulative hardware time."""

    epoch_times_ns: List[float] = field(default_factory=list)
    test_metrics: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)

    @property
    def total_time_ns(self) -> float:
        """Total hardware time across all epochs."""
        return float(np.sum(self.epoch_times_ns))

    @property
    def cumulative_times_ns(self) -> np.ndarray:
        """Hardware time elapsed at the end of each epoch."""
        return np.cumsum(self.epoch_times_ns)

    def time_to_accuracy_ns(self, target: float) -> Optional[float]:
        """Hardware time until the test metric first reaches ``target``.

        Returns ``None`` when the target is never reached.
        """
        for cumulative, metric in zip(
            self.cumulative_times_ns, self.test_metrics,
        ):
            if metric >= target:
                return float(cumulative)
        return None

    @property
    def best_test_metric(self) -> float:
        """Best epoch metric."""
        if not self.test_metrics:
            raise TrainingError("no epochs recorded")
        return max(self.test_metrics)


class CoSimulation:
    """Couples an :class:`AcceleratorModel` with the GCN trainer."""

    def __init__(
        self,
        accelerator: AcceleratorModel,
        config: Optional[HardwareConfig] = None,
        session: Optional["Session"] = None,
    ) -> None:
        if config is None:
            config = DEFAULT_CONFIG if session is None else session.config
        self._accelerator = accelerator
        self._config = config

    def run(
        self,
        graph: Graph,
        dataset: str,
        epochs: int = 40,
        random_state: int = 0,
    ) -> CoSimResult:
        """Train for ``epochs`` while charging per-epoch hardware time.

        ``dataset`` supplies the Table IV model shape and task type; the
        trainer uses a smaller head internally (graph classes / embedding)
        but the hardware is priced at the Table IV dimensions.
        """
        if epochs < 1:
            raise TrainingError("epochs must be >= 1")
        spec = get_spec(dataset)
        from repro.stages.workload import workload_from_dataset

        workload = workload_from_dataset(dataset, graph=graph)
        timing = self._accelerator.build_timing_model(workload, self._config)
        problem = self._accelerator._build_problem(timing, self._config)
        allocation = self._accelerator.allocator(problem)
        replicas = allocation.replicas
        plan = timing.update_plan

        # Two epoch flavours: minor-refresh (full write rounds) and
        # important-only.  Precompute both makespans through the active
        # simulation backend — each phase is one EpochProgram with the
        # write phase pinned.
        engine = resolve_backend(None)
        makespans = {}
        for full_round in (True, False):
            epoch = engine.simulate_epoch(EpochProgram(
                timing=timing,
                replicas=np.asarray(replicas, dtype=np.int64),
                schedule=self._accelerator.schedule,
                microbatches_per_batch=(
                    self._accelerator.microbatches_per_batch
                ),
                full_round=full_round,
            ))
            makespans[full_round] = epoch.total_time_ns

        trainer = make_trainer(graph, spec.task, random_state=random_state)
        result = CoSimResult()
        update_plan = (
            plan if self._accelerator.update_strategy != "full" else None
        )
        for epoch in range(epochs):
            full_round = (
                update_plan is None
                or update_plan.is_update_epoch_for_minor(epoch)
            )
            one_epoch = trainer.train(
                epochs=1, update_plan=update_plan, start_epoch=epoch,
            )
            result.epoch_times_ns.append(makespans[full_round])
            result.test_metrics.append(one_epoch.test_metrics[-1])
            result.losses.append(one_epoch.losses[-1])
        return result
