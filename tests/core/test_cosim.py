"""Hardware/training co-simulation."""

import numpy as np
import pytest

from repro.accelerators import gopim, gopim_vanilla, serial
from repro.backends import EpochProgram, get_backend
from repro.core import CoSimResult, CoSimulation
from repro.errors import TrainingError
from repro.oracles.core import epoch_times_reference
from repro.runtime import default_session


@pytest.fixture(scope="module")
def arxiv_graph():
    return default_session().graph("arxiv", seed=0, scale=0.5)


@pytest.fixture(scope="module")
def config():
    return default_session().config


def test_cosim_result_accounting():
    result = CoSimResult(
        epoch_times_ns=[10.0, 10.0, 20.0],
        test_metrics=[0.3, 0.6, 0.9],
        losses=[1.0, 0.5, 0.2],
    )
    assert result.total_time_ns == 40.0
    np.testing.assert_allclose(result.cumulative_times_ns, [10, 20, 40])
    assert result.time_to_accuracy_ns(0.5) == 20.0
    assert result.time_to_accuracy_ns(0.95) is None
    assert result.best_test_metric == 0.9


def test_cosim_runs_and_learns(arxiv_graph, config):
    cosim = CoSimulation(gopim(), config)
    result = cosim.run(arxiv_graph, "arxiv", epochs=12)
    assert len(result.epoch_times_ns) == 12
    assert result.best_test_metric > 0.5
    assert result.total_time_ns > 0


def test_minor_refresh_epochs_cost_more(arxiv_graph, config):
    cosim = CoSimulation(gopim(), config)
    result = cosim.run(arxiv_graph, "arxiv", epochs=3)
    # Epoch 0 is a full refresh round; epochs 1-2 write only the
    # important set, so they must be cheaper.
    assert result.epoch_times_ns[0] > result.epoch_times_ns[1]
    assert result.epoch_times_ns[1] == pytest.approx(
        result.epoch_times_ns[2],
    )


def test_gopim_beats_vanilla_time_to_accuracy(arxiv_graph, config):
    epochs = 12
    gopim_run = CoSimulation(gopim(), config).run(
        arxiv_graph, "arxiv", epochs=epochs,
    )
    vanilla_run = CoSimulation(gopim_vanilla(), config).run(
        arxiv_graph, "arxiv", epochs=epochs,
    )
    target = 0.5
    t_gopim = gopim_run.time_to_accuracy_ns(target)
    t_vanilla = vanilla_run.time_to_accuracy_ns(target)
    assert t_gopim is not None and t_vanilla is not None
    assert t_gopim < t_vanilla


def test_serial_epochs_uniform_cost(arxiv_graph, config):
    result = CoSimulation(serial(), config).run(
        arxiv_graph, "arxiv", epochs=3,
    )
    # Full updating every epoch: identical per-epoch hardware time.
    assert result.epoch_times_ns[0] == pytest.approx(result.epoch_times_ns[1])


def test_epochs_validation(arxiv_graph, config):
    with pytest.raises(TrainingError):
        CoSimulation(gopim(), config).run(arxiv_graph, "arxiv", epochs=0)


@pytest.mark.parametrize("make_accelerator", [gopim, serial])
def test_epoch_tables_match_scalar_reference(
    arxiv_graph, config, make_accelerator,
):
    # The whole-epoch timing tables the co-simulation charges (the
    # analytic backend with the write phase pinned) must reproduce the
    # per-micro-batch scalar oracle exactly, for both epoch phases
    # (minor refresh and important-only rounds).
    from repro.stages.workload import workload_from_dataset

    accelerator = make_accelerator()
    cosim = CoSimulation(accelerator, config)
    workload = workload_from_dataset("arxiv", graph=arxiv_graph)
    timing = accelerator.build_timing_model(workload, cosim._config)
    problem = accelerator._build_problem(timing, cosim._config)
    replicas = accelerator.allocator(problem).replicas
    for full_round in (True, False):
        vectorized = get_backend("analytic").stage_time_matrix(
            EpochProgram(
                timing=timing, replicas=replicas, full_round=full_round,
            )
        )
        reference = epoch_times_reference(timing, replicas, full_round)
        assert np.array_equal(vectorized, reference)
