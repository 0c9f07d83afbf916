from __future__ import annotations

import contextlib
import json
import sys
import threading
from dataclasses import replace

import pytest

from edgenas.coordinator import (
    DispatchSettings,
    ExternalTrainer,
    SimulatedTrainer,
    TrainerError,
    evaluate_baseline,
    run_nas,
)
from edgenas.cost_model import DeviceProfile
from edgenas.edge_agent import AgentConfig, SimulatedBackend, run_agent_loop
from edgenas.optimizer import RunConfig, derive_seed
from edgenas.search_space import default_config
from edgenas.store import Store, StoreError


def _trainer(script: str, timeout_s: float = 30.0) -> ExternalTrainer:
    return ExternalTrainer([sys.executable, "-c", script], timeout_s=timeout_s)


def test_external_trainer_reads_losses_and_receives_the_spec():
    script = (
        "import json, sys\n"
        "doc = json.load(sys.stdin)\n"
        "print(json.dumps({'val_loss': doc['embed_dim'] / 1000, 'test_loss': doc['epochs'] + doc['seed']}))\n"
    )
    assert _trainer(script).train_and_validate(default_config(), 2, 5) == (0.096, 7.0)
    assert _trainer("print('{\"val_loss\": 0.5}')").train_and_validate(default_config(), 1, 0) == (0.5, None)


@pytest.mark.parametrize(
    "script,timeout_s,message",
    [
        ("import sys; sys.exit(3)", 30.0, "^trainer exited 3: $"),
        ("print('abc')", 30.0, "^unparseable trainer output: 'abc'$"),
        ("print('{\"test_loss\": 1}')", 30.0, "^unparseable trainer output"),
        ("import time; time.sleep(5)", 0.5, r"^trainer timed out after 0\.5s$"),
    ],
)
def test_external_trainer_failures(script, timeout_s, message):
    with pytest.raises(TrainerError, match=message):
        _trainer(script, timeout_s).train_and_validate(default_config(), 1, 0)


def test_external_trainer_needs_a_command():
    with pytest.raises(ValueError, match="command must be non-empty"):
        ExternalTrainer([])


# -- run_nas on a temporary store, with an embedded agent and 1 ms polls --------

FAST = DispatchSettings(poll_interval_s=0.001)


@contextlib.contextmanager
def _agent(store: Store, call_duration_s: float = 0.0, device_type: str = AgentConfig.device_type):
    """run_agent_loop on a thread, as `edgenas run` embeds it."""
    stop = threading.Event()
    backend = SimulatedBackend(DeviceProfile(), call_duration_s=call_duration_s)
    config = AgentConfig(device_type=device_type, poll_interval_ms=1)
    thread = threading.Thread(target=run_agent_loop, args=(config, store, stop, backend), daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(10.0)
    assert not thread.is_alive()


class _FailingTrainer(SimulatedTrainer):
    """Fails for the candidates whose seed is in fail_seeds."""

    def __init__(self, fail_seeds: set[int]):
        super().__init__()
        self.fail_seeds = fail_seeds

    def train_and_validate(self, spec, epochs, seed):
        if seed in self.fail_seeds:
            raise TrainerError(f"no trainer for seed {seed}")
        return super().train_and_validate(spec, epochs, seed)


class _FlakyStore:
    """A store whose first insert_benchmark_result raises StoreError."""

    def __init__(self, store: Store):
        self._store = store
        self._lock = threading.Lock()
        self._failed = False

    def __getattr__(self, name):
        return getattr(self._store, name)

    def insert_benchmark_result(self, role, result):
        with self._lock:
            fail = not self._failed
            self._failed = True
        if fail:
            raise StoreError("disk full")
        return self._store.insert_benchmark_result(role, result)


def _assert_accounted(summary, run_config: RunConfig, store: Store) -> None:
    """Every evaluation is scored or counted failed, and the store says the same."""
    assert summary.ok_count + sum(summary.failure_counts.values()) == run_config.total_evaluations
    document = json.loads(store.get_run_metadata(summary.run_id).summary_document)
    assert document["failures"] == summary.failure_counts
    assert document["ok_count"] == summary.ok_count


def test_trainer_failures_are_counted(store):
    run_config = RunConfig(population_size=4, total_evaluations=12, seed=3, measurement_timeout_s=30.0)
    failing = {(1, 0), (2, 1), (1, 2)}  # (lineage, round)
    trainer = _FailingTrainer({derive_seed(3, lineage, round_index) for lineage, round_index in failing})
    with _agent(store):
        summary = run_nas(run_config, store, trainer, settings=FAST)
    assert summary.failure_counts == {"trainer_failed": 3}
    assert summary.ok_count == 9
    assert [(r.lineage_id, r.round_index) for r in summary.history.records if r.failed] == sorted(
        failing, key=lambda lr: (lr[1], lr[0])
    )
    _assert_accounted(summary, run_config, store)


def test_measurement_timeouts_are_counted(store):
    run_config = RunConfig(population_size=2, total_evaluations=4, measurement_timeout_s=0.05)
    summary = run_nas(run_config, store, SimulatedTrainer(), settings=FAST)  # no agent serves the store
    assert summary.failure_counts == {"measurement_timeout": 4}
    assert summary.ok_count == 0 and summary.best_breakdown is None
    _assert_accounted(summary, run_config, store)


def test_failure_counts_follow_evaluation_order(store):
    # lineage 1 fails at once, lineage 0 only after its timeout: evaluation
    # order and completion order disagree
    run_config = RunConfig(population_size=2, total_evaluations=4, measurement_timeout_s=0.05)
    trainer = _FailingTrainer({derive_seed(0, 1, 0)})
    summary = run_nas(run_config, store, trainer, settings=FAST)
    assert list(summary.failure_counts.items()) == [("measurement_timeout", 3), ("trainer_failed", 1)]
    _assert_accounted(summary, run_config, store)


def test_store_error_while_scoring_is_counted(store):
    run_config = RunConfig(population_size=4, total_evaluations=8, measurement_timeout_s=30.0)
    with _agent(store):
        summary = run_nas(run_config, _FlakyStore(store), SimulatedTrainer(), settings=FAST)
    assert summary.failure_counts == {"disk full": 1}
    assert summary.ok_count == 7
    _assert_accounted(summary, run_config, store)


def test_measurement_overlaps_training(store):
    """Latency hiding: one candidate takes about max(train, measure), not their sum."""
    train_s, call_s = 0.4, 0.008
    agent = AgentConfig()
    measure_s = len(agent.batch_sizes) * (agent.num_warmup + agent.num_timed_runs) * call_s  # 52 calls
    run_config = RunConfig(population_size=1, total_evaluations=1, measurement_timeout_s=30.0)
    with _agent(store, call_duration_s=call_s):
        summary = run_nas(run_config, store, SimulatedTrainer(duration_s=train_s), settings=FAST)
    assert summary.ok_count == 1
    wall_s = summary.total_wall_ms / 1000.0
    assert max(train_s, measure_s) <= wall_s < 0.75 * (train_s + measure_s)
    _assert_accounted(summary, run_config, store)


def test_baseline_for_a_second_device_is_measured_on_it(store):
    """The baseline run id is fixed, so the second device's post repeats the first's key."""
    run_config = RunConfig(population_size=1, total_evaluations=1, measurement_timeout_s=5.0)
    for device in ("dev-a", "dev-b"):
        with _agent(store, device_type=device):
            breakdown = evaluate_baseline(store, SimulatedTrainer(), run_config, replace(FAST, device_type=device))
        assert breakdown.inference_time_ms > 0
