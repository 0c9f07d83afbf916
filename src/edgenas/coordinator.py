"""Run orchestration with latency hiding.

Each candidate is posted to the store *before* its training starts and the
measurement is read back only *after* training ends, so the edge round
trip overlaps the training wall time instead of adding to it. The agent
measures one architecture at a time in post order, so the claim holds per
round: a round of P candidates takes about max(train, P x measure), not
train + P x measure. The coordinator owns no state outside the store: a
candidate ends as the record run_ea keeps of it, scored or failed with
its EvaluationFailed, and concurrent dispatches serialize only through
store transactions. A candidate waiting for its measurement watches its
architecture on the store's wakeups, as the agent watches the posts
(edge_agent). An agent on the same handle signals it once per reported
architecture, which ends the wait at once; an agent in another process
ends it at the waiting threads' next check for foreign commits (one at a
time, at most once per interval). The poll interval caps each wait.
"""

from __future__ import annotations

import json
import logging
import random
import time
from dataclasses import asdict, dataclass, replace
from typing import Protocol

from .cost_model import SurrogateConfig, synthetic_val_loss
from .edge_agent import AgentConfig, run_command
from .optimizer import (
    EvaluationFailed,
    RunConfig,
    RunHistory,
    ScoreBreakdown,
    derive_seed,
    run_ea,
)
from .search_space import HyperparamSpec, default_config, encode, to_document_dict
from .store import ArchitectureRecord, BenchmarkResult, Role, RunMetadata, Store, utc_now

logger = logging.getLogger(__name__)

BASELINE_RUN_ID = "baseline"


class TrainerError(Exception):
    pass


class TrainerBackend(Protocol):
    def train_and_validate(
        self, spec: HyperparamSpec, epochs: int, seed: int
    ) -> tuple[float, float | None]: ...


class SimulatedTrainer:
    """Surrogate-loss trainer with a configurable artificial duration."""

    def __init__(self, surrogate: SurrogateConfig | None = None, duration_s: float = 0.0):
        self.surrogate = surrogate if surrogate is not None else SurrogateConfig()
        self.duration_s = duration_s

    def train_and_validate(self, spec: HyperparamSpec, epochs: int, seed: int) -> tuple[float, float]:
        if self.duration_s > 0:
            time.sleep(self.duration_s)
        val_loss = synthetic_val_loss(spec, epochs, self.surrogate, random.Random(derive_seed(seed, "val")))
        test_loss = synthetic_val_loss(spec, epochs, self.surrogate, random.Random(derive_seed(seed, "test")))
        return val_loss, test_loss


class ExternalTrainer:
    """Trainer behind a command: spec document in, losses document out."""

    def __init__(self, command: list[str], timeout_s: float = 3600.0):
        if not command:
            raise ValueError("command must be non-empty")
        self.command = list(command)
        self.timeout_s = timeout_s

    def train_and_validate(self, spec: HyperparamSpec, epochs: int, seed: int) -> tuple[float, float | None]:
        payload = json.dumps({**to_document_dict(spec), "epochs": epochs, "seed": seed})
        output = run_command(self.command, payload, self.timeout_s, "trainer", TrainerError).strip()
        try:
            doc = json.loads(output)
            val_loss = float(doc["val_loss"])
            test_loss = float(doc["test_loss"]) if "test_loss" in doc else None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TrainerError(f"unparseable trainer output: {output!r}") from exc
        return val_loss, test_loss


@dataclass(frozen=True)
class DispatchSettings:
    """Store-facing knobs shared by every candidate of a run."""

    device_type: str = AgentConfig.device_type
    batch_sizes: tuple[int, ...] = AgentConfig.batch_sizes
    poll_interval_s: float = 0.25

    def __post_init__(self):
        if self.poll_interval_s < 0:
            raise ValueError("poll_interval_s must be >= 0")


def dispatch_candidate(
    spec: HyperparamSpec,
    run_config: RunConfig,
    store: Store,
    trainer: TrainerBackend,
    run_id: str,
    lineage_id: int,
    candidate_seed: int,
    settings: DispatchSettings,
) -> ScoreBreakdown:
    """Post architecture, train, then read back the overlapped measurement.

    The measurement wait starts at the moment of posting: the agent works
    while the trainer runs. It measures sequentially in post order, so the
    k-th candidate of a round also waits for the k-1 posted before it, and
    the round takes about max(train, P x measure) for population P, not
    their sum. After training, the candidate watches its architecture on
    store.wakeups until it returns, as the agent watches the posts, and
    clears the Event before each read. An agent on this handle signals
    once it has reported all of the architecture's rows; each commit
    through another handle or process (an agent elsewhere) wakes the wait
    too, which the waiting threads check for, one at a time and at most
    once per interval. A wait that nothing wakes reads again after
    settings.poll_interval_s, which only caps it. A failed trainer
    raises EvaluationFailed("trainer_failed"), a measurement set still
    incomplete after measurement_timeout_s raises
    EvaluationFailed("measurement_timeout").
    """
    started = time.perf_counter()
    architecture_id = store.insert_architecture(
        Role.OPTIMIZER,
        ArchitectureRecord(
            run_id=run_id,
            lineage_id=lineage_id,
            spec_document=encode(spec),
            device_targets=[settings.device_type],
        ),
    )
    try:
        val_loss, test_loss = trainer.train_and_validate(spec, run_config.epochs, candidate_seed)
    except Exception as exc:
        logger.warning("trainer failed for architecture %s: %s", architecture_id, exc)
        raise EvaluationFailed("trainer_failed") from exc

    needed = set(settings.batch_sizes)
    deadline = started + run_config.measurement_timeout_s
    with store.wakeups.watch(architecture_id) as measured:
        while True:
            measured.clear()  # before the read: a measurement committed after it sets the event again
            by_batch = {m.batch_size: m for m in store.get_measurements(architecture_id, settings.device_type)}
            if needed <= by_batch.keys():
                break
            if time.perf_counter() >= deadline:
                logger.warning(
                    "measurement timeout for architecture %s after %.1fs", architecture_id,
                    run_config.measurement_timeout_s,
                )
                raise EvaluationFailed("measurement_timeout")
            measured.wait(settings.poll_interval_s)

    inference_time_ms = by_batch[run_config.score_batch_size].latency_ms_mean
    breakdown = ScoreBreakdown.from_losses(val_loss, inference_time_ms, test_loss)
    splits = (("validation", val_loss, breakdown.score), ("test", test_loss, breakdown.test_score))
    for split, loss, score in splits:
        if loss is not None:
            store.insert_benchmark_result(
                Role.OPTIMIZER,
                BenchmarkResult(
                    architecture_id=architecture_id,
                    run_id=run_id,
                    epoch=run_config.epochs,
                    val_loss=loss,
                    inference_time_ms=inference_time_ms,
                    score=score,
                    split=split,
                ),
            )
    return breakdown


@dataclass
class RunSummary:
    """A finished run; counts and the best candidate are read from its history."""

    run_id: str
    total_wall_ms: float
    history: RunHistory

    @property
    def best_breakdown(self) -> ScoreBreakdown | None:
        best = self.history.best()
        return best.breakdown if best else None

    @property
    def ok_count(self) -> int:
        return len(self.history.ok_records())

    @property
    def failure_counts(self) -> dict[str, int]:
        return self.history.failure_counts()


def _record_run(
    store: Store, run_id: str, run_config: RunConfig, settings: DispatchSettings, **document
) -> RunMetadata:
    """Write the run's record: its settings, with document on top, as the config document.

    Raises ValueError before any write unless the scored batch size is one the agent measures.
    """
    if run_config.score_batch_size not in settings.batch_sizes:
        raise ValueError(
            f"score_batch_size {run_config.score_batch_size} not in measured batch sizes {settings.batch_sizes}"
        )
    config_document = json.dumps({**asdict(run_config), **asdict(settings), **document}, sort_keys=True)
    metadata = RunMetadata(run_id, config_document, seed=run_config.seed, started_at=utc_now())
    store.upsert_run_metadata(Role.OPTIMIZER, metadata)
    return metadata


def run_nas(
    run_config: RunConfig,
    store: Store,
    trainer: TrainerBackend,
    run_id: str | None = None,
    settings: DispatchSettings = DispatchSettings(),
) -> RunSummary:
    """One full NAS run: EA driving dispatch_candidate, metadata persisted."""
    run_id = run_id or default_run_id(run_config)
    if store.get_run_metadata(run_id) is not None:  # a second run would add a second result per candidate
        raise ValueError(f"run {run_id} is already in the store")
    started = time.perf_counter()
    metadata = _record_run(store, run_id, run_config, settings)

    history = run_ea(
        run_config,
        lambda spec, ctx: dispatch_candidate(
            spec, run_config, store, trainer,
            run_id=run_id, lineage_id=ctx.lineage_id, candidate_seed=ctx.seed, settings=settings,
        ),
    )
    summary = RunSummary(run_id, (time.perf_counter() - started) * 1000.0, history)
    best = summary.best_breakdown
    summary_document = json.dumps(
        {
            "best_score": best.score if best else None,
            "ok_count": summary.ok_count,
            "failures": summary.failure_counts,
            "total_wall_ms": summary.total_wall_ms,
        },
        sort_keys=True,
    )
    store.upsert_run_metadata(
        Role.OPTIMIZER, replace(metadata, finished_at=utc_now(), summary_document=summary_document)
    )
    return summary


def default_run_id(run_config: RunConfig) -> str:
    return f"run-s{run_config.seed}-n{run_config.total_evaluations}-p{run_config.population_size}"


def evaluate_baseline(
    store: Store, trainer: TrainerBackend, run_config: RunConfig, settings: DispatchSettings
) -> ScoreBreakdown:
    """Push the expert default through the identical pipeline (run id 'baseline').

    Raises EvaluationFailed as dispatch_candidate does.
    """
    # budget 0 is what report summary reads as the baseline row
    _record_run(store, BASELINE_RUN_ID, run_config, settings, population_size=0, total_evaluations=0, baseline=True)
    return dispatch_candidate(
        default_config(), run_config, store, trainer,
        run_id=BASELINE_RUN_ID, lineage_id=0,
        candidate_seed=derive_seed(run_config.seed, "baseline"), settings=settings,
    )
