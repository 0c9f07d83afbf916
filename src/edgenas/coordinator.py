"""Run orchestration with latency hiding.

Each candidate is posted to the store *before* its training starts and the
measurement is read back only *after* training ends, so the edge round
trip overlaps the training wall time instead of adding to it. The
coordinator owns no state outside the store: a candidate ends as the
record run_ea keeps of it, scored or failed with its EvaluationFailed, and
concurrent dispatches serialize only through store transactions.
"""

from __future__ import annotations

import json
import logging
import random
import time
from dataclasses import dataclass, replace
from enum import Enum
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


class CandidateStatus(Enum):
    TRAINER_FAILED = "trainer_failed"
    MEASUREMENT_TIMEOUT = "measurement_timeout"


@dataclass(frozen=True)
class DispatchSettings:
    """Store-facing knobs shared by every candidate of a run."""

    device_type: str = AgentConfig.device_type
    batch_sizes: tuple[int, ...] = AgentConfig.batch_sizes
    poll_interval_s: float = 0.25


def _check_score_batch_size(run_config: RunConfig, settings: DispatchSettings) -> None:
    """Raise ValueError unless the scored batch size is one the agent measures."""
    if run_config.score_batch_size not in settings.batch_sizes:
        raise ValueError(
            f"score_batch_size {run_config.score_batch_size} not in measured batch sizes {settings.batch_sizes}"
        )


def dispatch_candidate(
    spec: HyperparamSpec,
    run_config: RunConfig,
    store: Store,
    trainer: TrainerBackend,
    run_id: str,
    lineage_id: int,
    candidate_seed: int,
    settings: DispatchSettings = DispatchSettings(),
) -> ScoreBreakdown:
    """Post architecture, train, then read back the overlapped measurement.

    The measurement wait starts at the moment of posting: the agent works
    while the trainer runs, so total wall time tracks max(train, measure),
    not their sum. A failed trainer raises EvaluationFailed("trainer_failed"),
    a measurement set still incomplete after measurement_timeout_s raises
    EvaluationFailed("measurement_timeout"); the CandidateStatus values.
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
        raise EvaluationFailed(CandidateStatus.TRAINER_FAILED.value) from exc

    needed = set(settings.batch_sizes)
    deadline = started + run_config.measurement_timeout_s
    while True:
        measurements = store.get_measurements(architecture_id, settings.device_type)
        have = {m.batch_size for m in measurements}
        if needed <= have:
            break
        if time.perf_counter() >= deadline:
            logger.warning(
                "measurement timeout for architecture %s after %.1fs", architecture_id,
                run_config.measurement_timeout_s,
            )
            raise EvaluationFailed(CandidateStatus.MEASUREMENT_TIMEOUT.value)
        time.sleep(settings.poll_interval_s)

    by_batch = {m.batch_size: m for m in measurements}
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
    def best_spec(self) -> HyperparamSpec | None:
        best = self.history.best()
        return best.spec if best else None

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


def run_nas(
    run_config: RunConfig,
    store: Store,
    trainer: TrainerBackend,
    run_id: str | None = None,
    settings: DispatchSettings = DispatchSettings(),
) -> RunSummary:
    """One full NAS run: EA driving dispatch_candidate, metadata persisted."""
    _check_score_batch_size(run_config, settings)
    run_id = run_id or default_run_id(run_config)
    started = time.perf_counter()
    config_document = json.dumps(
        {
            "population_size": run_config.population_size,
            "total_evaluations": run_config.total_evaluations,
            "seed": run_config.seed,
            "epochs": run_config.epochs,
            "score_batch_size": run_config.score_batch_size,
            "device_type": settings.device_type,
            "batch_sizes": list(settings.batch_sizes),
        },
        sort_keys=True,
    )
    metadata = RunMetadata(run_id, config_document, seed=run_config.seed, started_at=utc_now())
    store.upsert_run_metadata(Role.OPTIMIZER, metadata)

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
    store: Store,
    trainer: TrainerBackend,
    run_config: RunConfig | None = None,
    settings: DispatchSettings = DispatchSettings(),
) -> ScoreBreakdown:
    """Push the expert default through the identical pipeline (run id 'baseline').

    Raises EvaluationFailed as dispatch_candidate does.
    """
    run_config = run_config or RunConfig(population_size=1, total_evaluations=1)
    _check_score_batch_size(run_config, settings)
    config_document = json.dumps(
        {"population_size": 0, "total_evaluations": 0, "seed": run_config.seed, "baseline": True},
        sort_keys=True,
    )
    store.upsert_run_metadata(
        Role.OPTIMIZER,
        RunMetadata(run_id=BASELINE_RUN_ID, config_document=config_document, seed=run_config.seed),
    )
    return dispatch_candidate(
        default_config(), run_config, store, trainer,
        run_id=BASELINE_RUN_ID, lineage_id=0,
        candidate_seed=derive_seed(run_config.seed, "baseline"), settings=settings,
    )


def improvement_factor(baseline_time_ms: float, best_time_ms: float) -> float:
    """How many times faster the best model runs compared to the baseline."""
    if best_time_ms <= 0:
        raise ValueError("best_time_ms must be > 0")
    return baseline_time_ms / best_time_ms
