"""(1+1) evolutionary search over lineages, scoring, and analysis ops.

The scalar objective weights validation loss against measured inference
time (loss * 1000 + latency ms). Each of the population's lineages runs an
independent parent/offspring chain with strict elitism; candidates of one
round may be evaluated concurrently, and the history is assembled by
(round, lineage) so results are order-independent and deterministic for a
given seed and a deterministic evaluator.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .search_space import FIELDS, HyperparamSpec, mutate, sample, to_document_dict

LOSS_WEIGHT = 1000.0

HISTORY_CSV_COLUMNS = ",".join(
    ["run_id", "lineage", "round", *(c for f in FIELDS for c in f.columns or (f.name,)),
     "val_loss", "inference_ms", "score", "accepted"]
)


class EvaluationFailed(Exception):
    """Raised by evaluators to mark a candidate as failed (budget still spent)."""


def score(val_loss: float, inference_time_ms: float) -> float:
    """Scalarized objective: val_loss * 1000 + inference time in ms."""
    if val_loss < 0 or inference_time_ms < 0:
        raise ValueError("score inputs must be non-negative")
    return val_loss * LOSS_WEIGHT + inference_time_ms


def select(parent_score: float, offspring_score: float) -> bool:
    """Strict elitism: the offspring replaces the parent only if strictly better."""
    return offspring_score < parent_score


@dataclass(frozen=True)
class ScoreBreakdown:
    val_loss: float
    inference_time_ms: float
    score: float
    test_loss: float | None = None
    test_score: float | None = None

    @classmethod
    def from_losses(
        cls, val_loss: float, inference_time_ms: float, test_loss: float | None = None
    ) -> "ScoreBreakdown":
        return cls(
            val_loss=val_loss,
            inference_time_ms=inference_time_ms,
            score=score(val_loss, inference_time_ms),
            test_loss=test_loss,
            test_score=None if test_loss is None else score(test_loss, inference_time_ms),
        )


@dataclass(frozen=True)
class EvalContext:
    """Identity of one evaluation; carries the derived per-candidate seed."""

    lineage_id: int
    round_index: int
    eval_index: int
    seed: int


Evaluator = Callable[[HyperparamSpec, EvalContext], ScoreBreakdown]


@dataclass
class EvalRecord:
    lineage_id: int
    round_index: int
    eval_index: int
    spec: HyperparamSpec
    breakdown: ScoreBreakdown | None
    accepted: bool = False  # set by run_ea's selection
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.breakdown is None

    @property
    def score(self) -> float:
        return self.breakdown.score if self.breakdown is not None else math.inf


@dataclass(frozen=True)
class RunConfig:
    population_size: int = 8
    total_evaluations: int = 16
    seed: int = 0
    epochs: int = 2
    score_batch_size: int = 1
    measurement_timeout_s: float = 600.0

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.total_evaluations < self.population_size:
            raise ValueError("total_evaluations must be >= population_size")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.measurement_timeout_s <= 0:
            raise ValueError("measurement_timeout_s must be > 0")


@dataclass
class RunHistory:
    records: list[EvalRecord] = field(default_factory=list)

    def ok_records(self) -> list[EvalRecord]:
        return [r for r in self.records if not r.failed]

    def failure_counts(self) -> dict[str, int]:
        """How often each error ended a failed record, keyed in evaluation order."""
        return dict(Counter(r.error for r in self.records if r.failed))

    def best(self) -> EvalRecord | None:
        candidates = self.ok_records()
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.score, r.eval_index))


def derive_seed(*parts: Any) -> int:
    """Stable 64-bit seed from arbitrary labels (never the salted hash())."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_ea(config: RunConfig, evaluator: Evaluator) -> RunHistory:
    """Run the (1+1) EA until the evaluation budget is exhausted.

    Round 0 samples each lineage's initial parent; it counts toward the
    budget, and its record is accepted even when the evaluation fails.
    Every later round mutates each lineage's parent, and a final partial
    round covers the first lineages. A round's candidates are drawn
    sequentially from the run RNG before they are evaluated, one thread
    per lineage on one executor that serves the whole run, so identical
    seeds give identical runs. A failing evaluator consumes budget: the
    candidate is recorded with infinite score and the parent stays.
    """
    rng = random.Random(config.seed)
    history = RunHistory()

    def run_one(item: tuple[HyperparamSpec, EvalContext]) -> EvalRecord:
        spec, ctx = item
        identity = (ctx.lineage_id, ctx.round_index, ctx.eval_index, spec)
        try:
            return EvalRecord(*identity, evaluator(spec, ctx))
        except Exception as exc:
            return EvalRecord(*identity, None, error=str(exc))

    population = config.population_size
    parents: list[EvalRecord | None] = [None] * population
    with ThreadPoolExecutor(population) as pool:
        while len(history.records) < config.total_evaluations:
            evals_done = len(history.records)
            round_index = evals_done // population  # every round but the last is full
            batch = []
            for lineage_id in range(min(population, config.total_evaluations - evals_done)):
                parent = parents[lineage_id]
                spec = sample(rng) if parent is None else mutate(parent.spec, rng)
                ctx = EvalContext(
                    lineage_id, round_index, evals_done + lineage_id,
                    derive_seed(config.seed, lineage_id, round_index),
                )
                batch.append((spec, ctx))
            for record in pool.map(run_one, batch):
                parent = parents[record.lineage_id]
                if parent is None or (not record.failed and select(parent.score, record.score)):
                    record.accepted = True
                    parents[record.lineage_id] = record
                history.records.append(record)
    return history


def pareto_front(points: Iterable[tuple[float, float, Any]]) -> list[Any]:
    """Ids of points undominated in (val_loss, inference_time_ms), by time asc.

    A point is dominated when another is <= in both coordinates and < in
    at least one; exact duplicates are all kept.
    """
    items = list(points)
    for val_loss, time_ms, _ in items:
        if not (math.isfinite(val_loss) and math.isfinite(time_ms)):
            raise ValueError("pareto_front requires finite coordinates")
    items.sort(key=lambda p: (p[1], p[0]))
    front: list[Any] = []
    last = (math.inf, math.inf)  # (loss, time) of the last point kept
    for val_loss, time_ms, pid in items:
        # sorted by time, a point is undominated when no earlier point has a loss as low,
        # unless that earlier point is its exact duplicate
        if val_loss < last[0] or (val_loss, time_ms) == last:
            front.append(pid)
            last = (val_loss, time_ms)
    return front


@dataclass(frozen=True)
class MedianReport(HyperparamSpec):
    """Per-field medians of the selected candidates, and how many were selected."""

    sample_count: int


def top_decile_medians(entries: list[tuple[HyperparamSpec, float]]) -> MedianReport:
    """Per-field medians of the ceil(n/10) lowest-score of the (spec, score) entries.

    Vector fields report element-wise medians; categorical fields use the
    lower median on even counts.
    """
    if len(entries) < 10:
        raise ValueError(f"need at least 10 evaluated candidates, got {len(entries)}")
    k = math.ceil(len(entries) / 10)
    top = sorted(entries, key=lambda e: e[1])[:k]
    medians = {f.name: f.median([getattr(spec, f.name) for spec, _ in top]) for f in FIELDS}
    return MedianReport(**medians, sample_count=k)


def _spec_cells(spec: HyperparamSpec) -> list:
    """One cell per history-CSV column; csv writes the float cells with repr()."""
    cells = []
    for value in to_document_dict(spec).values():
        cells.extend(value if isinstance(value, list) else [value])
    return cells


def write_history_csv(history: RunHistory, run_id: str, path) -> None:
    """One row per evaluation, stable column contract, byte-deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_CSV_COLUMNS.split(","))
        for r in sorted(history.records, key=lambda r: r.eval_index):
            ok = r.breakdown is not None
            writer.writerow(
                [
                    run_id,
                    r.lineage_id,
                    r.round_index,
                    *_spec_cells(r.spec),
                    repr(r.breakdown.val_loss) if ok else "",
                    repr(r.breakdown.inference_time_ms) if ok else "",
                    repr(r.breakdown.score) if ok else "inf",
                    "true" if r.accepted else "false",
                ]
            )
