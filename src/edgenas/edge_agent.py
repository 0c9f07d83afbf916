"""Edge-side measurement daemon.

Polls the store for unmeasured architectures matching its device type,
runs the warmup + timed-runs protocol at every configured batch size
through a pluggable backend, and reports one measurement row per batch
size. The loop is sequential by design: latency measurement needs an
otherwise-idle device.
"""

from __future__ import annotations

import json
import logging
import random
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Protocol

from . import cost_model
from .optimizer import derive_seed
from .search_space import DocumentError, HyperparamSpec, decode, to_document_dict
from .store import EdgeMeasurement, Role, Store, StoreError

logger = logging.getLogger(__name__)

BACKOFF_INITIAL_S = 0.5
BACKOFF_CAP_S = 30.0
MEASUREMENT_COMMAND_TIMEOUT_S = 300.0


class BackendError(Exception):
    """A single inference-timing call failed."""


@dataclass(frozen=True)
class AgentConfig:
    device_type: str = "sim-edge"
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8)
    num_warmup: int = 3
    num_timed_runs: int = 10
    poll_interval_ms: int = 500
    seed: int = 0

    def __post_init__(self):
        if not self.batch_sizes:
            raise ValueError("batch_sizes must be non-empty")
        if any(b >= c for b, c in zip(self.batch_sizes, self.batch_sizes[1:])) or self.batch_sizes[0] < 1:
            raise ValueError("batch_sizes must be strictly increasing and >= 1")
        if self.num_timed_runs < 1:
            raise ValueError("num_timed_runs must be >= 1")
        if self.num_warmup < 0:
            raise ValueError("num_warmup must be >= 0")


@dataclass(frozen=True)
class InferenceSample:
    """One timed (or warmup) inference call: latency plus usage metrics."""

    latency_ms: float
    memory_mb: float = 0.0
    cpu_util: float = 0.0
    gpu_util: float = 0.0


class MeasurementBackend(Protocol):
    def time_inference(self, spec: HyperparamSpec, batch_size: int) -> InferenceSample: ...


def run_command(command: list[str], payload: str, timeout_s: float, label: str, error: type[Exception]) -> str:
    """Stdout of command run with payload on stdin; a timeout, start failure or nonzero exit raises error."""
    try:
        proc = subprocess.run(command, input=payload, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired as exc:
        raise error(f"{label} timed out after {timeout_s}s") from exc
    except OSError as exc:
        raise error(f"{label} failed to start: {exc}") from exc
    if proc.returncode != 0:
        raise error(f"{label} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


class SimulatedBackend:
    """Backend driven by the analytic device model.

    One noise stream, that of the last (spec, batch size), is kept: it is
    seeded from that pair and restarts whenever the pair changes, so
    reported values do not depend on the order the agent drains its queue
    and memory does not grow with the specs seen. call_duration_s stalls
    each call to emulate real measurement time.
    """

    def __init__(self, profile: cost_model.DeviceProfile, seed: int = 0, call_duration_s: float = 0.0):
        self.profile = profile
        self.seed = seed
        self.call_duration_s = call_duration_s
        self._stream: tuple[HyperparamSpec, int, random.Random] | None = None

    def time_inference(self, spec: HyperparamSpec, batch_size: int) -> InferenceSample:
        if self.call_duration_s > 0:
            time.sleep(self.call_duration_s)
        if self._stream is None or self._stream[:2] != (spec, batch_size):
            key = json.dumps(to_document_dict(spec), sort_keys=True)
            self._stream = (spec, batch_size, random.Random(derive_seed(self.seed, key, batch_size)))
        latency = cost_model.synthetic_latency(spec, batch_size, self.profile, self._stream[2])
        # synthetic placeholders for the auxiliary metrics
        memory_mb = cost_model.param_count(spec) * 4 / 1e6
        return InferenceSample(latency_ms=latency, memory_mb=memory_mb, cpu_util=12.5, gpu_util=62.5)


class ExternalBackend:
    """Runs an external command once per (spec, batch size).

    The spec document plus batch_size goes to stdin as one JSON object;
    stdout must carry either a single decimal latency in ms or a JSON
    object with latency_ms and optional memory_mb/cpu_util/gpu_util.
    """

    def __init__(self, command: list[str], timeout_s: float = MEASUREMENT_COMMAND_TIMEOUT_S):
        if not command:
            raise ValueError("command must be non-empty")
        self.command = list(command)
        self.timeout_s = timeout_s

    def time_inference(self, spec: HyperparamSpec, batch_size: int) -> InferenceSample:
        payload = json.dumps({**to_document_dict(spec), "batch_size": batch_size})
        return self._parse_output(
            run_command(self.command, payload, self.timeout_s, "measurement command", BackendError)
        )

    @staticmethod
    def _parse_output(output: str) -> InferenceSample:
        text = output.strip()
        if not text:
            raise BackendError("measurement command produced no output")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            if "latency_ms" not in doc:
                raise BackendError("measurement output missing latency_ms")
            try:
                return InferenceSample(
                    latency_ms=float(doc["latency_ms"]),
                    memory_mb=float(doc.get("memory_mb", 0.0)),
                    cpu_util=float(doc.get("cpu_util", 0.0)),
                    gpu_util=float(doc.get("gpu_util", 0.0)),
                )
            except (TypeError, ValueError) as exc:
                raise BackendError(f"measurement output not numeric: {exc}") from exc
        try:
            return InferenceSample(latency_ms=float(text.splitlines()[0]))
        except ValueError as exc:
            raise BackendError(f"unparseable measurement output: {text.splitlines()[0]!r}") from exc


def measure(
    spec: HyperparamSpec,
    config: AgentConfig,
    backend: MeasurementBackend,
    architecture_id: int = 0,
) -> list[EdgeMeasurement]:
    """Warmup + timed runs per batch size; one row per successful batch size.

    A backend failure marks only that batch size as failed; the others
    proceed. Warmup calls never contribute to the reported statistics.
    """
    rows: list[EdgeMeasurement] = []
    for batch_size in config.batch_sizes:
        try:
            for _ in range(config.num_warmup):
                backend.time_inference(spec, batch_size)
            samples = [backend.time_inference(spec, batch_size) for _ in range(config.num_timed_runs)]
        except Exception as exc:
            logger.warning(
                "measurement failed for architecture %s batch_size %d: %s",
                architecture_id, batch_size, exc,
            )
            continue
        latencies = [s.latency_ms for s in samples]
        # statistics.mean is exact (rational arithmetic), so a constant
        # backend reports the identical mean for any num_timed_runs
        mean = statistics.mean(latencies)
        std = statistics.stdev(latencies) if len(latencies) > 1 else 0.0
        rows.append(
            EdgeMeasurement(
                architecture_id=architecture_id,
                device_type=config.device_type,
                batch_size=batch_size,
                latency_ms_mean=mean,
                latency_ms_std=std,
                num_runs=config.num_timed_runs,
                num_warmup=config.num_warmup,
                memory_mb=statistics.mean(s.memory_mb for s in samples),
                cpu_util=statistics.mean(s.cpu_util for s in samples),
                gpu_util=statistics.mean(s.gpu_util for s in samples),
            )
        )
    return rows


def run_agent_loop(
    config: AgentConfig,
    store: Store,
    stop_signal: threading.Event,
    backend: MeasurementBackend,
    once: bool = False,
) -> int:
    """Poll-measure-report until stop_signal (or backlog drained with once).

    Undecodable spec documents are skipped and logged, never crash the
    loop. Store connectivity errors back off exponentially (capped at
    30 s). The in-flight architecture is completed before a stop takes
    effect. Returns the number of architectures measured.
    """
    skipped: set[int] = set()
    attempted: set[int] = set()
    processed = 0
    backoff = BACKOFF_INITIAL_S
    while not stop_signal.is_set():
        try:
            records = store.poll_unmeasured(Role.EDGE_AGENT, config.device_type, config.batch_sizes)
            backoff = BACKOFF_INITIAL_S
        except Exception as exc:  # the loop must survive store outages
            logger.warning("poll failed (%s); backing off %.1fs", exc, backoff)
            if stop_signal.wait(backoff):
                break
            backoff = min(backoff * 2, BACKOFF_CAP_S)
            continue
        pending = [r for r in records if r.id not in skipped and r.id not in attempted]
        if not pending:
            if once:
                return processed
            stop_signal.wait(config.poll_interval_ms / 1000.0)
            # partially-failed architectures (still unmeasured) become
            # eligible again on the next pass
            attempted.clear()
            continue
        for record in pending:
            try:
                spec = decode(record.spec_document)
            except DocumentError as exc:
                logger.error("skipping architecture %s: undecodable document (%s)", record.id, exc)
                skipped.add(record.id)
                continue
            rows = measure(spec, config, backend, architecture_id=record.id)
            for row in rows:
                try:
                    store.insert_measurement(Role.EDGE_AGENT, row)
                except StoreError as exc:
                    logger.error("failed to report measurement for architecture %s: %s", record.id, exc)
            attempted.add(record.id)
            processed += 1
            if stop_signal.is_set():
                return processed
    return processed
