"""Edge-side measurement daemon.

Polls the store for unmeasured architectures matching its device type,
runs the warmup + timed-runs protocol at every configured batch size
through a pluggable backend, and reports one measurement row per batch
size, then wakes that architecture's watchers on its store's wakeups
once, a partial set included. The loop is sequential by design: latency
measurement needs an otherwise-idle device. `edgenas agent` runs the loop
as its own process; embedded_agent hosts it on a thread inside another
command. Between passes the loop watches the posts on its store's
wakeups, the way a waiting candidate watches its architecture
(coordinator). A post through
the same handle, or any commit through another handle or process (a
coordinator elsewhere), wakes it. The loop paces itself: it then holds
the next pass until the posts pause for POST_QUIET_S and PASS_INTERVAL_S
has passed since the previous pass began, so one pass and one poll take
a whole round of posts, and a search runs its rounds at that fixed
period instead of at whatever pace the host's load allows.
poll_interval_ms caps each wait, the hold included. embedded_agent wakes
the loop when its block ends; a caller that only sets its own stop event
waits until the wait's next check for foreign commits (store), or the
poll interval if that ends first.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import random
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, fields
from typing import Protocol

from . import cost_model
from .optimizer import derive_seed
from .search_space import DocumentError, HyperparamSpec, decode, to_document_dict, validate
from .store import POSTS, EdgeMeasurement, Role, Store, StoreError

logger = logging.getLogger(__name__)

BACKOFF_INITIAL_S = 0.5
BACKOFF_CAP_S = 30.0
MEASUREMENT_COMMAND_TIMEOUT_S = 300.0
# After a wake, the next pass starts no sooner than PASS_INTERVAL_S after the previous pass began, and
# only once POST_QUIET_S has passed without another post: one pass then takes a whole round of posts,
# and the rounds of a search with an embedded agent keep this period instead of following the host's load.
PASS_INTERVAL_S = 0.05
POST_QUIET_S = 0.005


class BackendError(Exception):
    """A single inference-timing call failed."""


@dataclass(frozen=True)
class AgentConfig:
    device_type: str = "sim-edge"
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8)
    num_warmup: int = 3
    num_timed_runs: int = 10
    poll_interval_ms: int = 500

    def __post_init__(self):
        if not self.batch_sizes:
            raise ValueError("batch_sizes must be non-empty")
        if any(b >= c for b, c in zip(self.batch_sizes, self.batch_sizes[1:])) or self.batch_sizes[0] < 1:
            raise ValueError("batch_sizes must be strictly increasing and >= 1")
        if self.num_timed_runs < 1:
            raise ValueError("num_timed_runs must be >= 1")
        if self.num_warmup < 0:
            raise ValueError("num_warmup must be >= 0")
        if self.poll_interval_ms < 0:
            raise ValueError("poll_interval_ms must be >= 0")


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

    The figures of the last spec object (its noise key, memory figure and
    FLOPs count) are derived once and kept until another spec object comes
    in. One noise stream, that of the last (spec object, batch size), is
    kept beside them: it is seeded from the spec's value and the batch
    size, and restarts whenever another spec object or batch size comes
    in. measure() passes one object through all calls of an architecture,
    so each measurement starts its own stream: reported values do not
    depend on the order the agent drains its queue, and memory does not
    grow with the specs seen.
    call_duration_s stalls each call to emulate real measurement time.
    """

    def __init__(self, profile: cost_model.DeviceProfile, seed: int = 0, call_duration_s: float = 0.0):
        self.profile = profile
        self.seed = seed
        self.call_duration_s = call_duration_s
        self._figures: tuple[HyperparamSpec, str, float, float] | None = None
        self._stream: tuple[int, random.Random] | None = None

    def time_inference(self, spec: HyperparamSpec, batch_size: int) -> InferenceSample:
        if self.call_duration_s > 0:
            time.sleep(self.call_duration_s)
        if self._figures is None or self._figures[0] is not spec:
            key = json.dumps(to_document_dict(spec), sort_keys=True)
            # synthetic placeholder for the auxiliary memory metric
            memory_mb = cost_model.param_count(spec) * 4 / 1e6
            self._figures = (spec, key, memory_mb, cost_model.flops_estimate(spec))
            self._stream = None
        _, key, memory_mb, flops = self._figures
        if self._stream is None or self._stream[0] != batch_size:
            self._stream = (batch_size, random.Random(derive_seed(self.seed, key, batch_size)))
        latency = cost_model.synthetic_latency(spec, batch_size, self.profile, self._stream[1], flops)
        return InferenceSample(latency_ms=latency, memory_mb=memory_mb, cpu_util=12.5, gpu_util=62.5)


class ExternalBackend:
    """Runs an external command once per call: each warmup and timed run is its own process.

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
                return InferenceSample(**{f.name: float(doc[f.name]) for f in fields(InferenceSample) if f.name in doc})
            except (TypeError, ValueError) as exc:
                raise BackendError(f"measurement output not numeric: {exc}") from exc
        try:
            return InferenceSample(latency_ms=float(text.splitlines()[0]))
        except ValueError as exc:
            raise BackendError(f"unparseable measurement output: {text.splitlines()[0]!r}") from exc


def _moments(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation of finite values: statistics.mean and statistics.stdev.

    A constant sample, one value included, skips statistics' exact sums
    and gives std 0.0. A NaN or infinity raises ValueError.
    """
    if values.count(x := values[0]) == len(values) and math.isfinite(x):
        return x + 0.0, 0.0  # + 0.0: the mean of -0.0s is 0.0, as statistics.mean gives it
    if not all(map(math.isfinite, values)):
        raise ValueError("sample holds a NaN or an infinity")
    return statistics.mean(values), statistics.stdev(values)


def measure(
    spec: HyperparamSpec,
    config: AgentConfig,
    backend: MeasurementBackend,
    architecture_id: int = 0,
) -> list[EdgeMeasurement]:
    """Warmup + timed runs per batch size; one row per successful batch size.

    A backend failure, or a timed sample that is not finite, marks only
    that batch size as failed; the others proceed. _moments checks for a
    NaN or infinity itself, since statistics.mean returns NaN instead of
    raising. Warmup calls never contribute to the reported statistics.
    """
    rows: list[EdgeMeasurement] = []
    for batch_size in config.batch_sizes:
        try:
            for _ in range(config.num_warmup):
                backend.time_inference(spec, batch_size)
            samples = [backend.time_inference(spec, batch_size) for _ in range(config.num_timed_runs)]
            # exact moments: a constant backend reports the identical mean
            # for any num_timed_runs
            mean, std = _moments([s.latency_ms for s in samples])
            memory_mb = _moments([s.memory_mb for s in samples])[0]
            cpu_util = _moments([s.cpu_util for s in samples])[0]
            gpu_util = _moments([s.gpu_util for s in samples])[0]
        except Exception as exc:
            logger.warning(
                "measurement failed for architecture %s batch_size %d: %s",
                architecture_id, batch_size, exc,
            )
            continue
        rows.append(
            EdgeMeasurement(
                architecture_id=architecture_id,
                device_type=config.device_type,
                batch_size=batch_size,
                latency_ms_mean=mean,
                latency_ms_std=std,
                num_runs=config.num_timed_runs,
                num_warmup=config.num_warmup,
                memory_mb=memory_mb,
                cpu_util=cpu_util,
                gpu_util=gpu_util,
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
    """Poll, measure and report in passes until stop_signal.

    A pass measures every unmeasured architecture one poll returns, then
    waits for a post; with once, the call returns after one pass. Once it
    has reported an architecture's rows, a partial set included, it calls
    store.wakeups.measured once for it, not once per batch size. The
    loop watches POSTS on store.wakeups for its whole length and clears
    the Event before each poll, so a post that the poll misses ends the
    wait. A post through this handle sets it, and so does every commit
    through another handle or process, which the waiting threads check
    for, one at a time and at most once per interval: about every 10 ms
    once one has been seen. Its own measurements never set it. After a
    wake the next pass starts once POST_QUIET_S has passed without
    another post, and no sooner than PASS_INTERVAL_S after this pass
    began. poll_interval_ms caps the whole wait, the hold included, so an
    agent with a 1 ms poll interval is not paced. Setting stop_signal
    ends a wait at its next post or check for foreign commits, or at its
    timeout, unless the setter then calls store.wakeups.interrupt(), as
    embedded_agent does, which ends it at once.
    A partly measured architecture is still unmeasured, so the next pass
    measures it again. Undecodable and out-of-range spec documents are
    skipped alike: logged once, never measured. Store connectivity errors
    back off exponentially (capped at 30 s). The in-flight architecture
    is completed before a stop takes effect. Returns the number measured.
    """
    skipped: set[int] = set()
    processed = 0
    backoff = BACKOFF_INITIAL_S
    with store.wakeups.watch(POSTS, stop_signal) as posted:
        while not stop_signal.is_set():
            pass_started = time.monotonic()
            posted.clear()  # before the poll: a post it misses sets the event again
            try:
                records = store.poll_unmeasured(Role.EDGE_AGENT, config.device_type, config.batch_sizes)
                backoff = BACKOFF_INITIAL_S
            except Exception as exc:  # the loop must survive store outages
                logger.warning("poll failed (%s); backing off %.1fs", exc, backoff)
                if stop_signal.wait(backoff):
                    break
                backoff = min(backoff * 2, BACKOFF_CAP_S)
                continue
            for record in [r for r in records if r.id not in skipped]:
                try:
                    spec = decode(record.spec_document)
                    problem = "; ".join(validate(spec, "baseline"))
                except DocumentError as exc:
                    problem = f"undecodable document ({exc})"
                if problem:
                    logger.error("skipping architecture %s: %s", record.id, problem)
                    skipped.add(record.id)
                    continue
                rows = measure(spec, config, backend, architecture_id=record.id)
                for row in rows:
                    try:
                        store.insert_measurement(Role.EDGE_AGENT, row)
                    except StoreError as exc:
                        logger.error("failed to report measurement for architecture %s: %s", record.id, exc)
                store.wakeups.measured(record.id)
                processed += 1
                if stop_signal.is_set():
                    return processed
            if once:
                return processed
            deadline = time.monotonic() + config.poll_interval_ms / 1000.0
            woke = posted.wait(config.poll_interval_ms / 1000.0)
            while woke and not stop_signal.is_set():  # hold the next pass: see PASS_INTERVAL_S
                posted.clear()
                now = time.monotonic()
                hold_s = min(max(pass_started + PASS_INTERVAL_S, now + POST_QUIET_S), deadline) - now
                woke = hold_s > 0 and posted.wait(hold_s)
    return processed


@contextlib.contextmanager
def embedded_agent(config: AgentConfig, store: Store, backend: MeasurementBackend, join_timeout_s: float):
    """run_agent_loop on a daemon thread for the block; outliving join_timeout_s fails a block that succeeded."""
    stop = threading.Event()
    args = (config, store, stop, backend)
    thread = threading.Thread(target=run_agent_loop, args=args, name="embedded-agent", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        store.wakeups.interrupt()
        thread.join(join_timeout_s)
    if thread.is_alive():
        raise TimeoutError(f"embedded agent did not stop within {join_timeout_s} s")
