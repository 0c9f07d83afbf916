"""One search of one workload: set up store and agent, run_nas, check, tear down."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from edgenas import edge_agent
from edgenas.config import load_config
from edgenas.coordinator import DispatchSettings, SimulatedTrainer, run_nas
from edgenas.optimizer import RunConfig, derive_seed, write_history_csv
from edgenas.store import Store

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POPULATION = 8
EVALUATIONS = 112  # 14 rounds; more than 100 latency samples per search puts ten beyond p90
JOIN_TIMEOUT_S = 10.0
SCORE_TOLERANCE = 1e-9

children: list[subprocess.Popen] = []  # agent processes still running, for the watchdog


class CheckFailed(Exception):
    """An output or hygiene check failed; the run's result is not valid."""


@dataclass(frozen=True)
class Workload:
    name: str
    prefilled: bool  # the store starts with the 20k-architecture history
    split_agent: bool  # the agent is a separate OS process, not a thread
    train_s: float  # simulated training time per candidate
    call_s: float  # simulated time per backend call


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_embedded", prefilled=False, split_agent=False, train_s=0.0, call_s=0.0),
        Workload("big_store", prefilled=True, split_agent=False, train_s=0.0, call_s=0.0),
        # one round's training (0.3 s) about equals the agent's measuring of
        # that round: 8 architectures x 52 backend calls x 0.7 ms
        Workload("overlap_split", prefilled=False, split_agent=True, train_s=0.3, call_s=0.0007),
    )
}


@dataclass
class SearchResult:
    setup_s: float
    wall_s: float
    cpu_s: float  # coordinator process plus agent process, if any
    evals: int
    failed: int
    latencies_ms: list[float]
    history_csv: bytes
    layers: dict | None  # per-layer metrics of a traced search


def _store_bytes(path: str) -> int:
    return sum(os.path.getsize(path + s) for s in ("", "-wal") if os.path.exists(path + s))


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


class EmbeddedAgent:
    """Agent loop on a thread of the coordinator process, as `edgenas run` embeds it."""

    def __init__(self, config, store, backend):
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=edge_agent.run_agent_loop, args=(config, store, self._stop, backend),
            name="embedded-agent", daemon=True,
        )
        self._thread.start()

    def stop(self) -> tuple[float, list]:
        self._stop.set()
        self._thread.join(JOIN_TIMEOUT_S)
        if self._thread.is_alive():
            raise CheckFailed(f"embedded agent thread did not join within {JOIN_TIMEOUT_S}s")
        return 0.0, []


class AgentProcess:
    """Agent in its own OS process (agent_proc.py); returns its CPU time and spans.

    The search does not wait for the process to report ready: candidates
    queue in the store, as they would for an agent daemon started on its
    own device. Its interpreter start-up overlaps the first round.
    """

    def __init__(self, store_path: str, seed: int, call_s: float, trace_out: str | None):
        command = [sys.executable, str(HERE / "agent_proc.py"), "--store", store_path,
                   "--seed", str(seed), "--call-s", repr(call_s)]
        if trace_out:
            command += ["--trace-out", trace_out]
        self._trace_out = trace_out
        self._proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        children.append(self._proc)

    def stop(self) -> tuple[float, list]:
        self._proc.stdin.close()
        try:
            self._proc.wait(JOIN_TIMEOUT_S + 5.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise CheckFailed(f"agent process did not exit within {JOIN_TIMEOUT_S + 5.0}s") from None
        finally:
            children.remove(self._proc)
        lines = self._proc.stdout.read().split("\n")
        self._proc.stdout.close()
        if self._proc.returncode != 0 or lines[0] != "ready":
            raise CheckFailed(f"agent process exited {self._proc.returncode} (first line {lines[0]!r})")
        try:
            report = json.loads(lines[1])
        except (IndexError, ValueError):
            raise CheckFailed(f"agent process printed no report: {lines!r}") from None
        spans = []
        if self._trace_out:
            with open(self._trace_out) as fh:
                spans = [tuple(s) for s in json.load(fh)]
            os.remove(self._trace_out)
        return report["cpu_s"], spans


def _setup(workload: Workload, store_path: str, seed: int, spans: list | None):
    """Load the config, open the store and start the agent: what setup_s times."""
    cfg = load_config(None)
    store = Store.initialize(store_path)
    proxy = tracing.TracedStore(store, spans) if spans is not None else tracing.StoreProxy(store)
    backend_seed = derive_seed("perfbench-backend", seed)
    if workload.split_agent:
        trace_out = store_path + ".spans.json" if spans is not None else None
        agent = AgentProcess(store_path, backend_seed, workload.call_s, trace_out)
    else:
        backend = edge_agent.SimulatedBackend(cfg.device_profile, seed=backend_seed, call_duration_s=workload.call_s)
        if spans is not None:
            backend = tracing.TracedBackend(backend, spans, proxy)
        agent = EmbeddedAgent(cfg.agent.config, proxy, backend)
    return cfg, store, proxy, agent


def _store_path(run_dir: Path, index: int, prefill: Path | None) -> str:
    path = str(run_dir / f"store-{index}.sqlite")
    if prefill is not None:
        shutil.copyfile(prefill, path)  # input data: not part of setup_s
    return path


def setup_only(workload: Workload, seed: int, run_dir: Path, index: int, prefill: Path | None) -> float:
    """One more setup_s sample: set up, then tear down without searching."""
    path = _store_path(run_dir, index, prefill)
    started = time.perf_counter()
    _, store, _, agent = _setup(workload, path, seed, None)
    setup_s = time.perf_counter() - started
    agent.stop()
    store.close()
    _remove_store(path)
    return setup_s


def run_search(
    workload: Workload, seed: int, run_dir: Path, index: int, prefill: Path | None, trace: bool
) -> SearchResult:
    path = _store_path(run_dir, index, prefill)
    spans: list | None = [] if trace else None
    restore = tracing.patch_modules(spans) if trace else (lambda: None)
    try:
        started = time.perf_counter()
        cfg, store, proxy, agent = _setup(workload, path, seed, spans)
        setup_s = time.perf_counter() - started
        try:
            run_config = RunConfig(
                population_size=POPULATION, total_evaluations=EVALUATIONS,
                seed=derive_seed("perfbench-search", seed) % 2**31,
            )
            settings = DispatchSettings(
                device_type=cfg.agent.config.device_type,
                batch_sizes=cfg.agent.config.batch_sizes,
                poll_interval_s=cfg.run.poll_interval_ms / 1000.0,
            )
            trainer = SimulatedTrainer(cfg.surrogate, duration_s=workload.train_s)
            if trace:
                trainer = tracing.TracedTrainer(trainer, spans)
            bytes_before = _store_bytes(path)
            cpu_before = tracing.cpu_seconds()
            window_lo = tracing.now()
            summary = run_nas(run_config, proxy, trainer, settings=settings)
            window_hi = tracing.now()
            cpu_s = tracing.cpu_seconds() - cpu_before
            bytes_grown = _store_bytes(path) - bytes_before
        finally:
            agent_cpu_s, agent_spans = agent.stop()
    finally:
        restore()

    failed = sum(summary.failure_counts.values())
    _check(store, [c.arch for c in proxy.candidates], summary, settings, run_config, failed)
    csv_path = run_dir / f"history-{index}.csv"
    write_history_csv(summary.history, summary.run_id, csv_path)
    history_csv = csv_path.read_bytes()
    csv_path.unlink()
    store.close()
    _remove_store(path)

    evals = summary.ok_count + failed
    latencies = [(c.scored - c.posted) / 1e6 for c in proxy.candidates if c.scored]
    layers = None
    if trace:
        layers = tracing.layer_metrics(
            spans + agent_spans, proxy.candidates, (window_lo, window_hi),
            evals, POPULATION, len(settings.batch_sizes), bytes_grown,
        )
    return SearchResult(
        setup_s=setup_s, wall_s=(window_hi - window_lo) / 1e9, cpu_s=cpu_s + agent_cpu_s,
        evals=evals, failed=failed, latencies_ms=latencies, history_csv=history_csv, layers=layers,
    )


def _check(store, posted: list[int], summary, settings, run_config, failed: int) -> None:
    """Every candidate scored or counted failed; one measurement per batch size; consistent scores."""
    if summary.ok_count + failed != run_config.total_evaluations:
        raise CheckFailed(f"{summary.ok_count} ok + {failed} failed != {run_config.total_evaluations} evaluations")
    if len(posted) != run_config.total_evaluations:
        raise CheckFailed(f"{len(posted)} candidates posted for {run_config.total_evaluations} evaluations")
    results = [r for r, _ in store.query_results(summary.run_id)]
    validation = {r.architecture_id: r for r in results if r.split == "validation"}
    unscored = sum(a not in validation for a in posted)
    if unscored != failed:
        raise CheckFailed(f"{unscored} posted candidates unscored but {failed} counted as failed")
    for r in results:
        if abs(r.score - (r.val_loss * 1000.0 + r.inference_time_ms)) > SCORE_TOLERANCE:
            raise CheckFailed(f"benchmark_result {r.id}: score {r.score!r} != val_loss*1000 + inference_time_ms")
    for architecture_id in set(posted):
        rows = store.get_measurements(architecture_id, settings.device_type)
        sizes = [m.batch_size for m in rows]
        if len(sizes) != len(set(sizes)):
            raise CheckFailed(f"architecture {architecture_id}: duplicate measurement rows {sizes}")
        if architecture_id in validation:
            if sorted(sizes) != sorted(settings.batch_sizes):
                raise CheckFailed(f"architecture {architecture_id}: measured batch sizes {sizes}")
            scored = next(m for m in rows if m.batch_size == run_config.score_batch_size)
            if scored.latency_ms_mean != validation[architecture_id].inference_time_ms:
                raise CheckFailed(f"architecture {architecture_id}: scored latency differs from its measurement")
