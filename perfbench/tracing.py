"""Spans around the benchmark's calls into each edgenas layer.

Nothing in the package is changed to trace it. The benchmark wraps the
objects it injects anyway (the store handed to run_nas and the agent, the
trainer and the measurement backend). For search_space and cost_model
functions that other modules call, it swaps the module attributes those
callers look up. Every stamp is time.monotonic_ns, a clock the split agent
process shares with the coordinator, so spans of both processes line up.

A span is a tuple (name, start_ns, end_ns, architecture_id, value); value
carries a per-name detail such as rows returned or the batch size.
"""

from __future__ import annotations

import resource
import statistics
import sys
import threading
import time

from edgenas import cost_model, search_space

now = time.monotonic_ns
_current = threading.local()  # the candidate and architecture the calling thread works on
_encode = search_space.encode  # unwrapped, so attributing a call adds no span

TRACED_FUNCTIONS = (
    (search_space, ("sample", "mutate", "encode", "decode", "validate")),
    (cost_model, ("synthetic_latency", "flops_estimate", "param_count")),
)


def cpu_seconds() -> float:
    """User plus system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Candidate:
    """Stamps of one posting, from insert_architecture to its validation score."""

    __slots__ = ("arch", "posted", "post_done", "train_start", "train_end", "score_start", "scored", "done")

    def __init__(self, arch: int, posted: int):
        self.arch = arch
        self.posted = posted
        self.post_done = self.train_start = self.train_end = self.score_start = self.scored = self.done = 0


class StoreProxy:
    """Store handed to run_nas: stamps each candidate's post and score.

    The post stamp is taken when insert_architecture is called and the
    score stamp when the validation insert_benchmark_result returns. They
    are the only instrumentation of an untraced search. A candidate is
    posted, trained and scored on one thread, so a thread-local pairs the
    stamps even when a repeated spec makes two candidates share an id.
    """

    def __init__(self, store):
        self._store = store
        self.candidates: list[Candidate] = []  # in posting order

    def __getattr__(self, name):
        return getattr(self._store, name)

    def insert_architecture(self, role, record):
        started = now()
        architecture_id = self._store.insert_architecture(role, record)
        _current.candidate = candidate = Candidate(architecture_id, started)
        self.candidates.append(candidate)
        return architecture_id

    def insert_benchmark_result(self, role, result):
        row_id = self._store.insert_benchmark_result(role, result)
        if result.split == "validation":
            _current.candidate.scored = now()
        return row_id


class TracedStore(StoreProxy):
    """StoreProxy that also records a span for every store call."""

    def __init__(self, store, spans: list):
        super().__init__(store)
        self.spans = spans
        self.arch_by_document: dict[str, int] = {}

    def __getattr__(self, name):
        attr = getattr(self._store, name)
        if not callable(attr):
            return attr

        def traced(*args, **kwargs):
            started = now()
            try:
                return attr(*args, **kwargs)
            finally:
                self.spans.append(("store." + name, started, now(), -1, 0))

        return traced

    def insert_architecture(self, role, record):
        started = now()
        architecture_id = self._store.insert_architecture(role, record)
        ended = now()
        self.spans.append(("store.insert_architecture", started, ended, architecture_id, 0))
        _current.candidate = candidate = Candidate(architecture_id, started)
        candidate.post_done = ended
        _current.arch = architecture_id
        self.candidates.append(candidate)
        return architecture_id

    def insert_benchmark_result(self, role, result):
        started = now()
        row_id = self._store.insert_benchmark_result(role, result)
        ended = now()
        validation = result.split == "validation"
        candidate = _current.candidate
        if validation:
            candidate.score_start, candidate.scored = started, ended
        candidate.done = ended
        self.spans.append(("store.insert_benchmark_result", started, ended, result.architecture_id, int(validation)))
        return row_id

    def poll_unmeasured(self, *args, **kwargs):
        started = now()
        records = self._store.poll_unmeasured(*args, **kwargs)
        self.spans.append(("store.poll_unmeasured", started, now(), -1, len(records)))
        for record in records:
            self.arch_by_document[record.spec_document] = record.id
        return records

    def get_measurements(self, architecture_id, device_type):
        started = now()
        rows = self._store.get_measurements(architecture_id, device_type)
        self.spans.append(("store.get_measurements", started, now(), architecture_id, len(rows)))
        return rows

    def insert_measurement(self, role, measurement):
        started = now()
        row_id = self._store.insert_measurement(role, measurement)
        self.spans.append(
            ("store.insert_measurement", started, now(), measurement.architecture_id, measurement.batch_size)
        )
        return row_id


class TracedTrainer:
    """Trainer span, attributed to the candidate its thread just posted."""

    def __init__(self, trainer, spans: list):
        self._trainer = trainer
        self._spans = spans

    def train_and_validate(self, spec, epochs, seed):
        candidate = _current.candidate
        candidate.train_start = now()
        try:
            return self._trainer.train_and_validate(spec, epochs, seed)
        finally:
            candidate.train_end = now()
            self._spans.append(("trainer", candidate.train_start, candidate.train_end, candidate.arch, 0))


class TracedBackend:
    """One span per backend call; value is the batch size, negated on failure.

    The architecture is found from the spec document of the agent's last
    poll, so attribution needs nothing from the agent's internals.
    """

    def __init__(self, backend, spans: list, store: TracedStore):
        self._backend = backend
        self._spans = spans
        self._store = store
        self._last = (None, -1)

    def time_inference(self, spec, batch_size):
        last_spec, arch = self._last
        if spec is not last_spec:
            arch = self._store.arch_by_document.get(_encode(spec), -1)
            self._last = (spec, arch)
        _current.arch = arch
        started = now()
        value = batch_size
        try:
            return self._backend.time_inference(spec, batch_size)
        except Exception:
            value = -batch_size
            raise
        finally:
            self._spans.append(("backend", started, now(), arch, value))


def _traced_function(name: str, fn, spans: list):
    def traced(*args, **kwargs):
        started = now()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append((name, started, now(), getattr(_current, "arch", -1), 0))

    return traced


def patch_modules(spans: list):
    """Swap each traced function wherever an edgenas module binds it.

    Returns a callable that puts the originals back.
    """
    wrappers = {}
    for module, names in TRACED_FUNCTIONS:
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, _traced_function(f"{layer}.{name}", fn, spans))
    swapped = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "edgenas" or module_name.startswith("edgenas.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(module, attr, wrappers[id(value)][1])
                swapped.append((module, attr, value))

    def restore():
        for module, attr, value in swapped:
            setattr(module, attr, value)

    return restore


# -- per-layer metrics from spans ---------------------------------------------


def pct(values, q: int) -> float:
    """q-th percentile (inclusive method); 0.0 when there is no sample."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(ns: float) -> float:
    return ns / 1e6


def _union_ns(intervals, lo: int, hi: int) -> int:
    covered, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(spans, candidates, window, evals, population, batch_count, bytes_grown) -> dict:
    """Per-layer metrics of one traced search; see README.md for definitions."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def durations(name, scale=1e6):
        return [(s[2] - s[1]) / scale for s in by_name.get(name, ())]

    def per_arch(name):
        groups: dict[int, list] = {}
        for span in by_name.get(name, ()):
            if span[3] >= 0:
                groups.setdefault(span[3], []).append(span)
        return groups

    backend = per_arch("backend")
    reports = per_arch("store.insert_measurement")
    latency, score_wait, queue_wait, measure, hiding, overlap = [], [], [], [], [], []
    measured_once: set[int] = set()  # a repeated spec reuses its first posting's measurement
    for c in candidates:
        calls = backend.get(c.arch) if c.arch not in measured_once else None
        measured_once.add(c.arch)
        if calls:
            first = min(s[1] for s in calls)
            measure_ns = max(s[2] for s in calls) - first
            measure.append(_ms(measure_ns))
            queue_wait.append(_ms(first - c.post_done))
        if not c.scored:
            continue
        latency_ns = c.scored - c.posted
        latency.append(_ms(latency_ns))
        score_wait.append(_ms(c.score_start - c.train_end))
        if calls:
            train_ns = c.train_end - c.train_start
            hiding.append(_ms(latency_ns - max(train_ns, measure_ns)))
            if train_ns > 0 and measure_ns > 0:
                overlap.append(latency_ns / (train_ns + measure_ns))

    # rounds are barriers in run_ea, so candidates in posting order chunk into rounds
    order = sorted(candidates, key=lambda c: c.posted)
    rounds = [order[i:i + population] for i in range(0, len(order), population)]
    round_ends = [max(c.done for c in r) for r in rounds]  # 0 when every candidate of a round failed
    round_gaps = [_ms(nxt[0].posted - end) for end, nxt in zip(round_ends, rounds[1:]) if end]

    report_ms = [_ms(max(s[2] for s in g) - min(s[1] for s in g)) for g in reports.values()]
    polls = by_name.get("store.poll_unmeasured", [])
    measurement_polls = by_name.get("store.get_measurements", [])
    backend_calls = by_name.get("backend", [])
    failed_batches = {(s[3], -s[4]) for s in backend_calls if s[4] < 0}
    measured = max(len(backend), 1)
    store_spans = [(s[1], s[2]) for s in spans if s[0].startswith("store.")]
    lo, hi = window

    m = {
        "coordinator.candidate_latency_ms.p50": pct(latency, 50),
        "coordinator.candidate_latency_ms.p90": pct(latency, 90),
        "coordinator.score_wait_ms.p50": pct(score_wait, 50),
        "coordinator.score_wait_ms.p90": pct(score_wait, 90),
        "coordinator.measurement_polls_per_eval": len(measurement_polls) / evals,
        "coordinator.measurement_polls.useful_share":
            sum(s[4] >= batch_count for s in measurement_polls) / max(len(measurement_polls), 1),
        "coordinator.hiding_overhead_ms.p50": pct(hiding, 50),
        "coordinator.hiding_overhead_ms.p90": pct(hiding, 90),
        "coordinator.overlap_ratio": pct(overlap, 50),
        "coordinator.train_ms.p50": pct(durations("trainer"), 50),
        "optimizer.round_gap_ms.p50": pct(round_gaps, 50),
        "edge_agent.queue_wait_ms.p50": pct(queue_wait, 50),
        "edge_agent.queue_wait_ms.p90": pct(queue_wait, 90),
        "edge_agent.measure_ms.p50": pct(measure, 50),
        "edge_agent.report_ms.p50": pct(report_ms, 50),
        "edge_agent.polls_per_eval": len(polls) / evals,
        "edge_agent.polls.empty_share": sum(s[4] == 0 for s in polls) / max(len(polls), 1),
        "edge_agent.backend_calls_per_arch": len(backend_calls) / measured,
        "edge_agent.failed_batches": len(failed_batches),
        "store.poll_unmeasured.ms_p50": pct(durations("store.poll_unmeasured"), 50),
        "store.poll_unmeasured.ms_p90": pct(durations("store.poll_unmeasured"), 90),
        "store.poll_unmeasured.rows_p50": pct([s[4] for s in polls], 50),
        "store.poll_unmeasured.ms_per_eval": sum(durations("store.poll_unmeasured")) / evals,
        "store.get_measurements.ms_p50": pct(durations("store.get_measurements"), 50),
        "store.get_measurements.ms_p90": pct(durations("store.get_measurements"), 90),
        "store.insert_architecture.ms_p50": pct(durations("store.insert_architecture"), 50),
        "store.insert_measurement.ms_p50": pct(durations("store.insert_measurement"), 50),
        "store.insert_benchmark_result.ms_p50": pct(durations("store.insert_benchmark_result"), 50),
        "store.busy_share": _union_ns(store_spans, lo, hi) / (hi - lo),
        "store.bytes_per_eval": bytes_grown / evals,
        "search_space.decode.calls_per_eval": len(by_name.get("search_space.decode", ())) / evals,
        "cost_model.synthetic_latency.us_p50": pct(durations("cost_model.synthetic_latency", 1e3), 50),
        "cost_model.flops_estimate.calls_per_arch": len(by_name.get("cost_model.flops_estimate", ())) / measured,
        "cost_model.param_count.calls_per_arch": len(by_name.get("cost_model.param_count", ())) / measured,
    }
    for name in ("sample", "mutate", "encode", "decode", "validate"):
        m[f"search_space.{name}.us_p50"] = pct(durations(f"search_space.{name}", 1e3), 50)
    return m
