from __future__ import annotations

import gc
import json
import random
import sqlite3
import sys
import threading
import time
import tracemalloc

import pytest

from conftest import add_failing_trigger
from edgenas.cost_model import DeviceProfile, synthetic_latency
from edgenas.edge_agent import (
    AgentConfig,
    BackendError,
    ExternalBackend,
    InferenceSample,
    SimulatedBackend,
    measure,
    run_agent_loop,
)
from edgenas.search_space import default_config, encode, sample
from edgenas.store import ArchitectureRecord, Role

DEVICE = "sim-edge"


class CountingBackend:
    def __init__(self, fail_batches=()):
        self.calls: list[int] = []
        self.fail_batches = set(fail_batches)

    def time_inference(self, spec, batch_size):
        if batch_size in self.fail_batches:
            raise RuntimeError(f"no backend for batch {batch_size}")
        self.calls.append(batch_size)
        return InferenceSample(latency_ms=float(batch_size))


def test_agent_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(batch_sizes=())
    with pytest.raises(ValueError):
        AgentConfig(batch_sizes=(4, 2, 1))
    with pytest.raises(ValueError):
        AgentConfig(num_timed_runs=0)
    with pytest.raises(ValueError):
        AgentConfig(num_warmup=-1)


def test_measure_counts_warmup_and_timed_calls():
    config = AgentConfig(num_warmup=3, num_timed_runs=10)
    backend = CountingBackend()
    rows = measure(default_config(), config, backend, architecture_id=1)
    assert [r.batch_size for r in rows] == [1, 2, 4, 8]
    assert all(r.num_runs == 10 and r.num_warmup == 3 for r in rows)
    # 3 warmup + 10 timed per batch size, nothing more
    assert len(backend.calls) == 4 * 13
    for batch in (1, 2, 4, 8):
        assert backend.calls.count(batch) == 13


def test_measure_warmups_never_contribute_to_statistics():
    class WarmupSpikeBackend:
        """Huge latencies during warmup, constant afterwards."""

        def __init__(self):
            self.seen: dict[int, int] = {}

        def time_inference(self, spec, batch_size):
            n = self.seen.get(batch_size, 0)
            self.seen[batch_size] = n + 1
            return InferenceSample(latency_ms=1e6 if n < 3 else 7.0)

    rows = measure(default_config(), AgentConfig(), WarmupSpikeBackend())
    assert all(r.latency_ms_mean == 7.0 and r.latency_ms_std == 0.0 for r in rows)


def test_measure_zero_noise_matches_analytic_latency(quiet_profile):
    backend = SimulatedBackend(quiet_profile)
    spec = default_config()
    rows = measure(spec, AgentConfig(), backend)
    for row in rows:
        expected = synthetic_latency(spec, row.batch_size, quiet_profile, random.Random(0))
        assert row.latency_ms_mean == pytest.approx(expected, rel=1e-12)
        assert row.latency_ms_std == 0.0


@pytest.mark.parametrize("runs", [1, 10, 100])
def test_zero_noise_mean_independent_of_timed_run_count(quiet_profile, runs):
    backend = SimulatedBackend(quiet_profile)
    config = AgentConfig(num_timed_runs=runs)
    rows = measure(default_config(), config, backend)
    reference = measure(default_config(), AgentConfig(num_timed_runs=10), SimulatedBackend(quiet_profile))
    for row, ref in zip(rows, reference):
        assert row.latency_ms_mean == ref.latency_ms_mean


def test_simulated_backend_order_independent_with_noise():
    profile = DeviceProfile(noise_std_ms=1.0)
    spec_a, spec_b = sample(random.Random(1)), sample(random.Random(2))
    forward = SimulatedBackend(profile, seed=5)
    rows_a1 = measure(spec_a, AgentConfig(), forward)
    rows_b1 = measure(spec_b, AgentConfig(), forward)
    backward = SimulatedBackend(profile, seed=5)
    rows_b2 = measure(spec_b, AgentConfig(), backward)
    rows_a2 = measure(spec_a, AgentConfig(), backward)
    assert [r.latency_ms_mean for r in rows_a1] == [r.latency_ms_mean for r in rows_a2]
    assert [r.latency_ms_mean for r in rows_b1] == [r.latency_ms_mean for r in rows_b2]


def test_measure_partial_backend_failure():
    backend = CountingBackend(fail_batches={8})
    rows = measure(default_config(), AgentConfig(), backend, architecture_id=3)
    assert [r.batch_size for r in rows] == [1, 2, 4]


def _insert_pending(store, lineage=0, spec=None):
    return store.insert_architecture(
        Role.OPTIMIZER,
        ArchitectureRecord("run", lineage, encode(spec or default_config()), [DEVICE]),
    )


def test_agent_once_on_empty_store(store):
    processed = run_agent_loop(AgentConfig(), store, threading.Event(), CountingBackend(), once=True)
    assert processed == 0


def test_agent_once_drains_backlog(store, quiet_profile):
    ids = [_insert_pending(store, lineage) for lineage in range(3)]
    backend = SimulatedBackend(quiet_profile)
    processed = run_agent_loop(AgentConfig(poll_interval_ms=5), store, threading.Event(), backend, once=True)
    assert processed == 3
    assert store.poll_unmeasured(Role.READER, DEVICE, (1, 2, 4, 8)) == []
    for arch_id in ids:
        assert len(store.get_measurements(arch_id, DEVICE)) == 4


def test_agent_skips_poisoned_record_and_measures_good_one(store, quiet_profile):
    # a foreign writer put garbage in spec_document; the API itself forbids it
    with store._lock, store._conn:
        store._conn.execute(
            "INSERT INTO network_architecture (run_id, lineage_id, spec_document, device_targets, created_at)"
            " VALUES ('run', 0, '{\"bad\": 1}', '[\"sim-edge\"]', '2026-01-01T00:00:00.000+00:00')"
        )
    good = _insert_pending(store, lineage=1)
    backend = SimulatedBackend(quiet_profile)
    processed = run_agent_loop(AgentConfig(poll_interval_ms=5), store, threading.Event(), backend, once=True)
    assert processed == 1
    assert len(store.get_measurements(good, DEVICE)) == 4


def test_agent_loop_crash_free_under_fuzzed_documents(store, quiet_profile):
    fuzz = ["", "null", "[]", '{"patch_size": "x"}', '{"patch_size": [2,4,4]}', "not json at all"]
    with store._lock, store._conn:
        for i, doc in enumerate(fuzz):
            store._conn.execute(
                "INSERT INTO network_architecture (run_id, lineage_id, spec_document, device_targets, created_at)"
                " VALUES ('fuzz', ?, ?, '[\"sim-edge\"]', '2026-01-01T00:00:00.000+00:00')",
                (i, doc),
            )
    good = _insert_pending(store, lineage=99)
    processed = run_agent_loop(AgentConfig(poll_interval_ms=5), store, threading.Event(), SimulatedBackend(quiet_profile), once=True)
    assert processed == 1
    assert len(store.get_measurements(good, DEVICE)) == 4


def test_agent_stops_after_in_flight_architecture(store, quiet_profile):
    for lineage in range(2):
        _insert_pending(store, lineage)
    stop = threading.Event()

    class StoppingBackend(SimulatedBackend):
        def time_inference(self, spec, batch_size):
            stop.set()  # request shutdown mid-measurement
            return super().time_inference(spec, batch_size)

    processed = run_agent_loop(AgentConfig(), store, stop, StoppingBackend(quiet_profile))
    assert processed == 1  # in-flight architecture completed, second untouched
    measured = [r for r in (store.get_measurements(i, DEVICE) for i in (1, 2)) if r]
    assert len(measured) == 1 and len(measured[0]) == 4


def test_agent_loop_backs_off_on_store_errors(store, quiet_profile, monkeypatch):
    calls = {"n": 0}
    original = store.poll_unmeasured

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("connection lost")
        return original(*args, **kwargs)

    monkeypatch.setattr(store, "poll_unmeasured", flaky)
    _insert_pending(store)
    processed = run_agent_loop(AgentConfig(poll_interval_ms=5), store, threading.Event(), SimulatedBackend(quiet_profile), once=True)
    assert processed == 1
    assert calls["n"] >= 2


def test_agent_survives_a_write_refused_by_sqlite(store, quiet_profile, caplog):
    arch_id = _insert_pending(store)
    add_failing_trigger(store.path, "edge_measurement")
    processed = run_agent_loop(AgentConfig(), store, threading.Event(), SimulatedBackend(quiet_profile), once=True)
    assert processed == 1
    assert store.get_measurements(arch_id, DEVICE) == []
    assert "no such function: boom" in caplog.text


def test_agent_skips_out_of_range_document_once(store, caplog):
    # a foreign writer posts a document that decodes but is out of range; the API itself refuses it
    document = json.loads(encode(default_config()))
    document["mlp_ratio"] = 7
    conn = sqlite3.connect(store.path)
    try:
        arch_id = conn.execute(
            "INSERT INTO network_architecture (run_id, lineage_id, spec_document, device_targets, created_at)"
            " VALUES ('foreign', 0, ?, '[\"sim-edge\"]', '2026-01-01T00:00:00.000+00:00')",
            (json.dumps(document),),
        ).lastrowid
        conn.commit()
    finally:
        conn.close()
    backend = CountingBackend()
    processed = run_agent_loop(AgentConfig(poll_interval_ms=5), store, threading.Event(), backend, once=True)
    assert processed == 0
    assert backend.calls == []
    assert store.get_measurements(arch_id, DEVICE) == []
    assert [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()] == [
        f"skipping architecture {arch_id}: mlp_ratio: 7 not in [1, 2, 3, 4]"
    ]


def test_agent_once_makes_one_pass(store, quiet_profile):
    first = _insert_pending(store, lineage=0)
    posted: list[int] = []

    class PostingBackend(SimulatedBackend):
        """Posts a second architecture during the first measurement, as a second search would."""

        def time_inference(self, spec, batch_size):
            if not posted:
                posted.append(_insert_pending(store, lineage=1, spec=sample(random.Random(3))))
            return super().time_inference(spec, batch_size)

    backend = PostingBackend(quiet_profile)
    assert run_agent_loop(AgentConfig(poll_interval_ms=5), store, threading.Event(), backend, once=True) == 1
    assert len(store.get_measurements(first, DEVICE)) == 4
    assert [r.id for r in store.poll_unmeasured(Role.READER, DEVICE, (1, 2, 4, 8))] == posted
    assert run_agent_loop(AgentConfig(poll_interval_ms=5), store, threading.Event(), backend, once=True) == 1
    assert len(store.get_measurements(posted[0], DEVICE)) == 4


class _StampingStore:
    """A store that stamps the start and return of each poll and sets stop on the second poll."""

    def __init__(self, store, stop: threading.Event):
        self._store = store
        self._stop = stop
        self.polls: list[tuple[float, float]] = []

    def __getattr__(self, name):
        return getattr(self._store, name)

    def poll_unmeasured(self, *args):
        started = time.monotonic()
        if self.polls:
            self._stop.set()
        records = self._store.poll_unmeasured(*args)
        self.polls.append((started, time.monotonic()))
        return records


def test_agent_sleeps_after_a_pass_that_measured(store, quiet_profile):
    _insert_pending(store)
    stop = threading.Event()
    stamping = _StampingStore(store, stop)
    processed = run_agent_loop(AgentConfig(poll_interval_ms=300), stamping, stop, SimulatedBackend(quiet_profile))
    assert processed == 1
    assert len(stamping.polls) == 2
    (_, first_returned), (second_started, _) = stamping.polls
    # Event.wait never returns before its timeout, so no upper bound is needed
    assert second_started - first_returned >= 0.3


MEMORY_PASSES = 8
ARCHITECTURES_PER_PASS = 50
# from the 4th reading to the 8th, 12 runs grew 3-7 kB; an agent that kept every polled record grew 137 kB
MEMORY_GROWTH_BOUND_B = 16_000


def _traced_memory_after_passes(store) -> list[int]:
    """Traced bytes after each once=True pass over ARCHITECTURES_PER_PASS newly posted architectures."""
    rng = random.Random(7)
    documents = [encode(sample(rng)) for _ in range(MEMORY_PASSES * ARCHITECTURES_PER_PASS)]
    config = AgentConfig(batch_sizes=(1,), num_warmup=0, num_timed_runs=1)
    backend = SimulatedBackend(DeviceProfile())
    readings = []
    tracemalloc.start(1)
    try:
        for start in range(0, len(documents), ARCHITECTURES_PER_PASS):
            for lineage, document in enumerate(documents[start:start + ARCHITECTURES_PER_PASS]):
                store.insert_architecture(Role.OPTIMIZER, ArchitectureRecord("run", lineage, document, [DEVICE]))
            assert run_agent_loop(config, store, threading.Event(), backend, once=True) == ARCHITECTURES_PER_PASS
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return readings


def test_agent_memory_stays_level_over_repeated_passes(store):
    """A long-running agent keeps nothing per architecture: its memory levels off as the store grows."""
    readings = _traced_memory_after_passes(store)
    assert readings[-1] - readings[3] < MEMORY_GROWTH_BOUND_B, readings


# -- external backend protocol -------------------------------------------------


def _stub(script: str) -> list[str]:
    return [sys.executable, "-c", script]


def test_external_backend_plain_decimal_output():
    backend = ExternalBackend(_stub("print('42.0')"))
    sample_value = backend.time_inference(default_config(), 1)
    assert sample_value.latency_ms == 42.0


def test_external_backend_json_document_output():
    script = "print('{\"latency_ms\": 17.5, \"memory_mb\": 100.0, \"gpu_util\": 80.0}')"
    backend = ExternalBackend(_stub(script))
    result = backend.time_inference(default_config(), 4)
    assert result.latency_ms == 17.5
    assert result.memory_mb == 100.0
    assert result.gpu_util == 80.0


def test_external_backend_receives_spec_and_batch_on_stdin():
    script = (
        "import json, sys\n"
        "doc = json.load(sys.stdin)\n"
        "print(float(doc['batch_size']) * doc['embed_dim'])\n"
    )
    backend = ExternalBackend(_stub(script))
    result = backend.time_inference(default_config(), 4)
    assert result.latency_ms == 4 * 96.0


def test_external_backend_nonzero_exit_is_failure():
    backend = ExternalBackend(_stub("import sys; sys.exit(1)"))
    with pytest.raises(BackendError, match="exited 1"):
        backend.time_inference(default_config(), 1)


def test_external_backend_unparseable_output_is_failure():
    backend = ExternalBackend(_stub("print('abc')"))
    with pytest.raises(BackendError, match="unparseable"):
        backend.time_inference(default_config(), 1)


def test_external_backend_missing_latency_field_is_failure():
    backend = ExternalBackend(_stub("print('{\"memory_mb\": 3}')"))
    with pytest.raises(BackendError, match="latency_ms"):
        backend.time_inference(default_config(), 1)


def test_external_backend_empty_or_non_numeric_output_is_failure():
    with pytest.raises(BackendError, match="produced no output"):
        ExternalBackend(_stub("pass")).time_inference(default_config(), 1)
    with pytest.raises(BackendError, match="not numeric"):
        ExternalBackend(_stub("print('{\"latency_ms\": \"fast\"}')")).time_inference(default_config(), 1)


def test_external_backend_that_cannot_start_is_failure():
    backend = ExternalBackend(["/nonexistent/measure"])
    with pytest.raises(BackendError, match="failed to start"):
        backend.time_inference(default_config(), 1)


def test_external_backend_needs_a_command():
    with pytest.raises(ValueError, match="command must be non-empty"):
        ExternalBackend([])


def test_external_backend_timeout_is_failure():
    backend = ExternalBackend(_stub("import time; time.sleep(5)"), timeout_s=0.5)
    with pytest.raises(BackendError, match="timed out"):
        backend.time_inference(default_config(), 1)


def test_simulated_backend_repeats_a_spec_measured_again():
    profile = DeviceProfile(noise_std_ms=1.0)
    spec_a, spec_b = sample(random.Random(1)), sample(random.Random(2))
    backend = SimulatedBackend(profile, seed=5)
    first = measure(spec_a, AgentConfig(), backend)
    measure(spec_b, AgentConfig(), backend)
    again = measure(spec_a, AgentConfig(), backend)
    assert [r.latency_ms_mean for r in first] == [r.latency_ms_mean for r in again]
    assert [r.latency_ms_std for r in first] == [r.latency_ms_std for r in again]


@pytest.mark.xfail(
    strict=True,
    reason="SimulatedBackend keeps the noise stream of the last (spec, batch size) across architectures; "
    "one backend call per batch size (ROADMAP item 7) restarts it for every measurement",
)
def test_equal_specs_measure_equal_at_one_batch_size(store):
    """Two lineages posting one spec read one latency, as they do with four batch sizes."""
    ids = [_insert_pending(store, lineage) for lineage in range(2)]
    backend = SimulatedBackend(DeviceProfile(noise_std_ms=1.0), seed=5)
    assert run_agent_loop(AgentConfig(batch_sizes=(1,)), store, threading.Event(), backend, once=True) == 2
    means = [store.get_measurements(arch_id, DEVICE)[0].latency_ms_mean for arch_id in ids]
    assert means[0] == means[1]
