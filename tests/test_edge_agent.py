from __future__ import annotations

import gc
import json
import math
import random
import sqlite3
import statistics
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_failing_trigger
from edgenas import cost_model
from edgenas.cost_model import DeviceProfile, synthetic_latency
from edgenas import edge_agent
from edgenas.edge_agent import (
    AgentConfig,
    BackendError,
    ExternalBackend,
    InferenceSample,
    SimulatedBackend,
    _moments,
    embedded_agent,
    measure,
    run_agent_loop,
)
from edgenas.search_space import default_config, encode, sample
from edgenas.store import SLOW_CHECK_S, ArchitectureRecord, Role, StoreError

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


@pytest.mark.parametrize("runs", [1, 10])
def test_measure_non_finite_sample_fails_only_its_batch_size(runs):
    class NonFiniteBackend:
        def time_inference(self, spec, batch_size):
            return InferenceSample(latency_ms={2: math.nan, 4: math.inf}.get(batch_size, 7.0))

    rows = measure(default_config(), AgentConfig(num_timed_runs=runs), NonFiniteBackend())
    assert [(r.batch_size, r.latency_ms_mean) for r in rows] == [(1, 7.0), (8, 7.0)]


_FINITE = st.floats(min_value=-1e300, max_value=1e300)
_SUBNORMAL = st.floats(min_value=-2.3e-308, max_value=2.3e-308)  # subnormals, zeros and the least normals
_SAMPLES = st.one_of(
    st.lists(st.one_of(_FINITE, _SUBNORMAL), min_size=1, max_size=20),
    st.builds(lambda x, k: [x] * k, st.one_of(_FINITE, _SUBNORMAL), st.integers(1, 20)),
    # clustered samples of one magnitude, where sum(x^2) and sum(x)^2 nearly cancel
    st.builds(
        lambda scale, xs: [x * scale for x in xs],
        st.sampled_from([1e-300, 1e-150, 1e-3, 1.0, 331.2, 1e150, 1e300]),
        st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=20),
    ),
)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev is correctly rounded from Python 3.11")
@settings(max_examples=500, deadline=None)
@given(_SAMPLES)
def test_moments_equal_statistics_bit_for_bit(values):
    expected = (statistics.mean(values), statistics.stdev(values) if len(values) > 1 else 0.0)
    assert [x.hex() for x in _moments(values)] == [x.hex() for x in expected]


def test_measure_derives_flops_and_param_count_once(monkeypatch):
    calls = {"flops_estimate": 0, "param_count": 0}
    for name in calls:
        original = getattr(cost_model, name)

        def counted(spec, name=name, original=original):
            calls[name] += 1
            return original(spec)

        monkeypatch.setattr(cost_model, name, counted)
    rows = measure(sample(random.Random(3)), AgentConfig(), SimulatedBackend(DeviceProfile(noise_std_ms=1.0)))
    assert len(rows) == 4
    assert calls == {"flops_estimate": 1, "param_count": 1}


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


def test_equal_specs_measure_equal_at_one_batch_size(store):
    """Two lineages posting one spec read one latency, as they do with four batch sizes."""
    ids = [_insert_pending(store, lineage) for lineage in range(2)]
    backend = SimulatedBackend(DeviceProfile(noise_std_ms=1.0), seed=5)
    assert run_agent_loop(AgentConfig(batch_sizes=(1,)), store, threading.Event(), backend, once=True) == 2
    means = [store.get_measurements(arch_id, DEVICE)[0].latency_ms_mean for arch_id in ids]
    assert means[0] == means[1]


@pytest.fixture
def hung_loop(monkeypatch):
    """run_agent_loop replaced by a loop that ignores its stop event until the test ends."""
    release = threading.Event()
    monkeypatch.setattr("edgenas.edge_agent.run_agent_loop", lambda config, store, stop, backend: release.wait())
    yield
    release.set()
    for thread in threading.enumerate():
        if thread.name == "embedded-agent":
            thread.join(timeout=5)
            assert not thread.is_alive()


def test_hung_embedded_agent_lets_the_block_error_through(store, quiet_profile, hung_loop):
    with pytest.raises(StoreError, match="^disk full$"):
        with embedded_agent(AgentConfig(), store, SimulatedBackend(quiet_profile), 0.05):
            raise StoreError("disk full")


def test_hung_embedded_agent_fails_a_block_that_succeeded(store, quiet_profile, hung_loop):
    with pytest.raises(TimeoutError, match=r"^embedded agent did not stop within 0\.05 s$"):
        with embedded_agent(AgentConfig(), store, SimulatedBackend(quiet_profile), 0.05):
            pass


@pytest.fixture
def polled(store, monkeypatch):
    """An event that each poll of store sets once it returns."""
    polled = threading.Event()
    original = store.poll_unmeasured

    def poll(*args):
        records = original(*args)
        polled.set()
        return records

    monkeypatch.setattr(store, "poll_unmeasured", poll)
    return polled


def test_leaving_the_block_stops_a_sleeping_embedded_agent(store, quiet_profile, polled):
    with embedded_agent(AgentConfig(poll_interval_ms=60_000), store, SimulatedBackend(quiet_profile), 30.0):
        assert polled.wait(5.0)  # the agent now sleeps its 60 s poll interval
        started = time.monotonic()
    assert time.monotonic() - started < 2.0


def test_a_post_wakes_an_embedded_agent_sleeping_its_poll(store, quiet_profile, polled):
    with embedded_agent(AgentConfig(poll_interval_ms=60_000), store, SimulatedBackend(quiet_profile), 30.0):
        assert polled.wait(5.0)  # the agent now sleeps its 60 s poll interval
        started = time.monotonic()
        architecture_id = _insert_pending(store)
        with store.wakeups.watch(architecture_id) as measured:
            while True:
                measured.clear()
                if len(store.get_measurements(architecture_id, DEVICE)) == 4 or not measured.wait(5.0):
                    break
        waited_s = time.monotonic() - started
    assert len(store.get_measurements(architecture_id, DEVICE)) == 4
    assert waited_s < 1.0


def test_a_raw_event_stop_returns_within_one_poll_interval(store, quiet_profile, polled):
    """A caller that only sets its own event, not embedded_agent, waits at most the agent's poll interval.

    Here the interval ends before the wait's first check for foreign commits.
    """
    stop = threading.Event()
    config = AgentConfig(poll_interval_ms=300)
    thread = threading.Thread(target=run_agent_loop, args=(config, store, stop, SimulatedBackend(quiet_profile)))
    thread.start()
    assert polled.wait(5.0)
    started = time.monotonic()
    stop.set()
    thread.join(5.0)
    assert not thread.is_alive()
    assert time.monotonic() - started < config.poll_interval_ms / 1000.0 + 0.5


def test_a_raw_event_stop_ends_an_idle_agents_wait_at_its_next_check(store, quiet_profile, polled):
    """With no interrupt and a 60 s poll interval, the wait's next check for foreign commits finds the stop."""
    stop = threading.Event()
    config = AgentConfig(poll_interval_ms=60_000)
    thread = threading.Thread(target=run_agent_loop, args=(config, store, stop, SimulatedBackend(quiet_profile)))
    thread.start()
    assert polled.wait(5.0)
    started = time.monotonic()
    stop.set()
    thread.join(5.0)
    assert not thread.is_alive()
    assert time.monotonic() - started < SLOW_CHECK_S + 0.5


@pytest.fixture
def poll_log(store, monkeypatch):
    """(start, rows returned) of each poll of store, in order."""
    log: list[tuple[float, int]] = []
    original = store.poll_unmeasured

    def poll(*args):
        started = time.monotonic()
        records = original(*args)
        log.append((started, len(records)))
        return records

    monkeypatch.setattr(store, "poll_unmeasured", poll)
    return log


def _wait_measured(store, architecture_ids, timeout_s=5.0):
    """Block until every architecture has its four measurement rows, or timeout_s passes."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(len(store.get_measurements(a, DEVICE)) == 4 for a in architecture_ids):
            return True
        time.sleep(0.005)
    return False


def test_a_post_starts_a_pass_no_sooner_than_the_pass_interval(store, quiet_profile, poll_log, monkeypatch):
    monkeypatch.setattr(edge_agent, "PASS_INTERVAL_S", 0.3)
    with embedded_agent(AgentConfig(poll_interval_ms=60_000), store, SimulatedBackend(quiet_profile), 30.0):
        deadline = time.monotonic() + 5.0
        while not poll_log and time.monotonic() < deadline:
            time.sleep(0.005)
        architecture_id = _insert_pending(store)  # at once: the first pass has just begun
        assert _wait_measured(store, [architecture_id])
    (first_started, _), (second_started, rows) = poll_log[:2]
    assert rows == 1
    # the post woke the 60 s wait, but the pass waited out the interval from the previous pass's start
    assert second_started - first_started >= 0.3


def test_a_burst_of_posts_reaches_one_pass(store, quiet_profile, poll_log, monkeypatch):
    monkeypatch.setattr(edge_agent, "PASS_INTERVAL_S", 0.0)
    monkeypatch.setattr(edge_agent, "POST_QUIET_S", 0.5)  # far longer than the gaps between the posts below
    with embedded_agent(AgentConfig(poll_interval_ms=60_000), store, SimulatedBackend(quiet_profile), 30.0):
        deadline = time.monotonic() + 5.0
        while not poll_log and time.monotonic() < deadline:
            time.sleep(0.005)
        posted = [_insert_pending(store, spec=sample(random.Random(seed))) for seed in range(3)]
        assert len(set(posted)) == 3
        assert _wait_measured(store, posted)
    assert [rows for _, rows in poll_log[1:2]] == [3]


def test_a_pass_waits_until_the_posts_pause(store, quiet_profile, poll_log, monkeypatch):
    monkeypatch.setattr(edge_agent, "PASS_INTERVAL_S", 0.0)
    monkeypatch.setattr(edge_agent, "POST_QUIET_S", 0.2)
    with embedded_agent(AgentConfig(poll_interval_ms=60_000), store, SimulatedBackend(quiet_profile), 30.0):
        deadline = time.monotonic() + 5.0
        while not poll_log and time.monotonic() < deadline:
            time.sleep(0.005)
        architecture_id = _insert_pending(store)
        posted_at = time.monotonic()
        assert _wait_measured(store, [architecture_id])
    (second_started, rows) = poll_log[1]
    assert rows == 1
    assert 0.2 <= second_started - posted_at < 2.0


def test_the_poll_interval_caps_the_hold(store, quiet_profile, poll_log, monkeypatch):
    """A post right after a pass begins is polled at the end of the 20 ms poll interval, not of the 0.3 s pass interval."""
    monkeypatch.setattr(edge_agent, "PASS_INTERVAL_S", 0.3)
    with embedded_agent(AgentConfig(poll_interval_ms=20), store, SimulatedBackend(quiet_profile), 30.0):
        deadline = time.monotonic() + 5.0
        while not poll_log and time.monotonic() < deadline:
            time.sleep(0.001)
        architecture_id = _insert_pending(store)  # at once: the first pass has just begun
        posted_at = time.monotonic()
        assert _wait_measured(store, [architecture_id])
    first_with_rows = next(started for started, rows in poll_log if rows)
    assert first_with_rows - posted_at < 0.1
