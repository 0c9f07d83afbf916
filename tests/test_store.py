from __future__ import annotations

import ast
import hashlib
import os
import re
import sqlite3
import statistics
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import edgenas
from conftest import add_failing_trigger, make_v1_store
from edgenas.search_space import default_config, encode
from edgenas.store import (
    ArchitectureRecord,
    BenchmarkResult,
    ConsistencyError,
    EdgeMeasurement,
    PermissionDeniedError,
    FAST_CHECK_S,
    POSTS,
    SLOW_CHECK_S,
    Role,
    RunMetadata,
    SchemaVersionError,
    Store,
    StoreError,
    UnknownArchitectureError,
    ValidationError,
    Wakeups,
)

DEVICE = "sim-edge"
BATCH_SIZES = (1, 2, 4, 8)


def _arch(run_id="r1", lineage=0, spec=None, targets=(DEVICE,)):
    return ArchitectureRecord(
        run_id=run_id,
        lineage_id=lineage,
        spec_document=encode(spec or default_config()),
        device_targets=list(targets),
    )


def _measurement(arch_id, batch_size=1, mean=10.0, device=DEVICE, **kwargs):
    defaults = dict(latency_ms_std=0.1, num_runs=10, num_warmup=3)
    defaults.update(kwargs)
    return EdgeMeasurement(
        architecture_id=arch_id, device_type=device, batch_size=batch_size,
        latency_ms_mean=mean, **defaults,
    )


def _result(arch_id, val_loss=0.0807, time_ms=332.11, split="validation", score=None, run_id="r1"):
    return BenchmarkResult(
        architecture_id=arch_id, run_id=run_id, epoch=2, val_loss=val_loss,
        inference_time_ms=time_ms, score=score if score is not None else val_loss * 1000 + time_ms,
        split=split,
    )


def test_permission_matrix_all_nine_combinations(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    inserts = {
        "network_architecture": lambda role: store.insert_architecture(role, _arch(lineage=9)),
        "edge_measurement": lambda role: store.insert_measurement(role, _measurement(arch_id)),
        "benchmark_result": lambda role: store.insert_benchmark_result(role, _result(arch_id)),
    }
    allowed = {
        ("optimizer", "network_architecture"): True,
        ("optimizer", "edge_measurement"): False,
        ("optimizer", "benchmark_result"): True,
        ("edge_agent", "network_architecture"): False,
        ("edge_agent", "edge_measurement"): True,
        ("edge_agent", "benchmark_result"): False,
        ("reader", "network_architecture"): False,
        ("reader", "edge_measurement"): False,
        ("reader", "benchmark_result"): False,
    }
    for role in Role:
        for table, insert in inserts.items():
            if allowed[(role.value, table)]:
                insert(role)
            else:
                with pytest.raises(PermissionDeniedError):
                    insert(role)


def test_insert_architecture_visible_to_poll(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    polled = store.poll_unmeasured(Role.EDGE_AGENT, DEVICE, BATCH_SIZES)
    assert [r.id for r in polled] == [arch_id]


def test_insert_architecture_idempotent(store):
    first = store.insert_architecture(Role.OPTIMIZER, _arch())
    second = store.insert_architecture(Role.OPTIMIZER, _arch())
    assert first == second
    assert len(store.poll_unmeasured(Role.READER, DEVICE, BATCH_SIZES)) == 1


def test_repost_merges_device_targets_and_writes_only_a_change(store):
    first = store.insert_architecture(Role.OPTIMIZER, _arch(targets=("dev-a",)))
    assert store.insert_architecture(Role.OPTIMIZER, _arch(targets=("dev-b",))) == first
    for device in ("dev-a", "dev-b"):
        assert [(r.id, r.device_targets) for r in store.poll_unmeasured(Role.READER, device, BATCH_SIZES)] == [
            (first, ["dev-a", "dev-b"])
        ]
    conn = sqlite3.connect(store.path)
    try:
        conn.execute(
            "CREATE TRIGGER frozen BEFORE UPDATE ON network_architecture BEGIN SELECT RAISE(ABORT, 'updated'); END"
        )
        conn.commit()
    finally:
        conn.close()
    assert store.insert_architecture(Role.OPTIMIZER, _arch(targets=("dev-b", "dev-a"))) == first  # no new target


@pytest.mark.parametrize(
    "document,field",
    [('{"embed_dim": 24}', "patch_size"), (encode(replace(default_config(), mlp_ratio=7)), "mlp_ratio")],
    ids=["undecodable", "out_of_range"],
)
def test_insert_architecture_rejects_bad_document(store, document, field):
    record = _arch()
    record.spec_document = document
    with pytest.raises(ValidationError, match=field):
        store.insert_architecture(Role.OPTIMIZER, record)


def test_insert_architecture_rejects_empty_targets(store):
    with pytest.raises(ValidationError, match="device_targets"):
        store.insert_architecture(Role.OPTIMIZER, _arch(targets=()))


def test_poll_excludes_complete_measurement_sets(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    for batch in (1, 2):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch))
    assert len(store.poll_unmeasured(Role.READER, DEVICE, BATCH_SIZES)) == 1  # incomplete set
    for batch in (4, 8):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch))
    assert store.poll_unmeasured(Role.READER, DEVICE, BATCH_SIZES) == []


def test_poll_filters_by_device_type_and_orders_by_created_at(store):
    a = store.insert_architecture(
        Role.OPTIMIZER, ArchitectureRecord("r1", 0, encode(default_config()), ["other-device"], created_at="2026-01-02T00:00:00.000+00:00")
    )
    b = store.insert_architecture(
        Role.OPTIMIZER, ArchitectureRecord("r1", 1, encode(default_config()), [DEVICE], created_at="2026-01-03T00:00:00.000+00:00")
    )
    c = store.insert_architecture(
        Role.OPTIMIZER, ArchitectureRecord("r1", 2, encode(default_config()), [DEVICE, "other-device"], created_at="2026-01-01T00:00:00.000+00:00")
    )
    polled = store.poll_unmeasured(Role.EDGE_AGENT, DEVICE, BATCH_SIZES)
    assert [r.id for r in polled] == [c, b]
    other = store.poll_unmeasured(Role.EDGE_AGENT, "other-device", BATCH_SIZES)
    assert [r.id for r in other] == [c, a]


def _open_rows(store) -> list[tuple[str, int]]:
    """The store's open (device, architecture) rows, read through a connection of its own."""
    conn = sqlite3.connect(store.path)
    try:
        return conn.execute("SELECT device_type, architecture_id FROM pending_measurement ORDER BY 1, 2").fetchall()
    finally:
        conn.close()


def test_only_the_agent_poll_resolves_open_rows(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    for batch in BATCH_SIZES:
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch))
    for role in (Role.READER, Role.OPTIMIZER):
        assert store.poll_unmeasured(role, DEVICE, BATCH_SIZES) == []
        assert _open_rows(store) == [(DEVICE, arch_id)]
    assert store.poll_unmeasured(Role.EDGE_AGENT, DEVICE, BATCH_SIZES) == []
    assert _open_rows(store) == []


def test_agent_poll_resolves_only_its_device_rows_complete_at_its_batch_sizes(store):
    both = store.insert_architecture(Role.OPTIMIZER, _arch(lineage=0, targets=(DEVICE, "dev-b")))
    partial = store.insert_architecture(Role.OPTIMIZER, _arch(lineage=1))
    for batch in BATCH_SIZES:
        for device in (DEVICE, "dev-b"):
            store.insert_measurement(Role.EDGE_AGENT, _measurement(both, batch, device=device))
    for batch in (1, 2):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(partial, batch))
    assert [r.id for r in store.poll_unmeasured(Role.EDGE_AGENT, DEVICE, BATCH_SIZES)] == [partial]
    assert _open_rows(store) == [("dev-b", both), (DEVICE, partial)]  # a partly measured one stays open
    assert store.poll_unmeasured(Role.EDGE_AGENT, DEVICE, (1, 2)) == []  # complete at a smaller set
    assert _open_rows(store) == [("dev-b", both)]
    # a row resolved at one batch-size set does not come back for a larger one
    assert store.poll_unmeasured(Role.EDGE_AGENT, DEVICE, BATCH_SIZES) == []


def test_merge_reopens_the_added_device_only(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch(targets=("dev-a",)))
    for batch in BATCH_SIZES:
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch, device="dev-a"))
    store.poll_unmeasured(Role.EDGE_AGENT, "dev-a", BATCH_SIZES)
    assert _open_rows(store) == []
    store.insert_architecture(Role.OPTIMIZER, _arch(targets=("dev-a", "dev-b")))
    assert _open_rows(store) == [("dev-b", arch_id)]
    assert [r.id for r in store.poll_unmeasured(Role.EDGE_AGENT, "dev-b", BATCH_SIZES)] == [arch_id]
    assert store.poll_unmeasured(Role.EDGE_AGENT, "dev-a", BATCH_SIZES) == []


@pytest.mark.parametrize("role", list(Role), ids=[r.value for r in Role])
def test_poll_searches_open_rows_by_key_and_never_scans(store, role):
    for lineage in range(3):
        store.insert_architecture(Role.OPTIMIZER, _arch(lineage=lineage))
    statements: list[str] = []
    store._conn.set_trace_callback(statements.append)  # statements arrive with their parameters bound
    try:
        store.poll_unmeasured(role, DEVICE, BATCH_SIZES)
    finally:
        store._conn.set_trace_callback(None)
    queries = [s for s in statements if s.lstrip().upper().startswith(("SELECT", "DELETE"))]
    assert len(queries) == (2 if role == Role.EDGE_AGENT else 1)
    conn = sqlite3.connect(store.path)
    try:
        for query in queries:
            plan = [row[3] for row in conn.execute("EXPLAIN QUERY PLAN " + query)]
            assert plan[0] == "SEARCH pending_measurement USING PRIMARY KEY (device_type=?)", plan
            assert not [step for step in plan if step.startswith("SCAN")], plan
    finally:
        conn.close()


def test_remeasurement_last_writer_wins(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, 1, mean=10.0))
    store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, 1, mean=12.5))
    rows = store.get_measurements(arch_id, DEVICE)
    assert len(rows) == 1
    assert rows[0].latency_ms_mean == 12.5


def test_measurement_unknown_architecture_fails(store):
    with pytest.raises(UnknownArchitectureError):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(999))


def test_measurement_validation(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    with pytest.raises(ValidationError):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, mean=0.0))
    with pytest.raises(ValidationError):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch_size=0))


def test_get_measurements_sorted_and_scoped(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch(targets=(DEVICE, "gpu-x")))
    for batch in (8, 1, 4, 2):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch))
    store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, 1, device="gpu-x"))
    rows = store.get_measurements(arch_id, DEVICE)
    assert [m.batch_size for m in rows] == [1, 2, 4, 8]
    assert store.get_measurements(arch_id, "gpu-x")[0].device_type == "gpu-x"
    assert store.get_measurements(999, DEVICE) == []


def test_benchmark_consistency_accepts_paper_row(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    store.insert_benchmark_result(Role.OPTIMIZER, _result(arch_id, 0.0807, 332.11, score=412.81))


def test_benchmark_consistency_rejects_wrong_score(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    with pytest.raises(ConsistencyError):
        store.insert_benchmark_result(Role.OPTIMIZER, _result(arch_id, 0.0807, 332.11, score=999.0))


def test_benchmark_rejects_unknown_split_and_architecture(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    with pytest.raises(ValidationError):
        store.insert_benchmark_result(Role.OPTIMIZER, _result(arch_id, split="train"))
    with pytest.raises(UnknownArchitectureError):
        store.insert_benchmark_result(Role.OPTIMIZER, _result(12345))


def test_query_results_join_and_empty_run(store):
    assert store.query_results("nope") == []
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    store.insert_benchmark_result(Role.OPTIMIZER, _result(arch_id))
    rows = store.query_results("r1")
    assert len(rows) == 1
    result, architecture = rows[0]
    assert result.architecture_id == architecture.id == arch_id
    assert architecture.spec_document == encode(default_config())


def test_run_metadata_roundtrip_and_listing(store):
    from edgenas.store import RunMetadata

    store.upsert_run_metadata(Role.OPTIMIZER, RunMetadata("runA", "{}", seed=7))
    store.upsert_run_metadata(Role.OPTIMIZER, RunMetadata("runA", '{"x": 1}', seed=7, finished_at="t"))
    metadata = store.get_run_metadata("runA")
    assert metadata.config_document == '{"x": 1}'
    assert metadata.finished_at == "t"
    assert store.list_run_ids() == ["runA"]
    with pytest.raises(PermissionDeniedError):
        store.upsert_run_metadata(Role.READER, RunMetadata("runB", "{}"))


def test_durability_across_reopen(tmp_path):
    path = str(tmp_path / "durable.sqlite")
    with Store.initialize(path) as store:
        arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    with Store(path) as reopened:
        assert [r.id for r in reopened.poll_unmeasured(Role.READER, DEVICE, BATCH_SIZES)] == [arch_id]


def test_every_open_commits_at_synchronous_normal(tmp_path):
    """The setting is per connection, so a new, a reopened and a migrated handle each carry it."""
    path = str(tmp_path / "new.sqlite")
    migrated = make_v1_store(tmp_path / "v1.sqlite")
    with Store.initialize(path) as new, Store(path) as reopened, Store(migrated) as upgraded:
        for store in (new, reopened, upgraded):
            assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
        assert upgraded.schema_version == 2


def test_open_uninitialized_store_fails(tmp_path):
    with pytest.raises(StoreError, match="init-store"):
        Store(str(tmp_path / "missing.sqlite"))


def test_newer_schema_version_refused(tmp_path):
    path = str(tmp_path / "future.sqlite")
    Store.initialize(path).close()
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA user_version = 99")
    conn.close()
    with pytest.raises(SchemaVersionError, match="99"):
        Store(path)


def test_foreign_sqlite_file_refused_unmodified(tmp_path):
    path = str(tmp_path / "foreign.sqlite")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE notes (body TEXT)")
    conn.commit()
    conn.close()
    with pytest.raises(SchemaVersionError, match="unversioned"):
        Store(path)
    conn = sqlite3.connect(path)
    try:
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "delete"
    finally:
        conn.close()
    assert os.listdir(tmp_path) == ["foreign.sqlite"]  # no -wal or -shm file beside it


def test_initialize_idempotent(tmp_path):
    path = str(tmp_path / "twice.sqlite")
    with Store.initialize(path) as store:
        store.insert_architecture(Role.OPTIMIZER, _arch())
    with Store.initialize(path) as again:
        assert again.schema_version == 2
        assert len(again.poll_unmeasured(Role.READER, DEVICE, BATCH_SIZES)) == 1


def test_concurrent_writers_and_pollers(store):
    """Polls observe only complete records while writers hammer the store."""
    errors: list[Exception] = []

    def writer(worker):
        try:
            for i in range(25):
                arch_id = store.insert_architecture(Role.OPTIMIZER, _arch(run_id=f"w{worker}", lineage=i))
                for batch in (1, 2, 4, 8):
                    store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def poller():
        try:
            for _ in range(50):
                for record in store.poll_unmeasured(Role.READER, DEVICE, BATCH_SIZES):
                    assert record.spec_document  # never a partial row
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    threads.append(threading.Thread(target=poller))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert store.poll_unmeasured(Role.READER, DEVICE, BATCH_SIZES) == []  # all 100 became complete


def test_cross_handle_visibility(tmp_path):
    path = str(tmp_path / "shared.sqlite")
    with Store.initialize(path) as a, Store(path) as b:
        arch_id = a.insert_architecture(Role.OPTIMIZER, _arch())
        assert [r.id for r in b.poll_unmeasured(Role.READER, DEVICE, BATCH_SIZES)] == [arch_id]


WAKE_THREADS = 4  # of each kind: more threads than the cores of a small CI host
WAKE_ROUNDS = 20_000  # with the watch lock removed, each of 4 runs failed (of the test that counted posts: 8 of 8)


def test_wakeups_lose_no_post_and_leave_no_watcher_under_thread_churn():
    """Threads watch the posts or one architecture and signal it: no signal misses a watcher in its block, none is left."""
    wakeups = Wakeups(lambda: False)
    errors: list[Exception] = []
    wakes = {POSTS: wakeups.posted, 7: lambda: wakeups.measured(7)}

    def watch(key):
        try:
            for _ in range(WAKE_ROUNDS):
                with wakeups.watch(key) as signalled:
                    wakes[key]()  # while the other threads of key enter, leave and signal
                    if not signalled.is_set():
                        raise AssertionError(f"a signal of {key} missed a watcher in its block")
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=watch, args=(key,)) for _ in range(WAKE_THREADS) for key in wakes]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert wakeups.watched == 0
    assert POSTS not in wakeups._watchers  # watched counts architectures only


def test_posts_and_measurements_wake_only_their_own_watchers():
    """POSTS collides with no architecture id, 0 included, and only architectures count as watched."""
    wakeups = Wakeups(lambda: False)
    with wakeups.watch(POSTS) as posted, wakeups.watch(0) as measured:
        assert wakeups.watched == 1
        for wake, woken in ((wakeups.posted, posted), (lambda: wakeups.measured(0), measured), (wakeups.interrupt, posted)):
            posted.clear()
            measured.clear()
            wake()
            assert [posted.is_set(), measured.is_set()] == [woken is posted, woken is measured]
    assert wakeups.watched == 0


def test_an_interrupt_ends_a_posts_wait_at_once():
    wakeups = Wakeups(lambda: False)
    with wakeups.watch(POSTS) as posted:
        waiter = threading.Thread(target=posted.wait, args=(60.0,))
        waiter.start()
        time.sleep(0.05)
        assert waiter.is_alive()
        started = time.monotonic()
        wakeups.interrupt()
        waiter.join(5.0)
    assert not waiter.is_alive()
    assert time.monotonic() - started < 2.0


def test_only_foreign_commits_reach_a_handles_checker(tmp_path):
    """A handle's own commits never move PRAGMA data_version; another handle's commit wakes every waiter."""
    path = str(tmp_path / "shared.sqlite")
    with Store.initialize(path) as store, Store(path) as other:
        watched, written = (store.insert_architecture(Role.OPTIMIZER, _arch(lineage=i)) for i in range(2))
        with store.wakeups.watch(watched) as measured, store.wakeups.watch(POSTS) as posted:
            for batch_size in BATCH_SIZES:
                store.insert_measurement(Role.EDGE_AGENT, _measurement(written, batch_size))
            store.insert_benchmark_result(Role.OPTIMIZER, _result(written))
            assert not measured.wait(3 * SLOW_CHECK_S)
            assert not posted.is_set()
            other.insert_measurement(Role.EDGE_AGENT, _measurement(written, 1, mean=11.0))
            assert measured.wait(5.0)
            assert posted.is_set()
            measured.clear()  # the checker now looks every FAST_CHECK_S
            posted.clear()
            store.insert_measurement(Role.EDGE_AGENT, _measurement(written, 2, mean=12.0))
            assert not measured.wait(20 * FAST_CHECK_S)
            assert not posted.is_set()


def test_closing_a_handle_while_threads_wait(tmp_path, monkeypatch):
    """The waiters go on checking after close(): no thread raises, and each wait ends only on its stop."""
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    path = str(tmp_path / "shared.sqlite")
    store = Store.initialize(path)
    architecture_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    stop = threading.Event()

    def watch(key, timeout_s):
        with store.wakeups.watch(key, stop) as signalled:
            while not stop.is_set():
                signalled.clear()
                signalled.wait(timeout_s)

    waiters = [threading.Thread(target=watch, args=(POSTS, 10.0)), threading.Thread(target=watch, args=(architecture_id, SLOW_CHECK_S))]
    try:
        for waiter in waiters:
            waiter.start()
        with Store(path) as other:  # a foreign commit: the waiters then check every FAST_CHECK_S
            other.upsert_run_metadata(Role.OPTIMIZER, RunMetadata("r1", "{}"))
        time.sleep(2 * SLOW_CHECK_S)
        store.close()
        time.sleep(3 * SLOW_CHECK_S)
        assert all(waiter.is_alive() for waiter in waiters)
        stopped = time.monotonic()
    finally:
        stop.set()
        store.wakeups.interrupt()
        for waiter in waiters:
            waiter.join(5.0)
    assert not any(waiter.is_alive() for waiter in waiters)
    assert time.monotonic() - stopped < 2 * SLOW_CHECK_S + 1.0
    assert raised == []


CHECK_WATCHERS = 8


def test_waiting_threads_share_their_checks_for_foreign_commits():
    """However many threads wait, one checks at a time, at one shared period; no thread is started to check."""
    calls: list[float] = []
    in_flight: list[None] = []
    overlapped: list[bool] = []
    committed_at: list[int] = []
    commit = threading.Event()

    def foreign_commit():
        in_flight.append(None)
        overlapped.append(len(in_flight) > 1)
        calls.append(time.monotonic())
        time.sleep(0.001)  # a second check in the meantime would overlap this one
        in_flight.pop()
        if not commit.is_set():
            return False
        commit.clear()
        committed_at.append(len(calls) - 1)
        return True

    wakeups = Wakeups(foreign_commit)
    stop = threading.Event()
    woken: list[int | None] = []

    def watch(key):
        with wakeups.watch(key) as signalled:
            while not stop.is_set():
                signalled.clear()
                if signalled.wait(60.0) and not stop.is_set():
                    woken.append(key)

    keys = [*range(CHECK_WATCHERS), POSTS]
    waiters = [threading.Thread(target=watch, args=(key,)) for key in keys]
    before = set(threading.enumerate())
    try:
        started = time.monotonic()
        for waiter in waiters:
            waiter.start()
        time.sleep(1.0)
        slow_calls, slow_s = len(calls), time.monotonic() - started
        assert set(threading.enumerate()) == before | set(waiters)
        commit.set()
        deadline = time.monotonic() + 5.0
        while not committed_at and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        assert set(threading.enumerate()) == before | set(waiters)
    finally:
        stop.set()
        for i in range(CHECK_WATCHERS):
            wakeups.measured(i)
        wakeups.interrupt()
        for waiter in waiters:
            waiter.join(5.0)
    assert not any(waiter.is_alive() for waiter in waiters)
    assert slow_calls <= slow_s / SLOW_CHECK_S + 2
    assert not any(overlapped)
    assert sorted(woken, key=str) == sorted(keys, key=str)  # the one foreign commit woke each watcher once
    [first_fast] = committed_at
    fast = calls[first_fast:]
    gaps = [b - a for a, b in zip(fast, fast[1:])]
    assert 10 <= len(gaps) <= (fast[-1] - fast[0]) / FAST_CHECK_S + 2  # once per waiter would make about 9 times as many
    assert statistics.median(gaps) < 3 * FAST_CHECK_S


def _foreign_file(tmp_path, kind: str) -> str:
    """A file no store made: a text file, or SQLite with one unrelated table at user_version 0."""
    path = tmp_path / f"{kind}.file"
    if kind == "text":
        path.write_text("not a database\n" * 200)
    else:
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE notes (body TEXT)")
        conn.commit()
        conn.close()
    return str(path)


def test_non_sqlite_file_refused(tmp_path):
    with pytest.raises(StoreError, match="not an SQLite database"):
        Store(_foreign_file(tmp_path, "text"))


@pytest.mark.parametrize("kind,message", [("text", "not an SQLite database"), ("sqlite", "unversioned")])
def test_initialize_refuses_foreign_file_byte_identical(tmp_path, kind, message):
    path = _foreign_file(tmp_path, kind)
    before = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    with pytest.raises(StoreError, match=message):
        Store.initialize(path)
    assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == before
    assert os.listdir(tmp_path) == [os.path.basename(path)]  # no -wal or -shm file beside it


def test_empty_file_needs_create(tmp_path):
    path = tmp_path / "empty.sqlite"
    path.write_bytes(b"")
    with pytest.raises(StoreError, match="init-store"):
        Store(str(path))
    with Store.initialize(str(path)) as store:
        assert store.schema_version == 2


def test_directory_path_is_store_error(tmp_path):
    with pytest.raises(StoreError, match=re.escape(f"store at {tmp_path}: ")):
        Store(str(tmp_path), create=True)


def test_missing_parent_directory_is_store_error(tmp_path):
    path = tmp_path / "missing" / "x.sqlite"
    with pytest.raises(StoreError, match="unable to open"):
        Store(str(path), create=True)
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.get_measurements(1, DEVICE),
        lambda s: s.list_run_ids(),
        lambda s: s.schema_version,
    ],
    ids=["get_measurements", "list_run_ids", "schema_version"],
)
def test_closed_store_is_store_error(store, call):
    store.close()
    with pytest.raises(StoreError):
        call(store)


def test_write_refused_by_sqlite_is_store_error(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    add_failing_trigger(store.path, "edge_measurement")
    with pytest.raises(StoreError, match=re.escape(f"store at {store.path}: no such function: boom")):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id))
    assert store.get_measurements(arch_id, DEVICE) == []


def test_only_the_store_imports_sqlite3():
    """SQLite errors stay behind the store only while no other module can name them."""
    importers = []
    for path in sorted(Path(edgenas.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name.split(".")[0] == "sqlite3" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["store.py"]


def test_store_imports_only_the_optimizer_and_the_search_space():
    """The store sits below the agent and the coordinator; an import of either, even lazy, is a cycle."""
    source = Path(edgenas.__file__).parent / "store.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # a relative import is one from the edgenas package
            base = ".".join(filter(None, ["edgenas" if node.level else "", node.module]))
            names = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        imported.update(name.split(".")[1] for name in names if name.startswith("edgenas."))
    assert imported <= {"optimizer", "search_space"}
