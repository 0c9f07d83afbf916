from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from pathlib import Path

import pytest

from edgenas.search_space import default_config, encode
from edgenas.store import (
    ArchitectureRecord,
    BenchmarkResult,
    ConsistencyError,
    EdgeMeasurement,
    PermissionDeniedError,
    Role,
    SchemaVersionError,
    Store,
    StoreError,
    UnknownArchitectureError,
    ValidationError,
)

DEVICE = "sim-edge"


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
    polled = store.poll_unmeasured(Role.EDGE_AGENT, DEVICE)
    assert [r.id for r in polled] == [arch_id]


def test_insert_architecture_idempotent(store):
    first = store.insert_architecture(Role.OPTIMIZER, _arch())
    second = store.insert_architecture(Role.OPTIMIZER, _arch())
    assert first == second
    assert len(store.poll_unmeasured(Role.READER, DEVICE)) == 1


def test_insert_architecture_rejects_bad_document(store):
    record = _arch()
    record.spec_document = '{"embed_dim": 24}'
    with pytest.raises(ValidationError, match="patch_size"):
        store.insert_architecture(Role.OPTIMIZER, record)


def test_insert_architecture_rejects_empty_targets(store):
    with pytest.raises(ValidationError, match="device_targets"):
        store.insert_architecture(Role.OPTIMIZER, _arch(targets=()))


def test_poll_excludes_complete_measurement_sets(store):
    arch_id = store.insert_architecture(Role.OPTIMIZER, _arch())
    for batch in (1, 2):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch))
    assert len(store.poll_unmeasured(Role.READER, DEVICE)) == 1  # incomplete set
    for batch in (4, 8):
        store.insert_measurement(Role.EDGE_AGENT, _measurement(arch_id, batch))
    assert store.poll_unmeasured(Role.READER, DEVICE) == []


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
    polled = store.poll_unmeasured(Role.EDGE_AGENT, DEVICE)
    assert [r.id for r in polled] == [c, b]
    other = store.poll_unmeasured(Role.EDGE_AGENT, "other-device")
    assert [r.id for r in other] == [c, a]


def test_poll_respects_limit(store):
    for lineage in range(5):
        store.insert_architecture(Role.OPTIMIZER, _arch(lineage=lineage))
    assert len(store.poll_unmeasured(Role.READER, DEVICE, limit=3)) == 3


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
        assert reopened.get_architecture(arch_id) is not None
        assert len(reopened.poll_unmeasured(Role.READER, DEVICE)) == 1


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
        assert again.schema_version == 1
        assert len(again.poll_unmeasured(Role.READER, DEVICE)) == 1


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
                for record in store.poll_unmeasured(Role.READER, DEVICE):
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
    assert store.poll_unmeasured(Role.READER, DEVICE) == []  # all 100 became complete


def test_cross_handle_visibility(tmp_path):
    path = str(tmp_path / "shared.sqlite")
    with Store.initialize(path) as a, Store(path) as b:
        arch_id = a.insert_architecture(Role.OPTIMIZER, _arch())
        assert [r.id for r in b.poll_unmeasured(Role.READER, DEVICE)] == [arch_id]


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
        assert store.schema_version == 1
