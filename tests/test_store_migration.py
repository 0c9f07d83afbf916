"""Upgrading a version-1 store: the schema it ends with, the rows it keeps, and how it fails.

Each version-1 store is built from the frozen text of the version-1 schema
(fixtures/schema_v1.sql) and rows written with raw SQL.
"""

from __future__ import annotations

import hashlib
import os
import re
import sqlite3
import threading
from pathlib import Path

import pytest

from conftest import make_v1_store
from edgenas import store as store_module
from edgenas.search_space import default_config, encode
from edgenas.store import SCHEMA_VERSION, Role, SchemaVersionError, Store, StoreError

BATCH_SIZES = (1, 2, 4, 8)
V1_TABLES = ("network_architecture", "edge_measurement", "benchmark_result", "run_metadata")
# (id, run_id, lineage_id, device_targets, created_at)
V1_ARCHITECTURES = (
    (1, "r1", 0, '["dev-a", "dev-b"]', "2026-01-02T00:00:00.000+00:00"),
    (2, "r1", 1, '["dev-a"]', "2026-01-01T00:00:00.000+00:00"),
    (3, "r2", 0, '["dev-b"]', "2026-01-03T00:00:00.000+00:00"),
)
V1_MEASURED = {1: BATCH_SIZES, 2: (1, 2)}  # on dev-a: architecture 1 complete, architecture 2 partly


def _populate(conn: sqlite3.Connection) -> None:
    document = encode(default_config())
    for arch_id, run_id, lineage, targets, created_at in V1_ARCHITECTURES:
        conn.execute(
            "INSERT INTO network_architecture VALUES (?, ?, ?, ?, ?, ?)",
            (arch_id, run_id, lineage, document, targets, created_at),
        )
    for arch_id, batch_sizes in V1_MEASURED.items():
        for batch_size in batch_sizes:
            conn.execute(
                "INSERT INTO edge_measurement (architecture_id, device_type, batch_size, latency_ms_mean,"
                " latency_ms_std, num_runs, num_warmup, measured_at) VALUES (?, 'dev-a', ?, ?, 0.1, 10, 3, ?)",
                (arch_id, batch_size, 10.0 * batch_size, "2026-01-04T00:00:00.000+00:00"),
            )
    conn.execute(
        "INSERT INTO benchmark_result (architecture_id, run_id, epoch, val_loss, inference_time_ms, score,"
        " split, created_at) VALUES (1, 'r1', 2, 0.08, 30.0, 110.0, 'validation', '2026-01-05T00:00:00.000+00:00')"
    )
    conn.execute("INSERT INTO run_metadata VALUES ('r1', '{}', 7, '2026-01-01T00:00:00.000+00:00', NULL, NULL)")


def _v1_store(path: Path, extra_sql: str = "") -> str:
    def populate(conn):
        _populate(conn)
        if extra_sql:
            conn.execute(extra_sql)

    return make_v1_store(path, populate)


def _query(path: str, sql: str) -> list[tuple]:
    conn = sqlite3.connect(path)
    try:
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


def _normalised(sql: str | None) -> str | None:
    return " ".join(re.sub(r"--[^\n]*", "", sql).split()) if sql else sql


def _schema(path: str) -> tuple[list[tuple], int]:
    """The sqlite_master entries (type, name, table, SQL without comments or spacing) and user_version."""
    entries = sorted(
        (kind, name, table, _normalised(sql))
        for kind, name, table, sql in _query(path, "SELECT type, name, tbl_name, sql FROM sqlite_master")
    )
    return entries, _query(path, "PRAGMA user_version")[0][0]


def _rows(path: str) -> dict[str, list[tuple]]:
    return {table: _query(path, f"SELECT * FROM {table} ORDER BY rowid") for table in V1_TABLES}


def _open_rows(path: str) -> list[tuple]:
    return _query(path, "SELECT device_type, architecture_id, posted_at FROM pending_measurement")


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_migrated_schema_matches_a_fresh_store(tmp_path):
    path = _v1_store(tmp_path / "v1.sqlite")
    Store(path).close()
    fresh = str(tmp_path / "fresh.sqlite")
    Store.initialize(fresh).close()
    assert _schema(path) == _schema(fresh)
    assert _schema(path)[1] == SCHEMA_VERSION == 2
    assert "idx_architecture_created" not in {name for _, name, _, _ in _schema(path)[0]}


def test_migration_keeps_every_v1_row_and_opens_one_row_per_target(tmp_path):
    path = _v1_store(tmp_path / "v1.sqlite")
    before = _rows(path)
    with Store(path) as store:
        assert _rows(path) == before
        assert sorted(_open_rows(path)) == [
            ("dev-a", 1, "2026-01-02T00:00:00.000+00:00"),
            ("dev-a", 2, "2026-01-01T00:00:00.000+00:00"),
            ("dev-b", 1, "2026-01-02T00:00:00.000+00:00"),
            ("dev-b", 3, "2026-01-03T00:00:00.000+00:00"),
        ]
        # the first agent poll resolves what the version-1 store had measured in full
        assert [r.id for r in store.poll_unmeasured(Role.EDGE_AGENT, "dev-a", BATCH_SIZES)] == [2]
        assert sorted(row[:2] for row in _open_rows(path)) == [("dev-a", 2), ("dev-b", 1), ("dev-b", 3)]
        assert [r.id for r in store.poll_unmeasured(Role.READER, "dev-b", BATCH_SIZES)] == [1, 3]
    assert _rows(path) == before


def test_a_second_open_changes_nothing(tmp_path):
    path = _v1_store(tmp_path / "v1.sqlite")
    Store(path).close()
    migrated = (_digest(path), _schema(path), _rows(path), _open_rows(path))
    Store(path).close()
    Store.initialize(path).close()
    assert (_digest(path), _schema(path), _rows(path), _open_rows(path)) == migrated
    assert os.listdir(tmp_path) == ["v1.sqlite"]


@pytest.mark.parametrize(
    "extra_sql,message",
    [
        ("CREATE TABLE pending_measurement (note TEXT)", "table pending_measurement already exists"),
        ("DROP INDEX idx_architecture_created", "no such index: idx_architecture_created"),  # the last step fails
    ],
    ids=["table_exists", "index_missing"],
)
def test_failed_migration_leaves_the_file_byte_identical(tmp_path, extra_sql, message):
    path = _v1_store(tmp_path / "v1.sqlite", extra_sql)
    before = _digest(path)
    with pytest.raises(StoreError, match=message):
        Store(path)
    assert _digest(path) == before
    assert _query(path, "PRAGMA user_version") == [(1,)]
    assert os.listdir(tmp_path) == ["v1.sqlite"]  # no -wal or -shm file beside it


def test_migration_step_that_raises_outside_sqlite_closes_the_handle(tmp_path, monkeypatch):
    path = _v1_store(tmp_path / "v1.sqlite")
    before = _digest(path)
    monkeypatch.setattr(store_module, "MIGRATIONS", ((("no_such_object",), ()),))  # not in schema.sql
    with pytest.raises(KeyError, match="no_such_object") as raised:
        Store(path)
    # raised still holds the exception, and with it every frame of the failed open
    assert os.listdir(tmp_path) == ["v1.sqlite"]  # no -wal or -shm file beside it
    assert _digest(path) == before


def test_newer_store_refused_byte_identical(tmp_path):
    path = _v1_store(tmp_path / "v1.sqlite")
    conn = sqlite3.connect(path)
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.close()
    before = _digest(path)
    with pytest.raises(SchemaVersionError, match="newer"):
        Store.initialize(path)
    assert _digest(path) == before


@pytest.mark.parametrize("attempt", range(3))
def test_concurrent_opens_migrate_once(tmp_path, attempt):
    path = _v1_store(tmp_path / f"v1-{attempt}.sqlite")
    barrier = threading.Barrier(2)
    handles: list[Store] = []
    errors: list[Exception] = []

    def open_store():
        barrier.wait()
        try:
            handles.append(Store(path))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=open_store) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert [handle.schema_version for handle in handles] == [2, 2]
    for handle in handles:
        handle.close()
    assert sorted(row[:2] for row in _open_rows(path)) == [("dev-a", 1), ("dev-a", 2), ("dev-b", 1), ("dev-b", 3)]
