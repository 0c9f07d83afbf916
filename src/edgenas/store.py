"""Shared relational store: the only channel between optimizer and edge agent.

Backed by a single-file SQLite database so that desk-scale runs need zero
ops. It relies on SQLite beyond the DDL in schema.sql: triggers expand an
architecture's device targets with json_each, insert_architecture uses
INSERT OR IGNORE, and the user_version, journal_mode=WAL and foreign_keys
PRAGMAs hold the schema version, let readers run beside a writer and
enforce references. Write permissions follow the deployment's grant
model, and everyone reads everything:
- the optimizer posts architectures (insert_architecture), scores them
  (insert_benchmark_result) and records its runs (upsert_run_metadata);
  a post, and a re-post that adds a device, opens one pending_measurement
  row per new (device, architecture);
- the edge agent polls for architectures that miss a measurement
  (poll_unmeasured), resolves the open rows it finds complete and upserts
  measurements (insert_measurement);
- readers take an architecture's measurements (get_measurements), a run's
  results joined with their architectures (query_results) and the runs
  (get_run_metadata, list_run_ids).
A poll reads only the device's open rows, so it costs in proportion to the
open work, not to every architecture ever posted. The agent's poll first
deletes the device's open rows that are complete at its batch sizes; each
device therefore has one batch-size set, and a row resolved at one set does
not come back for a larger one. A reader's or the optimizer's poll only
reads, and still leaves out complete architectures.
Every public operation executes as one transaction and raises only
StoreError subclasses; a handle is safe to share across threads. Opening
an older store upgrades it through MIGRATIONS in one transaction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import json
import os
import re
import sqlite3
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources

from .optimizer import LOSS_WEIGHT
from .search_space import DocumentError, decode, validate

SCORE_TOLERANCE = 1e-9


class StoreError(Exception):
    pass


class PermissionDeniedError(StoreError):
    pass


class ConsistencyError(StoreError):
    pass


class UnknownArchitectureError(StoreError):
    pass


class SchemaVersionError(StoreError):
    pass


class ValidationError(StoreError):
    pass


class Role(enum.Enum):
    OPTIMIZER = "optimizer"
    EDGE_AGENT = "edge_agent"
    READER = "reader"


def utc_now() -> str:
    """UTC timestamp, millisecond precision, lexicographically sortable."""
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


@dataclass
class ArchitectureRecord:
    run_id: str
    lineage_id: int
    spec_document: str
    device_targets: list[str]
    created_at: str | None = None
    id: int | None = None


@dataclass
class EdgeMeasurement:
    architecture_id: int
    device_type: str
    batch_size: int
    latency_ms_mean: float
    latency_ms_std: float
    num_runs: int
    num_warmup: int
    memory_mb: float = 0.0
    cpu_util: float = 0.0
    gpu_util: float = 0.0
    measured_at: str | None = None
    id: int | None = None


@dataclass
class BenchmarkResult:
    architecture_id: int
    run_id: str
    epoch: int
    val_loss: float
    inference_time_ms: float
    score: float
    split: str = "validation"
    created_at: str | None = None
    id: int | None = None


@dataclass
class RunMetadata:
    run_id: str
    config_document: str
    seed: int | None = None
    started_at: str | None = None
    finished_at: str | None = None
    summary_document: str | None = None


def _from_row(cls, row: sqlite3.Row, prefix: str = ""):
    """The record dataclass cls from a row with one column, prefix + name, per field."""
    return cls(**{f.name: row[prefix + f.name] for f in dataclasses.fields(cls)})


def _insert_sql(table: str, cls, conflict_key: tuple[str, ...] = ()) -> tuple[list[str], str]:
    """Columns (every field but id) and INSERT statement for the record dataclass cls.

    With conflict_key, a row with the same key is updated in place.
    """
    columns = [f.name for f in dataclasses.fields(cls) if f.name != "id"]
    sql = f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({', '.join('?' * len(columns))})"
    if conflict_key:
        updates = ", ".join(f"{c} = excluded.{c}" for c in columns if c not in conflict_key)
        sql += f" ON CONFLICT({', '.join(conflict_key)}) DO UPDATE SET {updates}"
    return columns, sql


_MEASUREMENT_INSERT = _insert_sql(
    "edge_measurement", EdgeMeasurement, ("architecture_id", "device_type", "batch_size")
)
_RESULT_INSERT = _insert_sql("benchmark_result", BenchmarkResult)
_RUN_INSERT = _insert_sql("run_metadata", RunMetadata, ("run_id",))
_RESULT_COLUMNS = ", ".join(f"b.{f.name} AS b_{f.name}" for f in dataclasses.fields(BenchmarkResult))


# Ordered upgrade steps: MIGRATIONS[v - 1] takes a version-v store to v + 1.
# A step creates the named objects as schema.sql defines them, then runs its
# statements.
MIGRATIONS = (
    (
        ("pending_measurement", "pending_on_post", "pending_on_merge"),
        (
            "INSERT OR IGNORE INTO pending_measurement (device_type, architecture_id, posted_at)"
            " SELECT jt.value, a.id, a.created_at FROM network_architecture a, json_each(a.device_targets) jt",
            "DROP INDEX idx_architecture_created",  # only the version-1 poll's ORDER BY used it
        ),
    ),
)
SCHEMA_VERSION = len(MIGRATIONS) + 1


def _schema_statements() -> dict[str, str]:
    """schema.sql's statements, keyed by the name of the object each creates."""
    text = resources.files("edgenas").joinpath("schema.sql").read_text(encoding="utf-8")
    statements, pending = {}, ""
    for line in text.splitlines(keepends=True):  # a trigger body holds ';' too
        pending += line
        if sqlite3.complete_statement(pending):
            name = re.search(r"^CREATE \w+ (\w+)", pending, re.MULTILINE).group(1)
            statements[name], pending = pending, ""
    return statements


def _upgrade_statements(version: int) -> list[str]:
    """The statements that take a store at version (0: an empty file) to SCHEMA_VERSION."""
    schema = _schema_statements()
    if version == 0:
        return list(schema.values())
    upgrade = []
    for creates, statements in MIGRATIONS[version - 1:]:
        upgrade += [schema[name] for name in creates] + list(statements)
    return upgrade


class Store:
    """Thread-safe handle on one store; every operation is atomic, every failure a StoreError.

    Opening refuses, and leaves as it was, a file that is not SQLite, a
    newer schema version or tables without our version. A missing or empty
    file is refused unless create lays down the schema. An older version is
    upgraded in one transaction, which a failure leaves as it was. An open
    that fails for any reason closes its handle. The schema's CHECK
    constraints validate column ranges; a violation raises ValidationError.
    """

    def __init__(self, path: str, create: bool = False):
        self.path = path
        self._lock = threading.RLock()
        uninitialized = f"store at {path} is not initialized; run init-store first"
        if not (create or os.path.exists(path)):  # only create makes the file
            raise StoreError(uninitialized)
        try:
            self._conn = sqlite3.connect(path, check_same_thread=False, timeout=30.0)
        except sqlite3.Error as exc:  # a directory, or a missing parent directory
            raise StoreError(f"store at {path}: {exc}") from exc
        self._conn.row_factory = sqlite3.Row
        try:  # every failure from here on closes the handle
            try:  # read before any PRAGMA that writes, so that a refused file is left as it was
                version = self._conn.execute("PRAGMA user_version").fetchone()[0]
                tables = self._conn.execute("SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'").fetchone()[0]
            except sqlite3.DatabaseError as exc:
                raise StoreError(f"store at {path} is not an SQLite database: {exc}") from exc
            if version > SCHEMA_VERSION:
                raise SchemaVersionError(
                    f"store at {path} has schema version {version}, newer than supported {SCHEMA_VERSION}"
                )
            if version == 0 and tables:
                raise SchemaVersionError(f"store at {path} has an unversioned, unrecognized schema")
            if version == 0 and not create:
                raise StoreError(uninitialized)
            with self._transaction():
                self._conn.execute("PRAGMA foreign_keys = ON")
                self._conn.execute("PRAGMA journal_mode = WAL")  # changes only an empty file: a store is WAL already
            if version < SCHEMA_VERSION:
                self._upgrade()
        except BaseException:
            self._conn.close()
            raise

    def _upgrade(self) -> None:
        """Lay down or migrate the schema in one write transaction; a failure leaves the file as it was."""
        with self._transaction():
            self._conn.execute("BEGIN IMMEDIATE")  # executescript would commit at once, so no script runs here
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]  # another opener may have upgraded
            if version < SCHEMA_VERSION:
                for statement in _upgrade_statements(version):
                    self._conn.execute(statement)
                self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    @classmethod
    def initialize(cls, path: str) -> "Store":
        """Create (or idempotently re-open) a store with the current schema."""
        return cls(path, create=True)

    @property
    def schema_version(self) -> int:
        with self._transaction():
            return self._conn.execute("PRAGMA user_version").fetchone()[0]

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextlib.contextmanager
    def _transaction(self, architecture_id: int | None = None):
        """One transaction under the lock; SQLite errors leave as StoreErrors naming architecture_id or the path."""
        try:
            with self._lock, self._conn:
                yield
        except sqlite3.IntegrityError as exc:
            if "FOREIGN KEY" in str(exc):
                raise UnknownArchitectureError(f"architecture {architecture_id} does not exist") from exc
            raise ValidationError(str(exc)) from exc
        except sqlite3.Error as exc:
            raise StoreError(f"store at {self.path}: {exc}") from exc

    @staticmethod
    def _require(role: Role, allowed: Role, table: str) -> None:
        if role != allowed:
            raise PermissionDeniedError(f"role {role.value!r} may not insert into {table}")

    def _insert(self, insert: tuple[list[str], str], record, **stamps) -> sqlite3.Cursor:
        columns, sql = insert
        values = {**vars(record), **stamps}
        return self._conn.execute(sql, [values[c] for c in columns])

    # -- network_architecture ------------------------------------------------

    def insert_architecture(self, role: Role, record: ArchitectureRecord) -> int:
        """Post record and return its id; a repeated key adds its device targets to the first post."""
        self._require(role, Role.OPTIMIZER, "network_architecture")
        try:
            spec = decode(record.spec_document)
        except DocumentError as exc:
            raise ValidationError(f"spec_document undecodable: {exc}") from exc
        violations = validate(spec, "baseline")
        if violations:
            raise ValidationError("spec_document invalid: " + "; ".join(violations))
        if not record.device_targets:
            raise ValidationError("device_targets must be non-empty")
        created_at = record.created_at or utc_now()
        targets = set(record.device_targets)
        with self._transaction():
            self._conn.execute(
                "INSERT OR IGNORE INTO network_architecture"
                " (run_id, lineage_id, spec_document, device_targets, created_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (record.run_id, record.lineage_id, record.spec_document, json.dumps(sorted(targets)), created_at),
            )
            row = self._conn.execute(
                "SELECT id, device_targets FROM network_architecture"
                " WHERE run_id = ? AND lineage_id = ? AND spec_document = ?",
                (record.run_id, record.lineage_id, record.spec_document),
            ).fetchone()
            merged = json.dumps(sorted(targets.union(json.loads(row["device_targets"]))))
            if merged != row["device_targets"]:
                self._conn.execute(
                    "UPDATE network_architecture SET device_targets = ? WHERE id = ?", (merged, row["id"])
                )
        return row["id"]

    def poll_unmeasured(
        self, role: Role, device_type: str, batch_sizes: tuple[int, ...]
    ) -> list[ArchitectureRecord]:
        """Open architectures for device_type that miss any of batch_sizes, oldest first.

        As the edge agent, first resolve (delete) the device's open rows that
        are complete at batch_sizes, in the same transaction.
        """
        measured = (
            "(SELECT COUNT(*) FROM edge_measurement m WHERE m.architecture_id = pending_measurement.architecture_id"
            " AND m.device_type = pending_measurement.device_type"
            f" AND m.batch_size IN ({','.join('?' * len(batch_sizes))}))"
        )
        params = [device_type, *batch_sizes, len(batch_sizes)]
        with self._transaction():
            if role == Role.EDGE_AGENT:
                self._conn.execute(
                    f"DELETE FROM pending_measurement WHERE device_type = ? AND {measured} >= ?", params
                )
            rows = self._conn.execute(  # CROSS JOIN keeps the open rows the outer loop
                "SELECT a.* FROM pending_measurement CROSS JOIN network_architecture a"
                " ON a.id = pending_measurement.architecture_id"
                f" WHERE pending_measurement.device_type = ? AND {measured} < ? ORDER BY a.created_at, a.id",
                params,
            ).fetchall()
        return [self._architecture_from_row(r) for r in rows]

    @staticmethod
    def _architecture_from_row(row: sqlite3.Row) -> ArchitectureRecord:
        record = _from_row(ArchitectureRecord, row)
        record.device_targets = json.loads(record.device_targets)
        return record

    # -- edge_measurement ----------------------------------------------------

    def insert_measurement(self, role: Role, measurement: EdgeMeasurement) -> None:
        """Insert, or replace the row of the same architecture, device and batch size."""
        self._require(role, Role.EDGE_AGENT, "edge_measurement")
        with self._transaction(measurement.architecture_id):
            self._insert(_MEASUREMENT_INSERT, measurement, measured_at=measurement.measured_at or utc_now())

    def get_measurements(self, architecture_id: int, device_type: str) -> list[EdgeMeasurement]:
        with self._transaction():
            rows = self._conn.execute(
                "SELECT * FROM edge_measurement WHERE architecture_id = ? AND device_type = ?"
                " ORDER BY batch_size ASC",
                (architecture_id, device_type),
            ).fetchall()
        return [_from_row(EdgeMeasurement, r) for r in rows]

    # -- benchmark_result ----------------------------------------------------

    def insert_benchmark_result(self, role: Role, result: BenchmarkResult) -> int:
        self._require(role, Role.OPTIMIZER, "benchmark_result")
        expected = result.val_loss * LOSS_WEIGHT + result.inference_time_ms
        if abs(result.score - expected) > SCORE_TOLERANCE:
            raise ConsistencyError(
                f"score {result.score!r} != val_loss*1000 + inference_time_ms = {expected!r}"
            )
        with self._transaction(result.architecture_id):
            cur = self._insert(_RESULT_INSERT, result, created_at=result.created_at or utc_now())
        return cur.lastrowid

    def query_results(self, run_id: str) -> list[tuple[BenchmarkResult, ArchitectureRecord]]:
        """Full evaluation trace of a run, joined with the architectures."""
        with self._transaction():
            rows = self._conn.execute(
                f"SELECT {_RESULT_COLUMNS}, a.*"
                " FROM benchmark_result b JOIN network_architecture a ON b.architecture_id = a.id"
                " WHERE b.run_id = ? ORDER BY b.id ASC",
                (run_id,),
            ).fetchall()
        return [(_from_row(BenchmarkResult, r, "b_"), self._architecture_from_row(r)) for r in rows]

    # -- run_metadata ----------------------------------------------------------

    def upsert_run_metadata(self, role: Role, metadata: RunMetadata) -> None:
        self._require(role, Role.OPTIMIZER, "run_metadata")
        with self._transaction():
            self._insert(_RUN_INSERT, metadata, started_at=metadata.started_at or utc_now())

    def get_run_metadata(self, run_id: str) -> RunMetadata | None:
        with self._transaction():
            row = self._conn.execute("SELECT * FROM run_metadata WHERE run_id = ?", (run_id,)).fetchone()
        return _from_row(RunMetadata, row) if row else None

    def list_run_ids(self) -> list[str]:
        with self._transaction():
            rows = self._conn.execute("SELECT run_id FROM run_metadata ORDER BY run_id").fetchall()
        return [r["run_id"] for r in rows]
