"""Shared relational store: the only channel between optimizer and edge agent.

Backed by a single-file SQLite database so that desk-scale runs need zero
ops; the DDL in schema.sql is portable SQL, so a hosted relational server
is a drop-in alternative. Write permissions follow the deployment's grant
model: the optimizer account inserts architectures and benchmark results,
the edge account inserts measurements only, and everyone reads everything.
Every public operation executes as one transaction; a handle is safe to
share across threads.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import sqlite3
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources

from .optimizer import LOSS_WEIGHT
from .search_space import DocumentError, decode, validate

SCHEMA_VERSION = 1
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


def _integrity_error(exc: sqlite3.IntegrityError, architecture_id: int) -> StoreError:
    if "FOREIGN KEY" in str(exc):
        return UnknownArchitectureError(f"architecture {architecture_id} does not exist")
    return ValidationError(str(exc))


def _schema_sql() -> str:
    return resources.files("edgenas").joinpath("schema.sql").read_text(encoding="utf-8")


class Store:
    """Thread-safe handle on one store; every operation is atomic.

    Opening refuses, and leaves as it was, a file that is not SQLite, a
    newer schema version or tables without our version. A missing or empty
    file is refused unless create lays down the schema. The schema's CHECK
    constraints validate column ranges; a violation raises ValidationError.
    """

    def __init__(self, path: str, create: bool = False):
        self.path = path
        self._lock = threading.RLock()
        conn = None
        version = tables = 0  # a missing file reads as empty, and only create makes it
        if create or os.path.exists(path):
            conn = sqlite3.connect(path, check_same_thread=False, timeout=30.0)
            try:
                # read before any PRAGMA that writes, so that a refused file is left as it was
                version = conn.execute("PRAGMA user_version").fetchone()[0]
                tables = conn.execute("SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'").fetchone()[0]
            except sqlite3.DatabaseError as exc:
                conn.close()
                raise StoreError(f"store at {path} is not an SQLite database: {exc}") from exc
        refusal = None
        if version > SCHEMA_VERSION:
            refusal = SchemaVersionError(
                f"store at {path} has schema version {version}, newer than supported {SCHEMA_VERSION}"
            )
        elif version < SCHEMA_VERSION and tables:
            refusal = SchemaVersionError(f"store at {path} has an unversioned, unrecognized schema")
        elif version < SCHEMA_VERSION and not create:
            refusal = StoreError(f"store at {path} is not initialized; run init-store first")
        if refusal is not None:
            if conn is not None:
                conn.close()
            raise refusal
        self._conn = conn
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.execute("PRAGMA busy_timeout = 30000")
        self._conn.execute("PRAGMA journal_mode = WAL")
        if version < SCHEMA_VERSION:
            with self._lock, self._conn:
                self._conn.executescript(_schema_sql())
                self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    @classmethod
    def initialize(cls, path: str) -> "Store":
        """Create (or idempotently re-open) a store with the current schema."""
        return cls(path, create=True)

    @property
    def schema_version(self) -> int:
        with self._lock:
            return self._conn.execute("PRAGMA user_version").fetchone()[0]

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        targets = json.dumps(sorted(record.device_targets))
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO network_architecture"
                " (run_id, lineage_id, spec_document, device_targets, created_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (record.run_id, record.lineage_id, record.spec_document, targets, created_at),
            )
            row = self._conn.execute(
                "SELECT id FROM network_architecture WHERE run_id = ? AND lineage_id = ? AND spec_document = ?",
                (record.run_id, record.lineage_id, record.spec_document),
            ).fetchone()
        return row["id"]

    def poll_unmeasured(
        self,
        role: Role,
        device_type: str,
        batch_sizes: tuple[int, ...] | None = None,
        limit: int | None = None,
    ) -> list[ArchitectureRecord]:
        """Architectures targeting device_type that miss any configured batch size.

        batch_sizes defaults to those of a default AgentConfig.
        """
        del role  # every role may read
        if batch_sizes is None:
            from .edge_agent import AgentConfig  # edge_agent imports this module

            batch_sizes = AgentConfig.batch_sizes
        placeholders = ",".join("?" for _ in batch_sizes)
        sql = (
            "SELECT a.* FROM network_architecture a"
            " WHERE EXISTS (SELECT 1 FROM json_each(a.device_targets) jt WHERE jt.value = ?)"
            " AND (SELECT COUNT(*) FROM edge_measurement m"
            "      WHERE m.architecture_id = a.id AND m.device_type = ?"
            f"        AND m.batch_size IN ({placeholders})) < ?"
            " ORDER BY a.created_at ASC, a.id ASC"
        )
        params: list = [device_type, device_type, *batch_sizes, len(batch_sizes)]
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        with self._lock, self._conn:
            rows = self._conn.execute(sql, params).fetchall()
        return [self._architecture_from_row(r) for r in rows]

    @staticmethod
    def _architecture_from_row(row: sqlite3.Row) -> ArchitectureRecord:
        record = _from_row(ArchitectureRecord, row)
        record.device_targets = json.loads(record.device_targets)
        return record

    def get_architecture(self, architecture_id: int) -> ArchitectureRecord | None:
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT * FROM network_architecture WHERE id = ?", (architecture_id,)
            ).fetchone()
        return self._architecture_from_row(row) if row else None

    # -- edge_measurement ----------------------------------------------------

    def insert_measurement(self, role: Role, measurement: EdgeMeasurement) -> int:
        self._require(role, Role.EDGE_AGENT, "edge_measurement")
        try:
            with self._lock, self._conn:
                self._insert(_MEASUREMENT_INSERT, measurement, measured_at=measurement.measured_at or utc_now())
                row = self._conn.execute(
                    "SELECT id FROM edge_measurement"
                    " WHERE architecture_id = ? AND device_type = ? AND batch_size = ?",
                    (measurement.architecture_id, measurement.device_type, measurement.batch_size),
                ).fetchone()
        except sqlite3.IntegrityError as exc:
            raise _integrity_error(exc, measurement.architecture_id) from exc
        return row["id"]

    def get_measurements(self, architecture_id: int, device_type: str) -> list[EdgeMeasurement]:
        with self._lock, self._conn:
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
        try:
            with self._lock, self._conn:
                cur = self._insert(_RESULT_INSERT, result, created_at=result.created_at or utc_now())
        except sqlite3.IntegrityError as exc:
            raise _integrity_error(exc, result.architecture_id) from exc
        return cur.lastrowid

    def query_results(self, run_id: str) -> list[tuple[BenchmarkResult, ArchitectureRecord]]:
        """Full evaluation trace of a run, joined with the architectures."""
        with self._lock, self._conn:
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
        with self._lock, self._conn:
            self._insert(_RUN_INSERT, metadata, started_at=metadata.started_at or utc_now())

    def get_run_metadata(self, run_id: str) -> RunMetadata | None:
        with self._lock, self._conn:
            row = self._conn.execute("SELECT * FROM run_metadata WHERE run_id = ?", (run_id,)).fetchone()
        return _from_row(RunMetadata, row) if row else None

    def list_run_ids(self) -> list[str]:
        with self._lock, self._conn:
            rows = self._conn.execute("SELECT run_id FROM run_metadata ORDER BY run_id").fetchall()
        return [r["run_id"] for r in rows]
