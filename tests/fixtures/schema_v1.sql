-- edgenas store schema, version 1.
-- Three core tables (network_architecture, edge_measurement,
-- benchmark_result) plus run_metadata. The schema version is recorded in
-- PRAGMA user_version by the access layer.

CREATE TABLE IF NOT EXISTS network_architecture (
    id             INTEGER PRIMARY KEY,
    run_id         TEXT    NOT NULL,
    lineage_id     INTEGER NOT NULL,
    spec_document  TEXT    NOT NULL,
    device_targets TEXT    NOT NULL,  -- JSON array of device-type identifiers
    created_at     TEXT    NOT NULL,  -- UTC ISO-8601, millisecond precision
    UNIQUE (run_id, lineage_id, spec_document)
);

CREATE TABLE IF NOT EXISTS edge_measurement (
    id              INTEGER PRIMARY KEY,
    architecture_id INTEGER NOT NULL REFERENCES network_architecture(id),
    device_type     TEXT    NOT NULL,
    batch_size      INTEGER NOT NULL CHECK (batch_size >= 1),
    latency_ms_mean REAL    NOT NULL CHECK (latency_ms_mean > 0),
    latency_ms_std  REAL    NOT NULL CHECK (latency_ms_std >= 0),
    num_runs        INTEGER NOT NULL CHECK (num_runs >= 1),
    num_warmup      INTEGER NOT NULL CHECK (num_warmup >= 0),
    memory_mb       REAL    NOT NULL DEFAULT 0 CHECK (memory_mb >= 0),
    cpu_util        REAL    NOT NULL DEFAULT 0 CHECK (cpu_util >= 0),
    gpu_util        REAL    NOT NULL DEFAULT 0 CHECK (gpu_util >= 0),
    measured_at     TEXT    NOT NULL,
    UNIQUE (architecture_id, device_type, batch_size)  -- its index serves every lookup by architecture
);

CREATE TABLE IF NOT EXISTS benchmark_result (
    id                INTEGER PRIMARY KEY,
    architecture_id   INTEGER NOT NULL REFERENCES network_architecture(id),
    run_id            TEXT    NOT NULL,
    epoch             INTEGER NOT NULL,
    val_loss          REAL    NOT NULL CHECK (val_loss >= 0),
    inference_time_ms REAL    NOT NULL CHECK (inference_time_ms > 0),
    score             REAL    NOT NULL,
    split             TEXT    NOT NULL CHECK (split IN ('validation', 'test')),
    created_at        TEXT    NOT NULL
);

CREATE TABLE IF NOT EXISTS run_metadata (
    run_id           TEXT PRIMARY KEY,
    config_document  TEXT NOT NULL,
    seed             INTEGER,
    started_at       TEXT NOT NULL,
    finished_at      TEXT,
    summary_document TEXT
);

CREATE INDEX IF NOT EXISTS idx_result_run ON benchmark_result (run_id);
CREATE INDEX IF NOT EXISTS idx_architecture_created ON network_architecture (created_at);
