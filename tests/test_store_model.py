"""Model-based test of the store protocol: a Hypothesis state machine checks the store against plain dicts.

Each step posts an architecture, upserts a measurement or a whole report,
polls as one of the roles, adds a benchmark result or tries an insert the
role matrix denies; after each step every read the agent and the
coordinator rely on, and the open pending_measurement rows, must agree
with the model. The same machine runs on one handle, on two handles of one
file (the split-process case), and on a version-1 store holding rows that
the first open migrates.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sqlite3
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, multiple, rule

from conftest import make_v1_store
from edgenas.search_space import default_config, encode, sample
from edgenas.store import (
    ArchitectureRecord,
    BenchmarkResult,
    ConsistencyError,
    EdgeMeasurement,
    PermissionDeniedError,
    Role,
    Store,
)

DEVICES = ("dev-a", "dev-b")
BATCH_SIZES = (1, 2, 4)  # the set an agent completes; batch size 8 is measured but never asked for
DOCUMENTS = (encode(default_config()), *(encode(sample(random.Random(seed))) for seed in range(2)))
TIMESTAMPS = tuple(f"2026-01-0{day}T00:00:00.000+00:00" for day in (1, 2, 3))  # few, so that ties occur
RUN_IDS = ("r1", "r2")

DENIED = [
    (Role.EDGE_AGENT, "network_architecture"), (Role.READER, "network_architecture"),
    (Role.OPTIMIZER, "edge_measurement"), (Role.READER, "edge_measurement"),
    (Role.EDGE_AGENT, "benchmark_result"), (Role.READER, "benchmark_result"),
]


# Rows of a version-1 store: (id, run_id, lineage_id, spec_document, device_targets, created_at), and the
# (architecture_id, device, batch size) it had measured. A post of key ("r1", 0, DOCUMENTS[0]) merges into the first.
V1_ARCHITECTURES = (
    (1, "r1", 0, DOCUMENTS[0], [DEVICES[0]], TIMESTAMPS[1]),
    (2, "r2", 1, DOCUMENTS[1], list(DEVICES), TIMESTAMPS[0]),
)
V1_MEASURED = ((1, DEVICES[0], 1), (1, DEVICES[0], 2), (1, DEVICES[0], 4), (2, DEVICES[1], 8))


def _populate_v1(conn: sqlite3.Connection) -> None:
    for arch_id, run_id, lineage_id, document, targets, created_at in V1_ARCHITECTURES:
        conn.execute(
            "INSERT INTO network_architecture VALUES (?, ?, ?, ?, ?, ?)",
            (arch_id, run_id, lineage_id, document, json.dumps(targets), created_at),
        )
    for arch_id, device, batch_size in V1_MEASURED:
        conn.execute(
            "INSERT INTO edge_measurement (architecture_id, device_type, batch_size, latency_ms_mean,"
            " latency_ms_std, num_runs, num_warmup, measured_at) VALUES (?, ?, ?, 5.0, 0.1, 10, 3, ?)",
            (arch_id, device, batch_size, TIMESTAMPS[0]),
        )


class StoreProtocol(RuleBasedStateMachine):
    handle_count = 1
    from_v1 = False
    architectures = Bundle("architectures")

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        path = f"{self.tmp.name}/model.sqlite"
        self.posted: dict[tuple, ArchitectureRecord] = {}  # (run_id, lineage_id, spec_document) -> first post, all targets
        self.measured: dict[tuple, EdgeMeasurement] = {}  # (architecture_id, device, batch size) -> last write
        self.results: dict[str, list[tuple[BenchmarkResult, ArchitectureRecord]]] = {r: [] for r in RUN_IDS}
        self.open: set[tuple[str, int]] = set()  # (device, architecture_id) no agent poll has resolved
        if self.from_v1:
            make_v1_store(path, _populate_v1)
            for arch_id, run_id, lineage_id, document, targets, created_at in V1_ARCHITECTURES:
                self.posted[(run_id, lineage_id, document)] = ArchitectureRecord(
                    run_id, lineage_id, document, targets, created_at, arch_id
                )
                self.open |= {(device, arch_id) for device in targets}
            for arch_id, device, batch_size in V1_MEASURED:
                self.measured[(arch_id, device, batch_size)] = EdgeMeasurement(
                    arch_id, device, batch_size, 5.0, 0.1, 10, 3, measured_at=TIMESTAMPS[0]
                )
        self.handles = [Store.initialize(path)]
        self.handles += [Store(path) for _ in range(self.handle_count - 1)]
        self.reader = sqlite3.connect(path)  # reads the open rows, which no store method returns

    def teardown(self):
        self.reader.close()
        for handle in self.handles:
            handle.close()
        self.tmp.cleanup()

    def _incomplete(self, device: str) -> list[ArchitectureRecord]:
        """The architectures targeting device that miss a batch size, oldest first."""
        return sorted(
            (a for a in self.posted.values() if device in a.device_targets
             and any((a.id, device, b) not in self.measured for b in BATCH_SIZES)),
            key=lambda a: (a.created_at, a.id),
        )

    @initialize(target=architectures)
    def migrated_architectures(self):
        return multiple(*(a.id for a in self.posted.values()))

    def _via(self, handle: int) -> Store:
        return self.handles[handle % len(self.handles)]

    @rule(
        target=architectures,
        handle=st.integers(0, 1),
        run_id=st.sampled_from(RUN_IDS),
        lineage_id=st.integers(0, 1),
        document=st.sampled_from(DOCUMENTS),
        device_targets=st.sampled_from([DEVICES[:1], DEVICES[1:], DEVICES]),
        created_at=st.sampled_from(TIMESTAMPS),
    )
    def post(self, handle, run_id, lineage_id, document, device_targets, created_at):
        record = ArchitectureRecord(run_id, lineage_id, document, list(device_targets), created_at)
        arch_id = self._via(handle).insert_architecture(Role.OPTIMIZER, record)
        key = (run_id, lineage_id, document)
        if key in self.posted:  # a repeated post adds its device targets and returns the first id
            first = self.posted[key]
            assert arch_id == first.id
            self.open |= {(device, arch_id) for device in set(device_targets) - set(first.device_targets)}
            first.device_targets = sorted(set(first.device_targets) | set(device_targets))
        else:
            self.posted[key] = dataclasses.replace(record, device_targets=sorted(device_targets), id=arch_id)
            self.open |= {(device, arch_id) for device in device_targets}
        return arch_id

    @rule(
        handle=st.integers(0, 1),
        arch_id=architectures,
        device=st.sampled_from(DEVICES),
        batch_size=st.sampled_from((*BATCH_SIZES, 8)),
        latency=st.floats(0.01, 500.0),
    )
    def measure(self, handle, arch_id, device, batch_size, latency):
        row = EdgeMeasurement(
            arch_id, device, batch_size, latency, latency_ms_std=0.1, num_runs=10, num_warmup=3,
            measured_at=TIMESTAMPS[0],
        )
        self._via(handle).insert_measurement(Role.EDGE_AGENT, row)
        self.measured[(arch_id, device, batch_size)] = row

    @rule(handle=st.integers(0, 1), arch_id=architectures, device=st.sampled_from(DEVICES))
    def report(self, handle, arch_id, device):
        """The agent's report of one architecture: a measurement at each batch size."""
        for batch_size in BATCH_SIZES:
            self.measure(handle, arch_id, device, batch_size, 1.0)

    @rule(handle=st.integers(0, 1), role=st.sampled_from(list(Role)), device=st.sampled_from(DEVICES))
    def poll(self, handle, role, device):
        """Every role reads the incomplete set; only the agent's poll resolves the complete open rows."""
        expected = self._incomplete(device)
        assert self._via(handle).poll_unmeasured(role, device, BATCH_SIZES) == expected
        if role == Role.EDGE_AGENT:
            still_open = {a.id for a in expected}
            self.open = {(d, arch_id) for d, arch_id in self.open if d != device or arch_id in still_open}

    @rule(
        handle=st.integers(0, 1),
        arch_id=architectures,
        run_id=st.sampled_from(RUN_IDS),
        split=st.sampled_from(("validation", "test")),
        val_loss=st.floats(0.0, 1.0),
        time_ms=st.floats(0.01, 500.0),
        score_error=st.sampled_from((0.0, 0.0, 2e-9, -1.0)),
    )
    def add_result(self, handle, arch_id, run_id, split, val_loss, time_ms, score_error):
        score = val_loss * 1000.0 + time_ms + score_error
        result = BenchmarkResult(arch_id, run_id, 2, val_loss, time_ms, score, split, TIMESTAMPS[0])
        if score_error:
            with pytest.raises(ConsistencyError):
                self._via(handle).insert_benchmark_result(Role.OPTIMIZER, result)
            return
        result.id = self._via(handle).insert_benchmark_result(Role.OPTIMIZER, result)
        architecture = next(a for a in self.posted.values() if a.id == arch_id)
        self.results[run_id].append((result, architecture))

    @rule(handle=st.integers(0, 1), denied=st.sampled_from(DENIED), arch_id=architectures)
    def denied_insert(self, handle, denied, arch_id):
        role, table = denied
        store = self._via(handle)
        insert, record = {
            "network_architecture": (store.insert_architecture, ArchitectureRecord("r1", 9, DOCUMENTS[0], [DEVICES[0]])),
            "edge_measurement": (store.insert_measurement, EdgeMeasurement(arch_id, DEVICES[0], 1, 1.0, 0.0, 1, 0)),
            "benchmark_result": (store.insert_benchmark_result, BenchmarkResult(arch_id, "r1", 2, 0.1, 1.0, 101.0)),
        }[table]
        with pytest.raises(PermissionDeniedError):
            insert(role, record)

    @invariant()
    def poll_returns_the_incomplete_set_oldest_first(self):
        for device in DEVICES:
            expected = self._incomplete(device)
            for handle in self.handles:
                assert handle.poll_unmeasured(Role.READER, device, BATCH_SIZES) == expected

    @invariant()
    def open_rows_match(self):
        rows = self.reader.execute("SELECT device_type, architecture_id FROM pending_measurement").fetchall()
        assert set(rows) == self.open

    @invariant()
    def measurements_match(self):
        for architecture in self.posted.values():
            for device in DEVICES:
                expected = sorted(
                    (m for (arch_id, d, _), m in self.measured.items() if arch_id == architecture.id and d == device),
                    key=lambda m: m.batch_size,
                )
                for handle in self.handles:
                    rows = handle.get_measurements(architecture.id, device)
                    assert [dataclasses.replace(m, id=None) for m in rows] == expected

    @invariant()
    def results_match(self):
        for run_id, expected in self.results.items():
            for handle in self.handles:
                assert handle.query_results(run_id) == expected


MACHINE_SETTINGS = settings(
    max_examples=25, stateful_step_count=20, derandomize=True, database=None, deadline=None
)


class StoreProtocolTwoHandles(StoreProtocol):
    handle_count = 2


class StoreProtocolMigrated(StoreProtocol):
    from_v1 = True


TestStoreProtocol = StoreProtocol.TestCase
TestStoreProtocol.settings = MACHINE_SETTINGS
TestStoreProtocolTwoHandles = StoreProtocolTwoHandles.TestCase
TestStoreProtocolTwoHandles.settings = MACHINE_SETTINGS
TestStoreProtocolMigrated = StoreProtocolMigrated.TestCase
TestStoreProtocolMigrated.settings = MACHINE_SETTINGS
