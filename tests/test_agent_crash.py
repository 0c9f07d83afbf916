"""An edge agent killed right after any of its store writes loses nothing once restarted.

Each case posts the same three architectures to a fresh store, kills an
agent pass (tests/crashing_agent.py) after its k-th write, restarts it
without a kill and makes one more agent poll. The measurements must then
equal those of an uninterrupted pass, ids and timestamps aside, with no
open row left. A kill inside a commit is SQLite's atomicity to handle and
is not covered here.
"""

from __future__ import annotations

import random
import sqlite3
import subprocess
import sys
from pathlib import Path

from conftest import helper_env
from crashing_agent import CONFIG, KILLED_EXIT
from edgenas.search_space import encode, sample
from edgenas.store import ArchitectureRecord, Role, Store

HELPER = Path(__file__).with_name("crashing_agent.py")
ARCHITECTURES = 3


def _agent_pass(path: str, kill_at: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HELPER), path, str(kill_at)], capture_output=True, text=True, env=helper_env(), timeout=60
    )


def _posted_store(path: Path) -> str:
    with Store.initialize(str(path)) as store:
        for lineage in range(ARCHITECTURES):
            spec = encode(sample(random.Random(lineage)))
            store.insert_architecture(Role.OPTIMIZER, ArchitectureRecord("crash", lineage, spec, [CONFIG.device_type]))
    return str(path)


def _outcome(path: str) -> tuple[list[tuple], int]:
    """After one more agent poll: the measurement rows without id and measured_at, and the open rows left."""
    with Store(path) as store:
        assert store.poll_unmeasured(Role.EDGE_AGENT, CONFIG.device_type, CONFIG.batch_sizes) == []
    conn = sqlite3.connect(path)
    try:
        cursor = conn.execute("SELECT * FROM edge_measurement ORDER BY architecture_id, device_type, batch_size")
        kept = [i for i, column in enumerate(cursor.description) if column[0] not in ("id", "measured_at")]
        rows = [tuple(row[i] for i in kept) for row in cursor]
        return rows, conn.execute("SELECT COUNT(*) FROM pending_measurement").fetchone()[0]
    finally:
        conn.close()


def test_agent_killed_after_any_store_write_restarts_to_the_same_measurements(tmp_path):
    path = _posted_store(tmp_path / "uninterrupted.sqlite")
    full = _agent_pass(path, 0)
    assert full.returncode == 0, full.stderr
    writes = int(full.stdout)
    assert writes == 1 + ARCHITECTURES * len(CONFIG.batch_sizes)  # one poll, one insert per row
    expected = _outcome(path)
    assert len(expected[0]) == ARCHITECTURES * len(CONFIG.batch_sizes) and expected[1] == 0
    for kill_at in range(1, writes + 1):
        path = _posted_store(tmp_path / f"killed-{kill_at}.sqlite")
        killed = _agent_pass(path, kill_at)
        assert killed.returncode == KILLED_EXIT, (kill_at, killed.stderr)
        restarted = _agent_pass(path, 0)
        assert restarted.returncode == 0, (kill_at, restarted.stderr)
        assert _outcome(path) == expected, f"killed after write {kill_at}"
