from __future__ import annotations

import os
import random
import sqlite3
from pathlib import Path

import pytest

import edgenas
from edgenas.cost_model import DeviceProfile, SurrogateConfig, synthetic_latency, synthetic_val_loss
from edgenas.optimizer import ScoreBreakdown, derive_seed
from edgenas.store import Store


@pytest.fixture
def store(tmp_path):
    s = Store.initialize(str(tmp_path / "store.sqlite"))
    yield s
    s.close()


@pytest.fixture
def quiet_profile():
    return DeviceProfile(noise_std_ms=0.0)


@pytest.fixture
def quiet_surrogate():
    return SurrogateConfig(noise_std=0.0)


def make_sim_evaluator(profile=None, surrogate=None, epochs=2):
    """Store-free deterministic evaluator for exercising run_ea directly."""
    profile = profile or DeviceProfile(noise_std_ms=0.0)
    surrogate = surrogate or SurrogateConfig(noise_std=0.0)

    def evaluator(spec, ctx):
        val = synthetic_val_loss(spec, epochs, surrogate, random.Random(derive_seed(ctx.seed, "val")))
        latency = synthetic_latency(spec, 1, profile, random.Random(derive_seed(ctx.seed, "lat")))
        return ScoreBreakdown.from_losses(val, latency)

    return evaluator


def brute_force_front(points):
    """O(n^2) dominance filter used as the oracle for pareto_front."""
    front = []
    for i, (loss_i, time_i, pid_i) in enumerate(points):
        dominated = False
        for j, (loss_j, time_j, _) in enumerate(points):
            if i == j:
                continue
            if loss_j <= loss_i and time_j <= time_i and (loss_j < loss_i or time_j < time_i):
                dominated = True
                break
        if not dominated:
            front.append(pid_i)
    return front


def helper_env() -> dict[str, str]:
    """The environment for a helper script in its own process: the tested edgenas first on PYTHONPATH."""
    src = str(Path(edgenas.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def add_failing_trigger(path, table: str) -> None:
    """A second connection makes every insert into table fail inside SQLite (no such function)."""
    conn = sqlite3.connect(path)
    try:
        conn.execute(f"CREATE TRIGGER boom BEFORE INSERT ON {table} BEGIN SELECT boom(); END")
        conn.commit()
    finally:
        conn.close()


def make_v1_store(path, populate=None) -> str:
    """A version-1 store as the version-1 code left it: the frozen schema text, WAL, user_version 1, closed.

    populate(conn), if given, adds rows with raw SQL before the commit.
    """
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA journal_mode = WAL")
        conn.executescript((Path(__file__).parent / "fixtures" / "schema_v1.sql").read_text(encoding="utf-8"))
        conn.execute("PRAGMA user_version = 1")
        if populate is not None:
            populate(conn)
        conn.commit()
    finally:
        conn.close()
    return str(path)
