"""Builds the long-lived store that big_store and the layer sweep start from.

    python3 perfbench/prefill.py --seed 1 --out DIR

Writes DIR/rows1k.sqlite, DIR/rows5k.sqlite and DIR/rows20k.sqlite: stores
holding 1k, 5k and 20k architectures of earlier runs on the agent's device
type, each with one measurement per batch size. Everything goes through the
store's public API, so whatever bookkeeping the store keeps for its rows is
kept for these too. Contents derive from the seed alone.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SNAPSHOTS = ((1_000, "rows1k"), (5_000, "rows5k"), (20_000, "rows20k"))
RUN_LENGTH = 112  # architectures per earlier run
POPULATION = 8
CACHE_DIR = ROOT / ".perfbench_cache"
CACHE_KEEP = 12  # seed directories kept per code version


def _open(path: str):
    from edgenas.store import Store

    store = Store.initialize(path)
    # Input building only: skip the per-commit fsync where the handle allows
    # it. Rows and their meaning are unchanged; only durability is.
    conn = getattr(store, "_conn", None)
    if isinstance(conn, sqlite3.Connection):
        conn.execute("PRAGMA synchronous = OFF")
    return store


def build(seed: int, out: Path) -> None:
    from edgenas import cost_model, search_space
    from edgenas.config import load_config
    from edgenas.optimizer import derive_seed
    from edgenas.store import ArchitectureRecord, EdgeMeasurement, Role, RunMetadata

    cfg = load_config(None)
    agent = cfg.agent.config
    profile = cfg.device_profile
    rng = random.Random(derive_seed("perfbench-prefill", seed))
    out.mkdir(parents=True, exist_ok=True)
    path = str(out / "building.sqlite")
    store = _open(path)
    parents: list = []
    for i in range(SNAPSHOTS[-1][0]):
        run_id = f"prior-{seed}-{i // RUN_LENGTH}"
        lineage = i % POPULATION
        if i % RUN_LENGTH == 0:
            parents = []
            store.upsert_run_metadata(Role.OPTIMIZER, RunMetadata(run_id=run_id, config_document="{}", seed=i))
        if len(parents) < POPULATION:
            spec = search_space.sample(rng)
            parents.append(spec)
        else:
            spec = parents[lineage] = search_space.mutate(parents[lineage], rng)
        architecture_id = store.insert_architecture(
            Role.OPTIMIZER,
            ArchitectureRecord(run_id, lineage, search_space.encode(spec), [agent.device_type]),
        )
        memory_mb = cost_model.param_count(spec) * 4 / 1e6
        for batch_size in agent.batch_sizes:
            latency = cost_model.synthetic_latency(spec, batch_size, profile, rng)
            store.insert_measurement(
                Role.EDGE_AGENT,
                EdgeMeasurement(
                    architecture_id, agent.device_type, batch_size, latency, 0.02 * latency,
                    agent.num_timed_runs, agent.num_warmup, memory_mb, 12.5, 62.5,
                ),
            )
        for count, label in SNAPSHOTS:
            if i + 1 == count:
                store.close()  # checkpoints the WAL into the main file
                shutil.copyfile(path, out / f"{label}.sqlite")
                if count != SNAPSHOTS[-1][0]:
                    store = _open(path)
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def _code_key() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "edgenas").iterdir()) + [Path(__file__)]:
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def cached(seed: int) -> Path:
    """Directory with this seed's prefilled stores, built once per code version."""
    key = _code_key()
    target = CACHE_DIR / f"{key}-s{seed}"
    if (target / f"{SNAPSHOTS[-1][1]}.sqlite").is_file():
        return target
    CACHE_DIR.mkdir(exist_ok=True)
    for old in CACHE_DIR.iterdir():  # other code versions and stale partial builds
        if not old.name.startswith(key + "-s") or ".tmp" in old.name:
            shutil.rmtree(old, ignore_errors=True)
    kept = sorted((d for d in CACHE_DIR.iterdir() if d.is_dir()), key=lambda d: d.stat().st_mtime)
    for old in kept[: max(0, len(kept) - CACHE_KEEP + 1)]:
        shutil.rmtree(old, ignore_errors=True)
    partial = CACHE_DIR / f"{key}-s{seed}.tmp{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--seed", str(seed), "--out", str(partial)],
            cwd=ROOT, check=True, timeout=150,
        )
        shutil.rmtree(target, ignore_errors=True)
        os.replace(partial, target)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    return target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    build(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
