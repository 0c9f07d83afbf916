"""Layer sweep: single-layer timings outside any search.

Store poll at 1k, 5k and 20k architectures, store inserts at 20k, the
agent's measure() for one architecture, and the two cost-model functions
the simulated backend calls on every inference.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from pathlib import Path

from edgenas import cost_model, edge_agent, search_space
from edgenas.config import load_config
from edgenas.optimizer import derive_seed
from edgenas.store import ArchitectureRecord, EdgeMeasurement, Role, Store

POLL_REPEATS = {"rows1k": 30, "rows5k": 15, "rows20k": 9}
INSERTS = 30
MEASURE_SPECS = 20
COST_SPECS = 50
COST_CALLS = 20


def _ms(fn, *args) -> float:
    started = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - started) * 1000.0


def run(prefill_dir: Path, run_dir: Path, seed: int) -> dict:
    cfg = load_config(None)
    agent = cfg.agent.config
    rng = random.Random(derive_seed("perfbench-sweep", seed))
    metrics = {}
    for label, repeats in POLL_REPEATS.items():
        path = str(run_dir / f"sweep-{label}.sqlite")
        shutil.copyfile(prefill_dir / f"{label}.sqlite", path)
        with Store(path) as store:
            polls = [_ms(store.poll_unmeasured, Role.EDGE_AGENT, agent.device_type, agent.batch_sizes)
                     for _ in range(repeats)]
            metrics[f"store.poll_unmeasured.ms_p50.{label}"] = statistics.median(polls)
            if label == "rows20k":
                posts, reports = [], []
                for i in range(INSERTS):
                    record = ArchitectureRecord("sweep", i, search_space.encode(search_space.sample(rng)),
                                                [agent.device_type])
                    started = time.perf_counter()
                    architecture_id = store.insert_architecture(Role.OPTIMIZER, record)
                    posts.append((time.perf_counter() - started) * 1000.0)
                    for batch_size in agent.batch_sizes:
                        row = EdgeMeasurement(architecture_id, agent.device_type, batch_size, 10.0, 0.1,
                                              agent.num_timed_runs, agent.num_warmup)
                        reports.append(_ms(store.insert_measurement, Role.EDGE_AGENT, row))
                metrics["store.insert_architecture.ms_p50.rows20k"] = statistics.median(posts)
                metrics["store.insert_measurement.ms_p50.rows20k"] = statistics.median(reports)
        for suffix in ("", "-wal", "-shm"):
            Path(path + suffix).unlink(missing_ok=True)

    backend = edge_agent.SimulatedBackend(cfg.device_profile, seed=seed)
    specs = [search_space.sample(rng) for _ in range(MEASURE_SPECS)]
    metrics["edge_agent.measure_ms.isolated"] = statistics.median(
        _ms(edge_agent.measure, spec, agent, backend) for spec in specs
    )
    specs = [search_space.sample(rng) for _ in range(COST_SPECS)]
    for name in ("flops_estimate", "param_count"):
        fn = getattr(cost_model, name)
        per_call = []
        for spec in specs:
            started = time.perf_counter()
            for _ in range(COST_CALLS):
                fn(spec)
            per_call.append((time.perf_counter() - started) * 1e6 / COST_CALLS)
        metrics[f"cost_model.{name}.us_isolated"] = statistics.median(per_call)
    return metrics
