"""Edge agent in its own OS process, sharing only the store file.

    python3 perfbench/agent_proc.py --store PATH --seed N --call-s S [--trace-out FILE]

Prints "ready" once the store is open and the agent loop runs, then keeps
measuring until its stdin closes. It then stops the loop, waits for it to
join, writes its spans to --trace-out if given, and prints one JSON line
with the CPU seconds spent after "ready" and whether the loop joined.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOIN_TIMEOUT_S = 10.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--call-s", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    from edgenas import edge_agent
    from edgenas.config import load_config
    from edgenas.store import Store

    import tracing

    cfg = load_config(None)
    store = Store(args.store)
    backend = edge_agent.SimulatedBackend(cfg.device_profile, seed=args.seed, call_duration_s=args.call_s)
    spans: list = []
    if args.trace_out:
        agent_store = tracing.TracedStore(store, spans)
        backend = tracing.TracedBackend(backend, spans, agent_store)
        tracing.patch_modules(spans)
    else:
        agent_store = store
    stop = threading.Event()
    loop = threading.Thread(
        target=edge_agent.run_agent_loop, args=(cfg.agent.config, agent_store, stop, backend), daemon=True
    )
    loop.start()
    cpu_at_ready = tracing.cpu_seconds()
    print("ready", flush=True)
    sys.stdin.read()
    stop.set()
    loop.join(JOIN_TIMEOUT_S)
    joined = not loop.is_alive()
    cpu_s = tracing.cpu_seconds() - cpu_at_ready
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(spans, fh)
    if joined:
        store.close()
    print(json.dumps({"cpu_s": cpu_s, "joined": joined}), flush=True)
    return 0 if joined else 3


if __name__ == "__main__":
    sys.exit(main())
