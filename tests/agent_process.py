"""Edge agent in its own OS process, sharing only the store file with the test.

    python agent_process.py STORE_PATH CALL_DURATION_S [POLL_INTERVAL_MS]

Prints "ready" once the agent loop runs, serves the store until stdin
closes, then stops the loop and prints the wall time of every backend call,
in call order, as one JSON list. Exits 3 if the loop does not stop. The
agent's poll interval is POLL_INTERVAL_MS, 1 ms by default.
"""

from __future__ import annotations

import json
import sys
import time

from edgenas.cost_model import DeviceProfile
from edgenas.edge_agent import AgentConfig, SimulatedBackend, embedded_agent
from edgenas.store import Store

JOIN_TIMEOUT_S = 5.0


class TimedBackend:
    """A backend that records the wall time of each time_inference call, in call order."""

    def __init__(self, backend):
        self.backend = backend
        self.durations: list[float] = []

    def time_inference(self, spec, batch_size):
        started = time.perf_counter()
        try:
            return self.backend.time_inference(spec, batch_size)
        finally:
            self.durations.append(time.perf_counter() - started)


def main() -> int:
    store_path, call_s = sys.argv[1], float(sys.argv[2])
    poll_interval_ms = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    backend = TimedBackend(SimulatedBackend(DeviceProfile(), call_duration_s=call_s))
    with Store(store_path) as store:
        try:
            with embedded_agent(AgentConfig(poll_interval_ms=poll_interval_ms), store, backend, JOIN_TIMEOUT_S):
                print("ready", flush=True)
                sys.stdin.read()
        except TimeoutError:
            return 3
    print(json.dumps(backend.durations), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
