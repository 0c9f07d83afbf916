"""One edge agent pass that dies right after a chosen store write.

    python crashing_agent.py STORE_PATH KILL_AT

Runs run_agent_loop(..., once=True) at batch sizes (1, 2) with a noisy
simulated device and no call duration. The agent's store calls that write
(poll_unmeasured, whose agent poll resolves open rows, and
insert_measurement) are counted; right after the KILL_AT-th one returns,
the process ends with os._exit(KILLED_EXIT), as a crash would: no cleanup,
no close. KILL_AT 0 never kills: the pass ends normally and prints the
number of writes it made.
"""

from __future__ import annotations

import os
import sys
import threading

from edgenas.cost_model import DeviceProfile
from edgenas.edge_agent import AgentConfig, SimulatedBackend, run_agent_loop
from edgenas.store import Store

CONFIG = AgentConfig(batch_sizes=(1, 2))
PROFILE = DeviceProfile(noise_std_ms=1.0)
WRITES = ("poll_unmeasured", "insert_measurement")
KILLED_EXIT = 17


class KillingStore:
    """Passes every call on to store, and exits the process after its kill_at-th write."""

    def __init__(self, store: Store, kill_at: int):
        self.store, self.kill_at, self.writes = store, kill_at, 0

    def __getattr__(self, name):
        method = getattr(self.store, name)
        if name not in WRITES:
            return method

        def counted(*args, **kwargs):
            result = method(*args, **kwargs)
            self.writes += 1
            if self.writes == self.kill_at:
                os._exit(KILLED_EXIT)
            return result

        return counted


def main() -> int:
    store_path, kill_at = sys.argv[1], int(sys.argv[2])
    with Store(store_path) as store:
        proxy = KillingStore(store, kill_at)
        run_agent_loop(CONFIG, proxy, threading.Event(), SimulatedBackend(PROFILE), once=True)
    print(proxy.writes, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
