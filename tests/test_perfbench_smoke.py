"""The frozen benchmark's searches still run on this source, untraced and traced.

perfbench/ drives the library through names that its own files fix: a
change to src/ that breaks one of them shows here, not only in a
`perfbench/run.py --trace 1` run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))  # as perfbench/run.py runs

import harness  # noqa: E402

# per-layer metrics that only calls made by src/ feed: a metric at 0.0 means the call went missing
TRACED_CALLS = (
    "store.insert_measurement.ms_p50",
    "edge_agent.report_ms.p50",
    "store.poll_unmeasured.ms_p50",
    "store.get_measurements.ms_p50",
    "edge_agent.measure_ms.p50",
    "coordinator.candidate_latency_ms.p50",
    "cost_model.synthetic_latency.us_p50",
)


@pytest.mark.parametrize("workload", ["cold_embedded", "overlap_split"])
def test_untraced_and_traced_searches_agree(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(harness, "EVALUATIONS", 16)
    workload = harness.WORKLOADS[workload]
    plain = harness.run_search(workload, 1, tmp_path, 0, None, trace=False)
    traced = harness.run_search(workload, 1, tmp_path, 1, None, trace=True)
    assert (plain.evals, plain.failed, traced.evals, traced.failed) == (16, 0, 16, 0)
    assert plain.history_csv == traced.history_csv
    assert {name: traced.layers[name] for name in TRACED_CALLS if not traced.layers[name] > 0} == {}
