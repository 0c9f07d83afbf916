"""Every subcommand through main(), on a temporary store with 1 ms polls."""

from __future__ import annotations

import hashlib
import json
import sqlite3
import sys
import threading

import pytest

from conftest import add_failing_trigger
from edgenas import cli as cli_module
from edgenas import edge_agent
from edgenas import store as store_module
from edgenas.cli import main
from edgenas.optimizer import HISTORY_CSV_COLUMNS
from edgenas.search_space import default_config, encode
from edgenas.store import (
    ArchitectureRecord, BenchmarkResult, EdgeMeasurement, Role, RunMetadata, Store,
)

RUN_ID = "run-s0-n16-p8"


def _cli(tmp_path, monkeypatch, capsys, measurement_timeout_s: float):
    monkeypatch.delenv("EDGENAS_STORE", raising=False)
    store = tmp_path / "cli.sqlite"
    config = tmp_path / "fast.yaml"
    config.write_text(
        "run:\n"
        "  poll_interval_ms: 1\n"
        f"  measurement_timeout_s: {measurement_timeout_s}\n"
        "agent:\n"
        "  poll_interval_ms: 1\n"
    )

    def invoke(*argv: str) -> tuple[int, str]:
        code = main(["--config", str(config), "--store", str(store), *argv])
        return code, capsys.readouterr().out

    return invoke


@pytest.fixture
def cli(tmp_path, monkeypatch, capsys):
    return _cli(tmp_path, monkeypatch, capsys, measurement_timeout_s=60)


def test_init_store_is_idempotent(cli, tmp_path):
    expected = f"store at {tmp_path / 'cli.sqlite'} ready (schema version 2)\n"
    assert cli("init-store") == (0, expected)
    assert cli("init-store") == (0, expected)


def test_search_baseline_and_reports(cli, tmp_path):
    cli("init-store")
    assert cli("baseline") == (
        0,
        "samples  val_score  val_loss  inference_time  test_score  test_loss\n"
        "0        408.8178   0.0775    331.28ms        408.8384    0.0776\n",
    )
    assert cli("run", "--samples", "16") == (
        0,
        "samples  val_score  val_loss  inference_time  test_score  test_loss\n"
        "16       88.2448    0.0691    19.15ms         87.7685     0.0686\n",
    )
    assert cli("report", "summary", "--run-ids", "baseline", RUN_ID) == (
        0,
        "samples  val_score  val_loss  inference_time  test_score  test_loss\n"
        "0        408.8178   0.0775    331.28ms        408.8384    0.0776\n"
        "16       88.2448    0.0691    19.15ms         87.7685     0.0686\n"
        "inference speedup vs baseline at 16 samples: x17.30\n",
    )
    out_dir = tmp_path / "reports"
    pareto_csv = out_dir / f"pareto_{RUN_ID}.csv"
    assert cli("report", "pareto", "--run-ids", RUN_ID, "--out", str(out_dir)) == (0, f"{pareto_csv}\n")
    lines = pareto_csv.read_text().splitlines()
    assert lines[0] == "val_loss,inference_time_ms,dominated"
    assert len(lines) == 1 + 16
    assert cli("report", "medians", "--run-ids", RUN_ID) == (
        0,
        "top-decile medians over 16 candidates (2 selected):\n"
        "  patch_size     [4, 2, 4]\n"
        "  embed_dim      24\n"
        "  depths         [2, 1, 1, 2]\n"
        "  heads          [6, 3, 3, 12]\n"
        "  mlp_ratio      1\n"
        "  learning_rate  0.03922\n"
        "  lr_step_size   20\n"
        "  lr_gamma       0.7228\n",
    )


# (lineage, val_loss, test_loss or None) per evaluation of the baseline spec, in write order,
# at 10 ms: lineage 0 revisits its spec in a later round, so both visits share one architecture
@pytest.mark.parametrize(
    "evaluations,best_row",
    [
        (
            [(0, 0.1, 0.3), (1, 0.3, 0.2), (0, 0.2, 0.05)],
            "2        110.0000   0.1000    10.00ms         310.0000    0.3000\n",
        ),
        (
            [(0, 0.1, None), (1, 0.3, 0.2), (0, 0.2, 0.05)],
            "2        110.0000   0.1000    10.00ms         -           -\n",
        ),
    ],
    ids=["revisited_best", "best_without_test_row"],
)
def test_summary_pairs_the_best_evaluation_with_its_own_test_row(cli, tmp_path, evaluations, best_row):
    cli("init-store")
    with Store(str(tmp_path / "cli.sqlite")) as store:
        store.upsert_run_metadata(Role.OPTIMIZER, RunMetadata("revisits", json.dumps({"total_evaluations": 2})))
        for lineage, val_loss, test_loss in evaluations:
            arch = store.insert_architecture(
                Role.OPTIMIZER, ArchitectureRecord("revisits", lineage, encode(default_config()), ["dev"])
            )
            for split, loss in (("validation", val_loss), ("test", test_loss)):
                if loss is not None:
                    store.insert_benchmark_result(
                        Role.OPTIMIZER,
                        BenchmarkResult(arch, "revisits", 1, loss, 10.0, loss * 1000.0 + 10.0, split),
                    )
    assert cli("report", "summary", "--run-ids", "revisits") == (
        0, "samples  val_score  val_loss  inference_time  test_score  test_loss\n" + best_row
    )


def test_agent_once_serves_a_detached_baseline(tmp_path, monkeypatch, capsys):
    cli = _cli(tmp_path, monkeypatch, capsys, measurement_timeout_s=0.05)
    cli("init-store")
    # no agent serves the store, so the coordinator times out and leaves the backlog
    assert cli("baseline", "--no-embedded-agent") == (1, "")
    assert cli("agent", "--once") == (0, "processed 1 architecture(s)\n")
    assert cli("agent", "--once") == (0, "processed 0 architecture(s)\n")
    code, out = cli("baseline", "--no-embedded-agent")
    assert code == 0 and out.splitlines()[1].startswith("0        408.8178")


def _at(clock: str) -> str:
    return f"2026-01-01T00:{clock}.000+00:00"


def test_status_prints_each_devices_backlog_and_latest_report(cli, tmp_path, monkeypatch):
    cli("init-store")
    assert cli("status") == (0, "no device has open work or a report\n")
    with Store(str(tmp_path / "cli.sqlite")) as store:
        def post(lineage: int, created_at: str, targets: list[str]) -> int:
            record = ArchitectureRecord("r", lineage, encode(default_config()), targets, created_at)
            return store.insert_architecture(Role.OPTIMIZER, record)

        def report(architecture_id: int, device: str, measured: str) -> None:
            row = EdgeMeasurement(architecture_id, device, 1, 10.0, 0.1, 10, 3, measured_at=_at(measured))
            store.insert_measurement(Role.EDGE_AGENT, row)

        first = post(0, _at("00:00"), ["dev-a", "dev-b"])
        post(1, _at("01:00"), ["dev-a", "dev-c"])
        post(2, "yesterday", ["dev-d"])  # a client's created_at that is no time
        post(3, "1/1/2026", ["dev-a"])  # no time either, and it sorts before every dated row as text
        report(first, "dev-a", "02:00")  # one size of four: still open
        report(first, "dev-b", "03:00")
        store.poll_unmeasured(Role.EDGE_AGENT, "dev-b", (1,))  # the agent resolves dev-b's complete row
    monkeypatch.setattr(store_module, "utc_now", lambda: _at("05:00"))
    assert cli("status") == (
        0,
        f"dev-a: 3 open, oldest 300.0 s, last report {_at('02:00')}\n"
        f"dev-b: idle, last report {_at('03:00')}\n"
        "dev-c: 1 open, oldest 240.0 s, no report\n"
        "dev-d: 1 open, oldest unknown, no report\n",
    )


def _written_rows(store) -> list[int]:
    """The run_metadata and network_architecture row counts of the store file."""
    conn = sqlite3.connect(store)
    try:
        return [
            conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("run_metadata", "network_architecture")
        ]
    finally:
        conn.close()


@pytest.mark.parametrize("command", ["run", "baseline"])
def test_unmeasured_score_batch_size_refused_before_any_write(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("EDGENAS_STORE", raising=False)
    store = tmp_path / "cli.sqlite"
    config = tmp_path / "batch3.yaml"
    config.write_text("run:\n  score_batch_size: 3\n  poll_interval_ms: 1\nagent:\n  poll_interval_ms: 1\n")
    argv = ["--config", str(config), "--store", str(store)]
    assert main([*argv, "init-store"]) == 0
    capsys.readouterr()
    assert main([*argv, command]) == 2
    assert capsys.readouterr() == ("", "error: score_batch_size 3 not in measured batch sizes (1, 2, 4, 8)\n")
    assert _written_rows(store) == [0, 0]


@pytest.mark.parametrize("command", ["run", "baseline"])
@pytest.mark.parametrize(
    "text,message",
    [
        ("run:\n  poll_interval_ms: -5\n", "run: poll_interval_ms must be >= 0"),
        ("run:\n  measurement_timeout_s: -1\n", "run: measurement_timeout_s must be > 0"),
        ("run:\n  measurement_timeout_s: 0\n", "run: measurement_timeout_s must be > 0"),
        ("agent:\n  poll_interval_ms: -5\n", "agent: poll_interval_ms must be >= 0"),
        ("agent:\n  measurement_timeout_s: -1\n", "agent: measurement_timeout_s must be > 0"),
    ],
    ids=["run-poll", "run-timeout", "run-timeout-zero", "agent-poll", "agent-timeout"],
)
def test_bad_time_setting_refused_before_any_write(tmp_path, monkeypatch, capsys, command, text, message):
    monkeypatch.delenv("EDGENAS_STORE", raising=False)
    store = tmp_path / "cli.sqlite"
    config = tmp_path / "times.yaml"
    config.write_text(text)
    assert main(["--store", str(store), "init-store"]) == 0
    capsys.readouterr()
    assert main(["--config", str(config), "--store", str(store), command]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _written_rows(store) == [0, 0]


@pytest.mark.parametrize("command", ["run", "baseline"])
def test_run_section_refused_by_run_is_refused_by_baseline(tmp_path, monkeypatch, capsys, command):
    """The baseline builds its RunConfig from the run section, as a run without flags does."""
    monkeypatch.delenv("EDGENAS_STORE", raising=False)
    store = tmp_path / "cli.sqlite"
    config = tmp_path / "samples4.yaml"
    config.write_text("run:\n  samples: 4\n")
    assert main(["--store", str(store), "init-store"]) == 0
    capsys.readouterr()
    assert main(["--config", str(config), "--store", str(store), command]) == 2
    assert capsys.readouterr() == ("", "error: run: samples must be >= population\n")
    assert _written_rows(store) == [0, 0]


def test_non_sqlite_store_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("EDGENAS_STORE", raising=False)
    notes = tmp_path / "notes.txt"
    notes.write_text("meeting notes\n" * 100)
    assert main(["--store", str(notes), "report", "summary", "--run-ids", "x"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: store at {notes} is not an SQLite database")
    assert len(err.splitlines()) == 1


def test_init_store_refuses_foreign_sqlite_file(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("EDGENAS_STORE", raising=False)
    foreign = tmp_path / "foreign.sqlite"
    conn = sqlite3.connect(foreign)
    conn.execute("CREATE TABLE notes (body TEXT)")
    conn.commit()
    conn.close()
    before = hashlib.sha256(foreign.read_bytes()).hexdigest()
    assert main(["--store", str(foreign), "init-store"]) == 1
    assert capsys.readouterr() == (
        "", f"error: store at {foreign} has an unversioned, unrecognized schema\n"
    )
    assert hashlib.sha256(foreign.read_bytes()).hexdigest() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["foreign.sqlite"]  # no -wal or -shm file


@pytest.mark.parametrize(
    "command", [["init-store"], ["report", "summary", "--run-ids", "x"]], ids=["init-store", "report"]
)
def test_directory_as_store_is_one_error_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("EDGENAS_STORE", raising=False)
    assert main(["--store", str(tmp_path), *command]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: store at {tmp_path}: ")
    assert len(err.splitlines()) == 1


def test_store_failure_in_baseline_is_one_error_line(cli, tmp_path, capsys):
    cli("init-store")
    store = tmp_path / "cli.sqlite"
    add_failing_trigger(store, "benchmark_result")
    assert main(["--config", str(tmp_path / "fast.yaml"), "--store", str(store), "baseline"]) == 1
    assert capsys.readouterr() == ("", f"error: store at {store}: no such function: boom\n")


def test_hung_embedded_agent_fails_the_command(cli, tmp_path, monkeypatch, capsys):
    release = threading.Event()
    serve = edge_agent.run_agent_loop

    def ignore_stop(config, store, stop, backend):
        return serve(config, store, release, backend)

    monkeypatch.setattr(edge_agent, "run_agent_loop", ignore_stop)
    monkeypatch.setattr(cli_module, "AGENT_JOIN_TIMEOUT_S", 0.05)
    cli("init-store")
    try:
        argv = ["--config", str(tmp_path / "fast.yaml"), "--store", str(tmp_path / "cli.sqlite"), "baseline"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: embedded agent did not stop within 0.05 s\n")
    finally:
        release.set()
        for thread in threading.enumerate():
            if thread.name == "embedded-agent":
                thread.join(timeout=5)
                assert not thread.is_alive()


def test_unwritable_history_csv_is_one_error_line(cli, tmp_path, capsys):
    cli("init-store")
    target = tmp_path / "missing" / "h.csv"
    argv = ["--config", str(tmp_path / "fast.yaml"), "--store", str(tmp_path / "cli.sqlite")]
    assert main([*argv, "run", "--samples", "1", "--population", "1", "--history-csv", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert len(err.splitlines()) == 1
    # the path is refused before the search posts anything, so the store holds no run
    assert main([*argv, "report", "summary", "--run-ids", "run-s0-n1-p1"]) == 1


def test_pareto_out_on_a_regular_file_is_one_error_line(cli, tmp_path, capsys):
    cli("init-store")
    cli("baseline")
    not_a_dir = tmp_path / "notes.txt"
    not_a_dir.write_text("x\n")
    argv = ["--config", str(tmp_path / "fast.yaml"), "--store", str(tmp_path / "cli.sqlite")]
    assert main([*argv, "report", "pareto", "--run-ids", "baseline", "--out", str(not_a_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(not_a_dir) in err
    assert len(err.splitlines()) == 1


def _validation_rows(store, run_id: str) -> int:
    conn = sqlite3.connect(store)
    try:
        return conn.execute(
            "SELECT COUNT(*) FROM benchmark_result WHERE run_id = ? AND split = 'validation'", (run_id,)
        ).fetchone()[0]
    finally:
        conn.close()


def test_reused_run_id_is_refused(cli, tmp_path, capsys):
    cli("init-store")
    store = tmp_path / "cli.sqlite"
    argv = ["--config", str(tmp_path / "fast.yaml"), "--store", str(store), "run", "--samples", "4", "--population", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    refused_csv = tmp_path / "refused.csv"
    assert main([*argv, "--history-csv", str(refused_csv)]) == 2
    assert capsys.readouterr() == ("", "error: run run-s0-n4-p2 is already in the store\n")
    assert not refused_csv.exists()
    assert _validation_rows(store, "run-s0-n4-p2") == 4
    assert main([*argv, "--run-id", "again"]) == 0
    assert _validation_rows(store, "again") == 4


def test_history_csv_has_one_row_per_evaluation(cli, tmp_path):
    cli("init-store")
    target = tmp_path / "h.csv"
    assert cli("run", "--samples", "4", "--population", "2", "--history-csv", str(target))[0] == 0
    lines = target.read_text().splitlines()
    assert lines[0] == HISTORY_CSV_COLUMNS
    assert len(lines) == 1 + 4


def test_run_without_a_successful_evaluation_and_its_summary(tmp_path, monkeypatch, capsys):
    cli = _cli(tmp_path, monkeypatch, capsys, measurement_timeout_s=0.05)
    cli("init-store")
    argv = ["--config", str(tmp_path / "fast.yaml"), "--store", str(tmp_path / "cli.sqlite")]
    assert main([*argv, "run", "--samples", "2", "--population", "2", "--no-embedded-agent"]) == 1
    assert capsys.readouterr() == (
        "", "run run-s0-n2-p2: no successful evaluations (failures: {'measurement_timeout': 2})\n"
    )
    assert main([*argv, "report", "summary", "--run-ids", "run-s0-n2-p2"]) == 1
    assert capsys.readouterr() == (
        "", "warning: run run-s0-n2-p2 has no results, skipped\nerror: no results in the given runs\n"
    )


def test_medians_of_too_few_candidates_is_one_error_line(cli, tmp_path, capsys):
    cli("init-store")
    assert cli("run", "--samples", "4", "--population", "2")[0] == 0
    argv = ["--config", str(tmp_path / "fast.yaml"), "--store", str(tmp_path / "cli.sqlite")]
    assert main([*argv, "report", "medians", "--run-ids", "run-s0-n4-p2"]) == 1
    assert capsys.readouterr() == ("", "error: need at least 10 evaluated candidates, got 4\n")


def test_measurement_command_selects_the_external_backend(tmp_path, monkeypatch, capsys):
    cli = _cli(tmp_path, monkeypatch, capsys, measurement_timeout_s=0.05)
    config = tmp_path / "fast.yaml"
    command = json.dumps([sys.executable, "-c", "print(7.5)"])
    # the helper's config ends with its agent section
    config.write_text(
        config.read_text()
        + f"  measurement_command: {command}\n  batch_sizes: [1]\n  num_warmup: 0\n  num_timed_runs: 1\n"
    )
    cli("init-store")
    assert cli("baseline", "--no-embedded-agent") == (1, "")
    assert cli("agent", "--once") == (0, "processed 1 architecture(s)\n")
    code, out = cli("baseline", "--no-embedded-agent")
    assert code == 0 and out.splitlines()[1].split()[3] == "7.50ms"


def test_trainer_command_selects_the_external_trainer(tmp_path, monkeypatch, capsys):
    cli = _cli(tmp_path, monkeypatch, capsys, measurement_timeout_s=0.05)
    config = tmp_path / "fast.yaml"
    command = json.dumps([sys.executable, "-c", "print('{\"val_loss\": 0.5, \"test_loss\": 0.6}')"])
    config.write_text(config.read_text().replace("run:\n", f"run:\n  trainer_command: {command}\n"))
    cli("init-store")
    # an external trainer means a real agent serves the device, so none is embedded and the measurement times out
    assert main(["--config", str(config), "--store", str(tmp_path / "cli.sqlite"), "baseline"]) == 1
    assert capsys.readouterr() == ("", "baseline evaluation failed: measurement_timeout\n")
    assert cli("agent", "--once") == (0, "processed 1 architecture(s)\n")
    code, out = cli("baseline")
    assert code == 0 and out.splitlines()[1].split()[2] == "0.5000"


def test_agent_device_type_flag_serves_that_device(tmp_path, monkeypatch, capsys):
    cli = _cli(tmp_path, monkeypatch, capsys, measurement_timeout_s=0.05)
    cli("init-store")
    # nothing serves the store, so the baseline is posted for both devices and measured for neither
    for device in ("sim-edge", "dev-b"):
        assert cli("baseline", "--no-embedded-agent", "--device-type", device) == (1, "")
    assert cli("agent", "--once", "--device-type", "dev-b") == (0, "processed 1 architecture(s)\n")
    with Store(str(tmp_path / "cli.sqlite")) as store:
        assert store.poll_unmeasured(Role.READER, "dev-b", (1, 2, 4, 8)) == []
        assert len(store.poll_unmeasured(Role.READER, "sim-edge", (1, 2, 4, 8))) == 1


def test_interrupted_agent_exits_0(cli, monkeypatch):
    cli("init-store")

    def interrupt(config, store, stop, backend, once=False):
        raise KeyboardInterrupt

    monkeypatch.setattr(edge_agent, "run_agent_loop", interrupt)
    assert cli("agent") == (0, "")


@pytest.mark.parametrize(
    "text,message",
    [("run: [unclosed\n", "is not valid YAML: "), ("- run\n- agent\n", "must contain a mapping")],
    ids=["invalid-yaml", "yaml-list"],
)
def test_config_file_that_is_no_mapping_is_one_error_line(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.delenv("EDGENAS_STORE", raising=False)
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    assert main(["--config", str(config), "--store", str(tmp_path / "cli.sqlite"), "init-store"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: config file {config} {message}")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.splitlines()[0]]
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "cli.sqlite").exists()
