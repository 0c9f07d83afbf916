"""Every subcommand through main(), on a temporary store with 1 ms polls."""

from __future__ import annotations

import hashlib
import sqlite3

import pytest

from edgenas.cli import main

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
    expected = f"store at {tmp_path / 'cli.sqlite'} ready (schema version 1)\n"
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


def test_agent_once_serves_a_detached_baseline(tmp_path, monkeypatch, capsys):
    cli = _cli(tmp_path, monkeypatch, capsys, measurement_timeout_s=0.05)
    cli("init-store")
    # no agent serves the store, so the coordinator times out and leaves the backlog
    assert cli("baseline", "--no-embedded-agent") == (1, "")
    assert cli("agent", "--once") == (0, "processed 1 architecture(s)\n")
    assert cli("agent", "--once") == (0, "processed 0 architecture(s)\n")
    code, out = cli("baseline", "--no-embedded-agent")
    assert code == 0 and out.splitlines()[1].startswith("0        408.8178")


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
    conn = sqlite3.connect(store)
    try:
        rows = [
            conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("run_metadata", "network_architecture")
        ]
    finally:
        conn.close()
    assert rows == [0, 0]


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
