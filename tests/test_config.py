from __future__ import annotations

import re

import pytest

from edgenas.cli import _make_backend, main
from edgenas.config import DEFAULT_STORE_PATH, ENV_STORE, ConfigError, load_config
from edgenas.coordinator import DispatchSettings
from edgenas.optimizer import RunConfig
from edgenas.search_space import default_config, to_document_dict


@pytest.fixture
def write_config(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_STORE, raising=False)

    def write(text: str) -> str:
        path = tmp_path / "edgenas.yaml"
        path.write_text(text)
        return str(path)

    return write


def test_store_path_precedence(write_config, monkeypatch, tmp_path, capsys):
    assert load_config(None).store_path == DEFAULT_STORE_PATH
    path = write_config(f"store:\n  path: {tmp_path / 'file.sqlite'}\n")
    assert load_config(path).store_path == str(tmp_path / "file.sqlite")
    monkeypatch.setenv(ENV_STORE, str(tmp_path / "env.sqlite"))
    assert load_config(path).store_path == str(tmp_path / "env.sqlite")
    flag = tmp_path / "flag.sqlite"
    assert main(["--config", path, "--store", str(flag), "init-store"]) == 0
    assert capsys.readouterr().out == f"store at {flag} ready (schema version 2)\n"
    assert flag.exists() and not (tmp_path / "env.sqlite").exists()


def test_empty_store_path_means_unset(write_config, monkeypatch, tmp_path):
    assert load_config(write_config("store: {path: ''}\n")).store_path == DEFAULT_STORE_PATH
    monkeypatch.setenv(ENV_STORE, "")
    assert load_config(None).store_path == DEFAULT_STORE_PATH
    path = write_config(f"store:\n  path: {tmp_path / 'file.sqlite'}\n")
    assert load_config(path).store_path == str(tmp_path / "file.sqlite")


def test_empty_file_gives_defaults(write_config):
    assert load_config(write_config("")) == load_config(None)


@pytest.mark.parametrize(
    "text,section",
    [
        ("stores: {}\n", "config"),
        ("store: {file: x}\n", "store"),
        ("run: {sample: 3}\n", "run"),
        ("agent: {batch_size: [1]}\n", "agent"),
        ("agent: {config: {}}\n", "agent"),
        ("device_profile: {noise: 1.0}\n", "device_profile"),
        ("device_profile: {name: jetson}\n", "device_profile"),
        ("surrogate: {planted: {}}\n", "surrogate"),
        ("report: {out: x}\n", "report"),
    ],
)
def test_unknown_keys_rejected_in_every_section(write_config, text, section):
    with pytest.raises(ConfigError, match=f"unknown key\\(s\\) in {section}: "):
        load_config(write_config(text))


def test_ints_coerce_to_floats(write_config):
    cfg = load_config(write_config(
        "run: {measurement_timeout_s: 3, trainer_duration_s: 0}\n"
        "agent: {measurement_timeout_s: 7, call_duration_s: 1}\n"
        "device_profile: {base_latency_ms: 4, noise_std_ms: 1}\n"
        "surrogate: {noise_std: 0}\n"
    ))
    values = [
        cfg.run.measurement_timeout_s, cfg.run.trainer_duration_s,
        cfg.agent.measurement_timeout_s, cfg.agent.call_duration_s,
        cfg.device_profile.base_latency_ms, cfg.device_profile.noise_std_ms,
        cfg.surrogate.noise_std,
    ]
    assert values == [3.0, 0.0, 7.0, 1.0, 4.0, 1.0, 0.0]
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize(
    "text,where",
    [
        ("run: {population: true}\n", "run.population"),
        ("agent: {num_warmup: false}\n", "agent.num_warmup"),
        ("agent: {batch_sizes: [1, true]}\n", "agent.batch_sizes"),
        ("run: {trainer_duration_s: true}\n", "run.trainer_duration_s"),
    ],
)
def test_bools_rejected_for_numbers(write_config, text, where):
    with pytest.raises(ConfigError, match=f"^{where}: expected"):
        load_config(write_config(text))


def test_wrong_scalar_types_rejected(write_config):
    with pytest.raises(ConfigError, match=r"^run\.samples: expected int, got 2\.5$"):
        load_config(write_config("run: {samples: 2.5}\n"))
    with pytest.raises(ConfigError, match=r"^store\.path: expected str, got 5$"):
        load_config(write_config("store: {path: 5}\n"))


def test_null_keeps_the_default(write_config):
    cfg = load_config(write_config("run: {samples: null}\nagent: {measurement_timeout_s: null}\n"))
    assert cfg.run.samples == 16 and cfg.agent.measurement_timeout_s == 300.0


def test_command_string_split_into_list(write_config):
    cfg = load_config(write_config(
        "run: {trainer_command: 'python train.py  --fast'}\n"
        "agent: {measurement_command: [python, measure.py]}\n"
    ))
    assert cfg.run.trainer_command == ["python", "train.py", "--fast"]
    assert cfg.agent.measurement_command == ["python", "measure.py"]
    quoted = load_config(write_config("run: {trainer_command: \"python 'my dir/train.py' --fast\"}\n"))
    assert quoted.run.trainer_command == ["python", "my dir/train.py", "--fast"]
    with pytest.raises(ConfigError, match=r"^agent\.measurement_command: expected a command string"):
        load_config(write_config("agent: {measurement_command: [python, 3]}\n"))


def test_flat_agent_section_fills_agent_config(write_config):
    cfg = load_config(write_config(
        "agent: {device_type: jetson, batch_sizes: [1, 4], num_timed_runs: 3, measurement_timeout_s: 9}\n"
    ))
    assert cfg.agent.config.device_type == "jetson"
    assert cfg.agent.config.batch_sizes == (1, 4)
    assert cfg.agent.config.num_timed_runs == 3
    assert cfg.agent.measurement_timeout_s == 9.0


def test_constructor_checks_name_the_section(write_config):
    with pytest.raises(ConfigError, match=r"^agent: batch_sizes must be strictly increasing"):
        load_config(write_config("agent: {batch_sizes: [4, 2]}\n"))
    with pytest.raises(ConfigError, match=r"^device_profile: ms_per_gflop must be > 0$"):
        load_config(write_config("device_profile: {ms_per_gflop: 0}\n"))


def test_zero_poll_intervals_are_legal(write_config):
    cfg = load_config(write_config("run: {poll_interval_ms: 0}\nagent: {poll_interval_ms: 0}\n"))
    assert cfg.agent.config.poll_interval_ms == 0
    assert cfg.dispatch_settings().poll_interval_s == 0.0


def test_run_section_builds_the_run_config(write_config):
    assert load_config(None).run.run_config() == RunConfig()
    cfg = load_config(write_config(
        "run: {population: 2, samples: 6, seed: 5, epochs: 3, score_batch_size: 2, measurement_timeout_s: 9}\n"
    ))
    assert cfg.run.run_config() == RunConfig(2, 6, 5, 3, 2, 9.0)
    assert cfg.run.run_config(total_evaluations=4, seed=None, epochs=1) == RunConfig(2, 4, 5, 1, 2, 9.0)


def test_dispatch_settings_take_the_agent_device_and_the_run_poll(write_config):
    assert load_config(None).dispatch_settings() == DispatchSettings()
    cfg = load_config(write_config(
        "run: {poll_interval_ms: 20}\nagent: {device_type: jetson, batch_sizes: [1, 4], poll_interval_ms: 7}\n"
    ), device_type="orin")
    assert cfg.dispatch_settings() == DispatchSettings("orin", (1, 4), 0.02)


def test_planted_optimum(write_config):
    planted = {**to_document_dict(default_config()), "embed_dim": 24, "depths": [2, 2, 4, 2]}
    cfg = load_config(write_config(f"surrogate: {{planted_optimum: {planted}}}\n"))
    assert cfg.surrogate.planted_optimum.embed_dim == 24
    with pytest.raises(ConfigError, match=r"^surrogate\.planted_optimum: embed_dim: expected integer"):
        load_config(write_config(f"surrogate: {{planted_optimum: {({**planted, 'embed_dim': 'x'})}}}\n"))
    with pytest.raises(ConfigError, match=r"^surrogate\.planted_optimum: patch_size: missing$"):
        load_config(write_config("surrogate: {planted_optimum: {embed_dim: 24}}\n"))
    with pytest.raises(ConfigError, match=r"^surrogate: planted_optimum must pass strict validation$"):
        load_config(write_config(f"surrogate: {{planted_optimum: {to_document_dict(default_config())}}}\n"))


@pytest.mark.parametrize(
    "text,message",
    [
        ("run: 5\n", "run: expected a mapping, got 5"),
        ("store: x.sqlite\n", "store: expected a mapping, got 'x.sqlite'"),
        ("agent: {batch_sizes: [a, b]}\n", "agent.batch_sizes: expected a list of integers, got ['a', 'b']"),
    ],
)
def test_malformed_sections_fail_cleanly(write_config, capsys, text, message):
    path = write_config(text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == message
    assert main(["--config", path, "init-store"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"^config file {re.escape(str(tmp_path))} cannot be read: "):
        load_config(str(tmp_path))
    assert main(["--config", str(tmp_path), "init-store"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: config file {tmp_path} cannot be read: ")
    assert len(err.splitlines()) == 1


def test_config_file_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_STORE, raising=False)
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"run: {}\n\xff\n")
    with pytest.raises(ConfigError, match=f"^config file {re.escape(str(path))} is not valid UTF-8: "):
        load_config(str(path))
    assert main(["--config", str(path), "--store", str(tmp_path / "s.sqlite"), "init-store"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: config file {path} is not valid UTF-8: ")
    assert len(err.splitlines()) == 1


def test_device_type_flag_overrides_the_file(write_config):
    assert load_config(None, device_type="x").agent.config.device_type == "x"
    path = write_config("agent: {device_type: jetson}\n")
    assert load_config(path).agent.config.device_type == "jetson"
    assert load_config(path, device_type="x").agent.config.device_type == "x"


def test_agent_seed_seeds_the_simulated_backend(write_config):
    assert _make_backend(load_config(write_config("agent: {seed: 3}\n"))).seed == 3
    assert _make_backend(load_config(None)).seed == 0
