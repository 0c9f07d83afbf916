from __future__ import annotations

import pytest

from edgenas.cli import main
from edgenas.config import DEFAULT_STORE_PATH, ENV_STORE, ConfigError, load_config
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
    assert capsys.readouterr().out == f"store at {flag} ready (schema version 1)\n"
    assert flag.exists() and not (tmp_path / "env.sqlite").exists()


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
