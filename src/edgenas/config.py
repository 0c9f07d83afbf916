"""Declarative run configuration: one YAML file, flags override values.

Unknown keys are rejected so typos fail loudly. load_config resolves the
store path: flag > EDGENAS_STORE > store.path > default, an empty value
counting as unset; the --device-type flag likewise overrides
agent.device_type. A configured command selects the external trainer
(run.trainer_command) or backend (agent.measurement_command), and a
trainer command never starts the embedded agent. A command string is
split by POSIX shell rules (shlex); a list passes its arguments verbatim.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shlex
import types
import typing
from dataclasses import dataclass, field

from .cost_model import DeviceProfile, SurrogateConfig
from .coordinator import DispatchSettings
from .edge_agent import MEASUREMENT_COMMAND_TIMEOUT_S, AgentConfig
from .optimizer import RunConfig
from .search_space import HyperparamSpec, decode as decode_spec

ENV_STORE = "EDGENAS_STORE"
DEFAULT_STORE_PATH = "edgenas.sqlite"


class ConfigError(ValueError):
    pass


# the RunConfig and DispatchSettings fields whose run-section key has another name
_RUN_SECTION_KEYS = dict(population_size="population", total_evaluations="samples", poll_interval_s="poll_interval_ms")


def _run_refusal(exc: ValueError) -> ConfigError:
    """A RunConfig or DispatchSettings refusal, naming the run-section keys."""
    return ConfigError("run: " + " ".join(_RUN_SECTION_KEYS.get(word, word) for word in str(exc).split(" ")))


@dataclass
class RunSection:
    population: int = RunConfig.population_size
    samples: int = RunConfig.total_evaluations
    seed: int = RunConfig.seed
    epochs: int = RunConfig.epochs
    score_batch_size: int = RunConfig.score_batch_size
    measurement_timeout_s: float = RunConfig.measurement_timeout_s
    poll_interval_ms: int = round(DispatchSettings.poll_interval_s * 1000)
    trainer_duration_s: float = 0.0
    trainer_command: list[str] | None = None

    def __post_init__(self):
        if self.trainer_duration_s < 0:
            raise ValueError("trainer_duration_s must be >= 0")

    def run_config(self, **overrides) -> RunConfig:
        """The section as a RunConfig; overrides (by RunConfig field) that are not None replace its values."""
        values = {f.name: getattr(self, _RUN_SECTION_KEYS.get(f.name, f.name)) for f in dataclasses.fields(RunConfig)}
        values.update((name, value) for name, value in overrides.items() if value is not None)
        try:
            return RunConfig(**values)
        except ValueError as exc:
            raise _run_refusal(exc) from exc


@dataclass
class AgentSection:
    config: AgentConfig = field(default_factory=AgentConfig)
    seed: int = 0  # of the simulated backend
    measurement_command: list[str] | None = None
    measurement_timeout_s: float = MEASUREMENT_COMMAND_TIMEOUT_S
    call_duration_s: float = 0.0

    def __post_init__(self):
        if self.measurement_timeout_s <= 0:
            raise ValueError("measurement_timeout_s must be > 0")
        if self.call_duration_s < 0:
            raise ValueError("call_duration_s must be >= 0")


@dataclass
class ReportSection:
    history_csv: str | None = None
    output_dir: str = "reports"


@dataclass
class CliConfig:
    store_path: str = DEFAULT_STORE_PATH
    run: RunSection = field(default_factory=RunSection)
    agent: AgentSection = field(default_factory=AgentSection)
    device_profile: DeviceProfile = field(default_factory=DeviceProfile)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    report: ReportSection = field(default_factory=ReportSection)

    def dispatch_settings(self) -> DispatchSettings:
        """The coordinator's settings: the agent's device type and batch sizes, the run section's poll."""
        agent = self.agent.config
        try:
            return DispatchSettings(agent.device_type, agent.batch_sizes, self.run.poll_interval_ms / 1000.0)
        except ValueError as exc:
            raise _run_refusal(exc) from exc


def _mapping(section: str, doc) -> dict:
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: expected a mapping, got {doc!r}")
    return doc


def _check_keys(section: str, doc: dict, allowed: set[str]) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(sorted(map(str, unknown)))}")


def _int_tuple(value) -> tuple[int, ...]:
    if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in value):
        raise ValueError(f"expected a list of integers, got {value!r}")
    return tuple(value)


def _command(value) -> list[str]:
    if isinstance(value, str):
        return shlex.split(value)
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return list(value)
    raise ValueError(f"expected a command string or list of strings, got {value!r}")


def _spec(value) -> HyperparamSpec:
    return decode_spec(json.dumps(value))


# field types that need more than an isinstance check
_PARSERS = {tuple[int, ...]: _int_tuple, list[str]: _command, HyperparamSpec: _spec}


def _convert(where: str, hint, value):
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None parses as X
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if hint in _PARSERS:
        try:
            return _PARSERS[hint](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if hint is float and type(value) is int:
        return float(value)
    if isinstance(value, hint) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where}: expected {hint.__name__}, got {value!r}")


# get_type_hints evaluates every annotation on each call: resolve each class once
_type_hints = functools.cache(typing.get_type_hints)


def _parse(cls, section: str, doc, **fixed):
    """Build dataclass cls from one config section: a key per field, null keeps the default."""
    doc = _mapping(section, doc)
    _check_keys(section, doc, {f.name for f in dataclasses.fields(cls)} - set(fixed))
    values = {
        key: _convert(f"{section}.{key}", _type_hints(cls)[key], value)
        for key, value in doc.items()
        if value is not None
    }
    try:
        return cls(**values, **fixed)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _parse_agent(doc, device_type: str | None) -> AgentSection:
    """The flat agent section fills AgentConfig and the rest of AgentSection."""
    doc = _mapping("agent", doc)
    own = {f.name for f in dataclasses.fields(AgentSection)} - {"config"}
    config_doc = {k: v for k, v in doc.items() if k not in own}
    config = _parse(AgentConfig, "agent", {**config_doc, "device_type": device_type or doc.get("device_type")})
    return _parse(AgentSection, "agent", {k: v for k, v in doc.items() if k in own}, config=config)


def load_config(path: str | None = None, store_path: str | None = None, device_type: str | None = None) -> CliConfig:
    """Parse the config file (all sections optional); store_path is --store, device_type --device-type."""
    doc: dict = {}
    if path is not None:
        import yaml  # 1.4 MB of RSS: only a process that reads a file pays for it

        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
        except yaml.YAMLError as exc:  # the parser's message spans lines: keep its problem and where it is
            mark = getattr(exc, "problem_mark", None)  # a reader error (a control character) has none
            problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
            where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
            raise ConfigError(f"config file {path} is not valid YAML: {problem}{where}") from exc
        if loaded is not None and not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        doc = loaded or {}
    sections = {f.name for f in dataclasses.fields(CliConfig)} - {"store_path"}
    _check_keys("config", doc, sections | {"store"})
    store_doc = _mapping("store", doc.get("store"))
    _check_keys("store", store_doc, {"path"})
    file_path = store_doc.get("path")
    file_path = None if file_path is None else _convert("store.path", str, file_path)
    return CliConfig(
        store_path=store_path or os.environ.get(ENV_STORE) or file_path or DEFAULT_STORE_PATH,
        run=_parse(RunSection, "run", doc.get("run")),
        agent=_parse_agent(doc.get("agent"), device_type),
        device_profile=_parse(DeviceProfile, "device_profile", doc.get("device_profile")),
        surrogate=_parse(SurrogateConfig, "surrogate", doc.get("surrogate")),
        report=_parse(ReportSection, "report", doc.get("report")),
    )
