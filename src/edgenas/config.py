"""Declarative run configuration: one YAML file, flags override values.

Unknown keys are rejected so typos fail loudly. The store path can also
come from the EDGENAS_STORE environment variable; precedence is
flag > environment > file > default.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import types
import typing
from dataclasses import dataclass, field

import yaml

from .cost_model import DeviceProfile, SurrogateConfig
from .edge_agent import AgentConfig
from .optimizer import RunConfig
from .search_space import HyperparamSpec, decode as decode_spec

ENV_STORE = "EDGENAS_STORE"
DEFAULT_STORE_PATH = "edgenas.sqlite"


class ConfigError(ValueError):
    pass


@dataclass
class RunSection:
    population: int = RunConfig.population_size
    samples: int = RunConfig.total_evaluations
    seed: int = RunConfig.seed
    epochs: int = RunConfig.epochs
    score_batch_size: int = RunConfig.score_batch_size
    measurement_timeout_s: float = RunConfig.measurement_timeout_s
    poll_interval_ms: int = 250
    trainer_duration_s: float = 0.0
    trainer_command: list[str] | None = None


@dataclass
class AgentSection:
    config: AgentConfig = field(default_factory=AgentConfig)
    measurement_command: list[str] | None = None
    measurement_timeout_s: float = 300.0
    call_duration_s: float = 0.0


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
        return value.split()
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


def _parse_agent(doc) -> AgentSection:
    """The flat agent section fills AgentConfig and the rest of AgentSection."""
    doc = _mapping("agent", doc)
    own = {f.name for f in dataclasses.fields(AgentSection)} - {"config"}
    config = _parse(AgentConfig, "agent", {k: v for k, v in doc.items() if k not in own})
    return _parse(AgentSection, "agent", {k: v for k, v in doc.items() if k in own}, config=config)


def load_config(path: str | None = None) -> CliConfig:
    """Parse the config file (all sections optional); env var may set the store."""
    doc: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if loaded is not None and not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        doc = loaded or {}
    sections = {f.name for f in dataclasses.fields(CliConfig)} - {"store_path"}
    _check_keys("config", doc, sections | {"store"})
    store_doc = _mapping("store", doc.get("store"))
    _check_keys("store", store_doc, {"path"})
    store_path = DEFAULT_STORE_PATH
    if store_doc.get("path") is not None:
        store_path = _convert("store.path", str, store_doc["path"])
    if ENV_STORE in os.environ:
        store_path = os.environ[ENV_STORE]
    return CliConfig(
        store_path=store_path,
        run=_parse(RunSection, "run", doc.get("run")),
        agent=_parse_agent(doc.get("agent")),
        device_profile=_parse(DeviceProfile, "device_profile", doc.get("device_profile")),
        surrogate=_parse(SurrogateConfig, "surrogate", doc.get("surrogate")),
        report=_parse(ReportSection, "report", doc.get("report")),
    )
