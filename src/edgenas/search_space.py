"""Hyperparameter domain: candidate specs, sampling, mutation, validation.

The domain covers the architectural knobs of a four-stage windowed video
transformer (patch size, embedding width, stage depths, head counts, MLP
ratio) plus three optimizer knobs (learning rate, scheduler step, decay
factor). All functions are pure; the caller owns the RNG.

FIELDS describes each field once: its kind (the row's class), choices or
bounds, and history-CSV columns, one per entry of a vector. Sampling,
mutation, validation, the spec document, spec distances, medians and the
history CSV all loop over it, so adding a field means one FIELDS row plus
one HyperparamSpec attribute.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass

OPEN_MARGIN = 1e-6  # how far open-interval reals stay inside their bounds
MUTATION_RATE = 1.0 / 8.0


class DocumentError(ValueError):
    """A spec document is missing a field or has an ill-typed one."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class HyperparamSpec:
    """One candidate: architecture plus optimizer hyperparameters."""

    patch_size: tuple[int, int, int]
    embed_dim: int
    depths: tuple[int, int, int, int]
    heads: tuple[int, int, int, int]
    mlp_ratio: int
    learning_rate: float
    lr_step_size: int
    lr_gamma: float


def _resample_excluding(rng: random.Random, choices: tuple[int, ...], current: int) -> int:
    pool = [c for c in choices if c != current]
    return rng.choice(pool) if pool else current


@dataclass(frozen=True)
class Choice:
    """Categorical integer drawn uniformly from `choices`; mutation resamples it."""

    name: str
    choices: tuple[int, ...]
    columns: tuple[str, ...] = ()  # history-CSV columns; empty means (name,)
    report_format = ""  # format spec of the value in printed reports

    def sample(self, rng: random.Random):
        return rng.choice(self.choices)

    def mutate(self, value, rng: random.Random):
        return _resample_excluding(rng, self.choices, value)

    def project(self, value, rng: random.Random):
        return value if value in self.choices else rng.choice(self.choices)

    def check(self, value, violations: list[str]) -> None:
        if value not in self.choices:
            violations.append(f"{self.name}: {value} not in {sorted(self.choices)}")

    def decode(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DocumentError(self.name, f"expected integer, got {value!r}")
        return value

    def to_document(self, value):
        return value

    def mismatches(self, a, b) -> int:
        return int(a != b)

    def distance(self, a, b) -> float:
        return float(a != b)

    def median(self, values: list):
        return statistics.median_low(values)


@dataclass(frozen=True)
class ChoiceVector:
    """One categorical integer per entry; mutation resamples one random entry."""

    name: str
    choices: tuple[int, ...]
    columns: tuple[str, ...]  # one history-CSV column per entry
    report_format = ""

    @property
    def length(self) -> int:
        return len(self.columns)

    def sample(self, rng: random.Random):
        return tuple(rng.choice(self.choices) for _ in range(self.length))

    def mutate(self, value, rng: random.Random):
        idx = rng.randrange(self.length)
        value = list(value)
        value[idx] = _resample_excluding(rng, self.choices, value[idx])
        return tuple(value)

    def project(self, value, rng: random.Random):
        if all(v in self.choices for v in value):
            return value
        return tuple(v if v in self.choices else rng.choice(self.choices) for v in value)

    def check(self, value, violations: list[str]) -> None:
        if not isinstance(value, tuple) or len(value) != self.length:
            violations.append(f"{self.name}: expected {self.length} entries, got {value!r}")
            return
        for i, entry in enumerate(value):
            if entry not in self.choices:
                violations.append(f"{self.name}[{i}]: {entry} not in {sorted(self.choices)}")

    def decode(self, value):
        if not isinstance(value, list) or len(value) != self.length:
            raise DocumentError(self.name, f"expected list of {self.length} integers, got {value!r}")
        for entry in value:
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise DocumentError(self.name, f"expected integer entries, got {entry!r}")
        return tuple(value)

    def to_document(self, value):
        return list(value)

    def mismatches(self, a, b) -> int:
        return sum(x != y for x, y in zip(a, b))

    def distance(self, a, b) -> float:
        return self.mismatches(a, b) / self.length

    def median(self, values: list):
        return tuple(statistics.median_low([v[i] for v in values]) for i in range(self.length))


@dataclass(frozen=True)
class _Real:
    """Real-valued field within `bounds`; mutation takes a Gaussian step of `sigma`."""

    name: str
    bounds: tuple[float, float]
    sigma: float
    columns: tuple[str, ...] = ()  # history-CSV columns; empty means (name,)

    def decode(self, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DocumentError(self.name, f"expected real, got {value!r}")
        return float(value)

    def to_document(self, value):
        return value

    def mismatches(self, a, b) -> int:
        return 0

    def median(self, values: list):
        return statistics.median(values)


class LogUniform(_Real):
    """Closed range sampled log-uniformly; mutation scales by 10**N(0, sigma)."""

    report_format = ".4g"

    def sample(self, rng: random.Random):
        return 10.0 ** rng.uniform(math.log10(self.bounds[0]), math.log10(self.bounds[1]))

    def mutate(self, value, rng: random.Random):
        return self.project(value * 10.0 ** rng.gauss(0.0, self.sigma), rng)

    def project(self, value, rng: random.Random):
        return min(max(value, self.bounds[0]), self.bounds[1])

    def check(self, value, violations: list[str]) -> None:
        lo, hi = self.bounds
        if not (isinstance(value, float) and lo <= value <= hi):
            violations.append(f"{self.name}: {value!r} not in [{lo}, {hi}]")

    def distance(self, a, b) -> float:
        span = math.log10(self.bounds[1]) - math.log10(self.bounds[0])
        return abs(math.log10(a) - math.log10(b)) / span


class OpenUniform(_Real):
    """Open range sampled uniformly; mutation adds N(0, sigma), kept inside the bounds."""

    report_format = ".4f"

    def sample(self, rng: random.Random):
        return self.project(rng.uniform(*self.bounds), rng)

    def mutate(self, value, rng: random.Random):
        return self.project(value + rng.gauss(0.0, self.sigma), rng)

    def project(self, value, rng: random.Random):
        return min(max(value, self.bounds[0] + OPEN_MARGIN), self.bounds[1] - OPEN_MARGIN)

    def check(self, value, violations: list[str]) -> None:
        lo, hi = self.bounds
        if not (isinstance(value, float) and lo < value < hi):
            violations.append(f"{self.name}: {value!r} not in open ({lo}, {hi})")

    def distance(self, a, b) -> float:
        return abs(a - b) / (self.bounds[1] - self.bounds[0])


#: The sampling domain, in the order of HyperparamSpec's attributes and of the document fields.
FIELDS = (
    ChoiceVector("patch_size", (2, 4), columns=("patch_t", "patch_h", "patch_w")),
    Choice("embed_dim", (24, 48)),
    ChoiceVector("depths", (1, 2, 4), columns=("d0", "d1", "d2", "d3")),
    ChoiceVector("heads", (3, 6, 12, 24), columns=("h0", "h1", "h2", "h3")),
    Choice("mlp_ratio", (1, 2, 3, 4)),
    LogUniform("learning_rate", (1e-5, 1.0), sigma=0.5, columns=("lr",)),
    Choice("lr_step_size", (10, 20, 40), columns=("lr_step",)),
    OpenUniform("lr_gamma", (0.1, 0.9), sigma=0.1),
)

#: Stable document field names; external trainers and the store rely on them.
FIELD_NAMES = tuple(f.name for f in FIELDS)
_BY_NAME = dict(zip(FIELD_NAMES, FIELDS))
PATCH_CHOICES = _BY_NAME["patch_size"].choices
EMBED_DIM_CHOICES = _BY_NAME["embed_dim"].choices
DEPTH_CHOICES = _BY_NAME["depths"].choices
HEAD_CHOICES = _BY_NAME["heads"].choices
MLP_RATIO_CHOICES = _BY_NAME["mlp_ratio"].choices
LR_STEP_CHOICES = _BY_NAME["lr_step_size"].choices

# Projection resamples embed_dim and depths before the other fields; seeded
# runs depend on this RNG draw order.
_PROJECTED_FIRST = ("embed_dim", "depths")
_PROJECTION_ORDER = [_BY_NAME[name] for name in _PROJECTED_FIRST] + [
    f for f in FIELDS if f.name not in _PROJECTED_FIRST
]

_BASELINE = HyperparamSpec(
    patch_size=(2, 4, 4),
    embed_dim=96,
    depths=(2, 2, 6, 2),
    heads=(3, 6, 12, 24),
    mlp_ratio=4,
    learning_rate=1e-4,
    lr_step_size=10,
    lr_gamma=0.5,
)


def default_config() -> HyperparamSpec:
    """The expert-chosen baseline configuration."""
    return _BASELINE


def sample(rng: random.Random) -> HyperparamSpec:
    """Draw one spec: categorical fields uniform, lr log-uniform, gamma uniform."""
    return HyperparamSpec(*[f.sample(rng) for f in FIELDS])


def mutate(parent: HyperparamSpec, rng: random.Random) -> HyperparamSpec:
    """One offspring: each field mutates with probability 1/8, at least one change.

    The mutation mask is drawn over the 8 fields and redrawn until non-empty.
    Vector fields mutate one stage entry at a time; categorical resampling
    excludes the current value; learning_rate takes a log-normal step and
    lr_gamma a Gaussian step, both clamped to their ranges. Offspring always
    satisfy the strict ranges, even for a baseline parent.
    """
    for _ in range(1000):
        mask = [rng.random() < MUTATION_RATE for _ in FIELDS]
        if not any(mask):
            continue
        values = {name: getattr(parent, name) for name in FIELD_NAMES}
        for f, hit in zip(FIELDS, mask):
            if hit:
                values[f.name] = f.mutate(values[f.name], rng)
        for f in _PROJECTION_ORDER:  # resample what is still outside the strict ranges
            values[f.name] = f.project(values[f.name], rng)
        offspring = HyperparamSpec(**values)
        if offspring != parent:
            return offspring
    raise RuntimeError("mutation failed to produce a distinct offspring")


def validate(spec: HyperparamSpec, mode: str = "strict") -> list[str]:
    """Range-check every field; returns violations (empty means valid).

    In "baseline" mode a field also passes when it equals the default
    configuration's value, so the expert baseline flows through the same
    pipeline despite sitting outside the sampling ranges.
    """
    if mode not in ("strict", "baseline"):
        raise ValueError(f"unknown validation mode {mode!r}")
    baseline = mode == "baseline"
    violations: list[str] = []
    for f in FIELDS:
        value = getattr(spec, f.name)
        if not (baseline and value == getattr(_BASELINE, f.name)):
            f.check(value, violations)
    return violations


def to_document_dict(spec: HyperparamSpec) -> dict:
    """Plain-dict form with the published field names (lists for vectors)."""
    return {f.name: f.to_document(getattr(spec, f.name)) for f in FIELDS}


def encode(spec: HyperparamSpec) -> str:
    """Portable JSON document; decode(encode(s)) == s bit-exactly."""
    return json.dumps(to_document_dict(spec), separators=(",", ":"))


def decode(document: str) -> HyperparamSpec:
    """Parse a spec document; raises DocumentError naming the bad field."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DocumentError("<document>", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("<document>", "expected a JSON object")
    for name in FIELD_NAMES:
        if name not in doc:
            raise DocumentError(name, "missing")
    return HyperparamSpec(*[f.decode(doc[f.name]) for f in FIELDS])
