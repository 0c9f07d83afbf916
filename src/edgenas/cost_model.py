"""Analytic cost models and the synthetic training/latency stand-ins.

param_count and flops_estimate are deterministic closed-form sums over the
architecture family. synthetic_latency and synthetic_val_loss replace the
real device and the real trainer at desk scale: latency is affine in the
FLOPs estimate, and the loss surface is a planted-optimum bowl with a
capacity reward so that loss and latency genuinely pull in opposite
directions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .search_space import FIELDS, HyperparamSpec, validate

WINDOW = (8, 7, 7)  # fixed self-attention window, not searched
WINDOW_VOLUME = WINDOW[0] * WINDOW[1] * WINDOW[2]
REL_POS_TABLE_ENTRIES = (2 * WINDOW[0] - 1) * (2 * WINDOW[1] - 1) * (2 * WINDOW[2] - 1)

DEFAULT_INPUT_FRAMES = 16
DEFAULT_INPUT_HW = 256
DEFAULT_INPUT_CHANNELS = 1  # monochrome high-speed frames assumed
DEFAULT_NUM_OUTPUTS = 2  # speed and power regression targets

EPOCH_DECAY_SCALE = 0.05
LOSS_FLOOR = 1e-6

PLANTED_OPTIMUM = HyperparamSpec(
    patch_size=(4, 4, 4),
    embed_dim=48,
    depths=(2, 2, 4, 2),
    heads=(6, 6, 12, 12),
    mlp_ratio=2,
    learning_rate=5e-4,
    lr_step_size=20,
    lr_gamma=0.7,
)


class CostModelError(ValueError):
    pass


@dataclass(frozen=True)
class DeviceProfile:
    """Affine latency model of a simulated edge device."""

    base_latency_ms: float = 5.0
    ms_per_gflop: float = 5.9
    batch_efficiency: float = 0.8
    noise_std_ms: float = 0.0

    def __post_init__(self):
        if self.base_latency_ms < 0:
            raise ValueError("base_latency_ms must be >= 0")
        if self.ms_per_gflop <= 0:
            raise ValueError("ms_per_gflop must be > 0")
        if not 0 < self.batch_efficiency <= 1:
            raise ValueError("batch_efficiency must be in (0, 1]")
        if self.noise_std_ms < 0:
            raise ValueError("noise_std_ms must be >= 0")


@dataclass(frozen=True)
class SurrogateConfig:
    """Planted-optimum loss surface for the simulated trainer."""

    planted_optimum: HyperparamSpec = PLANTED_OPTIMUM
    capacity_weight: float = 0.05
    distance_weight: float = 0.1
    noise_std: float = 0.002
    epochs_half_life: float = 1.0

    def __post_init__(self):
        if validate(self.planted_optimum, "strict"):
            raise ValueError("planted_optimum must pass strict validation")
        for name in ("capacity_weight", "distance_weight", "noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.epochs_half_life <= 0:
            raise ValueError("epochs_half_life must be > 0")


def _require_valid(spec: HyperparamSpec) -> None:
    violations = validate(spec, "baseline")
    if violations:
        raise CostModelError("invalid spec: " + "; ".join(violations))


def _stage_dims(spec: HyperparamSpec) -> list[int]:
    return [spec.embed_dim * 2**i for i in range(4)]


def param_count(
    spec: HyperparamSpec,
    input_channels: int = DEFAULT_INPUT_CHANNELS,
    num_outputs: int = DEFAULT_NUM_OUTPUTS,
) -> int:
    """Exact weight count of the architecture a spec describes.

    Covers the patch-embedding projection, per-block attention (QKV, output
    projection, relative-position bias tables), per-block norms and MLP,
    the three patch-merging reductions, the final norm, and the regression
    head. Learning-rate fields never enter.
    """
    _require_valid(spec)
    e = spec.embed_dim
    r = spec.mlp_ratio
    total = input_channels * math.prod(spec.patch_size) * e + e  # patch embedding
    for i, d in enumerate(_stage_dims(spec)):
        per_block = (
            (3 * d * d + 3 * d)  # qkv
            + (d * d + d)  # attention output projection
            + 4 * d  # two layer norms
            + REL_POS_TABLE_ENTRIES * spec.heads[i]
            + (d * (r * d) + r * d + (r * d) * d + d)  # mlp fc1 + fc2
        )
        total += spec.depths[i] * per_block
        if i < 3:
            total += (4 * d) * (2 * d) + 4 * d  # patch merging
    d_last = e * 8
    total += 2 * d_last  # final norm
    total += d_last * num_outputs + num_outputs  # regression head
    return total


def flops_estimate(
    spec: HyperparamSpec,
    input_frames: int = DEFAULT_INPUT_FRAMES,
    input_hw: int = DEFAULT_INPUT_HW,
    input_channels: int = DEFAULT_INPUT_CHANNELS,
    num_outputs: int = DEFAULT_NUM_OUTPUTS,
) -> float:
    """Forward-pass GFLOPs (multiply-accumulates) at the given input shape.

    Token counts shrink 4x at each stage transition (spatial halving); per
    block the attention costs 4*T*d^2 + 2*T*W*d and the MLP 2*T*r*d^2.
    """
    _require_valid(spec)
    pt, ph, pw = spec.patch_size
    if input_frames % pt:
        raise CostModelError(f"frames axis: {input_frames} not divisible by patch size {pt}")
    if input_hw % ph:
        raise CostModelError(f"height axis: {input_hw} not divisible by patch size {ph}")
    if input_hw % pw:
        raise CostModelError(f"width axis: {input_hw} not divisible by patch size {pw}")
    e = spec.embed_dim
    tokens = (input_frames // pt) * (input_hw // ph) * (input_hw // pw)
    macs = tokens * (input_channels * pt * ph * pw) * e  # patch embedding
    for i, d in enumerate(_stage_dims(spec)):
        per_block = 4 * tokens * d * d + 2 * tokens * WINDOW_VOLUME * d + 2 * tokens * spec.mlp_ratio * d * d
        macs += spec.depths[i] * per_block
        tokens //= 4
    macs += e * 8 * num_outputs  # head
    return macs / 1e9


def synthetic_latency(
    spec: HyperparamSpec,
    batch_size: int,
    profile: DeviceProfile,
    rng: random.Random,
) -> float:
    """Simulated on-device latency in ms for one forward pass of the batch."""
    if batch_size < 1:
        raise CostModelError("batch_size must be >= 1")
    flops = flops_estimate(spec)
    latency = profile.base_latency_ms + profile.ms_per_gflop * flops * batch_size**profile.batch_efficiency
    if profile.noise_std_ms > 0:
        latency += rng.gauss(0.0, profile.noise_std_ms)
    return max(latency, 0.01)


def spec_distance(spec: HyperparamSpec, reference: HyperparamSpec) -> float:
    """Normalized distance in [0, 1]: mean of the per-field terms.

    Vector fields contribute their entry mismatch fraction, scalar
    categoricals 0/1, and reals their difference over the width of their
    range (in log10 for the learning rate).
    """
    terms = [f.distance(getattr(spec, f.name), getattr(reference, f.name)) for f in FIELDS]
    return sum(terms) / len(terms)


def categorical_mismatches(spec: HyperparamSpec, reference: HyperparamSpec) -> int:
    """Count of discrete entries differing from the reference (0 = match)."""
    return sum(f.mismatches(getattr(spec, f.name), getattr(reference, f.name)) for f in FIELDS)


def synthetic_val_loss(
    spec: HyperparamSpec,
    epochs: int,
    cfg: SurrogateConfig,
    rng: random.Random,
) -> float:
    """Planted-optimum surrogate for a trained model's validation loss.

    distance bowl + capacity reward (more parameters -> lower loss) +
    an epoch decay term + Gaussian noise, floored at a small positive
    value. The capacity reward opposes the latency objective, so score
    minimization faces a real trade-off.
    """
    if epochs < 1:
        raise CostModelError("epochs must be >= 1")
    distance = spec_distance(spec, cfg.planted_optimum)
    capacity = cfg.capacity_weight / (1.0 + math.log10(param_count(spec)))
    decay = EPOCH_DECAY_SCALE * 2.0 ** (-epochs / cfg.epochs_half_life)
    loss = cfg.distance_weight * distance + capacity + decay
    if cfg.noise_std > 0:
        loss += rng.gauss(0.0, cfg.noise_std)
    return max(loss, LOSS_FLOOR)
