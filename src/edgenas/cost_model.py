"""Analytic cost models and the synthetic training/latency stand-ins.

param_count and flops_estimate are closed-form sums at the data's one input:
INPUT_FRAMES monochrome frames of INPUT_HW x INPUT_HW pixels and NUM_OUTPUTS
regression targets. synthetic_latency, affine in FLOPs, and synthetic_val_loss,
a planted-optimum bowl whose capacity reward pulls loss against latency, stand
in for the real device and trainer. Nothing here checks a spec: each must pass
validate(spec, "baseline"), so its patch entries (2 or 4) divide the input,
and is checked where it enters. run_agent_loop measures only such specs,
Store.insert_architecture refuses any other post, SurrogateConfig validates
its planted optimum strictly, SimulatedTrainer trains sample or mutate output
(strictly valid) or default_config(), and perfbench passes sample output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .search_space import FIELDS, HyperparamSpec, validate

WINDOW = (8, 7, 7)  # fixed self-attention window, not searched
WINDOW_VOLUME = WINDOW[0] * WINDOW[1] * WINDOW[2]
REL_POS_TABLE_ENTRIES = (2 * WINDOW[0] - 1) * (2 * WINDOW[1] - 1) * (2 * WINDOW[2] - 1)

INPUT_FRAMES = 16
INPUT_HW = 256
INPUT_CHANNELS = 1  # monochrome high-speed frames assumed
NUM_OUTPUTS = 2  # speed and power regression targets

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


def _stage_dims(spec: HyperparamSpec) -> list[int]:
    return [spec.embed_dim * 2**i for i in range(4)]


def param_count(spec: HyperparamSpec) -> int:
    """Exact weight count of the architecture a spec describes.

    Covers the patch-embedding projection, per-block attention (QKV, output
    projection, relative-position bias tables), per-block norms and MLP,
    the three patch-merging reductions, the final norm, and the regression
    head. Learning-rate fields never enter.
    """
    e = spec.embed_dim
    r = spec.mlp_ratio
    total = INPUT_CHANNELS * math.prod(spec.patch_size) * e + e  # patch embedding
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
    total += d_last * NUM_OUTPUTS + NUM_OUTPUTS  # regression head
    return total


def flops_estimate(spec: HyperparamSpec) -> float:
    """Forward-pass GFLOPs (multiply-accumulates) at the fixed input shape.

    Token counts shrink 4x at each stage transition (spatial halving); per
    block the attention costs 4*T*d^2 + 2*T*W*d and the MLP 2*T*r*d^2.
    """
    pt, ph, pw = spec.patch_size
    e = spec.embed_dim
    tokens = (INPUT_FRAMES // pt) * (INPUT_HW // ph) * (INPUT_HW // pw)
    macs = tokens * (INPUT_CHANNELS * pt * ph * pw) * e  # patch embedding
    for i, d in enumerate(_stage_dims(spec)):
        per_block = 4 * tokens * d * d + 2 * tokens * WINDOW_VOLUME * d + 2 * tokens * spec.mlp_ratio * d * d
        macs += spec.depths[i] * per_block
        tokens //= 4
    macs += e * 8 * NUM_OUTPUTS  # head
    return macs / 1e9


def synthetic_latency(
    spec: HyperparamSpec,
    batch_size: int,
    profile: DeviceProfile,
    rng: random.Random,
    flops: float | None = None,
) -> float:
    """Simulated on-device latency in ms for one forward pass of the batch.

    flops is flops_estimate(spec), for a caller that times one spec many
    times and counts it once; None counts it here.
    """
    if flops is None:
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
    distance = spec_distance(spec, cfg.planted_optimum)
    capacity = cfg.capacity_weight / (1.0 + math.log10(param_count(spec)))
    decay = EPOCH_DECAY_SCALE * 2.0 ** (-epochs / cfg.epochs_half_life)
    loss = cfg.distance_weight * distance + capacity + decay
    if cfg.noise_std > 0:
        loss += rng.gauss(0.0, cfg.noise_std)
    return max(loss, LOSS_FLOOR)
