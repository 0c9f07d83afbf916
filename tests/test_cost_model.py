from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from edgenas.cost_model import (
    INPUT_FRAMES,
    INPUT_HW,
    DeviceProfile,
    PLANTED_OPTIMUM,
    SurrogateConfig,
    flops_estimate,
    param_count,
    spec_distance,
    synthetic_latency,
    synthetic_val_loss,
)
from edgenas.search_space import FIELDS, HyperparamSpec, default_config, sample, validate

MINIMAL_SPEC = HyperparamSpec(
    patch_size=(4, 4, 4), embed_dim=24, depths=(1, 1, 1, 1), heads=(3, 3, 3, 3),
    mlp_ratio=1, learning_rate=1e-4, lr_step_size=10, lr_gamma=0.5,
)

# frozen from tests/oracle_param_count.py and tests/oracle_flops.py, run
# before the implementation was written
PARAM_CONSTANTS = {"default": 27_842_984, "planted": 4_379_762, "minimal": 427_550}
GFLOP_CONSTANTS = {"default": 55.301899776, "planted": 5.690622720, "minimal": 0.829686144}


def _pinned(name):
    return {"default": default_config(), "planted": PLANTED_OPTIMUM, "minimal": MINIMAL_SPEC}[name]


@pytest.mark.parametrize("name", ["default", "planted", "minimal"])
def test_param_count_matches_frozen_oracle_constant(name):
    assert param_count(_pinned(name)) == PARAM_CONSTANTS[name]


@pytest.mark.parametrize("name", ["default", "planted", "minimal"])
def test_flops_matches_frozen_oracle_constant(name):
    assert flops_estimate(_pinned(name)) == pytest.approx(GFLOP_CONSTANTS[name], abs=1e-12)


@pytest.mark.parametrize("name", ["default", "planted", "minimal"])
def test_oracle_scripts_agree(name):
    from oracle_flops import oracle_gflops
    from oracle_param_count import oracle_param_count

    spec = _pinned(name)
    doc = {
        "patch_size": list(spec.patch_size), "embed_dim": spec.embed_dim,
        "depths": list(spec.depths), "heads": list(spec.heads), "mlp_ratio": spec.mlp_ratio,
    }
    assert oracle_param_count(doc) == param_count(spec)
    assert oracle_gflops(doc) == pytest.approx(flops_estimate(spec), abs=1e-12)


def test_learning_rate_fields_do_not_affect_costs():
    a = PLANTED_OPTIMUM
    b = replace(a, learning_rate=0.9, lr_step_size=40, lr_gamma=0.2)
    assert param_count(a) == param_count(b)
    assert flops_estimate(a) == flops_estimate(b)


def test_param_count_monotone_in_depths():
    small = replace(default_config(), depths=(1, 1, 1, 1))
    assert param_count(small) < param_count(default_config())


def test_costs_monotone_in_embed_dim_and_each_depth_entry():
    rng = random.Random(23)
    for _ in range(1000):
        spec = sample(rng)
        if spec.embed_dim == 24:
            bigger = replace(spec, embed_dim=48)
            assert param_count(bigger) > param_count(spec)
            assert flops_estimate(bigger) > flops_estimate(spec)
        stage = rng.randrange(4)
        if spec.depths[stage] < 4:
            depths = list(spec.depths)
            depths[stage] = {1: 2, 2: 4}[depths[stage]]  # next value in the sampling set
            deeper = replace(spec, depths=tuple(depths))
            assert param_count(deeper) > param_count(spec)
            assert flops_estimate(deeper) > flops_estimate(spec)


def test_flops_additive_in_final_stage_blocks():
    spec = PLANTED_OPTIMUM  # depths (2, 2, 4, 2), patch (4, 4, 4), mlp 2
    doubled = replace(spec, depths=(2, 2, 4, 4))
    tokens, d = 256, 48 * 8  # stage-3 tokens and dim
    per_block = (4 * tokens * d * d + 2 * tokens * (8 * 7 * 7) * d + 2 * tokens * 2 * d * d) / 1e9
    assert flops_estimate(doubled) - flops_estimate(spec) == pytest.approx(2 * per_block, rel=1e-12)


def test_flops_lower_with_larger_patches():
    fine = replace(default_config(), patch_size=(2, 4, 4))
    coarse = replace(default_config(), patch_size=(4, 4, 4))
    assert flops_estimate(coarse) < flops_estimate(fine)


def test_every_admissible_patch_divides_the_input():
    # flops_estimate floors INPUT // patch, so each patch entry a spec can
    # hold after validate(spec, "baseline") must divide the fixed input.
    patches = set(_CHOICES["patch_size"]) | set(default_config().patch_size)
    for p in patches:
        assert INPUT_FRAMES % p == 0 and INPUT_HW % p == 0


def test_invalid_spec_rejected():
    # The cost model trusts its input; the gate every spec passes first
    # refuses an out-of-range field and names it.
    bad = replace(default_config(), mlp_ratio=7)
    violations = validate(bad, "baseline")
    assert violations and all("mlp_ratio" in v for v in violations)


def test_synthetic_latency_formula():
    profile = DeviceProfile(base_latency_ms=5.0, ms_per_gflop=0.1, batch_efficiency=0.8, noise_std_ms=0.0)
    spec = PLANTED_OPTIMUM
    flops = flops_estimate(spec)
    rng = random.Random(0)
    assert synthetic_latency(spec, 1, profile, rng) == pytest.approx(5.0 + 0.1 * flops, rel=1e-9)


def test_synthetic_latency_linear_in_batch_when_efficiency_is_one():
    profile = DeviceProfile(base_latency_ms=0.0, ms_per_gflop=1.0, batch_efficiency=1.0, noise_std_ms=0.0)
    rng = random.Random(0)
    one = synthetic_latency(MINIMAL_SPEC, 1, profile, rng)
    four = synthetic_latency(MINIMAL_SPEC, 4, profile, rng)
    assert four == pytest.approx(4 * one, rel=1e-12)


def test_synthetic_latency_zero_noise_affine_exact():
    profile = DeviceProfile(noise_std_ms=0.0)
    rng = random.Random(9)
    for _ in range(50):
        spec = sample(rng)
        expected = profile.base_latency_ms + profile.ms_per_gflop * flops_estimate(spec)
        assert synthetic_latency(spec, 1, profile, rng) == pytest.approx(expected, rel=1e-9)


def test_synthetic_latency_deterministic_given_seed():
    profile = DeviceProfile(noise_std_ms=2.0)
    a = synthetic_latency(MINIMAL_SPEC, 2, profile, random.Random(42))
    b = synthetic_latency(MINIMAL_SPEC, 2, profile, random.Random(42))
    assert a == b


def test_device_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile(ms_per_gflop=0.0)
    with pytest.raises(ValueError):
        DeviceProfile(batch_efficiency=1.5)
    with pytest.raises(ValueError):
        DeviceProfile(base_latency_ms=-1)
    with pytest.raises(ValueError):
        DeviceProfile(noise_std_ms=-1)


def test_surrogate_config_validation():
    with pytest.raises(ValueError, match="capacity_weight must be >= 0"):
        SurrogateConfig(capacity_weight=-1)
    with pytest.raises(ValueError, match="epochs_half_life must be > 0"):
        SurrogateConfig(epochs_half_life=0)


def test_surrogate_rejects_invalid_planted_optimum():
    with pytest.raises(ValueError):
        SurrogateConfig(planted_optimum=default_config())


def test_val_loss_at_planted_optimum_reduces_to_capacity_term():
    cfg = SurrogateConfig(noise_std=0.0)
    loss = synthetic_val_loss(PLANTED_OPTIMUM, 10_000, cfg, random.Random(0))
    capacity = cfg.capacity_weight / (1 + math.log10(param_count(PLANTED_OPTIMUM)))
    assert loss == pytest.approx(capacity, abs=1e-12)


def test_val_loss_decreases_in_epochs():
    cfg = SurrogateConfig(noise_std=0.0)
    rng = random.Random(0)
    losses = [synthetic_val_loss(MINIMAL_SPEC, e, cfg, rng) for e in range(1, 8)]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_equal_distance_more_parameters_means_lower_loss():
    cfg = SurrogateConfig(noise_std=0.0)
    smaller = replace(PLANTED_OPTIMUM, embed_dim=24)  # one scalar row off
    larger = replace(PLANTED_OPTIMUM, mlp_ratio=4)  # one scalar row off, more params
    assert spec_distance(smaller, PLANTED_OPTIMUM) == spec_distance(larger, PLANTED_OPTIMUM)
    assert param_count(larger) > param_count(smaller)
    rng = random.Random(0)
    assert synthetic_val_loss(larger, 2, cfg, rng) < synthetic_val_loss(smaller, 2, cfg, rng)


def test_val_loss_strictly_positive():
    cfg = SurrogateConfig(noise_std=0.5)
    rng = random.Random(1)
    for _ in range(200):
        assert synthetic_val_loss(MINIMAL_SPEC, 5, cfg, rng) > 0


_CHOICES = {f.name: f.choices for f in FIELDS if hasattr(f, "choices")}
_SLOTS = []
for _i in range(3):
    _SLOTS.append(("patch_size", _i, _CHOICES["patch_size"]))
_SLOTS.append(("embed_dim", None, _CHOICES["embed_dim"]))
for _i in range(4):
    _SLOTS.append(("depths", _i, _CHOICES["depths"]))
for _i in range(4):
    _SLOTS.append(("heads", _i, _CHOICES["heads"]))
_SLOTS.append(("mlp_ratio", None, _CHOICES["mlp_ratio"]))
_SLOTS.append(("lr_step_size", None, _CHOICES["lr_step_size"]))


def _set_slot(spec, name, idx, value):
    if idx is None:
        return replace(spec, **{name: value})
    vec = list(getattr(spec, name))
    vec[idx] = value
    return replace(spec, **{name: tuple(vec)})


def test_planted_optimum_recoverable_by_hill_climbing():
    """First-improvement sweeps over single-slot moves reach the planted
    categorical optimum from >=95 of 100 random starts within 200 proposals."""
    cfg = SurrogateConfig(noise_std=0.0)
    rng = random.Random(20260810)
    successes = 0
    for _ in range(100):
        current = sample(rng)
        current_loss = synthetic_val_loss(current, 2, cfg, rng)
        proposals = 0
        improved = True
        while improved and proposals < 200:
            improved = False
            for name, idx, choices in _SLOTS:
                held = getattr(current, name) if idx is None else getattr(current, name)[idx]
                for value in choices:
                    if value == held or proposals >= 200:
                        continue
                    candidate = _set_slot(current, name, idx, value)
                    proposals += 1
                    loss = synthetic_val_loss(candidate, 2, cfg, rng)
                    if loss < current_loss:
                        current, current_loss = candidate, loss
                        improved = True
        if all(getattr(current, name) == getattr(PLANTED_OPTIMUM, name) for name, _, _ in _SLOTS):
            successes += 1
    assert successes >= 95, f"only {successes}/100 runs recovered the planted optimum"
