from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgenas.search_space import (
    DocumentError,
    EMBED_DIM_CHOICES,
    FIELD_NAMES,
    HyperparamSpec,
    MUTATION_RATE,
    decode,
    default_config,
    encode,
    mutate,
    sample,
    validate,
)


def test_default_config_values():
    spec = default_config()
    assert spec.patch_size == (2, 4, 4)
    assert spec.embed_dim == 96
    assert spec.depths == (2, 2, 6, 2)
    assert spec.heads == (3, 6, 12, 24)
    assert spec.mlp_ratio == 4
    assert spec.learning_rate == 1e-4
    assert spec.lr_step_size == 10
    assert spec.lr_gamma == 0.5


def test_default_fails_strict_passes_baseline():
    spec = default_config()
    strict = validate(spec, "strict")
    assert strict, "default must violate the strict sampling ranges"
    assert any("embed_dim" in v for v in strict)
    assert any("depths" in v for v in strict)
    assert validate(spec, "baseline") == []


def test_validate_names_offending_field():
    bad = default_config().__class__(
        patch_size=(2, 4, 4), embed_dim=24, depths=(1, 1, 1, 1), heads=(3, 3, 3, 3),
        mlp_ratio=1, learning_rate=1e-4, lr_step_size=10, lr_gamma=0.95,
    )
    violations = validate(bad, "strict")
    assert len(violations) == 1 and "lr_gamma" in violations[0]


def test_unknown_validation_mode_rejected():
    with pytest.raises(ValueError):
        validate(default_config(), "lenient")


def test_field_table_matches_spec_attributes():
    assert FIELD_NAMES == tuple(f.name for f in dataclasses.fields(HyperparamSpec))


def test_sample_deterministic_for_seed():
    a = [sample(random.Random(99)) for _ in range(20)]
    b = [sample(random.Random(99)) for _ in range(20)]
    assert a == b


def test_sampled_specs_pass_strict_validation():
    rng = random.Random(7)
    for _ in range(10_000):
        assert validate(sample(rng), "strict") == []


def test_sample_learning_rate_is_log_uniform():
    # independent oracle: median of log-uniform on [1e-5, 1] is 10^-2.5
    rng = random.Random(11)
    logs = sorted(math.log10(sample(rng).learning_rate) for _ in range(10_000))
    median = (logs[4999] + logs[5000]) / 2
    assert abs(median - (-2.5)) < 0.1


def test_mutate_offspring_never_equals_parent():
    rng = random.Random(3)
    parent = sample(rng)
    for _ in range(2000):
        child = mutate(parent, rng)
        assert child != parent
        parent = child


def test_mutate_from_baseline_is_strictly_valid():
    rng = random.Random(5)
    for _ in range(2000):
        child = mutate(default_config(), rng)
        assert validate(child, "strict") == []
        if child.embed_dim != 96:
            assert child.embed_dim in EMBED_DIM_CHOICES


def test_mutate_outputs_pass_strict_validation_fuzz():
    rng = random.Random(13)
    parent = sample(rng)
    for _ in range(10_000):
        parent = mutate(parent, rng)
        assert validate(parent, "strict") == []


def _exact_row_change_probability() -> float:
    # enumerate the 2^8 change masks; P(field i set | mask non-empty)
    p = MUTATION_RATE
    total = hit = 0.0
    for mask in range(1, 256):
        bits = [(mask >> i) & 1 for i in range(8)]
        weight = math.prod(p if b else (1 - p) for b in bits)
        total += weight
        hit += weight * bits[0]  # symmetric in i
    return hit / total


def test_mutate_per_field_change_frequency():
    parent = sample(random.Random(1))
    rng = random.Random(17)
    n = 10_000
    changes = {name: 0 for name in FIELD_NAMES}
    for _ in range(n):
        child = mutate(parent, rng)
        for name in FIELD_NAMES:
            if getattr(child, name) != getattr(parent, name):
                changes[name] += 1
    exact = _exact_row_change_probability()
    for name, count in changes.items():
        freq = count / n
        assert 0.08 <= freq <= 0.22, f"{name}: {freq}"
        assert abs(freq - exact) < 0.02, f"{name}: {freq} vs exact {exact}"


def test_encode_decode_roundtrip_default():
    spec = default_config()
    assert decode(encode(spec)) == spec


def test_encode_decode_preserves_full_float_precision():
    spec = default_config().__class__(
        patch_size=(2, 4, 4), embed_dim=24, depths=(1, 2, 4, 1), heads=(3, 6, 12, 24),
        mlp_ratio=2, learning_rate=3.141592653589793e-4, lr_step_size=20, lr_gamma=0.123456789012345,
    )
    decoded = decode(encode(spec))
    assert decoded.learning_rate == 3.141592653589793e-4
    assert decoded == spec


def test_decode_missing_field_names_it():
    import json

    doc = json.loads(encode(default_config()))
    del doc["depths"]
    with pytest.raises(DocumentError, match="depths"):
        decode(json.dumps(doc))


@pytest.mark.parametrize("field,value", [("embed_dim", "big"), ("depths", [1, 2]), ("learning_rate", "fast")])
def test_decode_ill_typed_field_names_it(field, value):
    import json

    doc = json.loads(encode(default_config()))
    doc[field] = value
    with pytest.raises(DocumentError, match=field):
        decode(json.dumps(doc))


def test_decode_rejects_non_json_and_non_object():
    with pytest.raises(DocumentError):
        decode("not json{")
    with pytest.raises(DocumentError):
        decode("[1, 2, 3]")


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_roundtrip_identity_on_sampled_and_mutated_specs(seed):
    rng = random.Random(seed)
    spec = sample(rng)
    assert decode(encode(spec)) == spec
    child = mutate(spec, rng)
    assert decode(encode(child)) == child
