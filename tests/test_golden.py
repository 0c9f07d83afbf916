"""Golden values of the seeded, byte-level contracts.

Stored spec documents, seeded searches, history CSVs, the simulated
backend"s noise streams and the surrogate loss must not move when the code
that produces them is restructured. Every constant here was recorded from
the field-by-field implementation of the search space; a difference means
a changed RNG draw order, a changed document or a changed message.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from conftest import make_sim_evaluator
from edgenas.cost_model import (
    DeviceProfile,
    SurrogateConfig,
    spec_distance,
    synthetic_val_loss,
)
from edgenas.edge_agent import AgentConfig, SimulatedBackend, measure
from edgenas.optimizer import (
    EvaluationFailed,
    RunConfig,
    derive_seed,
    run_ea,
    top_decile_medians,
    write_history_csv,
)
from edgenas.search_space import (
    FIELD_NAMES,
    DocumentError,
    HyperparamSpec,
    decode,
    default_config,
    encode,
    mutate,
    sample,
    validate,
)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sampled_documents() -> list[str]:
    return [encode(sample(random.Random(seed))) for seed in range(200)]


def mutated_documents() -> list[str]:
    parents = [default_config()] + [sample(random.Random(seed)) for seed in range(100)]
    docs = [encode(mutate(parent, random.Random(1000 + i))) for i, parent in enumerate(parents)]
    rng = random.Random(7)
    spec = default_config()
    for _ in range(300):  # one RNG through a chain: draw order, projection of the baseline
        spec = mutate(spec, rng)
        docs.append(encode(spec))
    return docs


def history_csv_digest(tmp_path, seed: int, noisy: bool) -> str:
    if noisy:
        inner = make_sim_evaluator(DeviceProfile(noise_std_ms=0.5), SurrogateConfig())
    else:
        inner = make_sim_evaluator()

    def evaluator(spec, ctx):
        if ctx.eval_index % 9 == 5:
            raise EvaluationFailed("planted failure")
        return inner(spec, ctx)

    history = run_ea(RunConfig(population_size=8, total_evaluations=64, seed=seed), evaluator)
    path = tmp_path / f"history-{seed}-{noisy}.csv"
    write_history_csv(history, f"golden-{seed}", path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median_report_values(seed: int) -> tuple:
    history = run_ea(RunConfig(population_size=8, total_evaluations=64, seed=seed), make_sim_evaluator())
    report = top_decile_medians([(r.spec, r.score) for r in history.ok_records()])
    return tuple(getattr(report, name) for name in FIELD_NAMES) + (report.sample_count,)


def measured_latencies() -> list[str]:
    backend = SimulatedBackend(DeviceProfile(noise_std_ms=0.7), seed=3)
    specs = [default_config()] + [sample(random.Random(50 + i)) for i in range(6)]
    lines = []
    for arch_id, spec in enumerate(specs):
        for row in measure(spec, AgentConfig(), backend, architecture_id=arch_id):
            lines.append(
                f"{arch_id} {row.batch_size} {row.latency_ms_mean!r} {row.latency_ms_std!r} {row.memory_mb!r}"
            )
    return lines


def val_losses() -> list[str]:
    surrogate = SurrogateConfig()
    specs = [default_config()] + [sample(random.Random(300 + i)) for i in range(40)]
    return [
        repr(synthetic_val_loss(spec, epochs, surrogate, random.Random(derive_seed(i, epochs, "val"))))
        for i, spec in enumerate(specs)
        for epochs in (1, 2, 5)
    ]


def distances() -> list[str]:
    specs = [default_config()] + [sample(random.Random(600 + i)) for i in range(40)]
    return [repr(spec_distance(a, b)) for a, b in zip(specs, specs[1:] + specs[:1])]


def test_sampled_documents_are_pinned():
    docs = sampled_documents()
    assert docs[0] == (
        '{"patch_size":[4,4,2],"embed_dim":48,"depths":[4,2,2,2],"heads":[24,12,6,6],'
        '"mlp_ratio":3,"learning_rate":4.997225239869503e-05,"lr_step_size":10,'
        '"lr_gamma":0.5946951973402653}'
    )
    assert _digest(docs) == "3503b352cd8dc70a7689f64f38d3df9e3b8b213c8622ae8feb11aa9235426c46"


def test_mutated_documents_are_pinned():
    docs = mutated_documents()
    assert docs[0] == (
        '{"patch_size":[2,4,4],"embed_dim":48,"depths":[2,4,1,2],"heads":[3,6,12,24],'
        '"mlp_ratio":4,"learning_rate":0.0001,"lr_step_size":10,"lr_gamma":0.5}'
    )
    assert _digest(docs) == "eb5eba7776f76116e5644038dd131e19664f3ec861a9f6c60c71477b3bd63287"


@pytest.mark.parametrize(
    "seed,noisy,expected",
    [
        (0, False, "4039450fec2e21dadde82150fe7171592e6bcb7ef876ffb29e7e1fe85732e2a1"),
        (5, True, "190e1c1fa227b32fc09505fd587028fe3194eea9ce41cf93cc753814e6f3e8ad"),
    ],
)
def test_history_csv_bytes_are_pinned(tmp_path, seed, noisy, expected):
    assert history_csv_digest(tmp_path, seed, noisy) == expected


def test_partial_final_round_history_is_pinned(tmp_path):
    """61 evaluations at population 8: round 7 covers lineages 0-4 only.

    The planted failures hit round 0 (lineage 5, whose failed parent must
    still be accepted) and the partial last round (lineage 3).
    """
    inner = make_sim_evaluator(DeviceProfile(noise_std_ms=0.5), SurrogateConfig())

    def evaluator(spec, ctx):
        if ctx.eval_index % 9 == 5:
            raise EvaluationFailed("planted failure")
        return inner(spec, ctx)

    history = run_ea(RunConfig(population_size=8, total_evaluations=61, seed=2), evaluator)
    assert [(r.round_index, r.lineage_id) for r in history.records if r.failed] == [
        (0, 5), (1, 6), (2, 7), (4, 0), (5, 1), (6, 2), (7, 3),
    ]
    assert [r.lineage_id for r in history.records if r.round_index == 7] == [0, 1, 2, 3, 4]
    path = tmp_path / "history-partial.csv"
    write_history_csv(history, "golden-partial", path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "b8b89d0b86147c94243dff40de302eff3814811bb5982d0f04d88e251c5f54ea"


def test_median_report_is_pinned():
    assert median_report_values(11) == (
        (4, 4, 4), 24, (1, 4, 2, 4), (6, 3, 24, 12), 2, 2.8402246183455596e-05, 40, 0.689310291791923, 7,
    )


def test_noisy_backend_latencies_are_pinned():
    lines = measured_latencies()
    assert lines[0] == "0 1 331.12817670013976 0.6529388388627568 111.371936"
    assert _digest(lines) == "e69b5131884d0b2bb3a711b1985c938107cd9b9606896351620be184bf66725a"


def test_surrogate_losses_are_pinned():
    losses = val_losses()
    assert losses[:3] == ["0.08695849309872297", "0.07677284920761955", "0.06129642066794311"]
    assert _digest(losses) == "fb5611a07494df7b8d7c6ad0c7b4c5c3ce01a55ab9d363cc13448625ce1ee7a4"


def test_spec_distances_are_pinned():
    values = distances()
    assert values[0] == "0.7116861252099056"
    assert _digest(values) == "0480c9a9873a4da8ec785cda5f527b0213bb05dc5c774f88b22136e5c64a3885"


def _bad_spec(**overrides) -> HyperparamSpec:
    fields = dict(
        patch_size=(4, 4, 4), embed_dim=24, depths=(1, 1, 1, 1), heads=(3, 3, 3, 3),
        mlp_ratio=1, learning_rate=1e-4, lr_step_size=10, lr_gamma=0.5,
    )
    fields.update(overrides)
    return HyperparamSpec(**fields)


def test_violation_messages_are_pinned():
    everything_wrong = _bad_spec(
        patch_size=(3, 4, 5), embed_dim=96, depths=(1, 6, 2, 0), heads=(3, 5, 12, 7),
        mlp_ratio=8, learning_rate=2.0, lr_step_size=15, lr_gamma=0.9,
    )
    assert validate(everything_wrong) == [
        "patch_size[0]: 3 not in [2, 4]",
        "patch_size[2]: 5 not in [2, 4]",
        "embed_dim: 96 not in [24, 48]",
        "depths[1]: 6 not in [1, 2, 4]",
        "depths[3]: 0 not in [1, 2, 4]",
        "heads[1]: 5 not in [3, 6, 12, 24]",
        "heads[3]: 7 not in [3, 6, 12, 24]",
        "mlp_ratio: 8 not in [1, 2, 3, 4]",
        "learning_rate: 2.0 not in [1e-05, 1.0]",
        "lr_step_size: 15 not in [10, 20, 40]",
        "lr_gamma: 0.9 not in open (0.1, 0.9)",
    ]
    wrong_shapes = _bad_spec(
        patch_size=(4, 4), depths=[1, 1, 1, 1], heads=(3, 3, 3, 3, 3), learning_rate=1, lr_gamma=1
    )
    assert validate(wrong_shapes) == [
        "patch_size: expected 3 entries, got (4, 4)",
        "depths: expected 4 entries, got [1, 1, 1, 1]",
        "heads: expected 4 entries, got (3, 3, 3, 3, 3)",
        "learning_rate: 1 not in [1e-05, 1.0]",
        "lr_gamma: 1 not in open (0.1, 0.9)",
    ]
    assert validate(_bad_spec(lr_gamma=0.1)) == ["lr_gamma: 0.1 not in open (0.1, 0.9)"]  # both bounds are open
    assert validate(default_config(), "strict") == ["embed_dim: 96 not in [24, 48]", "depths[2]: 6 not in [1, 2, 4]"]
    mixed = _bad_spec(patch_size=(2, 4, 4), embed_dim=96, depths=(2, 2, 6, 2), mlp_ratio=5, lr_gamma=0.0)
    assert validate(mixed, "baseline") == ["mlp_ratio: 5 not in [1, 2, 3, 4]", "lr_gamma: 0.0 not in open (0.1, 0.9)"]
    with pytest.raises(ValueError) as info:
        validate(default_config(), "lenient")
    assert str(info.value) == "unknown validation mode 'lenient'"


_GOOD_DOC = encode(_bad_spec())


def _doc(**overrides) -> str:
    return _GOOD_DOC[:-1] + "".join(f',"{k}":{v}' for k, v in overrides.items()) + "}"


@pytest.mark.parametrize(
    "document,message",
    [
        (
            "{not json",
            "<document>: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        ("[1, 2]", "<document>: expected a JSON object"),
        ('{"patch_size": [4, 4, 4]}', "embed_dim: missing"),
        (_doc(patch_size="[4,4]"), "patch_size: expected list of 3 integers, got [4, 4]"),
        (_doc(depths='[1,1,1,"1"]'), "depths: expected integer entries, got '1'"),
        (_doc(heads="[3,3,3,true]"), "heads: expected integer entries, got True"),
        (_doc(patch_size='"444"'), "patch_size: expected list of 3 integers, got '444'"),
        (_doc(embed_dim="24.0"), "embed_dim: expected integer, got 24.0"),
        (_doc(mlp_ratio="true"), "mlp_ratio: expected integer, got True"),
        (_doc(lr_step_size="null"), "lr_step_size: expected integer, got None"),
        (_doc(learning_rate='"0.1"'), "learning_rate: expected real, got '0.1'"),
        (_doc(lr_gamma="false"), "lr_gamma: expected real, got False"),
        (_doc(embed_dim="1.5", learning_rate="[1]"), "embed_dim: expected integer, got 1.5"),
    ],
)
def test_document_error_messages_are_pinned(document, message):
    with pytest.raises(DocumentError) as info:
        decode(document)
    assert str(info.value) == message


def test_integral_reals_decode_to_floats():
    spec = decode(_doc(learning_rate="1", lr_gamma="0.5"))
    assert type(spec.learning_rate) is float and spec.learning_rate == 1.0
