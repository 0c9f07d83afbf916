from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_front, make_sim_evaluator
from edgenas.optimizer import (
    EvaluationFailed,
    HISTORY_CSV_COLUMNS,
    RunConfig,
    RunHistory,
    ScoreBreakdown,
    pareto_front,
    run_ea,
    score,
    select,
    top_decile_medians,
    write_history_csv,
)
from edgenas.search_space import HyperparamSpec, sample


def test_score_paper_fixtures_exact():
    assert score(0.0807, 332.11) == pytest.approx(412.81, abs=1e-9)
    assert score(0.1254, 332.11) == pytest.approx(457.51, abs=1e-9)
    assert score(0.0, 0.0) == 0.0


def test_score_paper_fixtures_rounded_losses():
    # the published table rounds losses to 4 digits; scores match within 0.05
    assert abs(score(0.0937, 52.30) - 146.02) <= 0.05
    assert abs(score(0.0959, 44.34) - 140.26) <= 0.05
    assert abs(score(0.0923, 37.72) - 129.99) <= 0.05


def test_score_rejects_negative_inputs():
    with pytest.raises(ValueError):
        score(-0.1, 10.0)
    with pytest.raises(ValueError):
        score(0.1, -10.0)


def test_score_linearity():
    rng = random.Random(4)
    for _ in range(100):
        loss, t, a = rng.uniform(0, 1), rng.uniform(0, 500), rng.uniform(0.1, 5)
        assert score(a * loss, t) - score(loss, t) == pytest.approx(1000.0 * (a - 1) * loss, abs=1e-9)


def test_select_is_strict():
    assert select(412.81, 146.02)
    assert not select(100.0, 100.0)
    assert not select(100.0, 100.0001)
    assert select(100.0001, 100.0)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(population_size=8, total_evaluations=4)
    with pytest.raises(ValueError):
        RunConfig(population_size=0, total_evaluations=1)
    with pytest.raises(ValueError):
        RunConfig(epochs=0)


def test_run_ea_budget_16_is_8_parents_plus_8_offspring():
    calls = []

    def evaluator(spec, ctx):
        calls.append(ctx)
        return make_sim_evaluator()(spec, ctx)

    config = RunConfig(population_size=8, total_evaluations=16, seed=1)
    history = run_ea(config, evaluator)
    assert len(calls) == 16
    assert len(history.records) == 16
    assert sum(1 for c in calls if c.round_index == 0) == 8
    assert sum(1 for c in calls if c.round_index == 1) == 8


def test_run_ea_constant_evaluator_never_accepts_offspring():
    evaluator = lambda spec, ctx: ScoreBreakdown.from_losses(0.5, 10.0)  # noqa: E731
    history = run_ea(RunConfig(population_size=4, total_evaluations=20, seed=2), evaluator)
    offspring = [r for r in history.records if r.round_index > 0]
    assert offspring and not any(r.accepted for r in offspring)
    assert history.best().score == score(0.5, 10.0)


def test_run_ea_partial_final_round_uses_first_lineages():
    config = RunConfig(population_size=8, total_evaluations=19, seed=3)
    history = run_ea(config, make_sim_evaluator())
    last_round = max(r.round_index for r in history.records)
    final = [r.lineage_id for r in history.records if r.round_index == last_round]
    assert sorted(final) == [0, 1, 2]
    assert len(history.records) == 19


def test_run_ea_deterministic():
    config = RunConfig(population_size=8, total_evaluations=32, seed=11)
    a = run_ea(config, make_sim_evaluator())
    b = run_ea(config, make_sim_evaluator())
    assert [(r.lineage_id, r.round_index, r.spec, r.score, r.accepted) for r in a.records] == [
        (r.lineage_id, r.round_index, r.spec, r.score, r.accepted) for r in b.records
    ]


def test_run_ea_failed_evaluations_consume_budget_and_keep_parent():
    sim = make_sim_evaluator()
    calls = {"n": 0}

    def flaky(spec, ctx):
        calls["n"] += 1
        if ctx.round_index == 1 and ctx.lineage_id % 2 == 0:
            raise EvaluationFailed("backend down")
        return sim(spec, ctx)

    config = RunConfig(population_size=4, total_evaluations=16, seed=5)
    history = run_ea(config, flaky)
    assert calls["n"] == 16
    failed = [r for r in history.records if r.failed]
    assert len(failed) == 2 and all(r.score == math.inf for r in failed)
    for record in failed:
        parent = next(r for r in history.records if r.lineage_id == record.lineage_id and r.round_index == 0)
        later = [r for r in history.records if r.lineage_id == record.lineage_id and r.round_index == 2]
        assert later  # lineage kept going after the failure
        assert not record.accepted
        assert parent.accepted


def test_run_ea_all_failing_evaluator():
    def broken(spec, ctx):
        raise RuntimeError("nope")

    history = run_ea(RunConfig(population_size=2, total_evaluations=6, seed=1), broken)
    assert len(history.records) == 6
    assert history.best() is None
    assert all(r.failed for r in history.records)


def test_elitism_accepted_scores_strictly_decrease():
    config = RunConfig(population_size=8, total_evaluations=64, seed=7)
    history = run_ea(config, make_sim_evaluator())
    for lineage in range(8):
        accepted = [r.score for r in history.records if r.lineage_id == lineage and r.accepted]
        assert all(a > b for a, b in zip(accepted, accepted[1:]))
    # global best-so-far is non-increasing in evaluation order
    best = math.inf
    for record in sorted(history.records, key=lambda r: r.eval_index):
        best = min(best, record.score)
        lineage_best = min(
            r.score for r in history.records if r.eval_index <= record.eval_index
        )
        assert lineage_best == best


# -- pareto ---------------------------------------------------------------------


def test_pareto_single_point():
    assert pareto_front([(0.1, 50.0, "a")]) == ["a"]


def test_pareto_dominated_point_excluded():
    assert pareto_front([(0.1, 50.0, "a"), (0.2, 60.0, "b")]) == ["a"]


def test_pareto_incomparable_points_kept_sorted_by_time():
    front = pareto_front([(0.2, 50.0, "fast"), (0.1, 60.0, "accurate")])
    assert front == ["fast", "accurate"]


def test_pareto_exact_duplicates_all_kept():
    front = pareto_front([(0.1, 50.0, "a"), (0.1, 50.0, "b")])
    assert sorted(front) == ["a", "b"]


def test_pareto_same_time_higher_loss_dominated():
    assert pareto_front([(0.1, 50.0, "a"), (0.2, 50.0, "b")]) == ["a"]


def test_pareto_rejects_non_finite():
    with pytest.raises(ValueError):
        pareto_front([(math.inf, 1.0, "a")])


def test_pareto_matches_brute_force_on_random_sets():
    rng = random.Random(2026)
    for trial in range(50):
        n = rng.randint(1, 500)
        points = [
            (rng.choice([rng.uniform(0, 1), round(rng.uniform(0, 1), 2)]),
             rng.choice([rng.uniform(1, 500), round(rng.uniform(1, 500), 1)]),
             i)
            for i in range(n)
        ]
        assert sorted(pareto_front(points)) == sorted(brute_force_front(points))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0.1, 500)), min_size=1, max_size=60))
def test_pareto_brute_force_equivalence_property(coords):
    points = [(loss, t, i) for i, (loss, t) in enumerate(coords)]
    assert sorted(pareto_front(points)) == sorted(brute_force_front(points))


# -- top-decile medians -----------------------------------------------------------


def _spec(patch, embed, depths, heads, mlp, lr, step, gamma):
    return HyperparamSpec(tuple(patch), embed, tuple(depths), tuple(heads), mlp, lr, step, gamma)


def test_medians_hand_computed_20_entry_fixture():
    best = _spec([2, 4, 4], 24, [1, 1, 2, 1], [3, 6, 3, 12], 1, 1e-4, 10, 0.6)
    second = _spec([4, 2, 4], 48, [2, 2, 4, 2], [6, 12, 6, 24], 2, 1e-3, 20, 0.8)
    filler = _spec([4, 4, 4], 48, [4, 4, 4, 4], [24, 24, 24, 24], 4, 1e-2, 40, 0.3)
    entries = [(best, 10.0), (second, 20.0)] + [(filler, 100.0 + i) for i in range(18)]
    report = top_decile_medians(entries)
    assert report.sample_count == 2  # ceil(20/10)
    # element-wise lower medians of the two best specs
    assert report.patch_size == (2, 2, 4)
    assert report.embed_dim == 24
    assert report.depths == (1, 1, 2, 1)
    assert report.heads == (3, 6, 3, 12)
    assert report.mlp_ratio == 1
    assert report.lr_step_size == 10
    # continuous fields use the standard median (mean of the two)
    assert report.learning_rate == pytest.approx((1e-4 + 1e-3) / 2)
    assert report.lr_gamma == pytest.approx(0.7)


def test_medians_decile_of_ten_is_single_best():
    rng = random.Random(8)
    specs = [sample(rng) for _ in range(10)]
    entries = [(spec, float(i)) for i, spec in enumerate(specs)]
    report = top_decile_medians(entries)
    best = specs[0]
    assert report.patch_size == best.patch_size
    assert report.embed_dim == best.embed_dim
    assert report.learning_rate == best.learning_rate


def test_medians_requires_ten_candidates():
    rng = random.Random(9)
    entries = [(sample(rng), 1.0) for _ in range(9)]
    with pytest.raises(ValueError):
        top_decile_medians(entries)


def test_medians_report_all_shared_embed_dim():
    rng = random.Random(10)
    entries = []
    for i in range(30):
        spec = sample(rng)
        if i < 3:
            spec = _spec([4, 4, 4], 24, [1, 1, 1, 1], [3, 3, 3, 3], 1, 1e-4, 10, 0.5)
            entries.append((spec, float(i)))
        else:
            entries.append((spec, 1000.0 + i))
    report = top_decile_medians(entries)
    assert report.embed_dim == 24


# -- history CSV -------------------------------------------------------------------


def test_history_csv_contract_and_determinism(tmp_path):
    config = RunConfig(population_size=4, total_evaluations=12, seed=21)
    history = run_ea(config, make_sim_evaluator())
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_history_csv(history, "run-x", path_a)
    write_history_csv(history, "run-x", path_b)
    content = path_a.read_bytes()
    assert content == path_b.read_bytes()
    lines = content.decode().splitlines()
    assert lines[0] == HISTORY_CSV_COLUMNS
    assert len(lines) == 1 + 12


def test_history_csv_failed_rows(tmp_path):
    def broken(spec, ctx):
        raise RuntimeError("dead")

    history = run_ea(RunConfig(population_size=2, total_evaluations=4, seed=1), broken)
    path = tmp_path / "failed.csv"
    write_history_csv(history, "r", path)
    rows = path.read_text().splitlines()[1:]
    # initial parents stay the lineage head (accepted) even when failed
    assert all(row.endswith(",,inf,true") for row in rows[:2])
    assert all(row.endswith(",,inf,false") for row in rows[2:])
