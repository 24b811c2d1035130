"""TPE suggestion behavior, the optimize loop and the accuracy objective.

Three full searches are pinned by their trial points in
``tests/golden/tpe_searches.json``.  A change that alters a search on purpose
regenerates the file with ``PYTHONPATH=src python tests/test_tuning.py`` and
says why in CHANGES.md.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from potselect import tuning
from potselect.records import read_jsonl
from potselect.selection import SelectionConfig, Weights
from potselect.tuning import (
    SearchSpace,
    Trial,
    TrialHistory,
    _Parzen1D,
    accuracy_objective,
    best_trial,
    optimize,
    tpe_suggest,
    tune_weights,
)

from conftest import (
    BOLTS_Q,
    CONCEPT_FIXTURE,
    HOUSE_Q,
    ROUGH_FIXTURE,
    completion_fixture,
    eval_dataset_records,
    eval_fixtures,
    eval_pool,
    few_shot_requests,
    make_services,
    metric_requests,
)
from potselect.evalharness import load_gsm8k
from potselect.providers import Fixture, ProviderError, ProviderUnavailable


def _quadratic(point) -> float:
    return -float(np.sum((np.asarray(point) - 0.3) ** 2))


def _train_set(tmp_path):
    path = tmp_path / "train.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in eval_dataset_records():
            fh.write(json.dumps(record) + "\n")
    return load_gsm8k(path)


def _log(path):
    """A trial log's header seed and its (seq, point, objective) per trial."""
    (_, header), *trials = read_jsonl(path)
    return header["rng_seed"], [
        (record["seq"], tuple(record["point"]), record["objective"]) for _, record in trials
    ]


def _history(points_objectives, seed=0) -> TrialHistory:
    history = TrialHistory(rng_seed=seed)
    for i, (point, objective) in enumerate(points_objectives):
        history.trials.append(Trial(seq=i, point=tuple(point), objective=objective))
    return history


SEARCHES = Path(__file__).resolve().parent / "golden" / "tpe_searches.json"


def _corner_search() -> TrialHistory:
    """A 5-D search whose first trial sits on a bound in every dimension and stays
    the best, so every good fit has kernels centred on a lower or an upper bound."""
    space = SearchSpace(bounds=((0.0, 1.0), (-2.0, 3.0), (0.0, 0.5), (10.0, 11.0), (-1.0, 0.0)))
    corner = (0.0, 3.0, 0.5, 10.0, 0.0)
    history = _history([(corner, 1.0)], seed=6)
    for _ in range(40):
        point = tpe_suggest(history, space)
        objective = -float(np.sum((point - np.asarray(corner)) ** 2))
        history.trials.append(Trial(len(history.trials), tuple(float(v) for v in point), objective))
    return history


def _pinned_searches() -> dict[str, list[list[float]]]:
    """Each pinned search's trial points, in trial order."""
    searches = {
        "quadratic_4d": optimize(_quadratic, SearchSpace(), budget=60, seed=0),
        "distance_1d": optimize(
            lambda point: -abs(float(point[0]) - 1.7), SearchSpace(bounds=((-2.0, 3.0),)),
            budget=40, seed=3,
        ),
        "corner_5d": _corner_search(),
    }
    return {name: [list(t.point) for t in h.trials] for name, h in searches.items()}


class TestSearchSpace:
    def test_default_is_unit_box_4d(self):
        space = SearchSpace()
        assert space.ndim == 4
        assert space.bounds == ((0.0, 1.0),) * 4

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            SearchSpace(bounds=((1.0, 1.0),))

    def test_contains(self):
        space = SearchSpace(bounds=((0.0, 1.0), (-2.0, 2.0)))
        assert space.contains((0.5, -1.0))
        assert not space.contains((0.5, 3.0))


class TestTrialHistory:
    def test_objective_must_be_finite(self):
        with pytest.raises(ValueError):
            Trial(seq=0, point=(0.1,) * 4, objective=float("nan"))


class TestTpeSuggest:
    def test_empty_history_gives_uniform_point_in_bounds(self):
        space = SearchSpace()
        point = tpe_suggest(TrialHistory(rng_seed=1), space)
        assert space.contains(point)

    def test_degenerate_history_falls_back_to_uniform(self):
        space = SearchSpace()
        trials = [((i / 20.0,) * 4, 0.5) for i in range(20)]
        point = tpe_suggest(_history(trials, seed=2), space)
        assert space.contains(point)

    def test_deterministic_given_seed_and_history(self):
        trials = [
            (tuple(np.random.default_rng(i).uniform(0, 1, 4)), float(i)) for i in range(15)
        ]
        a = tpe_suggest(_history(trials, seed=9), SearchSpace())
        b = tpe_suggest(_history(trials, seed=9), SearchSpace())
        assert np.array_equal(a, b)

    def test_different_history_lengths_give_different_draws(self):
        trials = [
            (tuple(np.random.default_rng(i).uniform(0, 1, 4)), float(i)) for i in range(15)
        ]
        a = tpe_suggest(_history(trials, seed=9), SearchSpace())
        b = tpe_suggest(_history(trials[:-1], seed=9), SearchSpace())
        assert not np.array_equal(a, b)

    def test_suggestions_always_inside_arbitrary_bounds(self):
        space = SearchSpace(bounds=((-2.0, 3.0), (0.0, 0.5)))
        rng = np.random.default_rng(5)
        for i in range(200):
            n = int(rng.integers(0, 40))
            trials = [
                (
                    (float(rng.uniform(-2, 3)), float(rng.uniform(0, 0.5))),
                    float(rng.normal()) if i % 3 else 0.25,  # sometimes all-equal
                )
                for _ in range(n)
            ]
            point = tpe_suggest(_history(trials, seed=i), space)
            assert space.contains(point)

    def test_one_dimensional_cluster_attracts_suggestions(self):
        # high-objective points clustered near 0.3; the suggestion should
        # land inside the cluster's convex hull almost always
        rng = np.random.default_rng(0)
        cluster = rng.uniform(0.27, 0.33, size=10)
        spread = rng.uniform(0.5, 0.95, size=30)
        space = SearchSpace(bounds=((0.0, 1.0),))
        inside = 0
        for seed in range(100):
            history = TrialHistory(rng_seed=seed)
            seq = 0
            for x in cluster:
                history.trials.append(Trial(seq, (float(x),), objective=1.0 + 0.01 * float(x)))
                seq += 1
            for x in spread:
                history.trials.append(Trial(seq, (float(x),), objective=0.001 * float(x)))
                seq += 1
            suggestion = tpe_suggest(history, space)
            if cluster.min() <= suggestion[0] <= cluster.max():
                inside += 1
        assert inside > 90

    def test_startup_phase_is_uniform_random(self):
        trials = [((0.5,) * 4, float(i)) for i in range(5)]
        point = tpe_suggest(_history(trials, seed=3), SearchSpace())
        assert SearchSpace().contains(point)


def _truncnorm_pdf(parzen: _Parzen1D, xs: np.ndarray) -> np.ndarray:
    """The oracle: ``_Parzen1D.pdf`` through scipy.stats.truncnorm itself."""
    from scipy.stats import truncnorm

    k = parzen.mus.size
    total = np.full(xs.shape, 1.0 / (parzen.high - parzen.low))
    if k:
        a = (parzen.low - parzen.mus) / parzen.sigmas
        b = (parzen.high - parzen.mus) / parzen.sigmas
        kernels = truncnorm.pdf(
            xs[..., None], a[None, :], b[None, :], loc=parzen.mus[None, :],
            scale=parzen.sigmas[None, :],
        )
        total = total + kernels.sum(axis=-1)
    return total / (k + 1)


def _truncnorm_sample(parzen: _Parzen1D, rng: np.random.Generator, size: int) -> np.ndarray:
    """The oracle: ``_Parzen1D.sample`` through scipy.stats.truncnorm.rvs itself."""
    from scipy.stats import truncnorm

    k = parzen.mus.size
    components = rng.integers(0, k + 1, size=size)
    out = np.empty(size)
    uniform_mask = components == k
    out[uniform_mask] = rng.uniform(parzen.low, parzen.high, size=int(uniform_mask.sum()))
    idx = components[~uniform_mask]
    if k and idx.size:
        a = (parzen.low - parzen.mus[idx]) / parzen.sigmas[idx]
        b = (parzen.high - parzen.mus[idx]) / parzen.sigmas[idx]
        out[~uniform_mask] = truncnorm.rvs(
            a, b, loc=parzen.mus[idx], scale=parzen.sigmas[idx], random_state=rng
        )
    return out


def _random_fits(n: int):
    """Seeded (values, low, high) fits: duplicates, centres on either bound, k == 1."""
    yield [0.25], 0.0, 1.0
    yield [0.0], 0.0, 1.0
    yield [1.0], 0.0, 1.0
    yield [0.0, 1.0, 0.5, 0.5, 0.5], 0.0, 1.0
    for seed in range(n):
        rng = np.random.default_rng(seed)
        low = float(rng.uniform(-3.0, 1.0))
        high = low + float(rng.choice([1e-3, 0.5, 1.0, 7.0]))
        values = list(rng.uniform(low, high, size=int(rng.integers(1, 30))))
        if seed % 3 == 0:
            values += values[: len(values) // 2 + 1]  # duplicates
        if seed % 4 == 0:
            values.append(low)
        if seed % 5 == 0:
            values.append(high)
        yield values, low, high


class TestParzenKernels:
    """The closed-form kernels are scipy.stats.truncnorm's, bit for bit."""

    def test_pdf_and_samples_equal_truncnorm(self):
        for i, (values, low, high) in enumerate(_random_fits(240)):
            parzen = _Parzen1D(values, low, high)
            rng = np.random.default_rng([i, 1])
            xs = np.concatenate(([low, high], values, rng.uniform(low, high, size=32)))
            assert np.array_equal(parzen.pdf(xs), _truncnorm_pdf(parzen, xs)), i
            ours, theirs = np.random.default_rng([i, 2]), np.random.default_rng([i, 2])
            samples = parzen.sample(ours, 64)
            assert np.array_equal(samples, _truncnorm_sample(parzen, theirs, 64)), i
            assert ours.bit_generator.state == theirs.bit_generator.state, i

    def test_a_batch_equals_its_rows_fitted_one_by_one(self):
        for seed in range(60):
            rng = np.random.default_rng([seed, 3])
            d, k = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            low = rng.uniform(-3.0, 1.0, size=d)
            high = low + rng.choice([1e-3, 0.5, 1.0, 7.0], size=d)
            values = rng.uniform(low[:, None], high[:, None], size=(d, k))
            values[:, 0] = np.choose(rng.integers(0, 3, size=d), [values[:, 0], low, high])
            batch = _Parzen1D(values, low, high)
            rows = [_Parzen1D(values[i], low[i], high[i]) for i in range(d)]
            inside = rng.uniform(low[:, None], high[:, None], size=(d, 16))
            xs = np.concatenate((low[:, None], high[:, None], values, inside), axis=1)
            assert np.array_equal(batch.pdf(xs), [row.pdf(x) for row, x in zip(rows, xs)]), seed
            ours, theirs = np.random.default_rng([seed, 4]), np.random.default_rng([seed, 4])
            samples = batch.sample(ours, 64)
            assert np.array_equal(samples, [row.sample(theirs, 64) for row in rows]), seed
            assert ours.bit_generator.state == theirs.bit_generator.state, seed

    def test_every_fit_of_a_search_has_at_least_three_kernels(self, monkeypatch):
        shapes = []

        class Recording(_Parzen1D):
            def __init__(self, values, low, high):
                super().__init__(values, low, high)
                shapes.append(self.mus.shape)

        monkeypatch.setattr(tuning, "_Parzen1D", Recording)
        optimize(_quadratic, SearchSpace(), budget=60)
        assert len(shapes) == 2 * (60 - 10)  # one good and one bad fit per fitted trial
        assert all(dims == 4 and k >= 3 for dims, k in shapes)


class TestLogAddExp:
    def test_equals_scipy_logsumexp_bit_for_bit(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(0)
        n = 5000
        x, y = rng.choice([-1.0, 1.0], size=(2, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2, n))
        y[rng.random(n) < 0.1] = -np.inf  # a quantile q == 0
        ties = rng.random(n) < 0.1
        y[ties] = x[ties]
        x[(rng.random(n) < 0.02) & np.isfinite(y)] = -np.inf
        ours, theirs = tuning._logaddexp(x, y), logsumexp([x, y], axis=0)
        assert np.isfinite(ours).all()
        assert ours.tobytes() == theirs.tobytes()  # every bit, the sign included


class TestOptimize:
    def test_quadratic_converges_near_target(self):
        history = optimize(_quadratic, SearchSpace(), budget=60, seed=0)
        best = best_trial(history)
        assert np.all(np.abs(np.asarray(best.point) - 0.3) <= 0.1)

    def test_deterministic_across_runs(self):
        a = optimize(_quadratic, SearchSpace(), budget=15, seed=4)
        b = optimize(_quadratic, SearchSpace(), budget=15, seed=4)
        assert [t.point for t in a.trials] == [t.point for t in b.trials]

    def test_trial_log_reconstructs_history_exactly(self, tmp_path):
        log_path = tmp_path / "trials.jsonl"
        history = optimize(_quadratic, SearchSpace(), budget=12, seed=7, log_path=log_path)
        rng_seed, trials = _log(log_path)
        assert rng_seed == history.rng_seed == 7
        assert trials == [(t.seq, t.point, t.objective) for t in history.trials]

    def test_an_existing_log_is_overwritten_by_the_new_search(self, tmp_path):
        log_path = tmp_path / "trials.jsonl"
        optimize(_quadratic, SearchSpace(), budget=5, seed=3, log_path=log_path)
        history = optimize(_quadratic, SearchSpace(), budget=3, seed=8, log_path=log_path)
        rng_seed, trials = _log(log_path)
        assert rng_seed == 8
        assert [seq for seq, _, _ in trials] == [0, 1, 2]
        assert trials == [(t.seq, t.point, t.objective) for t in history.trials]

    def test_objective_failure_persists_partial_history(self, tmp_path):
        log_path = tmp_path / "trials.jsonl"
        calls = {"n": 0}

        def flaky(point):
            calls["n"] += 1
            if calls["n"] > 4:
                raise RuntimeError("provider down")
            return _quadratic(point)

        with pytest.raises(RuntimeError):
            optimize(flaky, SearchSpace(), budget=10, seed=1, log_path=log_path)
        assert [seq for seq, _, _ in _log(log_path)[1]] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "bad", [(0.5, 1.5, 0.5, 0.5), (-0.1, 0.5, 0.5, 0.5), (0.5,) * 3, (0.5, np.nan, 0.5, 0.5)]
    )
    def test_resumed_trial_outside_the_space_is_rejected(self, bad):
        trials = [
            ((0.2,) * 4, 0.0), ((0.4,) * 4, 1.0), (bad, 0.5), ((1.5,) * 4, 0.0), ((0.5,) * 5, 0.0),
        ]
        with pytest.raises(ValueError, match=r"^trial 2 point .* outside the space"):
            tpe_suggest(_history(trials), SearchSpace())

    def test_searches_keep_their_pinned_trial_points(self):
        pinned = json.loads(SEARCHES.read_text(encoding="utf-8"))
        assert _pinned_searches() == pinned

    def test_best_trial_prefers_earliest_on_ties(self):
        history = _history([((0.1,) * 4, 1.0), ((0.2,) * 4, 1.0)])
        assert best_trial(history).seq == 0


class TestAccuracyObjective:
    def _gold_services(self):
        fixtures = [CONCEPT_FIXTURE, ROUGH_FIXTURE]
        for i in range(1, 6):
            fixtures.append(
                completion_fixture(f"Evaluation question number {i}?", f"ans = {10 * i}")
            )
        return make_services(fixtures)

    def test_gold_programs_score_one(self, tmp_path):
        dataset = _train_set(tmp_path)
        assert accuracy_objective(Weights(), eval_pool(), dataset, self._gold_services()) == 1.0

    def test_constant_zero_answers_score_zero(self, tmp_path):
        dataset = _train_set(tmp_path)
        fixtures = [
            CONCEPT_FIXTURE,
            ROUGH_FIXTURE,
            Fixture("pattern", r"(?s)\n\nQuestion: [^\n]*\n# Python code, return ans\n\Z", "ans = 0"),
        ]
        assert accuracy_objective(Weights(), eval_pool(), dataset, make_services(fixtures)) == 0.0

    def test_mixed_fixture_scores_three_fifths(self, tmp_path):
        dataset = _train_set(tmp_path)
        value = accuracy_objective(Weights(), eval_pool(), dataset, make_services(eval_fixtures()))
        assert value == pytest.approx(0.6)


class TestTuneWeights:
    def test_budget_one_returns_the_single_point(self, tmp_path):
        log_path = tmp_path / "t.jsonl"
        searched = optimize(_quadratic, SearchSpace(), budget=1, seed=11, log_path=log_path)
        weights = Weights.from_array(best_trial(searched).point)
        _, trials = _log(log_path)
        assert len(trials) == 1
        assert weights.as_array() == pytest.approx(np.asarray(trials[0][1]))

    def test_synthetic_objective_recovers_target_box(self):
        searched = optimize(_quadratic, SearchSpace(), budget=60, seed=2)
        weights = Weights.from_array(best_trial(searched).point)
        assert np.all(np.abs(weights.as_array() - 0.3) <= 0.1)

    def test_accuracy_pipeline_objective(self, tmp_path):
        dataset = _train_set(tmp_path)
        best = tune_weights(
            eval_pool(), dataset, budget=2, seed=0, services=make_services(eval_fixtures()),
            selection_config_template=SelectionConfig(),
        )
        assert isinstance(best, Trial)
        assert best.seq in (0, 1)

    def test_empty_training_set_raises_before_the_first_trial(self, tmp_path, request_ledger):
        services = make_services(eval_fixtures())
        log_path = tmp_path / "t.jsonl"
        with pytest.raises(ValueError, match="training set is empty"):
            tune_weights(eval_pool(), [], 3, 0, services, log_path=log_path)
        assert request_ledger.sent == []
        assert not log_path.exists()

    def test_provider_failure_raises_in_its_trial_and_the_log_keeps_earlier_ones(self, tmp_path):
        pool, dataset = eval_pool(), _train_set(tmp_path)
        services = make_services(eval_fixtures())
        provider = services.completion
        questions = [item.question for item in dataset]
        first_trial = len(metric_requests(pool, questions)) + len(dataset)  # rows, then prompts

        def complete(request, served=provider.complete):
            if provider.calls == first_trial:
                raise ProviderUnavailable("endpoint down")
            return served(request)

        provider.complete = complete
        log_path = tmp_path / "t.jsonl"
        with pytest.raises(ProviderError, match="item E1: endpoint down"):
            tune_weights(pool, dataset, 3, 0, services, log_path=log_path)
        assert [seq for seq, _, _ in _log(log_path)[1]] == [0]

    def test_metrics_computed_once_per_item_and_trials_unchanged(self, tmp_path, request_ledger):
        # an item is answered correctly only when the bolts example is picked first,
        # so the objective depends on the weights
        tail = r"\n.*\nQuestion: Evaluation question number (\d+)\?\n# Python code, return ans\n\Z"
        fixtures = [
            CONCEPT_FIXTURE,
            ROUGH_FIXTURE,
            Fixture("pattern", r"(?s)\AQuestion: " + re.escape(BOLTS_Q) + tail, r"ans = \1 * 10"),
            Fixture("pattern", r"(?s)\AQuestion: " + re.escape(HOUSE_Q) + tail, "ans = 0"),
        ]
        pool, dataset, budget, seed = eval_pool(), _train_set(tmp_path), 14, 5
        questions = [item.question for item in dataset]
        metric = metric_requests(pool, questions)
        services = make_services(fixtures)
        log_path = tmp_path / "t.jsonl"
        best = tune_weights(
            pool, dataset, budget, seed, services,
            selection_config_template=SelectionConfig(), log_path=log_path,
        )
        tuned = list(request_ledger.sent)

        def recomputing(point):
            fresh = make_services(fixtures)
            return accuracy_objective(
                Weights.from_array(point), pool, dataset, fresh, SelectionConfig()
            )

        reference = optimize(recomputing, SearchSpace(), budget, seed=seed)
        recomputed = request_ledger.sent[len(tuned):]
        assert len(recomputed) == budget * (len(metric) + len(dataset))
        # each distinct few-shot request of the trials is sent once, on its first trial
        distinct = list(dict.fromkeys(few_shot_requests(recomputed, pool, questions)))
        assert few_shot_requests(tuned, pool, questions) == distinct
        assert len(distinct) < budget * len(dataset)
        assert len(tuned) == len(metric) + len(distinct)
        _, trials = _log(log_path)
        assert trials == [(t.seq, t.point, t.objective) for t in reference.trials]
        assert len({objective for _, _, objective in trials}) > 1
        assert best == best_trial(reference)


if __name__ == "__main__":
    SEARCHES.write_text(json.dumps(_pinned_searches(), indent=1) + "\n", encoding="utf-8")
    print(f"pinned searches -> {SEARCHES}")
