"""TPE suggestion behavior, the optimize loop and the accuracy objective.

Three full searches of the weight box are pinned by their trial points in
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
from potselect.records import encode_record, read_jsonl
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
    """A search whose first trial sits on a bound in every weight and stays the best,
    so every good fit has kernels centred on the lower and on the upper bound."""
    corner = (0.0, 1.0, 0.0, 1.0)
    history = _history([(corner, 1.0)], seed=6)
    for _ in range(40):
        point = tpe_suggest(history)
        objective = -float(np.sum((point - np.asarray(corner)) ** 2))
        history.trials.append(Trial(len(history.trials), tuple(float(v) for v in point), objective))
    return history


def _pinned_searches() -> dict[str, list[list[float]]]:
    """Each pinned search's trial points, in trial order."""
    searches = {
        "quadratic_4d": optimize(_quadratic, budget=60, seed=0),
        "distance_4d": optimize(lambda point: -abs(float(point[1]) - 0.7), budget=40, seed=3),
        "corner_4d": _corner_search(),
    }
    return {name: [list(t.point) for t in h.trials] for name, h in searches.items()}


class TestSearchSpace:
    def test_default_is_unit_box_4d(self):
        space = SearchSpace()
        assert space.ndim == 4
        draws = np.array([space.uniform(np.random.default_rng(i)) for i in range(200)])
        assert draws.shape == (200, 4)
        assert space.contains(draws).all()
        assert space.contains([(0.0,) * 4, (1.0,) * 4, (-0.0, 1.0, 0.0, 1.0)]).all()

    def test_contains(self):
        space = SearchSpace()
        assert space.contains((0.5,) * 4)
        for outside in (-1e-300, 1.0 + 2**-52, np.nan, np.inf, -np.inf):
            for dim in range(4):
                point = np.full(4, 0.5)
                point[dim] = outside
                assert not space.contains(point), (outside, dim)
                assert space.contains([point, (0.5,) * 4]).tolist() == [False, True]


class TestTrialHistory:
    def test_objective_must_be_finite(self):
        with pytest.raises(ValueError):
            Trial(seq=0, point=(0.1,) * 4, objective=float("nan"))


class TestTpeSuggest:
    def test_empty_history_gives_uniform_point_in_bounds(self):
        space = SearchSpace()
        point = tpe_suggest(TrialHistory(rng_seed=1))
        assert space.contains(point)

    def test_degenerate_history_falls_back_to_uniform(self):
        space = SearchSpace()
        trials = [((i / 20.0,) * 4, 0.5) for i in range(20)]
        point = tpe_suggest(_history(trials, seed=2))
        assert space.contains(point)

    def test_deterministic_given_seed_and_history(self):
        trials = [
            (tuple(np.random.default_rng(i).uniform(0, 1, 4)), float(i)) for i in range(15)
        ]
        a = tpe_suggest(_history(trials, seed=9))
        b = tpe_suggest(_history(trials, seed=9))
        assert np.array_equal(a, b)

    def test_different_history_lengths_give_different_draws(self):
        trials = [
            (tuple(np.random.default_rng(i).uniform(0, 1, 4)), float(i)) for i in range(15)
        ]
        a = tpe_suggest(_history(trials, seed=9))
        b = tpe_suggest(_history(trials[:-1], seed=9))
        assert not np.array_equal(a, b)

    def test_suggestions_always_inside_the_box(self):
        space = SearchSpace()
        rng = np.random.default_rng(5)
        for i in range(200):
            n = int(rng.integers(0, 40))
            points = rng.uniform(0.0, 1.0, size=(n, 4))
            on_bound = rng.random((n, 4)) < 0.1
            points[on_bound] = rng.choice([0.0, 1.0], size=int(on_bound.sum()))
            objectives = rng.normal(size=n) if i % 3 else np.full(n, 0.25)  # sometimes all-equal
            trials = [(point, float(objective)) for point, objective in zip(points, objectives)]
            point = tpe_suggest(_history(trials, seed=i))
            assert space.contains(point)

    def test_a_cluster_attracts_suggestions(self):
        # high-objective points clustered near 0.3 in every weight; the
        # suggestion should land near the cluster in every weight almost always
        rng = np.random.default_rng(0)
        cluster = rng.uniform(0.27, 0.33, size=(10, 4))
        spread = rng.uniform(0.5, 0.95, size=(30, 4))
        trials = [(point, 1.0 + 0.01 * float(point[0])) for point in cluster]
        trials += [(point, 0.001 * float(point[0])) for point in spread]
        near = sum(
            bool(np.all(np.abs(tpe_suggest(_history(trials, seed=seed)) - 0.3) <= 0.1))
            for seed in range(100)
        )
        assert near > 90

    @pytest.mark.parametrize("n_trials", [0, 15])
    def test_a_seed_counts_by_its_magnitude_modulo_2_to_the_32(self, n_trials):
        trials = [
            (tuple(np.random.default_rng(i).uniform(0, 1, 4)), float(i)) for i in range(n_trials)
        ]
        point = tpe_suggest(_history(trials, seed=5))
        for seed in (2**32 + 5, -5):
            assert np.array_equal(tpe_suggest(_history(trials, seed=seed)), point), seed

    def test_startup_phase_is_uniform_random(self):
        trials = [((0.5,) * 4, float(i)) for i in range(5)]
        point = tpe_suggest(_history(trials, seed=3))
        assert SearchSpace().contains(point)


def _truncnorm_pdf(parzen: _Parzen1D, xs: np.ndarray) -> np.ndarray:
    """The oracle: ``_Parzen1D.pdf`` through scipy.stats.truncnorm itself."""
    from scipy.stats import truncnorm

    k = parzen.mus.size
    total = np.ones(xs.shape)
    if k:
        a = (0.0 - parzen.mus) / parzen.sigmas
        b = (1.0 - parzen.mus) / parzen.sigmas
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
    out[uniform_mask] = rng.uniform(0.0, 1.0, size=int(uniform_mask.sum()))
    idx = components[~uniform_mask]
    if k and idx.size:
        a = (0.0 - parzen.mus[idx]) / parzen.sigmas[idx]
        b = (1.0 - parzen.mus[idx]) / parzen.sigmas[idx]
        out[~uniform_mask] = truncnorm.rvs(
            a, b, loc=parzen.mus[idx], scale=parzen.sigmas[idx], random_state=rng
        )
    return out


def _random_fits(n: int):
    """Seeded fits on [0, 1]: duplicates, tight clusters, centres exactly on 0 and on 1, k == 1."""
    yield [0.25]
    yield [0.0]
    yield [1.0]
    yield [0.0, 1.0, 0.5, 0.5, 0.5]
    for seed in range(n):
        rng = np.random.default_rng(seed)
        span = float(rng.choice([1e-3, 0.1, 1.0]))  # how tightly the centres cluster
        start = float(rng.uniform(0.0, 1.0 - span))
        values = list(start + span * rng.uniform(size=int(rng.integers(1, 30))))
        if seed % 3 == 0:
            values += values[: len(values) // 2 + 1]  # duplicates
        if seed % 4 == 0:
            values.append(0.0)
        if seed % 5 == 0:
            values.append(1.0)
        yield values


class TestParzenKernels:
    """The closed-form kernels are scipy.stats.truncnorm's, bit for bit."""

    def test_pdf_and_samples_equal_truncnorm(self):
        for i, values in enumerate(_random_fits(240)):
            parzen = _Parzen1D(values)
            rng = np.random.default_rng([i, 1])
            xs = np.concatenate(([0.0, 1.0], values, rng.uniform(size=32)))
            assert np.array_equal(parzen.pdf(xs), _truncnorm_pdf(parzen, xs)), i
            ours, theirs = np.random.default_rng([i, 2]), np.random.default_rng([i, 2])
            samples = parzen.sample(ours, 64)
            assert np.array_equal(samples, _truncnorm_sample(parzen, theirs, 64)), i
            assert ours.bit_generator.state == theirs.bit_generator.state, i

    def test_a_batch_equals_its_rows_fitted_one_by_one(self):
        for seed in range(60):
            rng = np.random.default_rng([seed, 3])
            d, k = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            values = rng.uniform(size=(d, k))
            values[:, 0] = np.choose(rng.integers(0, 3, size=d), [values[:, 0], 0.0, 1.0])
            batch = _Parzen1D(values)
            rows = [_Parzen1D(row) for row in values]
            bounds = np.tile([0.0, 1.0], (d, 1))
            xs = np.concatenate((bounds, values, rng.uniform(size=(d, 16))), axis=1)
            assert np.array_equal(batch.pdf(xs), [row.pdf(x) for row, x in zip(rows, xs)]), seed
            ours, theirs = np.random.default_rng([seed, 4]), np.random.default_rng([seed, 4])
            samples = batch.sample(ours, 64)
            assert np.array_equal(samples, [row.sample(theirs, 64) for row in rows]), seed
            assert ours.bit_generator.state == theirs.bit_generator.state, seed

    def test_every_fit_of_a_search_has_at_least_three_kernels(self, monkeypatch):
        shapes = []

        class Recording(_Parzen1D):
            def __init__(self, values):
                super().__init__(values)
                shapes.append(self.mus.shape)

        monkeypatch.setattr(tuning, "_Parzen1D", Recording)
        optimize(_quadratic, budget=60)
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
        history = optimize(_quadratic, budget=60, seed=0)
        best = best_trial(history)
        assert np.all(np.abs(np.asarray(best.point) - 0.3) <= 0.1)

    def test_deterministic_across_runs(self):
        a = optimize(_quadratic, budget=15, seed=4)
        b = optimize(_quadratic, budget=15, seed=4)
        assert [t.point for t in a.trials] == [t.point for t in b.trials]

    def test_trial_log_reconstructs_history_exactly(self, tmp_path):
        log_path = tmp_path / "trials.jsonl"
        history = optimize(_quadratic, budget=12, seed=7, log_path=log_path)
        rng_seed, trials = _log(log_path)
        assert rng_seed == history.rng_seed == 7
        assert trials == [(t.seq, t.point, t.objective) for t in history.trials]

    def test_the_log_is_one_encode_record_line_per_record(self, tmp_path):
        log_path = tmp_path / "trials.jsonl"
        history = optimize(_quadratic, budget=4, seed=7, log_path=log_path)
        header, *lines = log_path.read_bytes().splitlines(keepends=True)
        assert header == encode_record({"rng_seed": 7})
        assert len(lines) == len(history.trials)
        for line, trial in zip(lines, history.trials):
            timestamp = json.loads(line)["timestamp"]
            assert line == encode_record({**vars(trial), "timestamp": timestamp})

    def test_an_existing_log_is_overwritten_by_the_new_search(self, tmp_path):
        log_path = tmp_path / "trials.jsonl"
        optimize(_quadratic, budget=5, seed=3, log_path=log_path)
        history = optimize(_quadratic, budget=3, seed=8, log_path=log_path)
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
            optimize(flaky, budget=10, seed=1, log_path=log_path)
        assert [seq for seq, _, _ in _log(log_path)[1]] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "bad", [(0.5, 1.5, 0.5, 0.5), (-0.1, 0.5, 0.5, 0.5), (0.5,) * 3, (0.5, np.nan, 0.5, 0.5)]
    )
    def test_resumed_trial_outside_the_space_is_rejected(self, bad):
        trials = [
            ((0.2,) * 4, 0.0), ((0.4,) * 4, 1.0), (bad, 0.5), ((1.5,) * 4, 0.0), ((0.5,) * 5, 0.0),
        ]
        with pytest.raises(ValueError, match=r"^trial 2 point .* outside the space"):
            tpe_suggest(_history(trials))

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
        searched = optimize(_quadratic, budget=1, seed=11, log_path=log_path)
        weights = Weights.from_array(best_trial(searched).point)
        _, trials = _log(log_path)
        assert len(trials) == 1
        assert weights.as_array() == pytest.approx(np.asarray(trials[0][1]))

    def test_synthetic_objective_recovers_target_box(self):
        searched = optimize(_quadratic, budget=60, seed=2)
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

        reference = optimize(recomputing, budget, seed=seed)
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
