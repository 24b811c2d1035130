"""Metric scoring, the greedy selection loop and redundancy pruning."""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potselect import interpreter, selection
from potselect.augmentation import Example, ExamplePool
from potselect.prompts import concept_prompt, zero_shot_prompt
from potselect.providers import (
    DimensionMismatch,
    Fixture,
    HashEmbedding,
    ScriptedProvider,
    Services,
    stacked,
)
from potselect.records import write_jsonl
from potselect.selection import (
    EmptyPool,
    IterationRecord,
    MetricVector,
    PoolStats,
    SelectionConfig,
    Weights,
    calculate_metrics,
    candidate_metrics,
    load_weights,
    prune,
    save_weights,
    score,
    select_examples,
)

from conftest import (
    CONCEPT_FIXTURE,
    ROUGH_FIXTURE,
    StubEmbedding,
    make_services,
    metric_requests,
    oracle_metric_rows,
    oracle_select_examples,
    random_pool,
    random_weights,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# repeated words, and texts with no token, which embed to the zero vector
_ORACLE_TEXTS = [
    "", "...", "?!", "eggs", "Eggs, eggs!", "eggs sold today", "total eggs sold",
    "train speed", "the price of apples",
]


@st.composite
def _oracle_cases(draw):
    """A pool of 1-12 examples, a test question, exact fixtures for every metric
    prompt, an embedder (hashed, or a stub with negative components) and weights."""
    text = st.sampled_from(_ORACLE_TEXTS)
    n = draw(st.integers(1, 12))
    breaks = st.just(draw(st.integers(0, 3))) if draw(st.booleans()) else st.integers(0, 3)
    line = st.sampled_from(["eggs = 2", "sold = 3", "price = 4"])
    pool = ExamplePool(tuple(
        Example(
            id=f"e{i}",
            question=draw(text),
            answer_text="\n".join([*draw(st.lists(line, min_size=k, max_size=k)), "ans = 1"]),
        )
        for i, k in enumerate(draw(breaks) for _ in range(n))
    ))
    test_question = draw(text)
    concepts = {q: draw(text) for q in [test_question, *(e.question for e in pool)]}
    fixtures = [Fixture("exact", concept_prompt(q), r) for q, r in concepts.items()]
    fixtures.append(Fixture("exact", zero_shot_prompt(test_question), draw(text)))
    if draw(st.booleans()):
        embedding = HashEmbedding()
    else:
        texts = {*_ORACLE_TEXTS, *(e.answer_text for e in pool)}
        vector = st.lists(st.integers(-2, 2).map(float), min_size=3, max_size=3)
        table = draw(st.dictionaries(st.sampled_from(sorted(texts)), vector))
        embedding = StubEmbedding(table, dimension=3)  # a text not in the table: zero
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: any(w))
    )
    return pool, test_question, fixtures, embedding, Weights.from_array(weights)


@pytest.fixture
def stacked_calls(monkeypatch) -> list[int]:
    """The length of each column selection stacks into a matrix, in call order."""
    calls = []

    def counting(column):
        calls.append(len(column))
        return stacked(column)

    monkeypatch.setattr(selection, "stacked", counting)
    return calls


def _metric_services():
    return make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE])


def _pool_stats(pool) -> PoolStats:
    counts = [interpreter.complexity(e.answer_text) for e in pool]
    return PoolStats(min_complexity=min(counts), max_complexity=max(counts))


def _example(i: int, question: str, extra_lines: int = 0) -> Example:
    lines = [f"v{j} = {j + 1}" for j in range(extra_lines)]
    lines.append("ans = " + (" + ".join(f"v{j}" for j in range(extra_lines)) or "1"))
    return Example(id=f"ex{i}", question=question, answer_text="\n".join(lines))


class TestTypes:
    def test_metric_vector_ranges_enforced(self):
        with pytest.raises(ValueError):
            MetricVector(relevance=1.5, concept=0, complexity=0, similarity=0)
        with pytest.raises(ValueError):
            MetricVector(relevance=0, concept=0, complexity=-0.1, similarity=0)

    @pytest.mark.parametrize("name", ["relevance", "concept", "similarity"])
    def test_a_cosine_metric_accepts_minus_one_and_nothing_below(self, name):
        zero = dict(relevance=0.0, concept=0.0, complexity=0.0, similarity=0.0)
        assert getattr(MetricVector(**{**zero, name: -1.0}), name) == -1.0
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[-1, 1\]"):
            MetricVector(**{**zero, name: float(np.nextafter(-1.0, -2.0))})

    @pytest.mark.parametrize("name", ["epsilon", "delta"])
    def test_epsilon_and_delta_accept_zero_and_reject_any_negative(self, name):
        assert getattr(SelectionConfig(**{name: 0.0}), name) == 0.0
        with pytest.raises(ValueError, match="epsilon and delta must be >= 0"):
            SelectionConfig(**{name: -1e-12})

    def test_weights_require_one_positive(self):
        with pytest.raises(ValueError):
            Weights(0, 0, 0, 0)
        with pytest.raises(ValueError):
            Weights(-0.1, 0.5, 0.5, 0.5)

    def test_weights_file_round_trip(self, tmp_path):
        weights = Weights(0.4, 0.3, 0.2, 0.1)
        path = tmp_path / "weights.json"
        save_weights(weights, path)
        assert load_weights(path) == weights
        assert path.read_bytes() == (
            b'{"complexity": 0.2, "concept": 0.3, "relevance": 0.4, "similarity": 0.1}\n'
        )

    def test_trace_entry_exact_bytes(self, tmp_path):
        record = IterationRecord(2, {"a": 0.5, "b": 0.25}, "a", 0.5, {"a": 0.1, "c": 0.3}, "c")
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, [dataclasses.asdict(record)])
        assert path.read_bytes() == (
            b'{"candidate_scores": {"a": 0.5, "b": 0.25}, "iteration": 2, "picked_id": "a", '
            b'"picked_score": 0.5, "pruned_id": "c", "redundancy": {"a": 0.1, "c": 0.3}, '
            b'"stop": null}\n'
        )


class TestScore:
    def test_uniform_weights_on_ones(self):
        m = MetricVector(1, 1, 1, 1)
        assert score(m, Weights(0.25, 0.25, 0.25, 0.25)) == 1.0

    def test_unit_weight_projects_a_component(self):
        m = MetricVector(0.3, -0.2, 0.9, 0.5)
        assert score(m, Weights(0, 0, 1, 0)) == 0.9
        assert score(m, Weights(1, 0, 0, 0)) == pytest.approx(0.3)

    def test_hand_dot_product(self):
        m = MetricVector(0.5, 0.2, 0.8, 0.1)
        w = Weights(0.4, 0.3, 0.2, 0.1)
        assert score(m, w) == pytest.approx(0.43)


class TestCalculateMetrics:
    def test_identical_question_has_relevance_one(self):
        services = _metric_services()
        q = "How many eggs are sold each day?"
        stats = PoolStats(min_complexity=0, max_complexity=4)
        m = calculate_metrics(q, "ans = 1", q, stats, services)
        assert m.relevance == 1.0
        assert m.concept == 1.0  # identical concept text on both sides

    def test_min_max_normalization_endpoints(self):
        services = _metric_services()
        a2 = "v0 = 1\nv1 = 2\nans = v0 + v1"  # 2 breaks
        a6 = "v0 = 1\nv1 = 2\nv2 = 3\nv3 = 4\nv4 = 5\nv5 = 6\nans = v0"  # 6 breaks
        stats = PoolStats(min_complexity=2, max_complexity=6)
        low = calculate_metrics("q", a2, "t", stats, services)
        high = calculate_metrics("q", a6, "t", stats, services)
        assert low.complexity == 0.0
        assert high.complexity == 1.0

    def test_degenerate_pool_pins_complexity_at_half(self):
        services = _metric_services()
        stats = PoolStats(min_complexity=3, max_complexity=3)
        m = calculate_metrics("q", "v0 = 1\nv1 = 1\nv2 = 1\nans = v0", "t", stats, services)
        assert m.complexity == 0.5

    def test_two_candidate_vectors_match_independent_recomputation(self):
        q_t = "A farmer sells eggs at the market"
        pool = ExamplePool((
            Example(
                id="c0", question="Eggs sold at a market by a farmer", answer_text="eggs = 4\nans = eggs"
            ),
            Example(
                id="c1",
                question="Trains travel between two cities",
                answer_text="speed = 60\ntime = 2\ndistance = speed * time\nans = distance",
            ),
        ))
        expected = oracle_metric_rows(
            pool, q_t, [CONCEPT_FIXTURE, ROUGH_FIXTURE], HashEmbedding().embed
        )
        services, stats = _metric_services(), _pool_stats(pool)
        for example, row in zip(pool, expected):
            got = calculate_metrics(example.question, example.answer_text, q_t, stats, services)
            assert got.as_array().tolist() == row


class TestCandidateMetrics:
    def test_a_test_question_of_another_dimension_raises_before_any_request(
        self, request_ledger
    ):
        pool = ExamplePool((_example(0, "first question"), _example(1, "second question", 2)))
        services = Services(
            completion=ScriptedProvider([CONCEPT_FIXTURE, ROUGH_FIXTURE]),
            embedding=StubEmbedding({"the test question": [1.0, 0.0, 0.0]}),  # others: 2 zeros
        )
        with pytest.raises(DimensionMismatch, match=r"\Adimensions differ: \(2,\) vs \(3,\)\Z"):
            candidate_metrics(pool, "the test question", services)
        assert request_ledger.sent == []

    def test_pool_work_is_done_once_and_rows_equal_calculate_metrics(
        self, monkeypatch, stacked_calls, request_ledger
    ):
        rng = np.random.default_rng(29)
        pool, first = random_pool(rng, n_max=8)
        pool = ExamplePool(tuple(pool) + (_example(99, "one more question", extra_lines=6),))
        second = first + " and then some more"
        counted = []
        complexity = interpreter.complexity

        def counting(answer_text):
            counted.append(answer_text)
            return complexity(answer_text)

        monkeypatch.setattr(interpreter, "complexity", counting)
        services = _metric_services()
        for question in (first, second):
            select_examples(pool, question, SelectionConfig(epsilon=0.0), services)
        assert len(counted) == len(pool)
        # questions, answers and one concept matrix, though both questions were scored
        assert stacked_calls == [len(pool)] * 3

        oracle_services = _metric_services()
        stats = _pool_stats(pool)
        expected = np.array([
            calculate_metrics(e.question, e.answer_text, second, stats, oracle_services).as_array()
            for e in pool
        ])
        sent = len(request_ledger.sent)
        rows = candidate_metrics(pool, second, services)
        assert len(request_ledger.sent) == sent  # the memo answers
        assert rows.shape == expected.shape and rows.dtype == np.float64
        assert rows.tobytes() == expected.tobytes()

    def test_changed_concept_responses_give_their_own_rows(self):
        rng = np.random.default_rng(37)
        pool, first = random_pool(rng, n_max=6)
        second = first + " once more"
        candidate_prompts = {concept_prompt(e.question) for e in pool}

        class Extending(ScriptedProvider):
            """Appends ``suffix`` to the responses to the candidates' concept prompts."""

            def __init__(self, suffix):
                super().__init__([CONCEPT_FIXTURE, ROUGH_FIXTURE])
                self.suffix = suffix

            def complete(self, request):
                response = super().complete(request)
                return response + self.suffix if request.prompt in candidate_prompts else response

        def oracle_rows(suffix):
            oracle = Services(completion=Extending(suffix), embedding=HashEmbedding())
            stats = _pool_stats(pool)
            return np.array([
                calculate_metrics(e.question, e.answer_text, second, stats, oracle).as_array()
                for e in pool
            ])

        services = Services(completion=Extending(""), embedding=HashEmbedding())
        candidate_metrics(pool, first, services)
        services.completion.suffix = " and fractions of a dozen"
        rows = candidate_metrics(pool, second, services)
        assert rows.tobytes() == oracle_rows(" and fractions of a dozen").tobytes()
        # the first question's concept matrix would have given other concept values
        assert rows[:, 1].tobytes() != oracle_rows("")[:, 1].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_oracle_cases())
    def test_rows_and_trace_scores_equal_the_scalar_oracle(self, case):
        pool, test_question, fixtures, embedding, weights = case
        services = make_services(fixtures, embedding=embedding)
        expected = oracle_metric_rows(pool, test_question, fixtures, embedding.embed)
        rows = candidate_metrics(pool, test_question, services)
        assert rows.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        by_id = {e.id: row for e, row in zip(pool, expected)}
        config = SelectionConfig(weights=weights, epsilon=0.0)
        for record in select_examples(pool, test_question, config, services).trace:
            assert record.candidate_scores == {
                i: float(np.dot(by_id[i], weights.as_array())) for i in record.candidate_scores
            }

    def test_requests_are_those_of_calculate_metrics_pair_by_pair(self, request_ledger):
        rng = np.random.default_rng(31)
        pool, first = random_pool(rng, n_max=6)
        questions = [first, first + " again", "a third question"]
        services = _metric_services()
        for question in questions:
            candidate_metrics(pool, question, services)
        sent = request_ledger.pairs
        assert sent == metric_requests(pool, questions)

        oracle, stats = _metric_services(), _pool_stats(pool)
        for question in questions:
            for example in pool:
                calculate_metrics(example.question, example.answer_text, question, stats, oracle)
        assert request_ledger.pairs[len(sent):] == [
            pair
            for question in questions
            for example in pool
            for pair in metric_requests(ExamplePool((example,)), [question])
        ]


class TestPrune:
    def _services(self, table):
        return Services(completion=ScriptedProvider([]), embedding=StubEmbedding(table))

    def test_hand_computed_fixture_removes_first(self):
        table = {
            "ans = 0": [INV_SQRT2, INV_SQRT2],
            "ans = 1": [1.0, 0.0],
            "ans = 2": [0.0, 1.0],
        }
        chosen = [
            Example(id=f"e{i}", question=f"q{i}", answer_text=f"ans = {i}") for i in range(3)
        ]
        out = prune(chosen, 0.1, self._services(table))
        assert [e.id for e in out] == ["e1", "e2"]

    def test_duplicate_pair_plus_distinct_removes_none(self):
        table = {
            "ans = 0": [1.0, 0.0],
            "ans = 1": [1.0, 0.0],
            "ans = 2": [0.0, 1.0],
        }
        chosen = [
            Example(id=f"e{i}", question=f"q{i}", answer_text=f"ans = {i}") for i in range(3)
        ]
        out = prune(chosen, 0.1, self._services(table))
        assert [e.id for e in out] == ["e0", "e1", "e2"]

    def test_small_sets_unchanged(self):
        table = {"ans = 0": [1.0, 0.0], "ans = 1": [1.0, 0.0]}
        one = [Example(id="e0", question="q", answer_text="ans = 0")]
        two = one + [Example(id="e1", question="q2", answer_text="ans = 1")]
        services = self._services(table)
        assert prune(one, 0.1, services) == one
        assert prune(two, 0.1, services) == two

    def test_equal_similarities_never_removed(self):
        table = {f"ans = {i}": [1.0, 0.0] for i in range(4)}
        chosen = [
            Example(id=f"e{i}", question=f"q{i}", answer_text=f"ans = {i}") for i in range(4)
        ]
        assert len(prune(chosen, 0.0, self._services(table))) == 4


class TestSelectExamples:
    def test_pool_of_one_chosen_by_exhaustion(self):
        pool = ExamplePool((_example(0, "only question"),))
        result = select_examples(pool, "test question", SelectionConfig(), _metric_services())
        assert result.chosen_ids == ["ex0"]

    def test_relevance_only_picks_identical_question_first(self):
        q_t = "eggs sold at the market today"
        pool = ExamplePool(
            (
                _example(0, "completely unrelated astronomy words"),
                _example(1, q_t),
            )
        )
        config = SelectionConfig(weights=Weights(1, 0, 0, 0), epsilon=0.0)
        result = select_examples(pool, q_t, config, _metric_services())
        assert result.chosen_ids[0] == "ex1"
        assert result.chosen[0][1] == 1.0

    def test_bit_equal_scores_break_to_lowest_pool_index(self):
        q = "identical question text"
        pool = ExamplePool((_example(0, q), _example(1, q)))
        config = SelectionConfig(epsilon=0.0)
        result = select_examples(pool, "some test question", config, _metric_services())
        assert result.chosen_ids[0] == "ex0"

    def test_epsilon_stop_fires_on_plateau_keeping_the_pick(self):
        q = "identical question text"
        pool = ExamplePool((_example(0, q), _example(1, q), _example(2, q)))
        config = SelectionConfig(epsilon=1e-6)
        result = select_examples(pool, "anything else", config, _metric_services())
        assert result.chosen_ids == ["ex0", "ex1"]
        assert result.trace[-1].stop == "epsilon"

    def test_no_epsilon_check_on_first_pick(self):
        pool = ExamplePool((_example(0, "first question"),))
        config = SelectionConfig(epsilon=1e9)  # would always fire if checked
        result = select_examples(pool, "q", config, _metric_services())
        assert result.chosen_ids == ["ex0"]

    def test_max_chosen_caps_the_set(self):
        pool = ExamplePool(
            tuple(_example(i, f"question number {i} about topic {i}") for i in range(8))
        )
        config = SelectionConfig(epsilon=0.0, max_chosen=3)
        result = select_examples(pool, "a test question", config, _metric_services())
        assert len(result.chosen) <= 3

    def test_empty_pool_raises(self):
        with pytest.raises(EmptyPool):
            select_examples(ExamplePool(()), "q", SelectionConfig(), _metric_services())

    def test_pools_on_one_services_keep_separate_rows(self, stacked_calls, request_ledger):
        # each pool is collected before the next is built, which may reuse its address;
        # the anchor pool lives throughout
        rng = np.random.default_rng(11)
        services = _metric_services()
        config = SelectionConfig(epsilon=0.0)
        anchor, q_t = random_pool(rng)
        candidate_metrics(anchor, q_t, services)
        for k in range(20):
            pool, _ = random_pool(rng)
            expected = select_examples(pool, q_t, config, _metric_services())
            sent, built = len(request_ledger.sent), len(stacked_calls)
            for _ in range(2):
                assert select_examples(pool, q_t, config, services) == expected
                assert request_ledger.pairs[sent:] == metric_requests(pool, [q_t])
            # a new anchor question reuses the anchor's concept matrix, not the pool's
            candidate_metrics(anchor, f"{q_t} {k}", services)
            assert stacked_calls[built:] == [len(pool)] * 3
            del pool
            gc.collect()

    def test_trace_records_scores_for_replay(self):
        pool = ExamplePool((_example(0, "alpha beta"), _example(1, "gamma delta")))
        result = select_examples(
            pool, "alpha beta", SelectionConfig(epsilon=0.0), _metric_services()
        )
        assert result.trace[0].candidate_scores.keys() == {"ex0", "ex1"}
        assert result.trace[0].picked_id in {"ex0", "ex1"}

    def test_static_scores_are_monotone_over_picks(self):
        pool = ExamplePool(
            tuple(_example(i, f"words {i} in question {i * 2}", extra_lines=i % 3) for i in range(6))
        )
        result = select_examples(
            pool, "words in question", SelectionConfig(epsilon=0.0), _metric_services()
        )
        picked = [r.picked_score for r in result.trace]
        assert picked == sorted(picked, reverse=True)

    @settings(max_examples=300, deadline=None)
    @given(
        _oracle_cases(),
        st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        st.integers(1, 14),
    )
    def test_result_and_trace_equal_the_plain_loop_oracle(self, case, epsilon, delta, max_chosen):
        pool, test_question, fixtures, embedding, weights = case
        config = SelectionConfig(weights, epsilon, delta, max_chosen)
        services = make_services(fixtures, embedding=embedding)
        expected = oracle_select_examples(pool, test_question, config, fixtures, embedding.embed)
        assert select_examples(pool, test_question, config, services) == expected


class TestInvariants:
    def test_weight_scaling_leaves_pick_order_unchanged(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pool, q_t = random_pool(rng)
            weights = random_weights(rng)
            alpha = float(rng.uniform(0.1, 10.0))
            scaled = Weights.from_array(alpha * weights.as_array())
            services = _metric_services()
            base = select_examples(
                pool, q_t, SelectionConfig(weights=weights, epsilon=0.0), services
            )
            other = select_examples(
                pool, q_t, SelectionConfig(weights=scaled, epsilon=0.0), services
            )
            assert [r.picked_id for r in base.trace] == [r.picked_id for r in other.trace]
            assert [r.pruned_id for r in base.trace] == [r.pruned_id for r in other.trace]

    def test_no_duplicates_and_pruned_never_reappear(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            pool, q_t = random_pool(rng)
            config = SelectionConfig(
                weights=random_weights(rng),
                epsilon=0.0,
                delta=float(rng.uniform(0.0, 0.3)),
                max_chosen=int(rng.integers(1, 7)),
            )
            result = select_examples(pool, q_t, config, _metric_services())
            ids = result.chosen_ids
            assert len(ids) == len(set(ids))
            pruned = {r.pruned_id for r in result.trace if r.pruned_id}
            assert not (pruned & set(ids))
            picked = [r.picked_id for r in result.trace]
            assert len(picked) == len(set(picked))  # a pruned example is never re-picked
            # each record's scores are its own dict, over the pool minus the earlier picks
            records = result.trace
            assert len({id(r.candidate_scores) for r in records}) == len(records)
            for k, record in enumerate(records):
                assert list(record.candidate_scores) == [
                    e.id for e in pool if e.id not in picked[:k]
                ]
            before = [dict(r.candidate_scores) for r in records]
            records[0].candidate_scores.clear()
            assert [r.candidate_scores for r in records[1:]] == before[1:]

    def test_trace_scores_equal_per_candidate_scores_exactly(self, request_ledger):
        # the pools and weights of acceptance criterion 4
        rng = np.random.default_rng(404)
        for _ in range(50):
            pool, q_t = random_pool(rng, n_max=6)
            weights = random_weights(rng)
            services = _metric_services()
            config = SelectionConfig(weights=weights, epsilon=0.0)
            stats = _pool_stats(pool)
            expected = {
                e.id: score(
                    calculate_metrics(e.question, e.answer_text, q_t, stats, services), weights
                )
                for e in pool
            }
            result = select_examples(pool, q_t, config, services)
            for record in result.trace:
                assert record.candidate_scores == {i: expected[i] for i in record.candidate_scores}
                assert record.picked_score == expected[record.picked_id]
            sent = len(request_ledger.sent)
            assert select_examples(pool, q_t, config, services) == result
            assert len(request_ledger.sent) == sent
