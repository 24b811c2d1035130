"""Corpus loaders, prompt rendering and the evaluation loop."""

from __future__ import annotations

import builtins
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potselect.augmentation import Example, ExamplePool, extract_answer_block
from potselect.cli import main
from potselect.evalharness import (
    EvalReport,
    ItemResult,
    MalformedRecord,
    MissingMarker,
    QAItem,
    build_prompt,
    evaluate,
    load_gsm8k,
    load_svamp,
    save_report,
)
from potselect.interpreter import Program
from potselect.providers import (
    DimensionMismatch,
    HashEmbedding,
    MalformedResponse,
    Fixture,
    ProviderError,
    ScriptedProvider,
    Services,
)
from potselect.selection import SelectionConfig, select_examples

from conftest import (
    BOLTS_A,
    BOLTS_Q,
    BOLTS_REPHRASED_Q,
    CONCEPT_FIXTURE,
    DEEP_LINE,
    FailingEmbedding,
    HOUSE_A,
    HOUSE_Q,
    ROUGH_FIXTURE,
    eval_dataset_records,
    eval_fixtures,
    eval_pool,
    fake_post,
    few_shot_requests,
    make_services,
    metric_requests,
    small_example,
)


class TestLoadGsm8k:
    def _write(self, tmp_path, records):
        path = tmp_path / "data.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return path

    def test_marker_parsed(self, tmp_path):
        path = self._write(
            tmp_path, [{"question": "q", "answer": "She sells 9 eggs at $2.\n#### 18"}]
        )
        items = load_gsm8k(path)
        assert items[0].gold_value == 18.0

    def test_thousands_separators_stripped(self, tmp_path):
        path = self._write(tmp_path, [{"question": "q", "answer": "text\n#### 1,234"}])
        assert load_gsm8k(path)[0].gold_value == 1234.0

    def test_negative_and_decimal_values(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                {"question": "q", "answer": "#### -7"},
                {"question": "q", "answer": "#### 2.5"},
            ],
        )
        values = [item.gold_value for item in load_gsm8k(path)]
        assert values == [-7.0, 2.5]

    def test_last_marker_wins(self, tmp_path):
        path = self._write(tmp_path, [{"question": "q", "answer": "#### 3 then\n#### 5"}])
        assert load_gsm8k(path)[0].gold_value == 5.0

    def test_missing_marker(self, tmp_path):
        path = self._write(tmp_path, [{"question": "q", "answer": "no marker here"}])
        with pytest.raises(MissingMarker) as info:
            load_gsm8k(path)
        assert info.value.line_no == 1

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"question": "q", "answer": "#### 1"}\nnot json\n')
        with pytest.raises(MalformedRecord) as info:
            load_gsm8k(path)
        assert info.value.line_no == 2

    def test_missing_fields_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"question": "q"}])
        with pytest.raises(MalformedRecord):
            load_gsm8k(path)

    def test_non_finite_gold_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"question": "q", "answer": "#### " + "9" * 400}])
        with pytest.raises(MalformedRecord):
            load_gsm8k(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"question": ["q"], "answer": "#### 1"},
            {"question": "q", "answer": ["#### 1"]},
            {"id": {"a": 1}, "question": "q", "answer": "#### 1"},
            {"id": True, "question": "q", "answer": "#### 1"},
        ],
        ids=["question-list", "answer-list", "id-object", "id-bool"],
    )
    def test_wrong_shaped_fields_rejected(self, tmp_path, record):
        path = self._write(tmp_path, [{"question": "q", "answer": "#### 1"}, record])
        with pytest.raises(MalformedRecord) as info:
            load_gsm8k(path)
        assert info.value.line_no == 2

    def test_integer_and_null_ids_accepted(self, tmp_path):
        records = [
            {"id": 7, "question": "q", "answer": "#### 1"},
            {"id": None, "question": "q", "answer": "#### 1"},
        ]
        assert [item.id for item in load_gsm8k(self._write(tmp_path, records))] == ["7", "item-2"]


class TestLoadSvamp:
    def test_record_combines_body_and_question(self, tmp_path):
        path = tmp_path / "svamp.json"
        path.write_text(json.dumps([{"Body": "B", "Question": "Q", "Answer": 35}]))
        items = load_svamp(path)
        assert items[0].question == "B Q"
        assert items[0].gold_value == 35.0

    def test_lowercase_fields_accepted(self, tmp_path):
        path = tmp_path / "svamp.jsonl"
        path.write_text('{"body": "B", "question": "Q", "answer": "4.5"}\n')
        items = load_svamp(path)
        assert items[0].question == "B Q"
        assert items[0].gold_value == 4.5

    def test_non_numeric_answer_rejected(self, tmp_path):
        path = tmp_path / "svamp.json"
        path.write_text(json.dumps([{"Body": "B", "Question": "Q", "Answer": "many"}]))
        with pytest.raises(MalformedRecord):
            load_svamp(path)

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "svamp.json"
        path.write_text("")
        assert load_svamp(path) == []

    @pytest.mark.parametrize(
        "text", ["\n\nnot json\n", "\n\n[{not json}]\n"], ids=["jsonl", "array"]
    )
    def test_malformed_json_reports_line_after_blank_lines(self, tmp_path, text):
        path = tmp_path / "svamp.jsonl"
        path.write_text(text)
        with pytest.raises(MalformedRecord) as info:
            load_svamp(path)
        assert info.value.line_no == 3

    @pytest.mark.parametrize("kind", ["array", "jsonl"])
    def test_the_file_is_opened_once(self, tmp_path, monkeypatch, kind):
        record = {"Body": "B", "Question": "Q", "Answer": 1}
        path = tmp_path / "svamp"
        path.write_text(json.dumps([record] if kind == "array" else record) + "\n")
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)  # Path.open's
        monkeypatch.setattr(builtins, "open", counting_open)
        assert [item.question for item in load_svamp(path)] == ["B Q"]
        assert opened.count(str(path)) == 1

    def test_jsonl_lines_end_at_newlines_only(self, tmp_path):
        """A JSON string may hold U+2028 or U+0085 raw; neither ends a line."""
        path = tmp_path / "svamp.jsonl"
        record = json.dumps({"Body": "B\u2028\x85", "Question": "Q", "Answer": 1}, ensure_ascii=False)
        path.write_bytes(f"{record}\r\n{record}\r\nnot json\n".encode())
        with pytest.raises(MalformedRecord) as info:
            load_svamp(path)
        assert info.value.line_no == 3

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "svamp.json"
        path.write_text(json.dumps([{"Body": "B"}]))
        with pytest.raises(MalformedRecord):
            load_svamp(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"Body": ["b"], "Question": "Q", "Answer": 1},
            {"Body": "B", "Question": 5, "Answer": 1},
            {"Body": "B", "Question": "Q", "Answer": True},
            {"ID": [1], "Body": "B", "Question": "Q", "Answer": 1},
        ],
        ids=["body-list", "question-number", "answer-bool", "id-list"],
    )
    def test_wrong_shaped_fields_rejected(self, tmp_path, record):
        path = tmp_path / "svamp.json"
        path.write_text(json.dumps([{"Body": "B", "Question": "Q", "Answer": 1}, record]))
        with pytest.raises(MalformedRecord) as info:
            load_svamp(path)
        assert info.value.line_no == 2


class TestBuildPrompt:
    def test_single_example_matches_golden_prompt(self):
        bolts = Example(id="bolts", question=BOLTS_Q, answer_text=BOLTS_A)
        prompt = build_prompt([bolts], BOLTS_REPHRASED_Q)
        expected = (
            f"Question: {BOLTS_Q}\n"
            "# Python code, return ans\n"
            f"{BOLTS_A}\n"
            "\n"
            f"Question: {BOLTS_REPHRASED_Q}\n"
            "# Python code, return ans\n"
        )
        assert prompt == expected

    def test_zero_examples_rejected(self):
        with pytest.raises(ValueError):
            build_prompt([], "q")

    def test_blocks_follow_chosen_order(self):
        bolts = Example(id="bolts", question=BOLTS_Q, answer_text=BOLTS_A)
        house = Example(id="house", question=HOUSE_Q, answer_text=HOUSE_A)
        prompt = build_prompt([house, bolts], "test q")
        assert prompt.index(HOUSE_Q) < prompt.index(BOLTS_Q)

    def test_rendering_is_deterministic(self):
        bolts = Example(id="bolts", question=BOLTS_Q, answer_text=BOLTS_A)
        a = build_prompt([bolts], "q")
        b = build_prompt([bolts], "q")
        assert a == b


class _Constant:
    """A completion provider that answers every prompt with ``text``."""

    provider_id = "constant"

    def __init__(self, text: str):
        self.text = text

    def complete(self, request) -> str:
        return self.text


def _answering(text: str) -> Services:
    return Services(completion=_Constant(text), embedding=HashEmbedding())


def _dataset(tmp_path, records=None):
    path = tmp_path / "dataset.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in records or eval_dataset_records():
            fh.write(json.dumps(record) + "\n")
    return load_gsm8k(path)


class TestEvaluate:
    def test_gold_echo_gives_perfect_accuracy(self, tmp_path):
        from conftest import completion_fixture

        dataset = _dataset(tmp_path)
        fixtures = [CONCEPT_FIXTURE, ROUGH_FIXTURE]
        for i in range(1, 6):
            fixtures.append(
                completion_fixture(f"Evaluation question number {i}?", f"ans = {10 * i}")
            )
        report = evaluate(dataset, eval_pool(), SelectionConfig(), make_services(fixtures))
        assert report.accuracy == 1.0
        assert report.n_correct == report.n_items == 5

    def test_mixed_fixture_scores_point_six(self, tmp_path):
        dataset = _dataset(tmp_path)
        report = evaluate(dataset, eval_pool(), SelectionConfig(), make_services(eval_fixtures()))
        assert report.accuracy == pytest.approx(0.6)
        assert report.n_correct == 3

    def test_unparseable_completion_recorded_as_parse_cause(self, tmp_path):
        dataset = _dataset(tmp_path)
        report = evaluate(dataset, eval_pool(), SelectionConfig(), make_services(eval_fixtures()))
        by_id = {r.item_id: r for r in report.items}
        assert by_id["E5"].verdict == "incorrect"
        assert by_id["E5"].cause.startswith("parse")

    def test_a_line_nested_too_deeply_is_a_parse_cause(self, tmp_path):
        services = _answering(f"Sure.\n{DEEP_LINE}\n")
        report = evaluate(_dataset(tmp_path), eval_pool(), SelectionConfig(), services)
        assert [r.cause for r in report.items] == ["parse: no answer block in completion"] * 5

    @pytest.mark.parametrize(
        "completion, cause",
        [
            ("ans = 1 / 0", "execute: division by zero while computing 'ans'"),
            ("x = 1", "execute: program never assigns 'ans'"),
        ],
        ids=["division-by-zero", "no-ans"],
    )
    def test_a_program_that_fails_to_run_is_an_execute_cause(self, tmp_path, completion, cause):
        dataset = _dataset(tmp_path)
        services = _answering(completion)
        report = evaluate(dataset, eval_pool(), SelectionConfig(), services)
        assert [r.item_id for r in report.items] == [item.id for item in dataset]
        for item, result in zip(dataset, report.items):
            chosen = select_examples(eval_pool(), item.question, SelectionConfig(), services)
            assert result.selected_ids == tuple(chosen.chosen_ids) != ()
            assert (result.completion, result.value, result.cause) == (completion, None, cause)
            assert result.verdict == "incorrect"

    def test_wrong_value_recorded_with_cause(self, tmp_path):
        dataset = _dataset(tmp_path)
        report = evaluate(dataset, eval_pool(), SelectionConfig(), make_services(eval_fixtures()))
        by_id = {r.item_id: r for r in report.items}
        assert by_id["E4"].verdict == "incorrect"
        assert by_id["E4"].cause == "wrong value"
        assert by_id["E4"].value == 0.0

    def test_provider_failure_never_aborts_the_run(self, tmp_path):
        dataset = _dataset(tmp_path)
        # concept/rough fixtures exist but no completion fixtures at all
        report = evaluate(
            dataset, eval_pool(), SelectionConfig(),
            make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE]),
        )
        assert report.n_items == 5
        assert report.accuracy == 0.0
        assert all(r.cause.startswith("provider") for r in report.items)

    def test_malformed_remote_response_never_aborts_the_run(self, tmp_path, monkeypatch):
        from potselect.providers import HashEmbedding, RemoteCompletionProvider, Services

        fake_post(monkeypatch, 200, b'{"choices": []}')  # no "text" field
        services = Services(
            completion=RemoteCompletionProvider(endpoint="http://example.invalid"),
            embedding=HashEmbedding(),
        )
        report = evaluate(_dataset(tmp_path), eval_pool(), SelectionConfig(), services)
        assert report.n_items == 5
        assert all(r.cause.startswith("provider: ") for r in report.items)

    def test_non_numeric_remote_embedding_never_aborts_the_run(self, tmp_path):
        error = MalformedResponse("embedding is not a list of numbers")
        services = make_services(eval_fixtures(), embedding=FailingEmbedding(error))
        report = evaluate(_dataset(tmp_path), eval_pool(), SelectionConfig(), services)
        assert report.n_items == 5
        assert all(r.cause.startswith("provider: ") for r in report.items)

    @pytest.mark.parametrize(
        "error_type, message",
        [(DimensionMismatch, "expected dimension 2, got (3,)"), (ProviderError, "non-finite")],
        ids=["wrong-dimension", "nan"],
    )
    def test_bad_remote_embedding_never_aborts_the_run(self, tmp_path, error_type, message):
        services = make_services(eval_fixtures(), embedding=FailingEmbedding(error_type(message)))
        report = evaluate(_dataset(tmp_path), eval_pool(), SelectionConfig(), services)
        assert report.n_items == 5
        assert all(r.cause.startswith("provider: ") and message in r.cause for r in report.items)

    def test_totals_match_per_item_recount(self, tmp_path):
        dataset = _dataset(tmp_path)
        report = evaluate(dataset, eval_pool(), SelectionConfig(), make_services(eval_fixtures()))
        assert report.n_correct == sum(r.verdict == "correct" for r in report.items)
        assert report.accuracy == report.n_correct / report.n_items
        assert report.mean_examples_used == pytest.approx(
            sum(len(r.selected_ids) for r in report.items) / report.n_items
        )
        assert 0.0 <= report.accuracy <= 1.0

    def test_tolerance_on_gold_comparison(self, tmp_path):
        from conftest import completion_fixture

        dataset = _dataset(tmp_path, records=[
            {"id": "T1", "question": "Tolerance question?", "answer": "#### 10"}
        ])
        fixtures = [
            CONCEPT_FIXTURE,
            ROUGH_FIXTURE,
            completion_fixture("Tolerance question?", "ans = 10.0000001"),
        ]
        report = evaluate(dataset, eval_pool(), SelectionConfig(), make_services(fixtures))
        assert report.accuracy == 1.0

    def test_metrics_memo_holds_only_computed_rows_and_is_reused(self, tmp_path, request_ledger):
        dataset = _dataset(tmp_path)
        pool, config = eval_pool(), SelectionConfig()
        questions = [item.question for item in dataset]
        # concepts but no rough answer: each item fails inside its first metric row
        services = make_services([CONCEPT_FIXTURE])
        failed = evaluate(dataset, pool, config, services)
        assert all(r.cause.startswith("provider: ") for r in failed.items)
        # the failed run stored no rows: every item computes all its rows again
        services.completion = ScriptedProvider(eval_fixtures())
        sent = len(request_ledger.sent)
        report = evaluate(dataset, pool, config, services)
        assert report.accuracy == pytest.approx(0.6)
        # what scoring each question a second time sends
        rescored = metric_requests(pool, questions * 2)[len(metric_requests(pool, questions)):]
        assert len(request_ledger.sent) - sent == len(rescored) + len(dataset)
        # no concept or rough-answer fixtures left: the metrics memo answers the
        # metrics, and the grade memo each few-shot prompt
        services.completion = ScriptedProvider(eval_fixtures()[2:])
        sent = len(request_ledger.sent)
        again = evaluate(dataset, pool, config, services)
        assert again.items == report.items
        assert len(request_ledger.sent) == sent

    def test_a_later_candidates_nan_fails_its_row_after_every_metric_request(
        self, tmp_path, request_ledger
    ):
        third = small_example(2, "A third pool question")
        fourth = small_example(3, "A fourth pool question", extra_lines=2)
        pool = ExamplePool((*eval_pool(), third, fourth))
        nan_texts = {third.answer_text, fourth.question}  # row 2's similarity, row 3's relevance

        class LaterNan(HashEmbedding):
            def embed(self, text):
                return np.full(256, np.nan) if text in nan_texts else super().embed(text)

        dataset = _dataset(tmp_path)
        questions = [item.question for item in dataset]
        services = make_services(eval_fixtures(), embedding=LaterNan())
        report = evaluate(dataset, pool, SelectionConfig(), services)
        # MetricVector's message for the first failing row in pool order
        assert {r.cause for r in report.items} == {
            "selection: similarity must lie in [-1, 1], got nan"
        }
        # the one departure from scoring pair by pair: the row is checked once the
        # question's every metric request was sent, not only those of rows 0 to 2
        assert request_ledger.pairs == metric_requests(pool, questions)
        # no rows were stored: evaluated again, every question is scored again
        assert evaluate(dataset, pool, SelectionConfig(), services) == report
        assert request_ledger.pairs == metric_requests(pool, questions * 2)

    def test_nan_embedding_is_a_selection_cause_and_a_data_error_for_select(
        self, eval_environment, monkeypatch, capsys
    ):
        class NanEmbedding:
            def embed(self, text):
                return np.full(4, np.nan)

        dataset = load_gsm8k(eval_environment["dataset"])
        services = make_services(eval_fixtures(), embedding=NanEmbedding())
        report = evaluate(dataset, eval_pool(), SelectionConfig(), services)
        assert report.n_items == 5
        causes = {r.cause for r in report.items}
        assert causes == {"selection: relevance must lie in [-1, 1], got nan"}

        monkeypatch.setattr("potselect.cli.HashEmbedding", NanEmbedding)
        out = eval_environment["tmp"] / "chosen.jsonl"
        code = main(
            [
                "select",
                "--pool", eval_environment["pool"],
                "--dataset", eval_environment["dataset"],
                "--fixtures", eval_environment["fixtures"],
                "--out", str(out),
            ]
        )
        assert code == 3
        assert "data error: relevance must lie in [-1, 1], got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dataset(self):
        report = evaluate([], eval_pool(), SelectionConfig(), make_services(eval_fixtures()))
        assert report.n_items == 0
        assert report.accuracy == 0.0
        assert report.mean_examples_used == 0.0


def _any_few_shot(response: str) -> Fixture:
    """Answer every few-shot prompt with ``response``."""
    return Fixture("pattern", r"(?s)\A.*\n\nQuestion: [^\n]*\n# Python code, return ans\n\Z", response)


class TestGradeMemo:
    """A few-shot request is completed, parsed and executed once per ``Services``;
    a grade that raises is not kept."""

    def test_a_failed_few_shot_send_is_a_provider_cause_and_is_sent_again(
        self, tmp_path, request_ledger
    ):
        dataset, pool, config = _dataset(tmp_path), eval_pool(), SelectionConfig()
        questions = [item.question for item in dataset]
        services = make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE])  # no few-shot fixture
        failed = evaluate(dataset, pool, config, services)
        assert all(r.cause.startswith("provider: no fixture") for r in failed.items)
        first = few_shot_requests(request_ledger.sent, pool, questions)
        assert len(first) == len(dataset)
        sent = len(request_ledger.sent)
        assert evaluate(dataset, pool, config, services) == failed
        # the metric rows are kept, the failed few-shot sends are not
        assert request_ledger.sent[sent:] == first
        services.completion = ScriptedProvider(eval_fixtures())
        assert evaluate(dataset, pool, config, services) == evaluate(
            dataset, pool, config, make_services(eval_fixtures())
        )

    def test_a_selection_error_stores_nothing(self, tmp_path, request_ledger):
        dataset, pool, config = _dataset(tmp_path), eval_pool(), SelectionConfig()
        services = make_services(eval_fixtures(), embedding=FailingEmbedding(ValueError("bad")))
        failed = evaluate(dataset, pool, config, services)
        assert [r.cause for r in failed.items] == ["selection: bad"] * len(dataset)
        assert [r.completion for r in failed.items] == [None] * len(dataset)
        services.embedding = HashEmbedding()
        sent = len(request_ledger.sent)
        report = evaluate(dataset, pool, config, services)
        sends = request_ledger.sent[sent:]
        assert len(few_shot_requests(sends, pool, [item.question for item in dataset])) == 5
        assert report == evaluate(dataset, pool, config, make_services(eval_fixtures()))

    @pytest.mark.parametrize(
        "completion, cause",
        [
            ("Sure.", "parse: no answer block in completion"),
            ("ans = 1 / 0", "execute: division by zero while computing 'ans'"),
        ],
        ids=["parse", "execute"],
    )
    def test_a_parse_or_execute_cause_is_reused_without_a_send(
        self, tmp_path, request_ledger, monkeypatch, completion, cause
    ):
        dataset, pool, config = _dataset(tmp_path), eval_pool(), SelectionConfig()
        services = make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE, _any_few_shot(completion)])
        report = evaluate(dataset, pool, config, services)
        assert [r.cause for r in report.items] == [cause] * len(dataset)
        sent = len(request_ledger.sent)
        extracted = []
        monkeypatch.setattr(
            "potselect.evalharness.extract_answer_block",
            lambda text: extracted.append(text) or extract_answer_block(text),
        )
        assert evaluate(dataset, pool, config, services) == report
        assert len(request_ledger.sent) == sent and extracted == []

    def test_a_hit_equals_the_first_grade_and_is_graded_against_its_own_gold(
        self, tmp_path, request_ledger
    ):
        # one question asked three times, under two gold values; the completion is 10
        records = [
            {"id": name, "question": "Evaluation question number 1?", "answer": f"#### {gold}"}
            for name, gold in (("a", 11), ("b", 10), ("c", 10))
        ]
        dataset, pool, config = _dataset(tmp_path, records), eval_pool(), SelectionConfig()
        report = evaluate(dataset, pool, config, make_services(eval_fixtures()))
        a, b, c = report.items
        assert (a.value, a.gold_value, a.cause) == (10.0, 11.0, "wrong value")
        assert replace(a, item_id="b", gold_value=10.0, verdict="correct", cause=None) == b
        assert b == replace(c, item_id="b")
        assert len(few_shot_requests(request_ledger.sent, pool, [dataset[0].question])) == 1


class TestSaveReport:
    def test_report_file_layout(self, tmp_path):
        dataset = _dataset(tmp_path)
        report = evaluate(dataset, eval_pool(), SelectionConfig(), make_services(eval_fixtures()))
        path = tmp_path / "report.jsonl"
        save_report(report, path, meta={"command": "eval"})
        lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
        assert "meta" in lines[0]
        assert "summary" in lines[-1]
        assert lines[-1]["summary"]["accuracy"] == pytest.approx(0.6)
        assert len(lines) == 2 + report.n_items

    def test_report_exact_bytes(self, tmp_path):
        item = ItemResult("q1", ("bolts", "bolts.s1"), "ans = 3", 3.0, 3.0, "correct")
        report = EvalReport(1, 1, 1.0, 2.0, [item])
        path = tmp_path / "report.jsonl"
        save_report(report, path)
        assert path.read_bytes() == (
            '{"cause": null, "completion": "ans = 3", "gold_value": 3.0, "item_id": "q1", '
            '"selected_ids": ["bolts", "bolts.s1"], "value": 3.0, "verdict": "correct"}\n'
            '{"summary": {"accuracy": 1.0, "mean_examples_used": 2.0, "n_correct": 1, '
            '"n_items": 1}}\n'
        ).encode("utf-8")

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        dataset = _dataset(tmp_path)
        blobs = []
        for run in range(2):
            report = evaluate(
                dataset, eval_pool(), SelectionConfig(), make_services(eval_fixtures())
            )
            path = tmp_path / f"report{run}.jsonl"
            save_report(report, path, meta={"command": "eval"})
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def _chains():
    """Lines of up to 3 000 unary minuses, then a ``+``/``-`` chain of up to 9 000 terms."""
    term = st.builds(lambda minus, n: "-" * minus + str(n), st.integers(0, 2), st.integers(0, 9))
    return st.builds(
        lambda name, minus, op, terms, repeats: f"{name} = {'-' * minus}{op.join(terms * repeats)}",
        st.sampled_from(["ans", "x"]),
        st.integers(0, 3000),
        st.sampled_from(["+", "-"]),
        st.lists(term, min_size=1, max_size=3),
        st.integers(1, 3000),
    )


_COMPLETIONS = st.lists(st.one_of(_chains(), st.text(max_size=40)), max_size=4).map("\n".join)


@settings(max_examples=60, deadline=None)
@given(_COMPLETIONS)
def test_extract_answer_block_never_raises_on_completion_text(text):
    assert isinstance(extract_answer_block(text), (Program, type(None)))


@settings(max_examples=30, deadline=None)
@given(_COMPLETIONS)
def test_evaluate_records_a_cause_for_any_completion_text(text):
    # integer chains never reach the gold value 0.5, so every item fails with a cause
    services = _answering(text)
    dataset = [QAItem(id="Q", question="Evaluation question number 1?", gold_value=0.5)]
    report = evaluate(dataset, eval_pool(), SelectionConfig(), services)
    assert report.items[0].cause
