"""Augmentation stages, consistency gate, prompt shapes and pool plumbing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from potselect import interpreter, prompts
from potselect.augmentation import (
    AttemptRecord,
    AugmentationConfig,
    ConsistencyReport,
    EmptyGeneration,
    Example,
    ExamplePool,
    MalformedRecord,
    Provenance,
    augment_pool,
    check_consistency,
    extract_answer_block,
    generate_question,
    infer_answer,
    load_pool,
    random_chain,
    rephrase_question,
    save_pool,
    stage1,
    stage2,
    stage3,
    verify_lineage,
    write_jsonl,
)
from potselect.interpreter import execute, parse
from potselect.providers import (
    Fixture,
    HashEmbedding,
    NoFixture,
    ProviderError,
    RemoteCompletionProvider,
    Services,
    cosine,
)

from conftest import (
    BOLTS_A,
    BOLTS_Q,
    BOLTS_REPHRASED_Q,
    BOLTS_VARIANT_A,
    DUCK_A,
    DUCK_Q,
    augmentation_fixtures,
    fake_post,
    make_services,
    thirteen_seeds,
)
from test_interpreter import random_program


def bolts_example() -> Example:
    return Example(id="bolts", question=BOLTS_Q, answer_text=BOLTS_A)


class TestPromptShapes:
    def test_rephrase_prompt_golden(self):
        expected = (
            f"Question: {BOLTS_Q}\n"
            "# Python code, return ans\n"
            f"{BOLTS_A}\n"
            "\n"
            "# Instruction: Rephrase the question"
        )
        assert prompts.rephrase_prompt(BOLTS_Q, BOLTS_A) == expected

    def test_few_shot_prompt_golden(self):
        expected = (
            f"Question: {BOLTS_Q}\n"
            "# Python code, return ans\n"
            f"{BOLTS_A}\n"
            "\n"
            f"Question: {BOLTS_REPHRASED_Q}\n"
            "# Python code, return ans\n"
        )
        assert prompts.few_shot_prompt([(BOLTS_Q, BOLTS_A)], BOLTS_REPHRASED_Q) == expected

    def test_question_generation_prompt_is_answer_first(self):
        rendered = prompts.question_generation_prompt([(DUCK_Q, DUCK_A)], BOLTS_VARIANT_A)
        expected = (
            "# Python code, return ans\n"
            f"{DUCK_A}\n"
            "\n"
            f"Question: {DUCK_Q}\n"
            "\n"
            "# Python code, return ans\n"
            f"{BOLTS_VARIANT_A}\n"
            "\n"
            "Question:"
        )
        assert rendered == expected


class TestExtractAnswerBlock:
    def test_clean_program_passes_through(self):
        assert extract_answer_block(BOLTS_A).source_text == BOLTS_A

    def test_prose_wrapped_block_extracted(self):
        completion = (
            "Sure, here is the program.\n\na = 1\nb = a + 2\nans = b\n\nHope that helps!"
        )
        assert extract_answer_block(completion).source_text == "a = 1\nb = a + 2\nans = b"

    def test_code_fences_stripped(self):
        assert extract_answer_block("```python\nans = 1\n```").source_text == "ans = 1"

    def test_no_block_returns_none(self):
        assert extract_answer_block("the answer is forty-two") is None
        assert extract_answer_block("") is None

    def test_comments_alone_are_not_a_block(self):
        assert extract_answer_block("# only a comment\n# another") is None

    def test_maximal_block_wins(self):
        completion = "a = 1\nans = a\noops(\nx = 1\ny = x + 1\nz = y + 1\nans = z"
        block = extract_answer_block(completion)
        assert block.source_text == "x = 1\ny = x + 1\nz = y + 1\nans = z"

    def test_statements_are_a_parse_of_the_source_text(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            text = random_program(rng, int(rng.integers(1, 7)))
            program = extract_answer_block(f"Here:\n```\n# steps\n{text}\n\n```\nans is it.")
            assert program.source_text == "# steps\n" + text
            assert program.statements == parse(program.source_text).statements

    def test_forward_reference_splits_blocks(self):
        completion = "ans = q + 1\nq = 2\nans = q + 1"
        assert extract_answer_block(completion).source_text == "q = 2\nans = q + 1"


class TestCheckConsistency:
    def test_identity_is_consistent(self):
        services = make_services()
        report = check_consistency(parse(BOLTS_A), parse(BOLTS_A), services, tau=0.8)
        assert report.output_match is True
        assert report.step_similarity == 1.0
        assert report.verdict == "consistent"
        assert report.candidate_value == report.reference_value == 3.0

    def test_value_mismatch_is_phase_one_inconsistent(self):
        services = make_services()
        report = check_consistency(parse("ans = 4"), parse(BOLTS_A), services, tau=0.8)
        assert report.output_match is False
        assert report.candidate_value == 4.0
        assert report.reference_value == 3.0
        assert report.step_similarity is None
        assert report.verdict == "inconsistent"

    def test_matching_value_verdict_follows_similarity(self):
        services = make_services()
        report = check_consistency(parse("ans = 3"), parse(BOLTS_A), services, tau=0.8)
        expected = cosine(services.embed("ans = 3"), services.embed(BOLTS_A))
        assert report.output_match is True
        assert report.step_similarity == pytest.approx(expected)
        assert report.verdict == ("consistent" if expected >= 0.8 else "inconsistent")

    def test_candidate_execution_failure_recorded(self):
        services = make_services()
        report = check_consistency(parse("x = 1"), parse(BOLTS_A), services, tau=0.8)
        assert report.verdict == "inconsistent"
        assert report.cause == "candidate: program never assigns 'ans'"

    def test_tolerance_accepts_tiny_float_differences(self):
        services = make_services()
        candidate = parse("ans = 3.0000000001")
        report = check_consistency(candidate, parse(BOLTS_A), services, tau=-1.0)
        assert report.output_match is True
        assert report.verdict == "consistent"

    def test_phase_one_dominates_even_for_identical_text_apart_from_value(self):
        services = make_services()
        candidate = parse(BOLTS_A.replace("= 2", "= 4", 1))  # same shape, different value
        report = check_consistency(candidate, parse(BOLTS_A), services, tau=-1.0)
        assert report.verdict == "inconsistent"
        assert report.step_similarity is None


class TestGeneratorOps:
    def test_rephrase_question_returns_trimmed_fixture(self):
        services = make_services(
            [Fixture("exact", prompts.rephrase_prompt(BOLTS_Q, BOLTS_A), f"  {BOLTS_REPHRASED_Q}  ")]
        )
        assert rephrase_question(bolts_example(), services) == BOLTS_REPHRASED_Q

    def test_blank_rephrase_is_empty_generation(self):
        services = make_services(
            [Fixture("exact", prompts.rephrase_prompt(BOLTS_Q, BOLTS_A), "   ")]
        )
        with pytest.raises(EmptyGeneration):
            rephrase_question(bolts_example(), services)

    def test_infer_answer_extracts_dialect_block(self):
        prompt = prompts.few_shot_prompt([(BOLTS_Q, BOLTS_A)], BOLTS_REPHRASED_Q)
        services = make_services(
            [Fixture("exact", prompt, f"Here is my solution:\n{BOLTS_A}\nDone.")]
        )
        program = infer_answer((BOLTS_Q, BOLTS_A), BOLTS_REPHRASED_Q, services)
        assert program.source_text == BOLTS_A

    def test_infer_answer_without_block_is_empty_generation(self):
        prompt = prompts.few_shot_prompt([(BOLTS_Q, BOLTS_A)], BOLTS_REPHRASED_Q)
        services = make_services([Fixture("exact", prompt, "cannot help")])
        with pytest.raises(EmptyGeneration):
            infer_answer((BOLTS_Q, BOLTS_A), BOLTS_REPHRASED_Q, services)

    def test_no_fixture_propagates(self):
        services = make_services([])
        with pytest.raises(NoFixture):
            infer_answer((BOLTS_Q, BOLTS_A), "any question", services)

    def test_generate_question_strips_whitespace(self):
        prompt = prompts.question_generation_prompt([(BOLTS_Q, BOLTS_A)], BOLTS_VARIANT_A)
        services = make_services([Fixture("exact", prompt, " A doubled robe question? \n")])
        out = generate_question(BOLTS_VARIANT_A, (BOLTS_Q, BOLTS_A), services)
        assert out == "A doubled robe question?"


def _stage1_fixtures():
    return [
        Fixture(
            "exact",
            prompts.rephrase_prompt(BOLTS_Q, BOLTS_A),
            BOLTS_REPHRASED_Q,
        ),
        Fixture(
            "exact",
            prompts.few_shot_prompt([(BOLTS_Q, BOLTS_A)], BOLTS_REPHRASED_Q),
            BOLTS_A,
        ),
    ]


class TestRunStage:
    """Each stage function run on its own input."""

    def test_stage1_happy_path(self):
        services = make_services(_stage1_fixtures())
        log = []
        out = stage1(bolts_example(), AugmentationConfig(), services, log)
        assert out is not None
        assert out.provenance == Provenance("stage1")
        assert out.parent_id == "bolts"
        assert out.question == BOLTS_REPHRASED_Q
        assert execute(parse(out.answer_text)) == 3.0
        assert out.consistency.verdict == "consistent"
        assert len(log) == 1 and log[0].accepted

    def test_stage1_exhausts_retries_on_wrong_answers(self):
        fixtures = [
            Fixture(
                "pattern", r"(?s)# Instruction: Rephrase the question\Z", "some new question"
            ),
            Fixture("pattern", r"(?s)# Python code, return ans\n\Z", "ans = 999"),
        ]
        services = make_services(fixtures)
        log = []
        config = AugmentationConfig(max_retries=2)
        out = stage1(bolts_example(), config, services, log)
        assert out is None
        assert len(log) == 3  # max_retries + 1 attempts
        assert all(not r.accepted for r in log)

    def test_stage2_skipped_for_pool_of_one(self):
        product = Example(
            id="bolts.s1",
            question=BOLTS_REPHRASED_Q,
            answer_text=BOLTS_A,
            provenance=Provenance("stage1"),
            parent_id="bolts",
        )
        pool = ExamplePool((bolts_example(),))
        log = []
        out = stage2(product, pool, AugmentationConfig(), make_services([]), log)
        assert out is None
        assert log[0].skip_reason == "no reference outside lineage"

    def test_stage2_reference_is_smallest_id_outside_lineage(self):
        seeds = thirteen_seeds()
        product = Example(
            id="S01.s1",
            question="Problem number 1, rephrased.",
            answer_text="ans = 1",
            provenance=Provenance("stage1"),
            parent_id="S01",
        )
        expected_prompt = prompts.few_shot_prompt(
            [("Problem number 2.", "ans = 2")], "Problem number 1, rephrased."
        )
        services = make_services([Fixture("exact", expected_prompt, "ans = 1")])
        out = stage2(product, seeds, AugmentationConfig(), services, [])
        assert out is not None
        assert out.provenance == Provenance("stage2")
        assert out.parent_id == "S01.s1"

    def test_stage3_single_iteration_doubles_bolts(self):
        # find a seed whose first chain draw is (*, 2)
        seed = next(
            s for s in range(2000) if random_chain(np.random.default_rng(s)).steps == (("*", 2.0),)
        )
        product = Example(
            id="bolts.s1.s2",
            question=BOLTS_REPHRASED_Q,
            answer_text=BOLTS_A,
            provenance=Provenance("stage2"),
            parent_id="bolts.s1",
        )
        generated_q = "How many bolts for two robes?"
        fixtures = [
            Fixture("pattern", r"(?s)\n\nQuestion:\Z", generated_q),
            Fixture(
                "exact",
                prompts.few_shot_prompt([(BOLTS_REPHRASED_Q, BOLTS_A)], generated_q),
                BOLTS_VARIANT_A,
            ),
        ]
        services = make_services(fixtures)
        config = AugmentationConfig(iterations=1)
        out = stage3(product, np.random.default_rng(seed), config, services, [])
        assert out is not None
        assert execute(parse(out.answer_text)) == 6.0
        assert out.question == generated_q
        assert out.provenance == Provenance("stage3", iteration=1)
        assert out.parent_id == "bolts.s1.s2"


class TestAugmentPool:
    def test_thirteen_seeds_two_stages_give_thirty_nine(self):
        result = augment_pool(
            thirteen_seeds(),
            AugmentationConfig(),
            make_services(augmentation_fixtures()),
            stages=(1, 2),
        )
        assert len(result.pool) == 39
        counts = result.accepted_per_stage()
        assert counts == {1: 13, 2: 13, 3: 0}

    def test_each_added_example_is_parsed_once(self, monkeypatch):
        seeds, services = thirteen_seeds(), make_services(augmentation_fixtures())
        calls = []
        real_parse = interpreter.parse
        monkeypatch.setattr(interpreter, "parse", lambda s: calls.append(s) or real_parse(s))
        result = augment_pool(seeds, AugmentationConfig(), services, stages=(1, 2))
        assert len(calls) == len(result.pool) - len(seeds) == 26

    def test_seeds_first_then_generation_order(self):
        result = augment_pool(
            thirteen_seeds(),
            AugmentationConfig(),
            make_services(augmentation_fixtures()),
            stages=(1, 2),
        )
        ids = [e.id for e in result.pool]
        assert ids[:13] == [f"S{i:02d}" for i in range(1, 14)]
        assert ids[13:17] == ["S01.s1", "S01.s1.s2", "S02.s1", "S02.s1.s2"]

    def test_all_generations_inconsistent_preserves_seeds(self):
        fixtures = [
            Fixture("pattern", r"(?s)# Instruction: Rephrase the question\Z", "new question"),
            Fixture("pattern", r"(?s)# Python code, return ans\n\Z", "ans = 999999"),
        ]
        result = augment_pool(
            thirteen_seeds(), AugmentationConfig(max_retries=0), make_services(fixtures),
            stages=(1, 2),
        )
        assert len(result.pool) == 13
        assert [e.id for e in result.pool] == [f"S{i:02d}" for i in range(1, 14)]

    def test_gate_soundness_every_nonseed_has_consistent_report(self):
        result = augment_pool(
            thirteen_seeds(), AugmentationConfig(), make_services(augmentation_fixtures()),
            stages=(1, 2),
        )
        for example in result.pool:
            if example.provenance.stage != "seed":
                assert example.consistency is not None
                assert example.consistency.verdict == "consistent"

    def test_lineage_bounded(self):
        result = augment_pool(
            thirteen_seeds(), AugmentationConfig(), make_services(augmentation_fixtures()),
            stages=(1, 2),
        )
        assert verify_lineage(result.pool, max_hops=2 + AugmentationConfig().iterations)

    def test_reproducible_byte_for_byte(self, tmp_path):
        paths = []
        for run in range(2):
            result = augment_pool(
                thirteen_seeds(), AugmentationConfig(rng_seed=5),
                make_services(augmentation_fixtures()), stages=(1, 2),
            )
            path = tmp_path / f"pool{run}.jsonl"
            save_pool(result.pool, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            augment_pool(ExamplePool(()), AugmentationConfig(), make_services([]))

    def test_stage_dependencies_skip_later_stages(self):
        # stage 1 always fails -> stages 2 and 3 never attempted for that seed
        fixtures = [
            Fixture("pattern", r"(?s)# Instruction: Rephrase the question\Z", ""),
        ]
        result = augment_pool(
            ExamplePool((bolts_example(),)),
            AugmentationConfig(max_retries=0),
            make_services(fixtures),
        )
        assert len(result.pool) == 1
        reasons = [a.skip_reason for a in result.attempts if a.skip_reason]
        assert "no stage-1 product" in reasons
        assert "no stage-2 product" in reasons

    def test_provider_error_propagates_instead_of_a_rejected_attempt(self, monkeypatch):
        posts = fake_post(monkeypatch, 200, b'{"choices": []}')  # no "text" field
        services = Services(
            completion=RemoteCompletionProvider(endpoint="http://example.invalid"),
            embedding=HashEmbedding(),
        )
        with pytest.raises(ProviderError):
            augment_pool(thirteen_seeds(), AugmentationConfig(), services)
        assert len(posts) == 1


class TestPoolFiles:
    def test_round_trip(self, tmp_path):
        result = augment_pool(
            thirteen_seeds(), AugmentationConfig(), make_services(augmentation_fixtures()),
            stages=(1, 2),
        )
        path = tmp_path / "pool.jsonl"
        save_pool(result.pool, path, meta={"note": "test"})
        loaded = load_pool(path)
        assert tuple(loaded) == tuple(result.pool)

    def test_examples_validate_on_load(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        path.write_text(
            '{"id": "bad", "question": "q", "answer_text": "x = ", '
            '"provenance": {"stage": "seed"}, "parent_id": null}\n'
        )
        with pytest.raises(Exception):
            load_pool(path)

    @pytest.mark.parametrize(
        "record",
        [
            "[1, 2]",
            '{"id": "a", "question": "q", "answer_text": "ans = 1", "provenance": "seed"}',
            '{"id": "a", "question": 5, "answer_text": "ans = 1", '
            '"provenance": {"stage": "seed"}}',
            '{"id": "a", "answer_text": "ans = 1", "provenance": {"stage": "seed"}}',
            '{"id": ["a"], "question": "q", "answer_text": "ans = 1", '
            '"provenance": {"stage": "seed"}}',
            '{"id": "a", "question": "q", "answer_text": "ans = 1", '
            '"provenance": {"stage": "stage1"}, "parent_id": ["b"]}',
            '{"id": 7, "question": "q", "answer_text": "ans = 1", '
            '"provenance": {"stage": "seed"}}',
        ],
        ids=[
            "list", "provenance-string", "question-number", "no-question",
            "id-list", "parent-id-list", "id-number",
        ],
    )
    def test_wrong_shaped_record_names_its_line(self, tmp_path, record):
        path = tmp_path / "pool.jsonl"
        path.write_text('{"meta": {}}\n\n' + record + "\n")
        with pytest.raises(MalformedRecord) as info:
            load_pool(path)
        assert info.value.line_no == 3

    def test_seed_parent_invariant(self):
        with pytest.raises(ValueError):
            Example(id="x", question="q", answer_text="ans = 1", parent_id="someone")
        with pytest.raises(ValueError):
            Example(
                id="x", question="q", answer_text="ans = 1",
                provenance=Provenance("stage1"), parent_id=None,
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ExamplePool((bolts_example(), bolts_example()))

    def test_parent_cycle_rejected(self):
        stage1 = Provenance("stage1")
        a = Example(id="a", question="q", answer_text="ans = 1", provenance=stage1, parent_id="b")
        b = Example(id="b", question="q", answer_text="ans = 1", provenance=stage1, parent_id="a")
        with pytest.raises(ValueError, match="cycle"):
            ExamplePool((bolts_example(), a, b))

    def test_write_jsonl_exact_bytes(self, tmp_path):
        path = tmp_path / "out.jsonl"
        record = {"question": "Zoë's café?", "answer": 1}
        write_jsonl(path, [record])
        assert path.read_bytes() == '{"answer": 1, "question": "Zoë\'s café?"}\n'.encode("utf-8")
        write_jsonl(path, [record], meta={"note": "naïve", "config": None})
        assert path.read_bytes() == (
            '{"meta": {"config": null, "note": "naïve"}}\n'
            '{"answer": 1, "question": "Zoë\'s café?"}\n'
        ).encode("utf-8")

    def test_attempt_record_exact_bytes(self, tmp_path):
        path = tmp_path / "attempts.jsonl"
        report = ConsistencyReport(True, 3.0, 3.0, 0.91, "consistent")
        write_jsonl(path, [dataclasses.asdict(AttemptRecord("bolts", 3, 2, 0, True, report))])
        assert path.read_bytes() == (
            '{"accepted": true, "attempt": 0, "iteration": 2, "report": {"candidate_value": 3.0, '
            '"cause": null, "output_match": true, "reference_value": 3.0, '
            '"step_similarity": 0.91, "verdict": "consistent"}, "seed_id": "bolts", '
            '"skip_reason": null, "stage": 3}\n'
        ).encode("utf-8")


class TestConsistencyReportInvariants:
    def test_consistent_requires_match_and_similarity(self):
        services = make_services()
        for candidate, reference in [("ans = 3", BOLTS_A), (BOLTS_A, BOLTS_A), ("ans = 9", BOLTS_A)]:
            report = check_consistency(parse(candidate), parse(reference), services, tau=0.8)
            if report.verdict == "consistent":
                assert report.output_match and report.step_similarity >= 0.8
            if not report.output_match:
                assert report.step_similarity is None

    def test_report_round_trips_through_json(self):
        report = ConsistencyReport(True, 3.0, 3.0, 0.91, "consistent", None)
        assert ConsistencyReport.from_json(dataclasses.asdict(report)) == report
