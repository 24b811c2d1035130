"""Command-line workflows: exit codes, output files, determinism."""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import requests
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import potselect
from potselect import records
from potselect.augmentation import Example
from potselect.cache import _read_entry
from potselect.cli import _effective_config, build_parser, main
from potselect.prompts import few_shot_prompt, rephrase_prompt
from potselect.providers import Fixture, ProviderError
from potselect.selection import load_weights

from conftest import (
    BOLTS_A,
    BOLTS_Q,
    BOLTS_REPHRASED_Q,
    augmentation_fixtures,
    completion_fixture,
    CONCEPT_FIXTURE,
    DEEP_LINE,
    FailingEmbedding,
    ROUGH_FIXTURE,
    StubEmbedding,
    eval_dataset_records,
    eval_fixtures,
    eval_pool,
    failing_open,
    fake_post,
    metric_requests,
    save_fixtures,
    thirteen_seeds,
    write_eval_environment,
)


_SEED = '{"id": "a", "question": "q", "answer_text": "ans = 1", "provenance": {"stage": "seed"}}'
_WEIGHTS = '{"relevance": 1, "concept": 0, "complexity": 0, "similarity": 0}'


def _write_seed_pool(path, pool):
    with open(path, "w", encoding="utf-8") as fh:
        for example in pool:
            fh.write(json.dumps(example.to_json()) + "\n")


@pytest.fixture
def augment_files(tmp_path):
    pool_path = tmp_path / "seeds.jsonl"
    _write_seed_pool(pool_path, thirteen_seeds())
    fixtures_path = tmp_path / "fixtures.json"
    save_fixtures(augmentation_fixtures(), fixtures_path)
    return {"pool": str(pool_path), "fixtures": str(fixtures_path), "tmp": tmp_path}


class TestAugmentCommand:
    def test_thirteen_seeds_two_stages_exit_zero_pool_39(self, augment_files, capsys):
        out = augment_files["tmp"] / "augmented.jsonl"
        code = main(
            [
                "augment",
                "--pool", augment_files["pool"],
                "--fixtures", augment_files["fixtures"],
                "--stages", "1,2",
                "--out", str(out),
            ]
        )
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        examples = [r for r in records if "meta" not in r]
        assert len(examples) == 39
        assert "stage1=13 stage2=13" in capsys.readouterr().out
        assert (augment_files["tmp"] / "augmented.jsonl.attempts.jsonl").exists()

    def test_missing_seed_file_is_data_error(self, tmp_path, capsys):
        code = main(
            [
                "augment",
                "--pool", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_scripted_provider_without_fixtures_is_provider_error(self, augment_files, capsys):
        code = main(
            [
                "augment",
                "--pool", augment_files["pool"],
                "--out", str(augment_files["tmp"] / "out.jsonl"),
            ]
        )
        assert code == 2
        assert "provider error" in capsys.readouterr().err

    def test_repeat_runs_are_byte_identical(self, augment_files):
        outs = []
        for run in range(2):
            out = augment_files["tmp"] / f"augmented{run}.jsonl"
            code = main(
                [
                    "augment",
                    "--pool", augment_files["pool"],
                    "--fixtures", augment_files["fixtures"],
                    "--stages", "1,2",
                    "--seed", "9",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        # the meta record echoes the per-run output path, so compare records
        a = [l for l in outs[0].split(b"\n") if b'"meta"' not in l]
        b = [l for l in outs[1].split(b"\n") if b'"meta"' not in l]
        assert a == b


class TestStages:
    # each stage runs on the product of the one before, so a set that skips one is bad
    _BAD = ["4", "x", "", "1,,2", "0,1", "2", "3", "2,3", "1,3"]

    def _augment(self, augment_files, *extra):
        out = augment_files["tmp"] / "augmented.jsonl"
        files = ["--pool", augment_files["pool"], "--fixtures", augment_files["fixtures"]]
        return main(["augment", *files, *extra, "--out", str(out)]), out

    @pytest.mark.parametrize("stages", _BAD, ids=repr)
    def test_bad_stages_flag_is_usage_error(self, augment_files, capsys, stages):
        code, out = self._augment(augment_files, "--stages", stages)
        assert code == 1
        assert "--stages" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stages", [*_BAD, 4, ["1"]], ids=json.dumps)
    def test_bad_stages_in_config_is_usage_error(self, augment_files, capsys, stages):
        config_path = augment_files["tmp"] / "config.json"
        config_path.write_text(json.dumps({"stages": stages}))
        code, out = self._augment(augment_files, "--config", str(config_path))
        assert code == 1
        assert "config key 'stages'" in capsys.readouterr().err
        assert not out.exists()

    def test_stages_are_echoed_as_given(self, augment_files):
        code, out = self._augment(augment_files, "--stages", "2, 1")
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert records[0]["meta"]["config"]["stages"] == "2, 1"
        assert len(records) == 1 + 39


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert main(["augment", "--frobnicate"]) == 1

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 1

    def test_missing_required_out(self, augment_files):
        assert main(["augment", "--pool", augment_files["pool"]]) == 1


class TestSelectCommand:
    def test_relevance_fixture_picks_identical_question_first(self, tmp_path):
        q_t = "eggs sold at the market today"
        pool_path = tmp_path / "pool.jsonl"
        records = [
            {
                "id": "ex0",
                "question": "completely unrelated astronomy words",
                "answer_text": "ans = 1",
                "provenance": {"stage": "seed"},
                "parent_id": None,
            },
            {
                "id": "ex1",
                "question": q_t,
                "answer_text": "ans = 2",
                "provenance": {"stage": "seed"},
                "parent_id": None,
            },
        ]
        with open(pool_path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        dataset_path = tmp_path / "dataset.jsonl"
        dataset_path.write_text(json.dumps({"question": q_t, "answer": "#### 2"}) + "\n")
        fixtures_path = tmp_path / "fixtures.json"
        save_fixtures([CONCEPT_FIXTURE, ROUGH_FIXTURE], fixtures_path)
        out = tmp_path / "chosen.jsonl"
        code = main(
            [
                "select",
                "--pool", str(pool_path),
                "--dataset", str(dataset_path),
                "--fixtures", str(fixtures_path),
                "--weights", "1,0,0,0",
                "--epsilon", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines() if "meta" not in l]
        assert rows[0]["chosen"][0] == "ex1"
        assert (tmp_path / "chosen.jsonl.trace.jsonl").exists()

    @pytest.mark.parametrize(
        "pool, weights, message",
        [
            ("[1, 2]", _WEIGHTS, "record 1"),
            (_SEED.replace('{"stage": "seed"}', '"seed"'), _WEIGHTS, "record 1"),
            (_SEED, "[0.25, 0.25, 0.25, 0.25]", "one JSON object of weights"),
            (_SEED, _WEIGHTS.replace("1", "true"), "one JSON object of weights"),
            (_SEED, _WEIGHTS.replace("1", '"1"'), "one JSON object of weights"),
            ('{"meta": {}}', _WEIGHTS, "candidate pool is empty"),
            (_SEED.replace("ans = 1", DEEP_LINE), _WEIGHTS, "nested deeper"),
        ],
        ids=[
            "pool-list",
            "provenance-string",
            "weights-list",
            "weights-bool",
            "weights-string",
            "pool-empty",
            "answer-too-deep",
        ],
    )
    def test_wrong_shaped_input_is_data_error(self, tmp_path, capsys, pool, weights, message):
        dataset = json.dumps({"question": "q", "answer": "#### 2"})
        for name, text in (("pool", pool), ("weights", weights), ("dataset", dataset)):
            (tmp_path / name).write_text(text + "\n")
        code = main(
            [
                "select",
                "--pool", str(tmp_path / "pool"),
                "--dataset", str(tmp_path / "dataset"),
                "--weights", str(tmp_path / "weights"),
                "--out", str(tmp_path / "chosen.jsonl"),
            ]
        )
        assert code == 3
        assert message in capsys.readouterr().err


class TestTuneCommand:
    def test_synthetic_objective_recovers_target(self, tmp_path, capsys):
        out = tmp_path / "weights.json"
        code = main(
            [
                "tune",
                "--synthetic-objective",
                "--budget", "60",
                "--seed", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        weights = load_weights(out)
        assert np.all(np.abs(weights.as_array() - 0.3) <= 0.1)
        assert (tmp_path / "weights.json.trials.jsonl").exists()
        assert "best objective" in capsys.readouterr().out

    def test_rerun_starts_a_fresh_trial_log(self, tmp_path):
        out = tmp_path / "w.json"
        argv = ["tune", "--synthetic-objective", "--budget", "3", "--out", str(out)]
        assert main(argv) == 0
        assert main(argv) == 0
        log = [json.loads(l) for l in (tmp_path / "w.json.trials.jsonl").read_text().splitlines()]
        assert [r["seq"] for r in log if "seq" in r] == [0, 1, 2]

    def test_empty_pool_is_data_error_before_the_first_trial(self, eval_environment, capsys):
        pool = eval_environment["tmp"] / "empty.jsonl"
        pool.write_text('{"meta": {}}\n')
        out = eval_environment["tmp"] / "w.json"
        code = main(
            [
                "tune",
                "--pool", str(pool),
                "--dataset", eval_environment["dataset"],
                "--fixtures", eval_environment["fixtures"],
                "--budget", "2",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert "data error: candidate pool is empty" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(f"{out}.trials.jsonl").exists()

    def test_empty_dataset_is_data_error_before_the_first_trial(self, eval_environment, capsys):
        dataset = eval_environment["tmp"] / "empty.jsonl"
        dataset.write_text("")
        out = eval_environment["tmp"] / "w.json"
        code = main(
            [
                "tune",
                "--pool", eval_environment["pool"],
                "--dataset", str(dataset),
                "--fixtures", eval_environment["fixtures"],
                "--budget", "2",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert "data error: training set is empty" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(f"{out}.trials.jsonl").exists()

    def test_a_run_reads_each_cache_entry_file_at_most_once(
        self, tmp_path, monkeypatch, request_ledger
    ):
        names = []

        def counting(path):
            names.append(path.name)
            return _read_entry(path)

        monkeypatch.setattr("potselect.cache._read_entry", counting)
        cache_dir = tmp_path / "cache"
        argv = [*_command_argv("tune", tmp_path), "--cache-dir", str(cache_dir)]
        sent = []
        for run in ("cold", "warm"):
            names.clear()
            request_ledger.sent.clear()
            assert main([*argv, "--out", str(tmp_path / f"{run}.json")]) == 0
            # each entry is looked up once: the cold run finds it missing and writes it
            assert sorted(names) == sorted(p.name for p in cache_dir.iterdir())
            sent.append(len(request_ledger.sent))
        assert sent[0] == len(names) > 0
        assert sent[1] == 0

    def test_warm_cache_makes_no_provider_calls(self, tmp_path, request_ledger):
        argv = [*_command_argv("tune", tmp_path), "--cache-dir", str(tmp_path / "cache")]
        sent = []
        for run in ("cold", "warm"):
            request_ledger.sent.clear()
            assert main([*argv, "--budget", "3", "--out", str(tmp_path / f"{run}.json")]) == 0
            sent.append(len(request_ledger.sent))
        assert sent[0] > 0
        assert sent[1] == 0

    def test_output_does_not_depend_on_the_cache(self, tmp_path, request_ledger):
        files = _cache_transparent(_command_argv("tune", tmp_path), tmp_path, request_ledger)
        assert len(files[1]) == 1 + 12 + 1  # the header, 12 trials, the final newline


class TestEvalCommand:
    def test_five_item_fixture_scores_point_six(self, eval_environment, capsys):
        out = eval_environment["tmp"] / "report.jsonl"
        code = main(
            [
                "eval",
                "--pool", eval_environment["pool"],
                "--dataset", eval_environment["dataset"],
                "--fixtures", eval_environment["fixtures"],
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "accuracy=0.6000" in capsys.readouterr().out
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[-1]["summary"]["accuracy"] == pytest.approx(0.6)


def _command_argv(command: str, tmp: Path) -> list[str]:
    """Write inputs for ``command`` into ``tmp``; return its argv before ``--out``:
    two augmentation stages of the 13 seeds, or the 5-item eval fixture."""
    if command == "augment":
        pool, fixtures = tmp / "seeds.jsonl", tmp / "fixtures.json"
        _write_seed_pool(pool, thirteen_seeds())
        save_fixtures(augmentation_fixtures(), fixtures)
        return ["augment", "--stages", "1,2", "--pool", str(pool), "--fixtures", str(fixtures)]
    env = write_eval_environment(tmp)
    argv = [command, "--pool", env["pool"], "--dataset", env["dataset"]]
    argv += ["--fixtures", env["fixtures"]]
    return argv + ["--budget", "12"] if command == "tune" else argv


def _outputs(out: Path) -> list[bytes]:
    """Each file whose name starts with ``out``'s, in name order, with every trial's
    timestamp removed; each file is deleted once read."""
    files = []
    for path in sorted(out.parent.glob(f"{out.name}*")):
        files.append(re.sub(rb', "timestamp": "[^"]*"', b"", path.read_bytes()))
        path.unlink()
    return files


def _cache_transparent(argv: list[str], tmp: Path, ledger) -> list[list[bytes]]:
    """Run ``argv`` with no cache, a cold cache and a warm one, and check that the
    three runs write the same bytes, meta records and trial timestamps apart, that
    the cold run sends each distinct request once and the warm run nothing, and
    that an uncached ``augment`` sends each distinct request once as well.
    Return the lines of each output file."""
    cache = ["--cache-dir", str(tmp / "cache")]
    runs, sent = [], []
    for extra in ([], cache, cache):  # no cache, cold, warm
        ledger.sent.clear()
        assert main([*argv, "--out", str(tmp / "out"), *extra]) == 0
        files = _outputs(tmp / "out")
        runs.append([[l for l in f.split(b"\n") if b'"meta"' not in l] for f in files])
        sent.append(list(ledger.sent))
    assert runs[0] == runs[1] == runs[2]
    assert sent[1] == list(dict.fromkeys(sent[0])) != []  # the uncached run's, once each
    if argv[0] == "augment":  # a retry with a rejected attempt's inputs sends nothing
        assert sent[0] == sent[1]
    assert sent[2] == []
    return runs[0]


@pytest.mark.parametrize("command", ["augment", "select", "eval"])
def test_output_does_not_depend_on_the_cache(tmp_path, request_ledger, command):
    _cache_transparent(_command_argv(command, tmp_path), tmp_path, request_ledger)


def test_augment_output_does_not_depend_on_the_cache(tmp_path, request_ledger):
    """A wrong and then a right fixture for one stage-1 infer prompt: the prompt's
    one response is the wrong one, with no cache, a cold cache and a warm one."""
    pool_path, fixtures_path = tmp_path / "seed.jsonl", tmp_path / "fixtures.json"
    _write_seed_pool(pool_path, [Example(id="bolts", question=BOLTS_Q, answer_text=BOLTS_A)])
    infer = few_shot_prompt([(BOLTS_Q, BOLTS_A)], BOLTS_REPHRASED_Q)
    fixtures = [
        Fixture("exact", rephrase_prompt(BOLTS_Q, BOLTS_A), BOLTS_REPHRASED_Q),
        Fixture("exact", infer, "ans = 999"),
        Fixture("exact", infer, BOLTS_A),
    ]
    save_fixtures(fixtures, fixtures_path)
    argv = ["augment", "--pool", str(pool_path), "--fixtures", str(fixtures_path), "--stages", "1"]
    _, attempts = _cache_transparent(argv, tmp_path, request_ledger)
    assert [json.loads(l)["accepted"] for l in attempts if l] == [False] * 4


def test_a_completion_with_a_lone_surrogate_is_a_rejected_attempt(tmp_path):
    """A JSON fixture can carry text that UTF-8 cannot encode; it is not Python."""
    pool_path, fixtures_path = tmp_path / "seed.jsonl", tmp_path / "fixtures.json"
    _write_seed_pool(pool_path, [Example(id="bolts", question=BOLTS_Q, answer_text=BOLTS_A)])
    rephrase = rephrase_prompt(BOLTS_Q, BOLTS_A)
    infer = few_shot_prompt([(BOLTS_Q, BOLTS_A)], BOLTS_REPHRASED_Q)
    fixtures = [
        {"match": "exact", "text": rephrase, "response": BOLTS_REPHRASED_Q},
        {"match": "exact", "text": infer, "response": "ans = 1\ud800"},
    ]
    fixtures_path.write_text(json.dumps(fixtures))  # ASCII, so the surrogate is an escape
    out = tmp_path / "pool.jsonl"
    argv = ["augment", "--pool", str(pool_path), "--fixtures", str(fixtures_path)]
    assert main([*argv, "--stages", "1", "--out", str(out)]) == 0
    attempts = [json.loads(l) for l in Path(f"{out}.attempts.jsonl").read_text().splitlines()]
    assert [(a["accepted"], a["report"]["cause"]) for a in attempts] == [
        (False, "completion contains no parseable answer block")
    ] * 4


def test_a_completion_with_a_lone_surrogate_is_written_into_the_report(eval_environment):
    fixtures = json.loads(Path(eval_environment["fixtures"]).read_text(encoding="utf-8"))
    fixtures[2]["response"] = "ans = 1\ud800"  # the first question's completion
    Path(eval_environment["fixtures"]).write_text(json.dumps(fixtures))
    out = eval_environment["tmp"] / "report.jsonl"
    argv = ["eval", "--pool", eval_environment["pool"], "--dataset", eval_environment["dataset"]]
    assert main([*argv, "--fixtures", eval_environment["fixtures"], "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 1 + len(eval_dataset_records()) + 1
    assert records[1]["completion"] == "ans = 1\ud800"
    assert records[1]["cause"] == "parse: no answer block in completion"
    assert "summary" in records[-1]


_BEYOND_FLOAT_RANGE = ["9" * 400, "1e999"]  # an int too large for a float; a float read as inf


@pytest.mark.parametrize("literal", _BEYOND_FLOAT_RANGE, ids=["int", "float"])
def test_a_seed_literal_beyond_float_range_is_a_data_error(augment_files, capsys, literal):
    pool = Path(augment_files["pool"])
    records = [json.loads(line) for line in pool.read_text().splitlines()]
    records[1]["answer_text"] = f"x = 1 / {literal}\nans = 2 + x"
    pool.write_text("".join(json.dumps(record) + "\n" for record in records))
    out = augment_files["tmp"] / "out.jsonl"
    argv = ["augment", "--pool", str(pool), "--fixtures", augment_files["fixtures"]]
    assert main([*argv, "--stages", "1,2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "data error: record 2: not a pool example" in err
    assert "line 1: unsupported construct: literal beyond float range" in err
    assert not out.exists()


@pytest.mark.parametrize("literal", _BEYOND_FLOAT_RANGE, ids=["int", "float"])
def test_a_completion_literal_beyond_float_range_is_a_rejected_attempt(tmp_path, literal):
    """Were ``1 / 1e999`` parsed, it would execute to 0 and pass the gate, and
    stage 3 would then fail to render its product's literal."""
    pool_path, fixtures_path = tmp_path / "seed.jsonl", tmp_path / "fixtures.json"
    _write_seed_pool(pool_path, [Example(id="one", question="Problem number 1.", answer_text="ans = 1")])
    rephrase, infer = augmentation_fixtures()
    completion = f"x = 1 / {literal}\nans = 1 + x"
    save_fixtures([rephrase, Fixture(infer.kind, infer.text, completion)], fixtures_path)
    out = tmp_path / "pool.jsonl"
    argv = ["augment", "--pool", str(pool_path), "--fixtures", str(fixtures_path)]
    assert main([*argv, "--stages", "1", "--out", str(out)]) == 0
    attempts = [json.loads(l) for l in Path(f"{out}.attempts.jsonl").read_text().splitlines()]
    assert [(a["accepted"], a["report"]["cause"]) for a in attempts] == [
        (False, "completion contains no parseable answer block")
    ] * 4


@pytest.mark.parametrize("literal", _BEYOND_FLOAT_RANGE, ids=["int", "float"])
def test_a_completion_literal_beyond_float_range_is_a_parse_cause(eval_environment, literal):
    fixtures = json.loads(Path(eval_environment["fixtures"]).read_text(encoding="utf-8"))
    fixtures[2]["response"] = f"ans = {literal}"  # the first question's completion
    Path(eval_environment["fixtures"]).write_text(json.dumps(fixtures))
    out = eval_environment["tmp"] / "report.jsonl"
    argv = ["eval", "--pool", eval_environment["pool"], "--dataset", eval_environment["dataset"]]
    assert main([*argv, "--fixtures", eval_environment["fixtures"], "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert records[1]["cause"] == "parse: no answer block in completion"
    assert "summary" in records[-1]


def test_a_svamp_answer_beyond_float_range_is_a_data_error(eval_environment, capsys):
    dataset = eval_environment["tmp"] / "svamp.json"
    dataset.write_text(json.dumps([{"Body": "B", "Question": "Q?", "Answer": 10**400}]))
    out = eval_environment["tmp"] / "report.jsonl"
    argv = ["eval", "--pool", eval_environment["pool"], "--dataset", str(dataset)]
    argv += ["--dataset-kind", "svamp", "--fixtures", eval_environment["fixtures"]]
    assert main([*argv, "--out", str(out)]) == 3
    assert f"data error: record 1: answer {10**400} is not numeric" in capsys.readouterr().err
    assert not out.exists()


def _surrogate_inputs(tmp: Path, command: str) -> list[str]:
    """Input files whose prompts and responses hold lone surrogates, each file
    ASCII JSON with the surrogates escaped; the command's argv before ``--out``."""
    if command == "augment":
        pool = tmp / "seeds.jsonl"
        _write_seed_pool(pool, [
            Example(id="one", question="Problem number 1. \ud800", answer_text="ans = 1"),
            Example(id="two", question="Problem number 2.", answer_text="ans = 2"),
        ])
        infer = r"(?s)Question: Problem number {}, rephrased \udfff\.\n# Python code, return ans\n\Z"
        fixtures = [
            Fixture(
                "pattern",
                r"(?s)\AQuestion: Problem number (\d+)\..*# Instruction: Rephrase the question\Z",
                "Problem number \\1, rephrased \udfff.",
            ),
            Fixture("pattern", infer.format(1), "ans = 1"),
            Fixture("pattern", infer.format(2), "ans = 2\udc80"),
        ]
        argv = ["augment", "--stages", "1", "--pool", str(pool)]
    else:
        env = write_eval_environment(tmp)
        dataset = Path(env["dataset"])
        record = {"id": "S", "question": "Surrogate question \ud800?", "answer": "#### 7"}
        dataset.write_text(dataset.read_text() + json.dumps(record) + "\n")
        fixtures = [*eval_fixtures(), completion_fixture(record["question"], "ans = 7\udfff")]
        argv = ["eval", "--pool", env["pool"], "--dataset", str(dataset)]
    records = [{"match": f.kind, "text": f.text, "response": f.response} for f in fixtures]
    (tmp / "surrogates.json").write_text(json.dumps(records))
    return [*argv, "--fixtures", str(tmp / "surrogates.json")]


@pytest.mark.parametrize("command", ["augment", "eval"])
def test_a_lone_surrogate_gives_the_same_outputs_with_or_without_a_cache(
    tmp_path, request_ledger, command
):
    """No cache, a cold cache and a warm one write the same bytes, meta records
    apart, and the warm run asks the provider nothing."""
    argv = _surrogate_inputs(tmp_path, command)
    files = _cache_transparent(argv, tmp_path, request_ledger)
    records = [json.loads(l) for l in files[-1] if l]
    if command == "augment":
        assert [(a["accepted"], a["report"]["cause"]) for a in records[:2]] == [
            (True, None),
            (False, "completion contains no parseable answer block"),
        ]
    else:
        assert records[-2]["item_id"] == "S"
        assert records[-2]["completion"] == "ans = 7\udfff"
        assert records[-2]["cause"] == "parse: no answer block in completion"


def _in_a_fresh_interpreter(argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(potselect.__file__).parents[1]))
    command = [sys.executable, "-m", "potselect.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, timeout=120).returncode


@pytest.mark.parametrize("command", ["augment", "select", "eval", "tune"])
def test_runs_repeat_in_process_and_in_a_fresh_interpreter(tmp_path, command):
    """Warm memos (parsed lines, token hashes) change no output byte."""
    argv = [*_command_argv(command, tmp_path), "--out", str(tmp_path / "out")]
    runs = []
    for run in (main, main, _in_a_fresh_interpreter):
        assert run(argv) == 0
        runs.append(_outputs(tmp_path / "out"))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("command", ["select", "eval"])
def test_repeated_question_without_cache_is_scored_once(eval_environment, request_ledger, command):
    record = eval_dataset_records()[0]
    dataset = eval_environment["tmp"] / "repeated.jsonl"
    dataset.write_text("".join(json.dumps({**record, "id": i}) + "\n" for i in ("a", "b")))
    out = eval_environment["tmp"] / "out.jsonl"
    argv = [command, "--pool", eval_environment["pool"], "--dataset", str(dataset)]
    assert main([*argv, "--fixtures", eval_environment["fixtures"], "--out", str(out)]) == 0
    few_shot = 1 if command == "eval" else 0  # the same selection: one few-shot prompt
    rows = metric_requests(eval_pool(), [record["question"]])
    assert len(request_ledger.sent) == len(rows) + few_shot
    records = [json.loads(l) for l in out.read_text().splitlines()][1:3]
    assert [r.pop("item_id") for r in records] == ["a", "b"]
    assert records[0] == records[1]


# (fake_post keywords, posts per failed request): a timeout or a refused
# connection is retried up to the attempt limit, a 404 or a body that is not
# JSON fails on its first post
_POST_FAILURES = [
    pytest.param({"raises": requests.Timeout("slow")}, 3, id="timeout"),
    pytest.param({"raises": requests.ConnectionError("refused")}, 3, id="connection-error"),
    pytest.param({"status": 404, "body": b"not found"}, 1, id="404"),
    pytest.param({"status": 200, "body": b"not json"}, 1, id="non-json"),
]


class TestRemoteProviderFailures:
    """A failing remote endpoint, injected at ``requests.post``; by default a
    response without a "text" field."""

    @pytest.fixture(autouse=True)
    def malformed_endpoint(self, monkeypatch):
        monkeypatch.setenv("POTSELECT_ENDPOINT", "http://example.invalid")
        fake_post(monkeypatch, 200, b'{"choices": []}')

    def _run(self, command, eval_environment):
        out = eval_environment["tmp"] / f"{command}.jsonl"
        code = main(
            [
                command,
                "--provider", "remote",
                "--pool", eval_environment["pool"],
                "--dataset", eval_environment["dataset"],
                "--out", str(out),
                *(["--budget", "2"] if command == "tune" else []),
            ]
        )
        return code, out

    def test_select_exits_with_provider_code(self, eval_environment, capsys):
        code, _ = self._run("select", eval_environment)
        assert code == 2
        assert "provider error" in capsys.readouterr().err

    def test_eval_records_provider_cause_per_item(self, eval_environment):
        code, out = self._run("eval", eval_environment)
        assert code == 0
        items = [json.loads(l) for l in out.read_text().splitlines()][1:-1]
        assert len(items) == 5
        assert all(item["cause"].startswith("provider: ") for item in items)

    @pytest.mark.parametrize("body", [b'{"text": null}', b'{"text": 3}', b'{"text": ["a"]}'])
    @pytest.mark.parametrize("command", ["select", "eval"])
    def test_non_string_text_is_a_provider_error(
        self, eval_environment, monkeypatch, capsys, command, body
    ):
        fake_post(monkeypatch, 200, body)
        code, out = self._run(command, eval_environment)
        if command == "select":
            assert code == 2
            assert "provider error: 'text' is " in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            items = [json.loads(l) for l in out.read_text().splitlines()][1:-1]
            assert len(items) == 5
            assert all(item["cause"].startswith("provider: ") for item in items)

    @pytest.mark.parametrize("command", ["select", "eval", "tune"])
    @pytest.mark.parametrize("failure, posts_per_request", _POST_FAILURES)
    def test_failure_mode(
        self, eval_environment, monkeypatch, capsys, command, failure, posts_per_request
    ):
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        posts = fake_post(monkeypatch, **failure)
        code, out = self._run(command, eval_environment)
        if command == "eval":
            assert code == 0
            items = [json.loads(l) for l in out.read_text().splitlines()][1:-1]
            assert len(items) == 5
            assert all(item["cause"].startswith("provider: ") for item in items)
        else:
            assert code == 2
            assert "provider error: " in capsys.readouterr().err
            assert not out.exists()
        if command == "tune":  # the first trial failed: the log holds its header only
            log = Path(f"{out}.trials.jsonl").read_text().splitlines()
            assert [json.loads(l) for l in log] == [{"rng_seed": 0}]
        # each question fails at its first completion; select stops at the first,
        # while eval and tune's first trial go through all 5
        assert len(posts) == posts_per_request * (1 if command == "select" else 5)


class TestAugmentRemoteFailures:
    """``augment --provider remote`` against a failing endpoint at ``requests.post``."""

    @pytest.mark.parametrize(
        "failure, posts_per_request",
        [
            pytest.param({"body": b'{"choices": []}'}, 1, id="no-text"),
            pytest.param({"status": 503, "body": b"busy"}, 3, id="503"),
            *_POST_FAILURES,
        ],
    )
    def test_exits_with_provider_code_and_writes_nothing(
        self, augment_files, monkeypatch, capsys, failure, posts_per_request
    ):
        monkeypatch.setenv("POTSELECT_ENDPOINT", "http://example.invalid")
        posts = fake_post(monkeypatch, **failure)
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        out = augment_files["tmp"] / "augmented.jsonl"
        code = main(
            [
                "augment",
                "--provider", "remote",
                "--pool", augment_files["pool"],
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "provider error" in capsys.readouterr().err
        assert not out.exists()
        assert not (augment_files["tmp"] / "augmented.jsonl.attempts.jsonl").exists()
        assert len(posts) == posts_per_request  # the first request fails


class TestEmbeddingFailures:
    """A failing embedder in place of the CLI's ``HashEmbedding``."""

    @pytest.mark.parametrize(
        "embedder, message",
        [
            (FailingEmbedding(ProviderError("embedding endpoint unavailable")), "unavailable"),
            # one question embeds to 3 components, everything else to 2
            (
                StubEmbedding({eval_dataset_records()[0]["question"]: [1.0, 0.0, 0.0]}),
                "dimensions differ: (2,) vs (3,)",
            ),
        ],
        ids=["provider-error", "wrong-dimension"],
    )
    def test_select_exits_with_provider_code(
        self, eval_environment, monkeypatch, capsys, embedder, message
    ):
        monkeypatch.setattr("potselect.cli.HashEmbedding", lambda: embedder)
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
        assert code == 2
        err = capsys.readouterr().err
        assert "provider error: " in err and message in err
        assert not out.exists()


def _after_the_good_fixtures(record):
    return lambda good: [*good, record]


class TestBadFixtureFile:
    """A pattern that does not compile, a bad group reference, a missing or
    non-string field, an unknown match kind, or a file that is not an array of
    objects is bad data (exit 3)."""

    @pytest.mark.parametrize("command", ["augment", "select", "tune", "eval"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (
                _after_the_good_fixtures({"match": "pattern", "text": "(", "response": "r"}),
                "fixture {n}: missing )",
            ),
            (
                _after_the_good_fixtures({"match": "pattern", "text": r"(\d)", "response": r"\3"}),
                "fixture {n}: invalid group reference 3",
            ),
            (
                _after_the_good_fixtures({"match": "pattern", "text": "(a)", "response": 5}),
                "fixture {n}: match, text and response must be strings",
            ),
            (_after_the_good_fixtures(5), "fixture {n}: not an object"),
            (lambda good: {"a": 1}, "fixture file {path} must hold a JSON array"),
            (
                _after_the_good_fixtures({"match": "exact", "text": "a"}),
                "fixture {n}: missing field response",
            ),
            (
                _after_the_good_fixtures({"match": "regex", "text": "a", "response": "r"}),
                "fixture {n}: match kind must be exact|pattern, got 'regex'",
            ),
        ],
        ids=[
            "pattern", "group-reference", "non-string-response", "not-an-object", "not-an-array",
            "missing-field", "unknown-kind",
        ],
    )
    def test_is_a_data_error_on_loading(self, eval_environment, capsys, command, content, message):
        good = json.loads(Path(eval_environment["fixtures"]).read_text())
        fixtures_path = eval_environment["tmp"] / "bad-fixtures.json"
        fixtures_path.write_text(json.dumps(content(good)))
        out = eval_environment["tmp"] / "out.jsonl"
        argv = [command, "--pool", eval_environment["pool"], "--fixtures", str(fixtures_path)]
        if command != "augment":
            argv += ["--dataset", eval_environment["dataset"]]
        assert main([*argv, "--out", str(out)]) == 3
        assert "data error: " + message.format(n=len(good), path=fixtures_path) in capsys.readouterr().err
        assert not out.exists()


class TestCacheStats:
    def test_reports_counts(self, eval_environment, capsys):
        cache_dir = eval_environment["tmp"] / "cache"
        main(
            [
                "eval",
                "--pool", eval_environment["pool"],
                "--dataset", eval_environment["dataset"],
                "--fixtures", eval_environment["fixtures"],
                "--cache-dir", str(cache_dir),
                "--out", str(eval_environment["tmp"] / "r.jsonl"),
            ]
        )
        capsys.readouterr()
        code = main(["cache-stats", "--cache-dir", str(cache_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries=" in out and "quarantined=0" in out

    def test_requires_cache_dir(self):
        assert main(["cache-stats"]) == 1

    def test_a_missing_directory_is_an_empty_cache_and_is_not_created(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "sub"
        assert main(["cache-stats", "--cache-dir", str(missing)]) == 0
        assert capsys.readouterr().out == "entries=0 bytes=0 quarantined=0\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_file_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "cache"
        path.write_text("not a directory")
        assert main(["cache-stats", "--cache-dir", str(path)]) == 3
        assert str(path) in capsys.readouterr().err
        assert path.read_text() == "not a directory"


class TestOutOfRange:
    """A value outside its option's range is a usage error (exit 1), from a flag or the file."""

    _CASES = [
        ("select", "max_chosen", 0, ">= 1"),
        ("augment", "iterations", 0, ">= 1"),
        ("augment", "max_retries", -1, ">= 0"),
        ("tune", "budget", 0, ">= 1"),
        ("eval", "epsilon", -0.5, ">= 0"),
        ("select", "delta", float("nan"), ">= 0"),
        ("augment", "tau", 1.5, "in [-1, 1]"),
    ]

    @pytest.mark.parametrize("command, key, value, bound", _CASES)
    def test_flag(self, capsys, command, key, value, bound):
        assert main([command, "--" + key.replace("_", "-"), str(value)]) == 1
        assert f"must be {bound}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value, bound", _CASES)
    def test_config_file(self, tmp_path, capsys, command, key, value, bound):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(config_path)]) == 1
        assert f"config key {key!r}: must be {bound}, got {value}" in capsys.readouterr().err

    _INLINE_WEIGHTS = ["1,2,3", "1,2,3,x", "nan,1,1,1", "0,0,0,0", "-1,0,0,0"]

    @staticmethod
    def _select(env, *args):
        files = ("--pool", env["pool"], "--dataset", env["dataset"], "--fixtures", env["fixtures"])
        return main(["select", *files, "--out", str(env["tmp"] / "chosen.jsonl"), *args])

    @pytest.mark.parametrize("weights", _INLINE_WEIGHTS)
    def test_inline_weights_flag(self, eval_environment, capsys, weights):
        assert self._select(eval_environment, "--weights=" + weights) == 1
        assert f"--weights {weights!r} is not 4 comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", _INLINE_WEIGHTS)
    def test_inline_weights_config_file(self, eval_environment, capsys, weights):
        config_path = eval_environment["tmp"] / "config.json"
        config_path.write_text(json.dumps({"weights": weights}))
        assert self._select(eval_environment, "--config", str(config_path)) == 1
        assert f"--weights {weights!r} is not 4 comma-separated" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, eval_environment, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"max_chosen": 1, "epsilon": 0.0}))
        out = eval_environment["tmp"] / "report.jsonl"
        code = main(
            [
                "eval",
                "--config", str(config_path),
                "--max-chosen", "2",
                "--pool", eval_environment["pool"],
                "--dataset", eval_environment["dataset"],
                "--fixtures", eval_environment["fixtures"],
                "--out", str(out),
            ]
        )
        assert code == 0
        meta = json.loads(out.read_text().splitlines()[0])["meta"]
        assert meta["config"]["max_chosen"] == 2  # flag wins
        assert meta["config"]["epsilon"] == 0.0  # config file wins over default

    def test_unknown_config_keys_are_usage_errors(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"no_such_key": 1}))
        assert main(["cache-stats", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize("text", ["5", "[]"])
    def test_non_object_config_is_usage_error(self, tmp_path, capsys, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        assert main(["cache-stats", "--config", str(config_path)]) == 1
        assert "must hold one JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"budget": "5"}, "budget"),
            ({"max_chosen": "5"}, "max_chosen"),
            ({"max_chosen": 2.0}, "max_chosen"),
            ({"epsilon": "0.1"}, "epsilon"),
            ({"seed": True}, "seed"),
            ({"seed": None}, "seed"),
            ({"tau": False}, "tau"),
            ({"provider": "remtoe"}, "provider"),
            ({"dataset_kind": "svmap"}, "dataset_kind"),
            ({"pool": 5}, "pool"),
            ({"synthetic_objective": 1}, "synthetic_objective"),
        ],
    )
    def test_config_values_get_the_checks_flags_get(self, tmp_path, capsys, config, key):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["cache-stats", "--config", str(config_path), "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 1
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_well_typed_config_values_pass_as_given(self, tmp_path):
        config = {
            "epsilon": 0, "tau": 1, "weights": None, "synthetic_objective": True,
            "provider": "scripted", "dataset_kind": "svamp", "stages": "1,2",
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        args = build_parser().parse_args(["cache-stats", "--config", str(config_path)])
        effective = _effective_config(args)
        assert {key: effective[key] for key in config} == config
        assert type(effective["epsilon"]) is int and type(effective["tau"]) is int

    def test_effective_config_echoed_into_meta(self, eval_environment):
        out = eval_environment["tmp"] / "report.jsonl"
        main(
            [
                "eval",
                "--pool", eval_environment["pool"],
                "--dataset", eval_environment["dataset"],
                "--fixtures", eval_environment["fixtures"],
                "--seed", "42",
                "--out", str(out),
            ]
        )
        meta = json.loads(out.read_text().splitlines()[0])["meta"]
        assert meta["command"] == "eval"
        assert meta["config"]["seed"] == 42
        assert meta["config"]["provider"] == "scripted"


_COMMON_FLAGS = {
    "-h", "--help", "--config", "--provider", "--fixtures", "--cache-dir", "--seed", "--out"
}
_SELECT_FLAGS = {
    "--pool", "--dataset", "--dataset-kind", "--epsilon", "--delta", "--max-chosen"
}
_NO_FLAG_CONFIG = {
    "provider": "scripted",
    "fixtures": None,
    "cache_dir": None,
    "seed": 0,
    "weights": None,
    "epsilon": 1e-3,
    "delta": 0.1,
    "max_chosen": 5,
    "stages": "1,2,3",
    "iterations": 1,
    "max_retries": 3,
    "tau": 0.8,
    "dataset": None,
    "dataset_kind": "gsm8k",
    "pool": None,
    "out": None,
    "budget": 20,
    "synthetic_objective": False,
}


def test_every_command_keeps_its_flags_and_defaults():
    expected = {
        "augment": _COMMON_FLAGS
        | {"--pool", "--stages", "--iterations", "--max-retries", "--tau"},
        "select": _COMMON_FLAGS | _SELECT_FLAGS | {"--weights"},
        "eval": _COMMON_FLAGS | _SELECT_FLAGS | {"--weights"},
        "tune": _COMMON_FLAGS | _SELECT_FLAGS | {"--budget", "--synthetic-objective"},
        "cache-stats": _COMMON_FLAGS,
    }
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(expected)
    for command, flags in expected.items():
        actions = commands.choices[command]._actions
        assert {flag for action in actions for flag in action.option_strings} == flags
        effective = _effective_config(parser.parse_args([command]))
        assert list(effective.items()) == list(_NO_FLAG_CONFIG.items()), command


def test_importing_the_cli_loads_neither_scipy_nor_requests():
    """Commands that never fit a TPE density or post over HTTP skip those imports."""
    code = "import sys, potselect.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(potselect.__file__).parents[1]))
    modules = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    heavy = [m for m in modules if m.split(".")[0] in ("scipy", "requests", "urllib3")]
    assert heavy == []


def test_every_public_name_resolves():
    assert [name for name in potselect.__all__ if not hasattr(potselect, name)] == []
    assert len(set(potselect.__all__)) == len(potselect.__all__)


def _names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads, counting names in string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _names_read(ast.parse(part.value, mode="eval"))
    return names


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in sorted(Path(potselect.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        read = _names_read(tree)
        lines = source.splitlines()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{path.name}:{node.lineno}: {bound}")
    assert unused == []


# Generative inputs: whatever a config, weights, pool, dataset, fixture or cache
# file holds, ``cli.main`` ends with a documented exit code.  Each example runs
# in a fresh directory holding eval_environment's files, and path-valued keys
# name only entries of it.  Every JSON surface also gets JSON nested too deeply
# to decode, which is invalid JSON.
_BEYOND_FLOAT = st.sampled_from([10**400, -(10**400)])
_DEEP = ("[" * 100_000 + "]" * 100_000).encode()


def _json(integers):
    scalars = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=6)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=4,
    )


_ANY_JSON = _json(st.integers() | _BEYOND_FLOAT)
_SMALL_JSON = _json(st.integers(-2, 3))
_NON_STRING = _SMALL_JSON.filter(lambda value: not isinstance(value, str))
_FILES = ("pool.jsonl", "dataset.jsonl", "fixtures.json", "weights.json", "missing", ".")
_INLINE_WEIGHTS = st.lists(st.floats() | st.integers(-1, 2), max_size=5).map(
    lambda values: ",".join(map(str, values))
)
_VALID = {
    "provider": st.sampled_from(["scripted", "remote"]),
    "dataset_kind": st.sampled_from(["gsm8k", "svamp"]),
    "stages": st.sampled_from(["1", "1,2", "3", "0", ""]),
    "seed": st.integers() | _BEYOND_FLOAT,
    "weights": _INLINE_WEIGHTS,
    "synthetic_objective": st.booleans(),
    **dict.fromkeys(["budget", "iterations", "max_retries", "max_chosen"], st.integers(1, 3)),
    **dict.fromkeys(["epsilon", "delta", "tau"], st.floats() | st.integers() | _BEYOND_FLOAT),
}
_PATHS = ("fixtures", "cache_dir", "dataset", "pool", "out", "weights")
_COUNTS = ("budget", "iterations", "max_retries")  # a large count would run for ever


def _config_value(key: str):
    valid = _VALID.get(key, st.nothing())
    if key in _PATHS:
        return valid | st.sampled_from(_FILES) | _NON_STRING
    return valid | (_SMALL_JSON if key in _COUNTS else _ANY_JSON)


# a few drawn keys over a config that runs every command, so that most draws get
# past the config checks and into the command
_BASE_CONFIG = {
    "pool": "pool.jsonl", "dataset": "dataset.jsonl", "fixtures": "fixtures.json",
    "out": "out.jsonl", "cache_dir": "cache",
}
_CONFIGS = st.lists(
    st.sampled_from([*_NO_FLAG_CONFIG, "no_such_key"]), max_size=3, unique=True
).flatmap(
    lambda keys: st.fixed_dictionaries({key: _config_value(key) for key in keys}).map(
        lambda drawn: {**_BASE_CONFIG, **drawn}
    )
)
_CONFIG_FILES = (_CONFIGS | _ANY_JSON).map(json.dumps).map(str.encode) | st.binary(max_size=24)

_WEIGHT_NAMES = ("relevance", "concept", "complexity", "similarity")
_WEIGHT = st.floats(0, 2) | st.integers(0, 2) | st.floats(0)  # the last reaches 1e308 and inf
_WEIGHTS_FILES = (
    st.fixed_dictionaries({name: _WEIGHT for name in _WEIGHT_NAMES})
    | st.fixed_dictionaries({name: _WEIGHT | _ANY_JSON for name in _WEIGHT_NAMES})
    | st.dictionaries(st.sampled_from([*_WEIGHT_NAMES, "other"]), _ANY_JSON, max_size=5)
    | _ANY_JSON
).map(json.dumps).map(str.encode) | st.binary(max_size=24)


@contextlib.contextmanager
def _fresh_environment():
    """A new directory holding eval_environment's files, as the working directory."""
    with tempfile.TemporaryDirectory() as root, contextlib.chdir(root):
        yield write_eval_environment(Path(root))


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.sampled_from(["augment", "select", "tune", "eval", "cache-stats"]), _CONFIG_FILES)
@example("cache-stats", json.dumps({**_BASE_CONFIG, "epsilon": 10**400}).encode())
@example("cache-stats", _DEEP)
def test_any_config_file_ends_with_a_documented_exit_code(monkeypatch, command, content):
    monkeypatch.delenv("POTSELECT_ENDPOINT", raising=False)  # "remote" then has no endpoint
    with _fresh_environment():
        Path("config.json").write_bytes(content)
        assert main([command, "--config", "config.json"]) in (0, 1, 2, 3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["select", "eval"]), _WEIGHTS_FILES)
@example("select", json.dumps(dict.fromkeys(_WEIGHT_NAMES, 10**400)).encode())
@example("select", _DEEP)
def test_any_weights_file_ends_with_a_documented_exit_code(command, content):
    with _fresh_environment() as env:
        Path("weights.json").write_bytes(content)
        assert main(_argv(command, env, "--weights", "weights.json")) in (0, 1, 2, 3)


def _argv(command: str, env: dict, *extra: str) -> list[str]:
    """``command`` over eval_environment's files, writing ``out.jsonl``."""
    files = ["--pool", env["pool"], "--fixtures", env["fixtures"]]
    if command != "augment":
        files += ["--dataset", env["dataset"]]
    return [command, *files, "--out", "out.jsonl", *extra]


def _jsonl_files(records: list[dict]):
    """Lines that are each a valid record, one with fields replaced or dropped, or
    any JSON; or a few random bytes."""
    keys = sorted({key for record in records for key in record})
    edited = st.builds(
        lambda record, replaced, dropped: {
            k: v for k, v in {**record, **replaced}.items() if k not in dropped
        },
        st.sampled_from(records),
        st.dictionaries(st.sampled_from([*keys, "meta"]), _ANY_JSON, max_size=2),
        st.sets(st.sampled_from(keys), max_size=1),
    )
    lines = st.lists(st.sampled_from(records) | edited | _ANY_JSON, max_size=4)
    files = lines.map(lambda drawn: "".join(json.dumps(r) + "\n" for r in drawn).encode())
    return files | lines.map(json.dumps).map(str.encode) | st.binary(max_size=24)


_POOL_FILES = _jsonl_files([example.to_json() for example in eval_pool()])
_SVAMP_RECORDS = [
    {"ID": r["id"], "Body": "Some text.", "Question": r["question"], "Answer": 10 * i}
    for i, r in enumerate(eval_dataset_records(), start=1)
]
_DATASET_FILES = _jsonl_files(eval_dataset_records()) | _jsonl_files(_SVAMP_RECORDS)
_FIXTURE_RECORDS = [
    {"match": f.kind, "text": f.text, "response": f.response} for f in eval_fixtures()
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["augment", "select", "eval"]), _POOL_FILES)
@example("select", _DEEP)
def test_any_pool_file_ends_with_a_documented_exit_code(command, content):
    with _fresh_environment() as env:
        Path(env["pool"]).write_bytes(content)
        assert main(_argv(command, env)) in (0, 1, 2, 3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["select", "eval"]), st.sampled_from(["gsm8k", "svamp"]), _DATASET_FILES)
@example("eval", "gsm8k", _DEEP)
@example("eval", "svamp", _DEEP)
@example("select", "svamp", b'{"Body": ' + _DEEP + b"}")
def test_any_dataset_file_ends_with_a_documented_exit_code(command, kind, content):
    with _fresh_environment() as env:
        Path(env["dataset"]).write_bytes(content)
        assert main(_argv(command, env, "--dataset-kind", kind)) in (0, 1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["augment", "select", "eval"]), _jsonl_files(_FIXTURE_RECORDS))
@example("eval", _DEEP)
def test_any_fixture_file_ends_with_a_documented_exit_code(command, content):
    with _fresh_environment() as env:
        Path(env["fixtures"]).write_bytes(content)
        assert main(_argv(command, env)) in (0, 1, 2, 3)


# an entry's bytes: random, or a real entry's with a few bytes spliced in at some offset
_ENTRY_EDITS = st.binary(max_size=48) | st.tuples(
    st.integers(0, 10**4), st.integers(0, 8), st.binary(max_size=8)
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**4), _ENTRY_EDITS)
def test_any_cache_entry_is_quarantined_or_served(which, edit):
    with _fresh_environment() as env:
        argv = _argv("eval", env, "--cache-dir", "cache")
        assert main(argv) == 0
        entries = sorted(Path("cache").iterdir())
        path = entries[which % len(entries)]
        if isinstance(edit, bytes):
            content = edit
        else:
            blob, (start, length, spliced) = path.read_bytes(), edit
            start %= len(blob) + 1
            content = blob[:start] + spliced + blob[start + length :]
        path.write_bytes(content)
        assert main(argv) in (0, 1, 2, 3)
        quarantined = path.with_name(path.name + ".corrupt")
        if quarantined.exists():
            assert quarantined.read_bytes() == content
        else:
            assert path.read_bytes() == content


@pytest.mark.parametrize("surface", ["pool", "dataset", "svamp", "fixtures", "weights", "config"])
def test_json_nested_too_deeply_is_a_data_error(surface, capsys):
    with _fresh_environment() as env:
        if surface in ("weights", "config"):
            Path("file.json").write_bytes(_DEEP)
            extra = (f"--{surface}", "file.json")
        else:
            Path(env["dataset" if surface == "svamp" else surface]).write_bytes(_DEEP)
            extra = ("--dataset-kind", "svamp") if surface == "svamp" else ()
        assert main(_argv("select", env, *extra)) == 3
        assert "data error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "surface", ["pool", "gsm8k", "svamp-array", "svamp-jsonl", "fixtures", "weights", "config"]
)
def test_invalid_json_in_any_input_file_names_the_file_and_the_line(surface, capsys):
    with _fresh_environment() as env:
        if surface in ("weights", "config"):
            path, extra = "file.json", (f"--{surface}", "file.json")
        else:
            path = env[surface if surface in ("pool", "fixtures") else "dataset"]
            extra = ("--dataset-kind", "svamp") if surface.startswith("svamp") else ()
        # the second line breaks off; a JSON array starts on the first
        Path(path).write_text("[\n{\"a\": }\n]" if surface == "svamp-array" else '\n{"a": }\n')
        assert main(_argv("select", env, *extra)) == 3
        assert f"data error: record 2: invalid JSON in {path}: " in capsys.readouterr().err


# the files each command writes through ``records.write_jsonl``, in write order;
# tune's trial log is flushed trial by trial instead
_WRITTEN = {
    "augment": ("out", "out.attempts.jsonl"),
    "select": ("out", "out.trace.jsonl"),
    "eval": ("out",),
    "tune": ("out",),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_WRITTEN)), st.data())
def test_a_failed_write_leaves_the_earlier_output_file_whole(command, data):
    """A write that fails at any line of any output file exits 3 and leaves no
    temporary file: the files written before it are this run's, whole, and the
    failed file and those after it keep an earlier run's bytes."""
    written = _WRITTEN[command]
    with tempfile.TemporaryDirectory() as root, contextlib.chdir(root):
        argv = [*_command_argv(command, Path(root)), "--out", "out"]
        assert main(argv) == 0
        new = {name: Path(name).read_bytes() for name in written}
        for name in written:
            Path(name).write_bytes(b"an earlier run\n")
        names = sorted(os.listdir())
        file_no = data.draw(st.integers(0, len(written) - 1), label="file_no")
        line = data.draw(st.integers(1, new[written[file_no]].count(b"\n")), label="line")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(records, "open", failing_open(file_no, line), raising=False)
            assert main(argv) == 3
        assert sorted(os.listdir()) == names
        for i, name in enumerate(written):
            assert Path(name).read_bytes() == (new[name] if i < file_no else b"an earlier run\n")
