"""Tests of the benchmark itself: inputs, checks, span arithmetic and wrapper hygiene.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import generate
import reference
import run
import spans

sys.path.insert(0, str(run.SRC))

from potselect import providers  # noqa: E402

SMALL = {
    "augment": lambda seed: generate.augment_inputs(seed, n_seeds=48),
    "eval": lambda seed: generate.eval_inputs(seed, pool_size=30, n_questions=12),
    "tune": lambda seed: generate.tune_inputs(seed, budget=14),
}


@pytest.mark.parametrize("workload", list(generate.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    make = generate.WORKLOADS[workload]
    assert make(3) == make(3)
    assert make(3).pool != make(4).pool


@pytest.mark.parametrize("workload", list(generate.WORKLOADS))
def test_workload_completes_with_no_failed_unit(workload, tmp_path, monkeypatch):
    complete = providers.ScriptedProvider.complete
    matches = []

    def counting(self, request):
        matches.append(sum(bool(re.search(f.text, request.prompt)) for f in self.fixtures))
        return complete(self, request)

    monkeypatch.setattr(providers.ScriptedProvider, "complete", counting)
    bench = run.Bench(workload, SMALL[workload](5), tmp_path)
    bench.reps(0.0)
    bench.reps(0.0)
    assert bench.problems == []
    assert bench.attempted == 2 * bench.inputs.expect["units"] and bench.failed == 0
    assert matches and set(matches) == {1}, "every prompt must match exactly one fixture"


def test_missing_output_fails_every_unit(tmp_path):
    bench = run.Bench("eval", SMALL["eval"](2), tmp_path)
    bench.argv = ["cache-stats", "--cache-dir", str(tmp_path / "cache")]  # exits 0, writes no report
    bench.reps(0.0)
    assert bench.failed == bench.attempted == 12 and "missing or malformed" in bench.problems[0]


def test_augment_plans_every_stage_and_cause():
    expect = generate.augment_inputs(0).expect
    assert set(expect["rejects"]) == {
        f"stage{s}.{c}" for s in (1, 3) for c in generate.CAUSES
    }
    assert expect["units"] == generate.AUGMENT_SEEDS


def test_tune_topic_words_own_their_embedding_bucket():
    from potselect.providers import HashEmbedding

    def bucket(word: str) -> int:
        return int(np.argmax(HashEmbedding().embed(word)))

    topics = {t.lower() for t in generate.TUNE_TOPICS}
    words = {str(n) for n in range(41, 100)}  # the numbers of the training questions
    for seed in range(5):
        inputs = generate.tune_inputs(seed)
        for record in inputs.pool + inputs.dataset:
            words.update(re.findall(r"[a-z_]+", record["question"].lower()))
    topic_buckets = {bucket(t) for t in topics}
    assert len(topic_buckets) == len(topics)
    assert not topic_buckets & {bucket(w) for w in words - topics}


def test_self_time_subtracts_the_time_children_cover():
    toy = [
        (0, None, "root", 0.0, 10.0, 0),
        (1, 0, "child", 1.0, 4.0, 0),
        (2, 1, "grandchild", 2.0, 3.0, 0),
        (3, 0, "child", 5.0, 6.5, 0),
        (4, 0, "child", 6.0, 7.0, 0),  # overlaps its sibling; the union counts once
    ]
    own = spans.self_times(toy)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0})
    assert spans.per_name(toy)["child"] == (3, pytest.approx(4.5))


def _potselect_namespace() -> dict:
    import potselect

    found = {}
    for module_name, module in sorted(vars(potselect).items()):
        if inspect.ismodule(module) and module.__name__.startswith("potselect."):
            for attr, value in vars(module).items():
                found[(module_name, attr)] = value
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for cls_attr, cls_value in vars(value).items():
                        found[(module_name, attr, cls_attr)] = cls_value
    return found


def test_no_wrapper_remains_after_a_traced_run(tmp_path):
    before = _potselect_namespace()
    bench = run.Bench("tune", SMALL["tune"](1), tmp_path)
    _, metrics = bench.traced_reps(0.0, tmp_path / "spans.jsonl")
    after = _potselect_namespace()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []
    assert metrics["tuning.tpe_suggest.calls"] == 14 and metrics["cache.hits"] > 0
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER} - {"trace.overhead_ratio"}
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    assert run.main(["--workload", "eval", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_units_per_ref_pairs_each_repetition_with_the_reference_runs_around_it():
    # repetition 0 ran between references of 1 s and 1 s, repetition 1 between 1 s and 3 s
    assert reference.units_per_ref(10, [2.0, 4.0], [1.0, 1.0, 3.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        reference.units_per_ref(10, [2.0, 4.0], [1.0, 1.0])
