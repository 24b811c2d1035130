"""Seeded offline inputs for the potselect benchmark workloads.

Each workload gets a pool file, a dataset file (eval and tune) and a fixture
file for the scripted provider, plus the outcome the program must produce on
them.  Inputs depend only on the seed.  Exactly one fixture matches each
prompt a workload sends, because ``ScriptedProvider`` answers a prompt with
several matches by consume-then-last-match order, which would make answers
depend on call order.

The fixtures rely on the prompt templates in ``potselect.prompts``: a
question line starts with ``Question: `` and a program follows the header
``# Python code, return ans``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

AUGMENT_SEEDS = 400
AUGMENT_FAIL_SHARE = 0.15  # share of seeds scripted to fail the gate, spread over (stage, cause)
ITERATIONS = 3  # stage-3 iteration count passed to ``augment``
MAX_RETRIES = 3  # the CLI default: four attempts per stage
FAIL_ITERATION = 2  # the stage-3 iteration at which stage-3 failures happen
CAUSES = ("output_mismatch", "no_block", "step_similarity")

EVAL_POOL = 390
EVAL_QUESTIONS = 60
EVAL_VERDICTS = {"correct": 36, "wrong_value": 15, "parse": 9}

# No two topic words share a bucket of potselect's hashed embedding, nor does a
# topic word and another word of the inputs or a number of a training question,
# so the topic word decides relevance.
TUNE_TOPICS = (
    "Library", "Factory", "School", "Clinic", "Castle", "Circus", "Gallery",
    "Hostel", "Island", "Lodge", "Office", "Studio", "Village",
)
TUNE_PER_TOPIC = 3  # 13 topics x 3 = the 39-example pool
TUNE_ITEMS = 5
TUNE_BUDGET = 60

NAMES = (
    "Ava", "Ben", "Cara", "Dev", "Eli", "Fay", "Gus", "Hana",
    "Ivan", "Jade", "Kai", "Lena", "Milo", "Nora", "Omar", "Pia",
)
THINGS = (
    "apples", "pencils", "marbles", "stickers", "cookies",
    "books", "shells", "cards", "beads", "stamps",
)

_TAIL = r"\n# Python code, return ans\n\Z"  # end of a prompt awaiting a program

# Few-shot prompts whose last question is "[Variant: ]*Restated: <seed question>"
# followed by the program it carries.  A seed question ends with its plan tag.
_CARRIED = r"\nProgram:\n(.*)" + _TAIL


def _failing(tag: str) -> str:
    """Last-question heads on which a plan starting with ``tag`` fails."""
    return (
        r"Restated: [^\n]*\[s1-" + tag
        + "|" + "Variant: " * FAIL_ITERATION + r"Restated: [^\n]*\[s3-" + tag
    )


_PADDING = "filler = 0\n" + "filler = filler + filler\n" * 12


@dataclass
class Inputs:
    """Files a workload hands to the program and the outcome it predicts."""

    pool: list[dict]
    fixtures: list[dict]
    dataset: list[dict] = field(default_factory=list)
    expect: dict = field(default_factory=dict)

    def write(self, directory: Path) -> dict[str, str]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {"pool": directory / "pool.jsonl", "fixtures": directory / "fixtures.json"}
        _write_jsonl(paths["pool"], self.pool)
        paths["fixtures"].write_text(json.dumps(self.fixtures, indent=1), encoding="utf-8")
        if self.dataset:
            paths["dataset"] = directory / "dataset.jsonl"
            _write_jsonl(paths["dataset"], self.dataset)
        return {name: str(path) for name, path in paths.items()}


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _fixture(pattern: str, response: str) -> dict:
    return {"match": "pattern", "text": pattern, "response": response}


def _example(example_id: str, question: str, lines: list[str]) -> dict:
    return {
        "id": example_id,
        "question": question,
        "answer_text": "\n".join(lines),
        "provenance": {"stage": "seed"},
        "parent_id": None,
    }


def _word_problem(rng: np.random.Generator) -> tuple[str, list[str]]:
    """One single-line word problem and a multi-line answer program for it."""
    name = NAMES[int(rng.integers(len(NAMES)))]
    thing = THINGS[int(rng.integers(len(THINGS)))]
    a, b, c, d = (int(v) for v in rng.integers(2, 40, size=4))
    kind = int(rng.integers(5))
    if kind == 0:
        question = (
            f"{name} has {a} {thing} and buys {b} more packs of {c} {thing}. "
            f"How many {thing} does {name} have now?"
        )
        lines = [f"start = {a}", f"packs = {b}", f"per_pack = {c}",
                 "bought = packs * per_pack", "ans = start + bought"]
    elif kind == 1:
        question = (
            f"A train travels {a} miles per hour for {b} hours and then {c} more miles. "
            "How many miles does it travel?"
        )
        lines = [f"speed = {a}", f"hours = {b}", f"extra = {c}", "ans = speed * hours + extra"]
    elif kind == 2:
        question = (
            f"{name} earns {a} dollars an hour, works {b} hours a day for {c} days "
            f"and spends {d} dollars. How many dollars are left?"
        )
        lines = [f"rate = {a}", f"hours_per_day = {b}", f"days = {c}",
                 "earned = rate * hours_per_day * days", f"spent = {d}", "ans = earned - spent"]
    elif kind == 3:
        question = (
            f"A garden has {a} rows of {b} {thing} and {c} of them are given away. "
            f"How many {thing} remain?"
        )
        lines = [f"rows = {a}", f"per_row = {b}", "planted = rows * per_row",
                 f"given = {c}", "ans = planted - given"]
    else:
        question = (
            f"{name} shares {a * b} {thing} equally among {b} friends and then finds {c} more. "
            f"How many {thing} does {name} keep per friend?"
        )
        lines = [f"total = {a * b}", f"friends = {b}", "each = total / friends",
                 f"found = {c}", "ans = each + found / friends"]
    # unused notes vary the line count, and so the complexity metric
    sizes = rng.integers(1, 9, size=int(rng.integers(0, 4)))
    notes = [f"note_{j} = {int(v)}" for j, v in enumerate(sizes)]
    return question, notes + lines


# --- augment -----------------------------------------------------------------


def augment_inputs(seed: int, n_seeds: int = AUGMENT_SEEDS) -> Inputs:
    """Seed pool for ``augment --stages 1,2,3``, with a seeded set of seeds planned to fail.

    A seed's plan is ``ok`` or ``s<stage>-<cause>``: the gate rejects every
    attempt of stage 1, or of stage-3 iteration ``FAIL_ITERATION``, by that
    cause.  The plan is a tag at the end of the seed question, and each
    generated question carries its tag and its program, so the scripted
    answers can follow the plan and echo the program.
    """
    rng = np.random.default_rng([seed, 1])
    kinds = [f"s{stage}-{cause}" for stage in (1, 3) for cause in CAUSES]
    plans = ["ok"] * n_seeds
    n_failing = max(len(kinds), round(AUGMENT_FAIL_SHARE * n_seeds))
    for k, index in enumerate(rng.permutation(n_seeds)[:n_failing]):
        plans[int(index)] = kinds[k % len(kinds)]
    pool = []
    for i, plan in enumerate(plans):
        question, lines = _word_problem(rng)
        pool.append(_example(f"A{i:03d}", f"Case {i}: {question} [{_tag(plan)}]", lines))

    fixtures = [
        # stage 1 rephrase: the new question carries the seed's program
        _fixture(
            r"(?s)\AQuestion: ([^\n]*)\n# Python code, return ans\n(.*)\n\n"
            r"# Instruction: Rephrase the question\Z",
            "Restated: \\1\nProgram:\n\\2",
        ),
        # stage 3 question generation: carry the modified program instead
        _fixture(
            r"(?s)\A# Python code, return ans\n.*?\n\nQuestion: ([^\n]*)\n.*"
            r"\n\n# Python code, return ans\n(.*)\n\nQuestion:\Z",
            "Variant: \\1\nProgram:\n\\2",
        ),
        # stage 1 infer, stage 2 generate and stage 3 infer: echo the carried program
        _fixture(
            r"(?s)\n\nQuestion: (?!" + _failing("") + r")[^\n]*" + _CARRIED,
            "\\1",
        ),
    ]
    responses = {
        "output_mismatch": "\\1\nans = ans + 1",
        "no_block": "No program fits this question.",
        "step_similarity": "\\1\n" + _PADDING,
    }
    for cause, response in responses.items():
        pattern = r"(?s)\n\nQuestion: (?:" + _failing(_tag(cause) + r"\]") + ")" + _CARRIED
        fixtures.append(_fixture(pattern, response))

    return Inputs(pool=pool, fixtures=fixtures, expect=_augment_expectation(pool, plans))


def _tag(plan: str) -> str:
    return plan.replace("_", "-")


def _planned_attempts(plan: str) -> list[tuple]:
    """The attempt records, as (stage, iteration, attempt, accepted, cause), a plan yields."""
    retries = range(MAX_RETRIES + 1)
    if plan.startswith("s1-"):
        cause = plan[3:]
        return [(1, None, a, False, cause) for a in retries] + [
            (2, None, 0, False, "no stage-1 product"),
            (3, None, 0, False, "no stage-2 product"),
        ]
    records = [(1, None, 0, True, None), (2, None, 0, True, None)]
    for iteration in range(1, ITERATIONS + 1):
        if plan.startswith("s3-") and iteration == FAIL_ITERATION:
            return records + [(3, iteration, a, False, plan[3:]) for a in retries]
        records.append((3, iteration, 0, True, None))
    return records


def _augment_expectation(pool: list[dict], plans: list[str]) -> dict:
    per_seed = {}
    rejects: Counter = Counter()
    products = 0
    for example, plan in zip(pool, plans):
        attempts = _planned_attempts(plan)
        stages = sorted({s for s, _, _, ok, _ in attempts if ok and (s < 3 or plan == "ok")})
        per_seed[example["id"]] = {"attempts": attempts, "products": stages}
        products += len(stages)
        for stage, _, _, ok, cause in attempts:
            if not ok and cause in CAUSES:
                rejects[f"stage{stage}.{cause}"] += 1
    return {
        "units": len(pool),
        "pool_size": len(pool) + products,
        "rejects": dict(sorted(rejects.items())),
        "per_seed": per_seed,
    }


# --- eval --------------------------------------------------------------------

_CONCEPT = _fixture(
    r"\A# Instruction: List the underlying concepts[^\n]*\nQuestion: ([^\n]*)\nConcepts:\Z",
    "arithmetic, \\1",
)
_ROUGH = _fixture(r"\AQuestion: ([^\n]*)" + _TAIL, "# \\1\nans = 0")

_PACKS = (
    r"([A-Z][a-z]+) has (\d+) ([a-z]+) and buys (\d+) more packs of (\d+) [a-z]+\. "
    r"How many [a-z]+ does [A-Z][a-z]+ have "
)
_PACKS_PROGRAM = "start = \\2\npacks = \\4\nper_pack = \\5\nbought = packs * per_pack\n"
_EVAL_ENDINGS = {"correct": "now", "wrong_value": "altogether", "parse": "at the end"}


def eval_inputs(seed: int, pool_size: int = EVAL_POOL, n_questions: int = EVAL_QUESTIONS) -> Inputs:
    """A pool and GSM8K questions whose completions depend on the test question only.

    The question's last words fix its verdict: the scripted completion is
    the right program, a program with the wrong value, or no program.
    """
    rng = np.random.default_rng([seed, 2])
    pool = []
    for i in range(pool_size):
        question, lines = _word_problem(rng)
        pool.append(_example(f"P{i:03d}", question, lines))

    verdicts = [v for v, n in EVAL_VERDICTS.items() for _ in range(n)]
    verdicts = [verdicts[int(k)] for k in rng.permutation(len(verdicts))][:n_questions]
    dataset, items = [], {}
    for i, verdict in enumerate(verdicts):
        name = NAMES[int(rng.integers(len(NAMES)))]
        thing = THINGS[int(rng.integers(len(THINGS)))]
        a, b, c = int(rng.integers(2, 40)), int(rng.integers(2, 10)), int(rng.integers(3, 13))
        gold = a + b * c
        question = (
            f"{name} has {a} {thing} and buys {b} more packs of {c} {thing}. "
            f"How many {thing} does {name} have {_EVAL_ENDINGS[verdict]}?"
        )
        item_id = f"Q{i:02d}"
        answer = f"{a} + {b} * {c}\n#### {gold}"
        dataset.append({"id": item_id, "question": question, "answer": answer})
        value = {"correct": float(gold), "wrong_value": float(a + b + c), "parse": None}[verdict]
        items[item_id] = {"verdict": verdict, "value": value, "gold": float(gold)}

    responses = {
        "now": _PACKS_PROGRAM + "ans = start + bought",
        "altogether": _PACKS_PROGRAM + "ans = start + packs + per_pack",
        "at the end": "I am not sure how to write this one.",
    }
    fixtures = [_CONCEPT, _ROUGH] + [
        _fixture(r"\n\nQuestion: " + _PACKS + ending + r"\?" + _TAIL, response)
        for ending, response in responses.items()
    ]
    expect = {
        "units": len(dataset),
        "items": items,
        "provider_calls": len(dataset) * (3 * len(pool) + 1),
    }
    return Inputs(pool=pool, fixtures=fixtures, dataset=dataset, expect=expect)


# --- tune --------------------------------------------------------------------

_CRATES = (
    r"The [a-z]+ stores (\d+) crates with (\d+) ([a-z]+) each and (\d+) loose [a-z]+\. "
    r"How many [a-z]+ does the [a-z]+ store\?"
)
_CRATES_PROGRAM = "crates = \\2\nper_crate = \\3\nloose = \\5\nfull = crates * per_crate\n"


def tune_inputs(seed: int, n_items: int = TUNE_ITEMS, budget: int = TUNE_BUDGET) -> Inputs:
    """The 39-example topic pool and training items for ``tune``.

    The scripted completion is right only when the prompt's first example
    shares the test question's topic word, so accuracy depends on which
    example scores highest, and so on the weights.
    """
    rng = np.random.default_rng([seed, 3])
    pool = []
    for t, topic in enumerate(TUNE_TOPICS):
        for k in range(TUNE_PER_TOPIC):
            question, lines = _word_problem(rng)
            question = f"{topic}: At the {topic.lower()}, {question}"
            pool.append(_example(f"T{t:02d}{k}", question, lines))
    dataset = []
    for i, t in enumerate(rng.permutation(len(TUNE_TOPICS))[:n_items]):
        # "items" and numbers above 40 are in no pool question
        a, b, c = (int(v) for v in rng.integers(41, 100, size=3))
        topic = TUNE_TOPICS[int(t)]
        question = (
            f"{topic}: The {topic.lower()} stores {a} crates with {b} items each and {c} loose "
            f"items. How many items does the {topic.lower()} store?"
        )
        answer = f"{a} * {b} + {c}\n#### {a * b + c}"
        dataset.append({"id": f"R{i}", "question": question, "answer": answer})

    first = r"(?s)\AQuestion: ([A-Z][a-z]+): .*\n\nQuestion: "
    fixtures = [
        _CONCEPT,
        _ROUGH,
        _fixture(first + r"\1: " + _CRATES + _TAIL, _CRATES_PROGRAM + "ans = full + loose"),
        _fixture(first + r"(?!\1:)[A-Z][a-z]+: " + _CRATES + _TAIL, _CRATES_PROGRAM + "ans = full - loose"),
    ]
    expect = {"units": budget, "items": len(dataset)}
    return Inputs(pool=pool, fixtures=fixtures, dataset=dataset, expect=expect)


WORKLOADS = {"augment": augment_inputs, "eval": eval_inputs, "tune": tune_inputs}
