"""Shared corpus texts, scripted-fixture builders and provider doubles.

``metric_requests`` states which requests selection sends, the
``request_ledger`` fixture records those that scripted providers receive,
``oracle_metric_rows`` recomputes the four metrics scalar by scalar, and
``oracle_select_examples`` replays the selection loop over them.
"""

from __future__ import annotations

import errno
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import requests

from potselect.augmentation import Example, ExamplePool
from potselect.prompts import concept_prompt, zero_shot_prompt
from potselect.providers import CompletionRequest, Fixture, HashEmbedding, ScriptedProvider, Services
from potselect.selection import IterationRecord, SelectionResult

BOLTS_Q = (
    "A robe takes 2 bolts of blue fiber and half that much white fiber. "
    "How many bolts in total does it take?"
)
BOLTS_A = (
    "bolts_of_blue_fiber = 2\n"
    "bolts_of_white_fiber = bolts_of_blue_fiber / 2\n"
    "ans = bolts_of_blue_fiber + bolts_of_white_fiber"
)
BOLTS_REPHRASED_Q = (
    "A robe needs 2 bolts of blue fiber and half that amount of white fiber. "
    "How many bolts of fiber are needed in total?"
)
BOLTS_VARIANT_A = (
    "bolts_of_blue_fiber = 2\n"
    "bolts_of_white_fiber = bolts_of_blue_fiber / 2\n"
    "temp0 = bolts_of_blue_fiber + bolts_of_white_fiber\n"
    "ans = temp0 * 2"
)

HOUSE_Q = (
    "Josh decides to try flipping a house. He buys a house for $80,000 and then "
    "puts in $50,000 in repairs. This increased the value of the house by 150%. "
    "How much profit did he make?"
)
HOUSE_A = (
    "cost_of_original_house = 80000\n"
    "increase_rate = 150 / 100\n"
    "value_of_house = (1 + increase_rate) * cost_of_original_house\n"
    "cost_of_repair = 50000\n"
    "ans = value_of_house - cost_of_repair - cost_of_original_house"
)

DUCK_Q = (
    "Janet's ducks lay 16 eggs per day. She eats three for breakfast every "
    "morning and bakes muffins for her friends every day with four. She sells "
    "the remainder at the farmers' market daily for $2 per fresh duck egg. "
    "How much in dollars does she make every day at the farmers' market?"
)
DUCK_A = (
    "total_eggs = 16\n"
    "eaten_eggs = 3\n"
    "baked_eggs = 4\n"
    "sold_eggs = total_eggs - eaten_eggs - baked_eggs\n"
    "dollars_per_egg = 2\n"
    "ans = sold_eggs * dollars_per_egg"
)
DUCK_MODIFIED_A = (
    DUCK_A.rsplit("\n", 1)[0]
    + "\ntemp0 = sold_eggs * dollars_per_egg\n"
    "temp1 = temp0 * 3\n"
    "temp2 = temp1 + 8\n"
    "temp3 = temp2 + 5\n"
    "temp4 = temp3 + 9\n"
    "temp5 = temp4 - 1\n"
    "ans = temp5"
)
DEEP_LINE = "ans = " + "+".join(["1"] * 1200)  # nested deeper than the interpreter parses


class StubEmbedding:
    """Maps exact texts to fixed vectors; unseen texts get the zero vector."""

    def __init__(self, table: dict[str, list[float]], dimension: int = 2):
        self.table = table
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        return np.asarray(self.table.get(text, [0.0] * self.dimension), dtype=np.float64)


class FailingEmbedding:
    """An embedder, such as a remote one, whose every call raises ``error``."""

    def __init__(self, error: Exception):
        self.error = error

    def embed(self, text: str) -> np.ndarray:
        raise self.error


class _FailingFile:
    """A binary file whose ``write_no``-th write raises ``OSError``, as a full disk
    or a file-size limit would.  ``write_jsonl`` writes one line a write, and a
    cache entry is three writes: header, request, response."""

    def __init__(self, fh, write_no: int):
        self.fh, self.write_no, self.written = fh, write_no, 0

    def write(self, data: bytes) -> int:
        self.written += 1
        if self.written == self.write_no:
            raise OSError(errno.EFBIG, "File too large")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def failing_open(file_no: int, write_no: int):
    """An ``open`` for ``records`` under which the ``file_no``-th file (from 0)
    opened for writing fails at its ``write_no``-th write."""
    opened = []

    def fake_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if "r" in mode:
            return fh
        opened.append(file)
        return _FailingFile(fh, write_no) if len(opened) - 1 == file_no else fh

    return fake_open


def save_fixtures(fixtures: list[Fixture], path: str | Path) -> None:
    """Write ``fixtures`` as the fixture file that ``load_fixtures`` reads."""
    records = [{"match": f.kind, "text": f.text, "response": f.response} for f in fixtures]
    Path(path).write_text(json.dumps(records, indent=2, ensure_ascii=False), encoding="utf-8")


def make_services(fixtures=None, cache=None, embedding=None) -> Services:
    return Services(
        completion=ScriptedProvider(list(fixtures or [])),
        embedding=embedding or HashEmbedding(),
        cache=cache,
    )


# Pattern fixtures that answer any question deterministically from its text.
CONCEPT_FIXTURE = Fixture(
    "pattern",
    r"(?s)\A# Instruction: List the underlying concepts.*\nQuestion: ([^\n]*)\nConcepts:\Z",
    r"concepts of \1",
)
ROUGH_FIXTURE = Fixture(
    "pattern",
    r"\AQuestion: ([^\n]*)\n# Python code, return ans\n\Z",
    r"rough answer about \1",
)


class RequestLedger:
    """Every request a ``ScriptedProvider`` receives while the ledger is installed,
    in the order sent, including those that raise ``NoFixture``."""

    def __init__(self, monkeypatch):
        self.sent: list[CompletionRequest] = []
        complete = ScriptedProvider.complete

        def recording(provider, request):
            self.sent.append(request)
            return complete(provider, request)

        monkeypatch.setattr(ScriptedProvider, "complete", recording)

    @property
    def pairs(self) -> list[tuple[str, tuple[str, ...]]]:
        """The ``(prompt, stop_sequences)`` of each request sent."""
        return [(request.prompt, request.stop_sequences) for request in self.sent]

    @property
    def distinct(self) -> list[CompletionRequest]:
        """The requests sent, each once, in first-seen order."""
        return list(dict.fromkeys(self.sent))


@pytest.fixture
def request_ledger(monkeypatch) -> RequestLedger:
    """A ``RequestLedger`` for the test; ``monkeypatch`` removes it afterwards."""
    return RequestLedger(monkeypatch)


def metric_requests(pool, test_questions) -> list[tuple[str, tuple[str, ...]]]:
    """The ``(prompt, stop_sequences)`` pairs, in send order, that selection sends
    to score ``pool`` against each of ``test_questions`` once.

    Pair by pair: for each question and each candidate, the candidate's
    concept list, the question's concept list, then its rough answer.
    """
    return [
        pair
        for question in test_questions
        for example in pool
        for pair in (
            (concept_prompt(example.question), ()),
            (concept_prompt(question), ()),
            (zero_shot_prompt(question), ("Question:",)),
        )
    ]


def few_shot_requests(sent, pool, test_questions) -> list[CompletionRequest]:
    """The requests in ``sent`` besides selection's metric requests for scoring
    ``pool`` against ``test_questions``: the few-shot prompts, in send order."""
    metric = set(metric_requests(pool, test_questions))
    return [r for r in sent if (r.prompt, r.stop_sequences) not in metric]


def oracle_cosine(a: str, b: str, embed) -> float:
    """The cosine of the ``embed`` vectors of two texts, clamped to [-1, 1]; 0 when
    either vector is zero."""
    u = np.asarray(embed(a), dtype=np.float64)
    v = np.asarray(embed(b), dtype=np.float64)
    nu, nv = math.sqrt(u.dot(u)), math.sqrt(v.dot(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    value = float(u.dot(v) / (nu * nv))
    return -1.0 if value < -1.0 else 1.0 if value > 1.0 else value


def oracle_metric_rows(pool, test_question: str, fixtures, embed) -> list[list[float]]:
    """The four metrics of each candidate in ``pool`` against ``test_question``,
    one scalar at a time: the metric prompts go to a fresh ``ScriptedProvider``
    over ``fixtures``, and ``embed`` maps a text to its vector."""
    provider = ScriptedProvider(list(fixtures))

    def response(prompt, stop_sequences=()):
        return provider.complete(CompletionRequest(prompt, stop_sequences=stop_sequences))

    def cos(a: str, b: str) -> float:
        return oracle_cosine(a, b, embed)

    counts = [example.answer_text.count("\n") for example in pool]
    low, high = min(counts), max(counts)
    ours = response(concept_prompt(test_question))
    rough = response(zero_shot_prompt(test_question), ("Question:",))
    return [
        [
            cos(example.question, test_question),
            cos(response(concept_prompt(example.question)), ours),
            0.5 if high == low else (count - low) / (high - low),
            cos(example.answer_text, rough),
        ]
        for example, count in zip(pool, counts)
    ]


def oracle_select_examples(pool, test_question: str, config, fixtures, embed):
    """``select_examples`` as the paper's loop, in plain loops over
    ``oracle_metric_rows``.

    Each candidate's score is ``np.dot`` of its row and the weights.  Each
    round picks the highest score left, the lowest pool index of equal ones,
    and stops when the pick's score is closer than epsilon to the previous
    pick's.  Otherwise, once three or more are chosen, each chosen answer's
    redundancy is its mean cosine to the other chosen answers, and the most
    redundant (the earliest chosen of equal ones) is dropped when it beats
    the second by more than delta.
    """
    examples = list(pool)
    weights = config.weights.as_array()
    rows = oracle_metric_rows(pool, test_question, fixtures, embed)
    scores = [float(np.dot(row, weights)) for row in rows]
    remaining = list(range(len(examples)))
    chosen: list[int] = []
    picked: list[float] = []
    trace: list[IterationRecord] = []
    while remaining and len(chosen) < config.max_chosen:
        candidate_scores = {examples[i].id: scores[i] for i in remaining}
        best = remaining[0]
        for i in remaining:
            if scores[i] > scores[best]:
                best = i
        remaining.remove(best)
        chosen.append(best)
        record = dict(
            iteration=len(trace) + 1,
            candidate_scores=candidate_scores,
            picked_id=examples[best].id,
            picked_score=scores[best],
        )
        if picked and abs(picked[-1] - scores[best]) < config.epsilon:
            trace.append(IterationRecord(**record, stop="epsilon"))
            break
        picked.append(scores[best])
        if len(chosen) >= 3:
            redundancy = []
            for i in chosen:
                others = [oracle_cosine(examples[i].answer_text, examples[j].answer_text, embed)
                          for j in chosen if j != i]
                redundancy.append(sum(others) / len(others))
            top = redundancy.index(max(redundancy))
            second = max(r for k, r in enumerate(redundancy) if k != top)
            record["redundancy"] = {examples[i].id: r for i, r in zip(chosen, redundancy)}
            if redundancy[top] - second > config.delta:
                record["pruned_id"] = examples[chosen.pop(top)].id
        trace.append(IterationRecord(**record))
    return SelectionResult(chosen=[(examples[i], scores[i]) for i in chosen], trace=trace)


def fake_post(
    monkeypatch,
    status: int = 200,
    body: bytes = b"",
    raises: Exception | None = None,
    respond=None,
) -> list[dict]:
    """Make every ``requests.post`` answer with one canned response, or raise ``raises``;
    ``respond(payload)``, when given, returns each post's ``(status, body)`` or raises.

    Returns the list that collects each posted payload.
    """
    posts = []

    def post(endpoint, json, headers, timeout):
        posts.append(json)
        if raises is not None:
            raise raises
        resp = requests.Response()
        resp.status_code, resp._content = respond(json) if respond else (status, body)
        return resp

    monkeypatch.setattr("requests.post", post)
    return posts


def concept_text(question: str) -> str:
    """What CONCEPT_FIXTURE answers for a question (for independent oracles)."""
    return f"concepts of {question}"


def rough_text(question: str) -> str:
    """What ROUGH_FIXTURE answers for a question (for independent oracles)."""
    return f"rough answer about {question}"


def completion_fixture(test_question: str, response: str) -> Fixture:
    """Respond to the few-shot prompt whose final block asks ``test_question``."""
    pattern = (
        r"(?s)\A.*\n\nQuestion: "
        + re.escape(test_question)
        + r"\n# Python code, return ans\n\Z"
    )
    return Fixture("pattern", pattern, response)


def thirteen_seeds() -> ExamplePool:
    return ExamplePool(
        tuple(
            Example(id=f"S{i:02d}", question=f"Problem number {i}.", answer_text=f"ans = {i}")
            for i in range(1, 14)
        )
    )


def augmentation_fixtures() -> list[Fixture]:
    """Happy-path fixtures for stages 1-2 of the numbered-problem seeds."""
    return [
        Fixture(
            "pattern",
            r"(?s)\AQuestion: Problem number (\d+)\..*# Instruction: Rephrase the question\Z",
            r"Problem number \1, rephrased.",
        ),
        Fixture(
            "pattern",
            r"(?s)Question: Problem number (\d+), rephrased\.\n# Python code, return ans\n\Z",
            r"ans = \1",
        ),
    ]


def eval_dataset_records(n: int = 5) -> list[dict]:
    return [
        {
            "id": f"E{i}",
            "question": f"Evaluation question number {i}?",
            "answer": f"Reasoning text.\n#### {10 * i}",
        }
        for i in range(1, n + 1)
    ]


def eval_fixtures() -> list[Fixture]:
    """Scripted completions for the 5-item eval fixture: 3 correct, 1 wrong, 1 unparseable."""
    fixtures = [CONCEPT_FIXTURE, ROUGH_FIXTURE]
    responses = {
        1: "ans = 10",
        2: "ans = 20",
        3: "ans = 30",
        4: "ans = 0",
        5: "there is no way to compute this",
    }
    for i, response in responses.items():
        fixtures.append(completion_fixture(f"Evaluation question number {i}?", response))
    return fixtures


def eval_pool() -> ExamplePool:
    return ExamplePool(
        (
            Example(id="bolts", question=BOLTS_Q, answer_text=BOLTS_A),
            Example(id="house", question=HOUSE_Q, answer_text=HOUSE_A),
        )
    )


POOL_WORDS = [
    "eggs", "bolts", "apples", "train", "speed", "price", "total",
    "garden", "miles", "cost", "days", "boxes", "robe", "fiber",
]


def small_example(i: int, question: str, extra_lines: int = 0) -> Example:
    lines = [f"v{j} = {j + 1}" for j in range(extra_lines)]
    lines.append("ans = " + (" + ".join(f"v{j}" for j in range(extra_lines)) or "1"))
    return Example(id=f"ex{i}", question=question, answer_text="\n".join(lines))


def random_pool(rng: np.random.Generator, n_max: int = 6) -> tuple[ExamplePool, str]:
    n = int(rng.integers(1, n_max + 1))
    examples = []
    for i in range(n):
        k = int(rng.integers(3, 9))
        question = " ".join(rng.choice(POOL_WORDS, size=k))
        examples.append(small_example(i, question, extra_lines=int(rng.integers(0, 5))))
    q_t = " ".join(rng.choice(POOL_WORDS, size=int(rng.integers(3, 9))))
    return ExamplePool(tuple(examples)), q_t


def random_weights(rng: np.random.Generator):
    from potselect.selection import Weights

    values = rng.uniform(0.0, 1.0, size=4)
    values[int(rng.integers(0, 4))] += 0.5  # guarantee one strictly positive
    return Weights.from_array(values)


@pytest.fixture
def eval_environment(tmp_path):
    """On-disk pool/dataset/fixture files for CLI-level eval runs."""
    return write_eval_environment(tmp_path)


def write_eval_environment(tmp_path: Path) -> dict:
    """Write ``eval_environment``'s files into ``tmp_path``; return their paths."""
    pool_path = tmp_path / "pool.jsonl"
    with open(pool_path, "w", encoding="utf-8") as fh:
        for example in eval_pool():
            fh.write(json.dumps(example.to_json()) + "\n")
    dataset_path = tmp_path / "dataset.jsonl"
    with open(dataset_path, "w", encoding="utf-8") as fh:
        for record in eval_dataset_records():
            fh.write(json.dumps(record) + "\n")
    fixtures_path = tmp_path / "fixtures.json"
    save_fixtures(eval_fixtures(), fixtures_path)
    return {
        "pool": str(pool_path),
        "dataset": str(dataset_path),
        "fixtures": str(fixtures_path),
        "tmp": tmp_path,
    }
