"""Weighted metric scoring and the greedy select-and-prune loop.

Each candidate example is scored once against the test question on four
metrics (relevance, concept overlap, normalized complexity, answer
similarity to a zero-shot rough answer).  The loop repeatedly moves the
best-scoring candidate into the chosen set, stops on a small consecutive
score gap or when the target size is reached, and after each pick prunes
the most redundant chosen answer when it stands out by more than ``delta``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import interpreter, prompts
from .augmentation import Example, ExamplePool, write_jsonl
from .providers import CompletionRequest, Embedded, Services, concept_request, embedded_cosine
from .providers import concept_extract, cosine  # noqa: F401  # traced here by benchmarks/spans.py


class EmptyPool(ValueError):
    pass


@dataclass(frozen=True)
class MetricVector:
    relevance: float
    concept: float
    complexity: float
    similarity: float

    def __post_init__(self) -> None:
        for name in ("relevance", "concept", "similarity"):
            value = getattr(self, name)
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {value}")
        if not 0.0 <= self.complexity <= 1.0:
            raise ValueError(f"complexity must lie in [0, 1], got {self.complexity}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=np.float64)


@dataclass(frozen=True)
class Weights:
    relevance: float = 0.25
    concept: float = 0.25
    complexity: float = 0.25
    similarity: float = 0.25

    def __post_init__(self) -> None:
        values = self.as_array()
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("weights must be finite and >= 0")
        if not np.any(values > 0):
            raise ValueError("at least one weight must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=np.float64)

    @classmethod
    def from_array(cls, values) -> "Weights":
        r, c, x, s = (float(v) for v in values)
        return cls(relevance=r, concept=c, complexity=x, similarity=s)


def load_weights(path: str | Path) -> Weights:
    """Read a weights file: one JSON object, which may span several lines."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return Weights(**{f.name: float(data[f.name]) for f in fields(Weights)})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        message = f"weights file {path}: not one JSON object of weights: {exc!r}"
        raise ValueError(message) from None


def save_weights(weights: Weights, path: str | Path) -> None:
    write_jsonl(path, [asdict(weights)])


@dataclass(frozen=True)
class SelectionConfig:
    weights: Weights = Weights()
    epsilon: float = 1e-3
    delta: float = 0.1
    max_chosen: int = 5

    def __post_init__(self) -> None:
        if self.epsilon < 0 or self.delta < 0:
            raise ValueError("epsilon and delta must be >= 0")
        if self.max_chosen < 1:
            raise ValueError("max_chosen must be >= 1")


@dataclass(frozen=True)
class PoolStats:
    min_complexity: int
    max_complexity: int

    @classmethod
    def from_examples(cls, examples) -> "PoolStats":
        counts = [interpreter.complexity(e.answer_text) for e in examples]
        return cls(min_complexity=min(counts), max_complexity=max(counts))


def _rough_request(test_question: str, services: Services) -> CompletionRequest:
    return services.request(prompts.zero_shot_prompt(test_question), stop_sequences=("Question:",))


def rough_answer(test_question: str, services: Services) -> str:
    """Zero-shot provisional answer for the test question (similarity metric only)."""
    return services.complete(_rough_request(test_question, services))


def _normalized(raw: int, pool_stats: PoolStats) -> float:
    """Min-max normalized complexity; a degenerate pool pins it at 0.5."""
    if pool_stats.max_complexity == pool_stats.min_complexity:
        return 0.5
    return (raw - pool_stats.min_complexity) / (
        pool_stats.max_complexity - pool_stats.min_complexity
    )


def _metric_row(
    concepts: CompletionRequest,
    question_vector: Embedded,
    test_concepts: CompletionRequest,
    test_vector: Embedded,
    rough: CompletionRequest,
    answer_vector: Embedded,
    complexity: float,
    services: Services,
) -> tuple[float, float, float, float]:
    """The per-pair half of one candidate's metrics, from its embedded parts
    and its three prebuilt metric requests.

    Sends the pair's three metric requests, in this order: the candidate's
    concepts, the test question's concepts, the rough answer.
    A metric out of range raises ``MetricVector``'s ``ValueError``.
    """
    complete, embed = services.complete, services.embed_with_norm
    relevance = embedded_cosine(question_vector, test_vector)
    concept = embedded_cosine(embed(complete(concepts)), embed(complete(test_concepts)))
    similarity = embedded_cosine(answer_vector, embed(complete(rough)))
    # MetricVector's range check, inline; only a failing row builds one, to raise
    if not (
        -1.0 <= relevance <= 1.0
        and -1.0 <= concept <= 1.0
        and -1.0 <= similarity <= 1.0
        and 0.0 <= complexity <= 1.0
    ):
        MetricVector(relevance, concept, complexity, similarity)
    return relevance, concept, complexity, similarity


def calculate_metrics(
    question: str,
    answer_text: str,
    test_question: str,
    pool_stats: PoolStats,
    services: Services,
) -> MetricVector:
    """Score one candidate pair against the test question.

    Complexity is min-max normalized over the pool; a degenerate pool (all
    complexities equal) pins it at 0.5.  Concept/rough-answer completions
    dedupe through the response cache when one is configured.
    """
    row = _metric_row(
        concept_request(question, services),
        services.embed_with_norm(question),
        concept_request(test_question, services),
        services.embed_with_norm(test_question),
        _rough_request(test_question, services),
        services.embed_with_norm(answer_text),
        _normalized(interpreter.complexity(answer_text), pool_stats),
        services,
    )
    return MetricVector(*row)


def score(metrics: MetricVector, weights: Weights) -> float:
    return float(np.dot(metrics.as_array(), weights.as_array()))


def _redundancy(vectors: list[Embedded]) -> np.ndarray:
    """R_i = mean cosine similarity of answer i to every other chosen answer."""
    n = len(vectors)
    out = np.zeros(n)
    for i in range(n):
        out[i] = sum(embedded_cosine(vectors[i], vectors[j]) for j in range(n) if j != i) / (n - 1)
    return out


def _prune_index(vectors: list[Embedded], delta: float) -> tuple[int | None, np.ndarray | None]:
    if len(vectors) < 3:
        return None, None
    redundancy = _redundancy(vectors)
    order = np.argsort(-redundancy, kind="stable")
    if redundancy[order[0]] - redundancy[order[1]] > delta:
        return int(order[0]), redundancy
    return None, redundancy


def prune(chosen: list[Example], delta: float, services: Services) -> list[Example]:
    """Drop the stand-out most-redundant example, at most one per call.

    Fewer than three members come back unchanged: with two, the pair is
    symmetric and the rule can never fire.
    """
    vectors = [services.embed_with_norm(e.answer_text) for e in chosen]
    index, _ = _prune_index(vectors, delta)
    if index is None:
        return list(chosen)
    return [e for i, e in enumerate(chosen) if i != index]


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    candidate_scores: dict[str, float]
    picked_id: str
    picked_score: float
    redundancy: dict[str, float] | None = None
    pruned_id: str | None = None
    stop: str | None = None


@dataclass
class SelectionResult:
    chosen: list[tuple[Example, float]]
    trace: list[IterationRecord] = field(default_factory=list)

    @property
    def chosen_ids(self) -> list[str]:
        return [example.id for example, _ in self.chosen]


@dataclass(frozen=True)
class _PoolEntry:
    """What scoring needs of a pool that no test question changes."""

    questions: list[Embedded]  # each candidate's question, embedded
    answers: list[Embedded]  # each candidate's answer, embedded
    concepts: list[CompletionRequest]  # each candidate's concept-list request
    complexity: list[float]  # each candidate's, normalized over the pool
    rows: dict[str, np.ndarray] = field(default_factory=dict)  # question -> metric rows


def _pool_entry(pool: ExamplePool, services: Services) -> _PoolEntry:
    """The pool's memoized entry in ``services``, built on first use."""
    memo = services._metrics_memo.get(id(pool))
    if memo is not None:
        return memo[1]
    counts = [interpreter.complexity(e.answer_text) for e in pool]
    stats = PoolStats(min_complexity=min(counts), max_complexity=max(counts))
    entry = _PoolEntry(
        questions=[services.embed_with_norm(e.question) for e in pool],
        answers=[services.embed_with_norm(e.answer_text) for e in pool],
        concepts=[concept_request(e.question, services) for e in pool],
        complexity=[_normalized(count, stats) for count in counts],
    )
    services._metrics_memo[id(pool)] = (pool, entry)
    return entry


def candidate_metrics(pool: ExamplePool, test_question: str, services: Services) -> np.ndarray:
    """One read-only metric row per candidate, in pool order: the weight-independent half.

    The work is split by what it depends on, and memoized in ``services``:
    - once per pool: each candidate's question and answer embedding, with
      its norm, its concept-list request, and its complexity, min-max
      normalized over the whole pool;
    - once per question: the test question's embedding and norm, and its
      concept-list and rough-answer requests;
    - once per pair: the three metric completions, each sending one of the
      prebuilt requests as is (the candidate's concepts, the test question's
      concepts, the rough answer), their embed-memo lookups and three dot
      products.
    The test question's two requests are sent again for every candidate, so
    each pair makes the same provider calls as ``calculate_metrics``; they
    move to once per question only when the benchmark no longer pins eval's
    call count (ROADMAP item 1a).

    None of the four metrics depends on the weights, so the rows are kept
    per pool and question: scoring a question again, under any weights,
    makes no provider call.  A computation that raises stores no rows.
    """
    if not pool:
        raise EmptyPool("candidate pool is empty")
    entry = _pool_entry(pool, services)
    rows = entry.rows.get(test_question)
    if rows is None:
        test_vector = services.embed_with_norm(test_question)
        test_concepts = concept_request(test_question, services)
        rough = _rough_request(test_question, services)
        rows = np.empty((len(entry.complexity), 4))
        for i in range(len(rows)):
            rows[i] = _metric_row(
                entry.concepts[i],
                entry.questions[i],
                test_concepts,
                test_vector,
                rough,
                entry.answers[i],
                entry.complexity[i],
                services,
            )
        rows.flags.writeable = False
        entry.rows[test_question] = rows
    return rows


def select_examples(
    pool: ExamplePool,
    test_question: str,
    config: SelectionConfig,
    services: Services,
) -> SelectionResult:
    """Greedy argmax selection with redundancy pruning over a candidate pool.

    Scores come from ``candidate_metrics`` and are fixed before the loop
    starts, so the trace replays exactly.  Ties pick the lowest pool
    index; pruned examples are removed permanently.  The gap test compares
    consecutive picked scores and cannot fire on the first pick.
    """
    metrics = candidate_metrics(pool, test_question, services)
    examples = list(pool)
    weights = config.weights.as_array()
    # per-row np.dot, as in score(): a matrix product can differ in the last ulp
    scores = [float(np.dot(row, weights)) for row in metrics]
    answers = _pool_entry(pool, services).answers

    remaining = list(range(len(examples)))
    chosen: list[int] = []
    previous = math.inf
    trace: list[IterationRecord] = []
    iteration = 0
    while remaining and len(chosen) < config.max_chosen:
        iteration += 1
        candidate_scores = {examples[i].id: scores[i] for i in remaining}
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        remaining.remove(best)
        chosen.append(best)

        stop = None
        pruned_id = None
        redundancy_by_id = None
        if abs(previous - scores[best]) < config.epsilon:
            stop = "epsilon"
        else:
            previous = scores[best]
            index, redundancy = _prune_index([answers[i] for i in chosen], config.delta)
            if redundancy is not None:
                redundancy_by_id = {
                    examples[chosen[k]].id: float(redundancy[k]) for k in range(len(chosen))
                }
            if index is not None:
                pruned_id = examples[chosen[index]].id
                del chosen[index]
        trace.append(
            IterationRecord(
                iteration=iteration,
                candidate_scores=candidate_scores,
                picked_id=examples[best].id,
                picked_score=scores[best],
                redundancy=redundancy_by_id,
                pruned_id=pruned_id,
                stop=stop,
            )
        )
        if stop is not None:
            break
    return SelectionResult(
        chosen=[(examples[i], scores[i]) for i in chosen],
        trace=trace,
    )
