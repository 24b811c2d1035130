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
from .providers import Services, concept_extract, cosine


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
    except (KeyError, TypeError, ValueError) as exc:
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


def rough_answer(test_question: str, services: Services) -> str:
    """Zero-shot provisional answer for the test question (similarity metric only)."""
    return services.complete_text(
        prompts.zero_shot_prompt(test_question), stop_sequences=("Question:",)
    )


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
    relevance = cosine(services.embed(question), services.embed(test_question))
    concept = cosine(
        services.embed(concept_extract(question, services)),
        services.embed(concept_extract(test_question, services)),
    )
    raw = interpreter.complexity(answer_text)
    if pool_stats.max_complexity == pool_stats.min_complexity:
        normalized = 0.5
    else:
        normalized = (raw - pool_stats.min_complexity) / (
            pool_stats.max_complexity - pool_stats.min_complexity
        )
    similarity = cosine(
        services.embed(answer_text), services.embed(rough_answer(test_question, services))
    )
    return MetricVector(
        relevance=relevance, concept=concept, complexity=normalized, similarity=similarity
    )


def score(metrics: MetricVector, weights: Weights) -> float:
    return float(np.dot(metrics.as_array(), weights.as_array()))


def _redundancy(vectors: list[np.ndarray]) -> np.ndarray:
    """R_i = mean cosine similarity of answer i to every other chosen answer."""
    n = len(vectors)
    out = np.zeros(n)
    for i in range(n):
        out[i] = sum(cosine(vectors[i], vectors[j]) for j in range(n) if j != i) / (n - 1)
    return out


def _prune_index(vectors: list[np.ndarray], delta: float) -> tuple[int | None, np.ndarray | None]:
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
    vectors = [services.embed(e.answer_text) for e in chosen]
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


def candidate_metrics(pool: ExamplePool, test_question: str, services: Services) -> np.ndarray:
    """One read-only metric row per candidate, in pool order: the weight-independent half.

    Complexity normalization is over the whole pool.  None of the four
    metrics depends on the weights, so the rows are memoized in ``services``
    per pool and question: scoring a question again, under any weights,
    makes no provider call.  A computation that raises stores nothing.
    """
    if not pool:
        raise EmptyPool("candidate pool is empty")
    _, by_question = services._metrics_memo.setdefault(id(pool), (pool, {}))
    rows = by_question.get(test_question)
    if rows is None:
        stats = PoolStats.from_examples(pool)
        rows = np.array([
            calculate_metrics(e.question, e.answer_text, test_question, stats, services).as_array()
            for e in pool
        ])
        rows.flags.writeable = False
        by_question[test_question] = rows
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
    vectors = [services.embed(e.answer_text) for e in examples]

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
            index, redundancy = _prune_index([vectors[i] for i in chosen], config.delta)
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
