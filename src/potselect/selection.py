"""Weighted metric scoring and the greedy select-and-prune loop.

Each candidate example is scored once against the test question on four
metrics (relevance, concept overlap, normalized complexity, answer
similarity to a zero-shot rough answer).  The loop repeatedly moves the
best-scoring candidate into the chosen set, stops on a small consecutive
score gap or when the target size is reached, and after each pick prunes
the most redundant chosen answer when it stands out by more than ``delta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import interpreter, prompts
from .augmentation import Example, ExamplePool
from .providers import CompletionRequest, Embedded, Services, concept_request, embedded_cosine
from .providers import embedded_cosines, stacked
# unused here: kept only as benchmarks/spans.py trace points, until the benchmark-only change
from .providers import concept_extract, cosine  # noqa: F401
from .records import read_json, write_jsonl


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
    """Read a weights file: one JSON object of four numbers, which may span several
    lines.  Invalid JSON raises ``MalformedRecord``, any other shape ``ValueError``."""
    data = read_json(path)
    try:
        values = [data[f.name] for f in fields(Weights)]
        if not all(type(v) in (int, float) for v in values):  # bool is an int subclass
            raise TypeError(f"weights must be JSON numbers, got {values!r}")
        return Weights.from_array(values)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        message = f"weights file {path}: not one JSON object of weights: {exc!r}"
        raise ValueError(message) from None


def save_weights(weights: Weights, path: str | Path) -> None:
    write_jsonl(path, [weights])


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


def rough_answer(test_question: str, services: Services) -> str:
    """Zero-shot rough answer.  Selection sends ``_Probe.rough`` itself; this is kept
    only as a ``benchmarks/spans.py`` trace point, until the benchmark-only change."""
    return services.complete(_probe(test_question, services).rough)


def _normalized(raw: int, pool_stats: PoolStats) -> float:
    """Min-max normalized complexity; a degenerate pool pins it at 0.5."""
    low, high = pool_stats.min_complexity, pool_stats.max_complexity
    return 0.5 if high == low else (raw - low) / (high - low)


@dataclass
class _Candidates:
    """What scoring needs of a pool's examples whatever the test question, in pool order.

    Every array is read-only, since the metrics memo shares it.  Beside the
    concept-list requests it keeps the responses they last got and those
    responses' embeddings, stacked: ``concept_rows`` returns that matrix
    again while a question's responses equal them, and else embeds, stacks
    and keeps the new ones.
    """

    questions: Embedded  # the question embeddings, one matrix row each, and their norms
    answers: Embedded  # the answer embeddings, likewise
    concepts: list[CompletionRequest]  # each question's concept-list request
    complexity: np.ndarray  # each answer's complexity, normalized over the pool
    responses: list[str] = field(default_factory=list)  # the concept responses last seen
    response_rows: Embedded | None = None  # their embeddings, stacked

    def concept_rows(self, responses: list[str], services: Services) -> Embedded:
        """The stacked embeddings of ``responses``, the concept requests' responses."""
        if responses != self.responses:  # a list comparison: identity, then equality
            self.response_rows = stacked([services.embed_with_norm(r) for r in responses])
            self.responses = responses
        return self.response_rows


def _candidates(
    examples: list[tuple[str, str]], complexity: list[float], services: Services
) -> _Candidates:
    """The candidates of ``(question, answer_text)`` pairs with their normalized complexity."""
    embed = services.embed_with_norm
    complexity_column = np.array(complexity, dtype=np.float64)
    complexity_column.flags.writeable = False
    return _Candidates(
        stacked([embed(question) for question, _ in examples]),
        stacked([embed(answer_text) for _, answer_text in examples]),
        [concept_request(question, services) for question, _ in examples],
        complexity_column,
    )


@dataclass(frozen=True)
class _Probe:
    """What scoring needs of the test question, whatever the candidate."""

    question: Embedded
    concepts: CompletionRequest  # its concept-list request
    rough: CompletionRequest  # its zero-shot rough-answer request


def _probe(test_question: str, services: Services) -> _Probe:
    rough = services.request(prompts.zero_shot_prompt(test_question), stop_sequences=("Question:",))
    return _Probe(
        services.embed_with_norm(test_question), concept_request(test_question, services), rough
    )


def _metric_rows(candidates: _Candidates, probe: _Probe, services: Services) -> np.ndarray:
    """Each candidate's four metrics against one test question, one row each.

    Relevance comes first, so a test question embedded to another dimension
    raises ``DimensionMismatch`` before any request is sent.  Then, candidate
    by candidate, the loop only sends the pair's three metric requests in
    this order: the candidate's concepts, the test question's concepts, the
    rough answer; it keeps the candidates' concept responses.  A prompt has
    one response, so the test question's two responses are embedded once,
    after the loop; their requests are re-sent per candidate only because the
    benchmark pins eval's provider-call count (ROADMAP item 1).  The
    candidates' responses are embedded and stacked only when they differ
    from those the pool's last question got (``_Candidates.concept_rows``).
    A metric out of range raises ``MetricVector``'s ``ValueError`` for the
    first such row in pool order, after the question's every request was sent.
    """
    complete, embed = services.complete, services.embed_with_norm
    relevance = embedded_cosines(candidates.questions, probe.question)
    responses = []
    for request in candidates.concepts:
        responses.append(complete(request))
        ours_text = complete(probe.concepts)
        rough_text = complete(probe.rough)
    ours, rough = embed(ours_text), embed(rough_text)
    concept = embedded_cosines(candidates.concept_rows(responses, services), ours)
    similarity = embedded_cosines(candidates.answers, rough)
    # a new C-contiguous array, so np.vecdot scores each row with one ddot
    rows = np.column_stack((relevance, concept, candidates.complexity, similarity))
    # MetricVector's range check, by column; only a failing row builds one, to raise
    cosines, complexity = rows[:, [0, 1, 3]], rows[:, 2]
    in_range = (np.abs(cosines) <= 1.0).all(axis=1) & (0.0 <= complexity) & (complexity <= 1.0)
    if not in_range.all():
        MetricVector(*rows[np.argmin(in_range)].tolist())
    return rows


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
    complexity = _normalized(interpreter.complexity(answer_text), pool_stats)
    candidates = _candidates([(question, answer_text)], [complexity], services)
    rows = _metric_rows(candidates, _probe(test_question, services), services)
    return MetricVector(*rows[0].tolist())


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


def candidate_metrics(pool: ExamplePool, test_question: str, services: Services) -> np.ndarray:
    """One read-only metric row per candidate, in pool order: the weight-independent half.

    The work is split by what it depends on, and memoized in ``services``:
    - once per pool, the ``_Candidates``: the examples' question and answer
      embeddings, each stacked into one C-contiguous matrix beside its norm
      array, their concept-list requests, and their complexity column,
      min-max normalized over the whole pool;
    - once per question, a ``_Probe``: the test question's embedding and
      norm, and its concept-list and rough-answer requests;
    - once per question, ``_metric_rows``: a loop over the candidates that
      only sends each pair's three prebuilt metric requests (the candidate's
      concepts, the test question's concepts, the rough answer) and keeps the
      candidates' concept responses, then three ``np.vecdot`` cosine columns,
      each row bit-identical to ``embedded_cosine`` of its pair;
    - once per pool while its concept responses repeat, the stacked matrix
      of their embeddings, which the ``_Candidates`` keeps beside them.
    The test question's two responses are embedded once per question.  Their
    requests are re-sent for every candidate, so each pair makes the same
    provider calls as ``calculate_metrics``; that is only because the
    benchmark pins eval's call count (ROADMAP item 1).

    None of the four metrics depends on the weights, so the rows are kept
    per pool and question: scoring a question again, under any weights,
    makes no provider call.  A computation that raises stores no rows.
    """
    if not pool:
        raise EmptyPool("candidate pool is empty")
    entry = services._metrics_memo.get(id(pool))
    if entry is None:
        counts = [interpreter.complexity(e.answer_text) for e in pool]
        stats = PoolStats(min_complexity=min(counts), max_complexity=max(counts))
        complexity = [_normalized(count, stats) for count in counts]
        candidates = _candidates([(e.question, e.answer_text) for e in pool], complexity, services)
        entry = services._metrics_memo[id(pool)] = (pool, candidates, {})
    _, candidates, memo = entry
    rows = memo.get(test_question)
    if rows is None:
        rows = _metric_rows(candidates, _probe(test_question, services), services)
        rows.flags.writeable = False
        memo[test_question] = rows
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
    # np.vecdot takes each row's product as score()'s np.dot does; @ can differ in the last ulp
    scores = np.vecdot(metrics, config.weights.as_array()).tolist()
    embed = services.embed_with_norm

    remaining = list(range(len(examples)))
    unpicked = {example.id: value for example, value in zip(examples, scores)}
    chosen: list[int] = []
    previous = math.inf
    trace: list[IterationRecord] = []
    while remaining and len(chosen) < config.max_chosen:
        candidate_scores = dict(unpicked)  # each record keeps its own dict
        best = max(remaining, key=scores.__getitem__)  # the first of equal scores: lowest index
        remaining.remove(best)
        del unpicked[examples[best].id]
        chosen.append(best)

        stop = None
        pruned_id = None
        redundancy_by_id = None
        if abs(previous - scores[best]) < config.epsilon:
            stop = "epsilon"
        else:
            previous = scores[best]
            answers = [embed(examples[i].answer_text) for i in chosen]
            index, redundancy = _prune_index(answers, config.delta)
            if redundancy is not None:
                redundancy_by_id = {
                    examples[chosen[k]].id: float(redundancy[k]) for k in range(len(chosen))
                }
            if index is not None:
                pruned_id = examples[chosen[index]].id
                del chosen[index]
        trace.append(
            IterationRecord(
                iteration=len(trace) + 1,
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
