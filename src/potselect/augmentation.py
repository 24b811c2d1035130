"""Three-stage example augmentation with executable consistency checking.

Stage 1 rephrases a question and re-infers its answer; stage 2 regenerates
the answer from a different reference example; stage 3 repeatedly modifies
the answer with a random arithmetic chain and generates a matching question.
Every generated pair must pass the two-phase consistency gate (execute and
compare outputs, then embedding similarity of the answer steps) before it
joins the pool.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable

import numpy as np

from . import interpreter, prompts
from .interpreter import InterpreterError, ModificationChain, Program, extract_answer_block
from .providers import Services, embedded_cosine
# unused here: kept only as a benchmarks/spans.py trace point, until the benchmark-only change
from .providers import cosine  # noqa: F401
from .records import MalformedRecord, read_jsonl, write_jsonl


class EmptyGeneration(Exception):
    """The provider returned no usable text for a generation step."""


@dataclass(frozen=True)
class Provenance:
    stage: str  # "seed" | "stage1" | "stage2" | "stage3"
    iteration: int | None = None

    _STAGES = ("seed", "stage1", "stage2", "stage3")

    def __post_init__(self) -> None:
        if self.stage not in self._STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if (self.stage == "stage3") != (self.iteration is not None):
            raise ValueError("iteration is set exactly for stage3 provenance")
        if self.iteration is not None and (type(self.iteration) is not int or self.iteration < 1):
            raise ValueError(f"stage3 iteration must be an int >= 1, got {self.iteration!r}")

    def to_json(self) -> dict:
        out: dict = {"stage": self.stage}
        if self.iteration is not None:
            out["iteration"] = self.iteration
        return out


SEED = Provenance("seed")


@dataclass(frozen=True)
class ConsistencyReport:
    output_match: bool
    candidate_value: float | None
    reference_value: float | None
    step_similarity: float | None
    verdict: str  # "consistent" | "inconsistent"
    cause: str | None = None


@dataclass(frozen=True)
class Example:
    """One question plus one executable answer program, with provenance."""

    id: str
    question: str
    answer_text: str
    provenance: Provenance = SEED
    parent_id: str | None = None
    consistency: ConsistencyReport | None = None
    # answer_text parsed once: given by a caller that already holds it, else parsed here
    program: Program | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # must parse and execute at creation time
        if self.program is None:
            object.__setattr__(self, "program", interpreter.parse(self.answer_text))
        elif self.program.source_text != self.answer_text:
            raise ValueError("program is not a parse of answer_text")
        self.program.value
        if (self.provenance.stage == "seed") != (self.parent_id is None):
            raise ValueError("seed examples have no parent; augmented ones must")

    def to_json(self) -> dict:
        record = {
            "id": self.id,
            "question": self.question,
            "answer_text": self.answer_text,
            "provenance": self.provenance.to_json(),
            "parent_id": self.parent_id,
        }
        if self.consistency is not None:
            record["consistency"] = dict(vars(self.consistency))
        return record

    @classmethod
    def from_json(cls, data: dict) -> "Example":
        if not all(isinstance(data[key], str) for key in ("id", "question", "answer_text")):
            raise TypeError("id, question and answer_text must be strings")
        if not isinstance(data.get("parent_id"), (str, type(None))):
            raise TypeError("parent_id must be a string or null")
        consistency = data.get("consistency")
        return cls(
            id=data["id"],
            question=data["question"],
            answer_text=data["answer_text"],
            provenance=Provenance(**data["provenance"]),
            parent_id=data.get("parent_id"),
            consistency=ConsistencyReport(**consistency) if consistency else None,
        )


@dataclass(frozen=True)
class ExamplePool:
    examples: tuple[Example, ...]
    _by_id: dict[str, Example] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        by_id = {e.id: e for e in self.examples}
        if len(by_id) != len(self.examples):
            raise ValueError("duplicate example ids in pool")
        acyclic: set[str] = set()  # ids whose parent chain ends outside a cycle
        for example in self.examples:
            chain: list[str] = []
            while example is not None and example.id not in acyclic:
                if example.id in chain:
                    raise ValueError(f"parent links form a cycle through {example.id!r}")
                chain.append(example.id)
                example = by_id.get(example.parent_id)
            acyclic.update(chain)
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def get(self, example_id: str) -> Example | None:
        return self._by_id.get(example_id)

    @functools.cached_property
    def in_id_order(self) -> tuple[Example, ...]:
        """The examples sorted by id, on first use only."""
        return tuple(sorted(self.examples, key=lambda e: e.id))


@dataclass(frozen=True)
class AugmentationConfig:
    iterations: int = 1  # stage-3 iteration count T
    max_retries: int = 3
    tau: float = 0.8
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not -1.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [-1, 1]")


@dataclass(frozen=True)
class AttemptRecord:
    seed_id: str
    stage: int
    iteration: int | None
    attempt: int
    accepted: bool
    report: ConsistencyReport | None = None
    skip_reason: str | None = None


@dataclass
class AugmentationResult:
    pool: ExamplePool
    attempts: list[AttemptRecord] = field(default_factory=list)

    def accepted_per_stage(self) -> dict[int, int]:
        counts = {1: 0, 2: 0, 3: 0}
        for example in self.pool:
            if example.provenance.stage != "seed":
                counts[int(example.provenance.stage[-1])] += 1
        return counts


EPS_GATE = 1e-6  # the gate's output tolerance: absolute below 1, relative above


def check_consistency(
    candidate: Program, reference: Program, services: Services, *, tau: float
) -> ConsistencyReport:
    """Two-phase gate: execute-and-compare outputs within ``EPS_GATE``, then
    step similarity vs tau.

    All failures fold into an inconsistent verdict with a recorded cause;
    nothing raises.  A phase-1 mismatch skips phase 2 entirely.  Each
    program executes once however many gates it meets (``Program.value``).
    """
    try:
        reference_value = reference.value
    except InterpreterError as exc:
        return ConsistencyReport(False, None, None, None, "inconsistent", f"reference: {exc}")
    try:
        candidate_value = candidate.value
    except InterpreterError as exc:
        return ConsistencyReport(
            False, None, reference_value, None, "inconsistent", f"candidate: {exc}"
        )
    if not abs(candidate_value - reference_value) <= EPS_GATE * max(1.0, abs(reference_value)):
        return ConsistencyReport(
            False, candidate_value, reference_value, None, "inconsistent", "output mismatch"
        )
    similarity = embedded_cosine(
        services.embed_with_norm(candidate.source_text),
        services.embed_with_norm(reference.source_text),
    )
    if similarity >= tau:
        return ConsistencyReport(True, candidate_value, reference_value, similarity, "consistent")
    return ConsistencyReport(
        True, candidate_value, reference_value, similarity, "inconsistent",
        "step similarity below threshold",
    )


def _generate(prompt: str, services: Services, what: str) -> str:
    """The completion of ``prompt``, stripped; a blank one raises EmptyGeneration."""
    response = services.complete_text(prompt).strip()
    if not response:
        raise EmptyGeneration(f"{what} is blank")
    return response


def rephrase_question(example: Example, services: Services) -> str:
    prompt = prompts.rephrase_prompt(example.question, example.answer_text)
    return _generate(prompt, services, "rephrased question")


def infer_answer(reference: tuple[str, str], new_question: str, services: Services) -> Program:
    """Answer ``new_question`` with the (question, answer) ``reference`` as the one shot."""
    prompt = prompts.few_shot_prompt([reference], new_question)
    completion = services.complete_text(prompt, stop_sequences=prompts.FEW_SHOT_STOP)
    program = extract_answer_block(completion)
    if program is None:
        raise EmptyGeneration("completion contains no parseable answer block")
    return program


def generate_question(modified_answer: str, reference: tuple[str, str], services: Services) -> str:
    """A question for ``modified_answer``, with the (question, answer) ``reference`` as the one shot."""
    prompt = prompts.question_generation_prompt([reference], modified_answer)
    return _generate(prompt, services, "generated question")


def random_chain(rng: np.random.Generator) -> ModificationChain:
    """Seeded one-step chain: operator uniform over + - * /, then operand uniform in 1..9."""
    op = "+-*/"[int(rng.integers(0, 4))]
    return ModificationChain(((op, float(rng.integers(1, 10))),))


def _lineage_ids(example: Example, pool: ExamplePool) -> set[str]:
    ids = {example.id}
    current = example
    while current is not None and current.parent_id is not None:
        ids.add(current.parent_id)
        current = pool.get(current.parent_id)
    return ids


def _stage2_reference(example: Example, pool: ExamplePool) -> Example | None:
    """The smallest-id example of ``pool`` outside ``example``'s lineage.

    The scan of the id-ordered pool stops after at most one example more
    than the lineage holds.
    """
    lineage = _lineage_ids(example, pool)
    return next((e for e in pool.in_id_order if e.id not in lineage), None)


# (question, candidate answer, reference answer, the answer the product keeps: one of the two)
Proposal = tuple[str, Program, Program, Program]


def stage1(
    example: Example, config: AugmentationConfig, services: Services, log: list[AttemptRecord]
) -> Example | None:
    """Rephrase the question and re-infer its answer; None means every attempt failed."""

    def propose(_: None) -> Proposal:
        question = rephrase_question(example, services)
        answer = infer_answer((example.question, example.answer_text), question, services)
        return question, answer, example.program, answer

    return _first_consistent(example, 1, None, config, services, log, propose)


def stage2(
    example: Example,
    pool: ExamplePool,
    config: AugmentationConfig,
    services: Services,
    log: list[AttemptRecord],
) -> Example | None:
    """Re-infer the answer from the smallest-id pool example outside the lineage.

    None means every attempt failed, or there is no such example (logged as a skip).
    """
    reference = _stage2_reference(example, pool)
    if reference is None:
        skip = "no reference outside lineage"
        log.append(AttemptRecord(example.id, 2, None, 0, False, None, skip))
        return None

    def propose(_: None) -> Proposal:
        pair = (reference.question, reference.answer_text)
        answer = infer_answer(pair, example.question, services)
        return example.question, answer, example.program, answer

    return _first_consistent(example, 2, None, config, services, log, propose)


def stage3(
    example: Example,
    rng: np.random.Generator,
    config: AugmentationConfig,
    services: Services,
    log: list[AttemptRecord],
) -> Example | None:
    """T rounds of modify-then-question; None means a round's attempts all failed.

    Each round modifies the program of the previous round's product, with
    its question as the one shot, starting from ``example``, and draws one
    chain per attempt from ``rng``.  The gate checks the answer inferred for
    the generated question against the modified answer, which is the one
    the product keeps.
    """
    child: Example | None = example
    draw = functools.partial(random_chain, rng)

    def propose(chain: ModificationChain) -> Proposal:
        modified = interpreter.modify_answer(child.program, chain)
        reference = (child.question, child.program.source_text)
        new_question = generate_question(modified.source_text, reference, services)
        return new_question, infer_answer(reference, new_question, services), modified, modified

    for iteration in range(1, config.iterations + 1):
        child = _first_consistent(example, 3, iteration, config, services, log, propose, draw)
        if child is None:
            return None
    return child


def _first_consistent(
    example: Example,
    stage: int,
    iteration: int | None,
    config: AugmentationConfig,
    services: Services,
    log: list[AttemptRecord],
    propose: Callable[[Any], Proposal],
    draw: Callable[[], Hashable] = lambda: None,
) -> Example | None:
    """``example``'s stage product from the first of up to ``max_retries + 1``
    attempts whose proposal passes the gate.

    Each attempt first draws its inputs (``draw``, which runs for every
    attempt; by default nothing, so every attempt has the same inputs), then
    ``propose`` builds a proposal from them, sending its requests.  The gate
    checks the candidate answer against the reference answer.  A proposal
    that cannot be generated counts as an inconsistent attempt.  A
    completion has one response per prompt, so an attempt that draws the
    same inputs as an attempt already rejected in this call gets that
    attempt's report: it proposes nothing, sends nothing and runs no gate.
    A ``ProviderError`` propagates and leaves no report behind.  Every
    attempt is logged.  The product has the proposal's question and kept
    answer and the gate's report; None means every attempt failed.
    """
    rejected: dict[Hashable, ConsistencyReport] = {}
    for attempt in range(config.max_retries + 1):
        drawn = draw()
        report = rejected.get(drawn)
        if report is None:
            try:
                question, candidate, reference, kept = propose(drawn)
            except (EmptyGeneration, InterpreterError) as exc:
                report = ConsistencyReport(False, None, None, None, "inconsistent", str(exc))
            else:
                report = check_consistency(candidate, reference, services, tau=config.tau)
        accepted = report.verdict == "consistent"
        log.append(AttemptRecord(example.id, stage, iteration, attempt, accepted, report))
        if accepted:
            return Example(
                id=f"{example.id}.s{stage}",
                question=question,
                answer_text=kept.source_text,
                provenance=Provenance(f"stage{stage}", iteration),
                parent_id=example.id,
                consistency=report,
                program=kept,
            )
        rejected[drawn] = report
    return None


def augment_pool(
    pool: ExamplePool,
    config: AugmentationConfig,
    services: Services,
    stages: int = 3,
) -> AugmentationResult:
    """Run stages 1 through ``stages`` (1, 2 or 3) over every pool member.

    Input examples are always retained; accepted augmentations follow in
    generation order (seed index, then stage).  Each stage for a seed runs
    only on the previous stage's accepted product.  Any other ``stages``
    raises ValueError, as does an empty pool.
    """
    if type(stages) is not int or not 1 <= stages <= 3:
        raise ValueError(f"stages must be 1, 2 or 3, got {stages!r}")
    if len(pool) == 0:
        raise ValueError("pool must be nonempty")
    attempts: list[AttemptRecord] = []
    augmented: list[Example] = []
    for index, seed in enumerate(pool):
        rng = np.random.default_rng([abs(config.rng_seed) % 2**32, index, 3])
        product: Example | None = seed
        for stage in range(1, stages + 1):
            if product is None:
                skip = f"no stage-{stage - 1} product"
                attempts.append(AttemptRecord(seed.id, stage, None, 0, False, None, skip))
                continue
            if stage == 1:
                product = stage1(product, config, services, attempts)
            elif stage == 2:
                product = stage2(product, pool, config, services, attempts)
            else:
                product = stage3(product, rng, config, services, attempts)
            if product is not None:
                augmented.append(product)
    out = ExamplePool(tuple(pool.examples) + tuple(augmented))
    return AugmentationResult(pool=out, attempts=attempts)


def load_pool(path: str | Path) -> ExamplePool:
    """Read a line-delimited pool file, skipping metadata records; a record that is
    not an example, one with an unknown provenance or report key included, raises
    MalformedRecord naming its line."""
    examples = []
    for line_no, record in read_jsonl(path):
        if "meta" in record:
            continue
        try:
            examples.append(Example.from_json(record))
        except (KeyError, TypeError, ValueError, InterpreterError) as exc:
            raise MalformedRecord(line_no, f"not a pool example: {exc!r}") from None
    return ExamplePool(tuple(examples))


def save_pool(pool: ExamplePool, path: str | Path, meta: dict | None = None) -> None:
    write_jsonl(path, (example.to_json() for example in pool), meta)

