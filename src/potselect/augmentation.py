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
from typing import Callable

import numpy as np

from . import interpreter, prompts
from .interpreter import Assignment, InterpreterError, ModificationChain, Program
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


def extract_answer_block(completion: str) -> Program | None:
    """Parse the maximal contiguous block of dialect-parseable lines.

    Code fences are stripped first.  A valid block needs at least one
    assignment; blocks of equal length tie toward the earliest.  The
    program's ``source_text`` is the block, trimmed of blank lines.
    Returns None when no block qualifies.
    """
    lines = [l for l in completion.replace("\r", "").split("\n") if not l.strip().startswith("```")]
    n = len(lines)
    best: tuple[int, int, list[Assignment]] | None = None  # (start, end) half-open, statements
    start = 0
    while start < n:
        defined: set[str] = set()
        statements: list[Assignment] = []
        end = start
        while end < n:
            try:
                assignment = interpreter.parse_line(lines[end])
            except InterpreterError:
                break
            if assignment is not None:
                if not interpreter.references(assignment.expression) <= defined:
                    break
                defined.add(assignment.target)
                statements.append(assignment)
            end += 1
        if statements and (best is None or end - start > best[1] - best[0]):
            best = (start, end, statements)
        start = max(end, start + 1)
    if best is None:
        return None
    block = lines[best[0] : best[1]]
    while block and not block[0].strip():
        block.pop(0)
    while block and not block[-1].strip():
        block.pop()
    return Program(tuple(best[2]), "\n".join(block))


def check_consistency(
    candidate: Program,
    reference: Program,
    services: Services,
    *,
    tau: float,
    eps_abs: float = 1e-6,
    eps_rel: float = 1e-6,
) -> ConsistencyReport:
    """Two-phase gate: execute-and-compare outputs, then step similarity vs tau.

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
    tolerance = max(eps_abs, eps_rel * abs(reference_value))
    if not abs(candidate_value - reference_value) <= tolerance:
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


def rephrase_question(example: Example, services: Services) -> str:
    prompt = prompts.rephrase_prompt(example.question, example.answer_text)
    response = services.complete_text(prompt).strip()
    if not response:
        raise EmptyGeneration("rephrased question is blank")
    return response


def infer_answer(reference: tuple[str, str], new_question: str, services: Services) -> Program:
    """Answer ``new_question`` with the (question, answer) ``reference`` as the one shot."""
    prompt = prompts.few_shot_prompt([reference], new_question)
    completion = services.complete_text(prompt, stop_sequences=("Question:",))
    program = extract_answer_block(completion)
    if program is None:
        raise EmptyGeneration("completion contains no parseable answer block")
    return program


def generate_question(modified_answer: str, reference: tuple[str, str], services: Services) -> str:
    """A question for ``modified_answer``, with the (question, answer) ``reference`` as the one shot."""
    prompt = prompts.question_generation_prompt([reference], modified_answer)
    response = services.complete_text(prompt).strip()
    if not response:
        raise EmptyGeneration("generated question is blank")
    return response


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


Proposal = tuple[str, Program, Program]  # (question, candidate answer, reference answer)


def stage1(
    example: Example, config: AugmentationConfig, services: Services, log: list[AttemptRecord]
) -> Example | None:
    """Rephrase the question and re-infer its answer; None means every attempt failed."""

    def propose() -> Proposal:
        question = rephrase_question(example, services)
        answer = infer_answer((example.question, example.answer_text), question, services)
        return question, answer, example.program

    found = _first_consistent(example.id, 1, None, config, services, log, propose)
    return None if found is None else _child(example, 1, *found)


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

    def propose() -> Proposal:
        pair = (reference.question, reference.answer_text)
        return example.question, infer_answer(pair, example.question, services), example.program

    found = _first_consistent(example.id, 2, None, config, services, log, propose)
    return None if found is None else _child(example, 2, *found)


def stage3(
    example: Example,
    rng: np.random.Generator,
    config: AugmentationConfig,
    services: Services,
    log: list[AttemptRecord],
) -> Example | None:
    """T rounds of modify-then-question; None means a round's attempts all failed.

    Each round modifies the program the previous round accepted, starting
    from ``example.program``, and draws its chains from ``rng``.  The gate
    checks the answer inferred for the generated question against the
    modified answer, which is the one the product keeps.
    """
    question, program = example.question, example.program
    modified: Program | None = None

    def propose() -> Proposal:
        nonlocal modified
        modified = interpreter.modify_answer(program, random_chain(rng))
        reference = (question, program.source_text)
        new_question = generate_question(modified.source_text, reference, services)
        return new_question, infer_answer(reference, new_question, services), modified

    for iteration in range(1, config.iterations + 1):
        found = _first_consistent(example.id, 3, iteration, config, services, log, propose)
        if found is None:
            return None
        question, _, report = found
        program = modified  # the accepted attempt was the last one proposed
    return _child(example, 3, question, program, report, config.iterations)


def _first_consistent(
    seed_id: str,
    stage: int,
    iteration: int | None,
    config: AugmentationConfig,
    services: Services,
    log: list[AttemptRecord],
    propose: Callable[[], Proposal],
) -> tuple[str, Program, ConsistencyReport] | None:
    """The first of up to ``max_retries + 1`` proposals that passes the gate.

    The gate checks the candidate answer against the reference answer.  A
    proposal that cannot be generated counts as an inconsistent attempt.
    Every attempt is logged.  Returns the accepted proposal's question,
    candidate answer and report; None means all of them failed.
    """
    for attempt in range(config.max_retries + 1):
        try:
            proposal = propose()
        except (EmptyGeneration, InterpreterError) as exc:
            report = ConsistencyReport(False, None, None, None, "inconsistent", str(exc))
        else:
            report = check_consistency(proposal[1], proposal[2], services, tau=config.tau)
        accepted = report.verdict == "consistent"
        log.append(AttemptRecord(seed_id, stage, iteration, attempt, accepted, report))
        if accepted:
            return proposal[0], proposal[1], report
    return None


def _child(
    parent: Example,
    stage: int,
    question: str,
    answer: Program,
    report: ConsistencyReport,
    iteration: int | None = None,
) -> Example:
    return Example(
        id=f"{parent.id}.s{stage}",
        question=question,
        answer_text=answer.source_text,
        provenance=Provenance(f"stage{stage}", iteration),
        parent_id=parent.id,
        consistency=report,
        program=answer,
    )


def augment_pool(
    pool: ExamplePool,
    config: AugmentationConfig,
    services: Services,
    stages: tuple[int, ...] = (1, 2, 3),
) -> AugmentationResult:
    """Run the requested stages over every pool member.

    Input examples are always retained; accepted augmentations follow in
    generation order (seed index, then stage).  Later stages for a seed run
    only on the previous stage's accepted product.
    """
    if len(pool) == 0:
        raise ValueError("pool must be nonempty")
    attempts: list[AttemptRecord] = []
    augmented: list[Example] = []
    for index, seed in enumerate(pool):
        rng = np.random.default_rng([abs(config.rng_seed) % 2**32, index, 3])
        stage_fns = {
            1: lambda example: stage1(example, config, services, attempts),
            2: lambda example: stage2(example, pool, config, services, attempts),
            3: lambda example: stage3(example, rng, config, services, attempts),
        }
        product: Example | None = seed
        for stage, stage_fn in stage_fns.items():
            if stage not in stages:
                product = None
            elif product is None:
                skip = f"no stage-{stage - 1} product"
                attempts.append(AttemptRecord(seed.id, stage, None, 0, False, None, skip))
            else:
                product = stage_fn(product)
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

