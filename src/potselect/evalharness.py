"""Corpus loading, prompt assembly and accuracy evaluation.

GSM8K records are line-delimited JSON whose answer text ends in a
``#### <number>`` marker; SVAMP records carry body/question/answer fields
(JSON array or line-delimited).  Evaluation runs the selection loop per
item, prompts the completion provider, executes the extracted answer
program and compares against the gold value.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import interpreter, prompts
from .augmentation import Example, ExamplePool, extract_answer_block
from .providers import ProviderError, Services
from .records import (
    DatasetError,
    MalformedRecord,
    decode_json,
    decode_jsonl,
    read_jsonl,
    write_jsonl,
)
from .selection import SelectionConfig, select_examples

EPS_EVAL = 1e-3  # absolute tolerance between an executed answer and the gold value
PROVIDER_CAUSE = "provider: "  # how an item's cause starts when the provider failed


class MissingMarker(DatasetError):
    def __init__(self, line_no: int):
        super().__init__(f"record {line_no}: answer lacks a '####' marker")
        self.line_no = line_no


@dataclass(frozen=True)
class QAItem:
    id: str
    question: str
    gold_value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gold_value):
            raise ValueError(f"gold_value must be finite, got {self.gold_value!r}")


_GSM8K_MARKER = re.compile(r"####\s*(-?[\d,]*\.?\d+)")


def _text(line_no: int, name: str, value) -> str:
    if not isinstance(value, str):
        raise MalformedRecord(line_no, f"{name} {value!r} is not a string")
    return value


def _item_id(line_no: int, identifier) -> str:
    """A record's id as text; a missing or null id is named after its line."""
    if identifier is None:
        return f"item-{line_no}"
    if type(identifier) not in (str, int):  # bool is an int subclass
        raise MalformedRecord(line_no, f"id {identifier!r} is not a string or an integer")
    return str(identifier)


def load_gsm8k(path: str | Path) -> list[QAItem]:
    """Parse GSM8K-format JSONL; gold values come from the final #### marker."""
    items: list[QAItem] = []
    for line_no, record in read_jsonl(path):
        if "question" not in record or "answer" not in record:
            raise MalformedRecord(line_no, "needs 'question' and 'answer' fields")
        markers = _GSM8K_MARKER.findall(_text(line_no, "answer", record["answer"]))
        if not markers:
            raise MissingMarker(line_no)
        gold = float(markers[-1].replace(",", ""))
        if not math.isfinite(gold):
            raise MalformedRecord(line_no, f"gold value {markers[-1]!r} is not finite")
        items.append(
            QAItem(
                id=_item_id(line_no, record.get("id")),
                question=_text(line_no, "question", record["question"]),
                gold_value=gold,
            )
        )
    return items


def _field(record: dict, name: str):
    for key in (name, name.capitalize(), name.upper()):
        if key in record:
            return record[key]
    return None


def load_svamp(path: str | Path) -> list[QAItem]:
    """Parse SVAMP records; the question is body + space + question sentence.

    The file is read once: a JSON array when its first non-blank character
    is ``[``, line-delimited JSON otherwise.
    """
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("["):
        records = list(enumerate(decode_json(text, path), start=1))
    else:  # split at "\n" only, as a file's lines are
        records = list(decode_jsonl(io.StringIO(text), path))
    items: list[QAItem] = []
    for line_no, record in records:
        if not isinstance(record, dict):
            raise MalformedRecord(line_no, "record is not an object")
        body = _field(record, "body")
        question = _field(record, "question")
        answer = _field(record, "answer")
        if body is None or question is None or answer is None:
            raise MalformedRecord(line_no, "needs body, question and answer fields")
        try:
            gold = float(None if isinstance(answer, bool) else answer)  # true is not a number
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
            raise MalformedRecord(line_no, f"answer {answer!r} is not numeric") from None
        if not math.isfinite(gold):
            raise MalformedRecord(line_no, f"answer {answer!r} is not finite")
        body, question = _text(line_no, "body", body), _text(line_no, "question", question)
        items.append(
            QAItem(
                id=_item_id(line_no, _field(record, "id")),
                question=f"{body.strip()} {question.strip()}",
                gold_value=gold,
            )
        )
    return items


def build_prompt(chosen: list[Example], test_question: str) -> str:
    """Render chosen examples plus the test question into the byte-exact template."""
    if not chosen:
        raise ValueError("chosen must be nonempty")
    return prompts.few_shot_prompt([(e.question, e.answer_text) for e in chosen], test_question)


@dataclass(frozen=True)
class ItemResult:
    item_id: str
    selected_ids: tuple[str, ...]
    completion: str | None
    value: float | None
    gold_value: float
    verdict: str  # "correct" | "incorrect"
    cause: str | None = None


@dataclass
class EvalReport:
    n_items: int
    n_correct: int
    accuracy: float
    mean_examples_used: float
    items: list[ItemResult] = field(default_factory=list)

    def summary(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "items"}


def _outcome(prompt: str, services: Services) -> tuple[str, float | None, str | None]:
    """The completion of the few-shot ``prompt``, then its executed value or the
    parse or execute cause, both of which follow from the completion alone."""
    # complete_text, which the benchmark traces as the few-shot completions
    completion = services.complete_text(prompt, stop_sequences=prompts.FEW_SHOT_STOP)
    program = extract_answer_block(completion)
    if program is None:
        return completion, None, "parse: no answer block in completion"
    try:
        return completion, interpreter.execute(program), None
    except interpreter.InterpreterError as exc:
        return completion, None, f"execute: {exc}"


def _grade(
    item: QAItem, pool: ExamplePool, config: SelectionConfig, services: Services
) -> ItemResult:
    """Select, prompt, execute and grade one item; a failed item returns with its cause.

    A few-shot request that ``services`` has graded before is not completed,
    parsed or executed again: its outcome comes from the grade memo.
    """
    selected_ids: tuple[str, ...] = ()
    try:
        selection = select_examples(pool, item.question, config, services)
        selected_ids = tuple(selection.chosen_ids)
        prompt = build_prompt([example for example, _ in selection.chosen], item.question)
        request = services.request(prompt, stop_sequences=prompts.FEW_SHOT_STOP)
        outcome = services._grade_memo.get(request)
        if outcome is None:  # an outcome that raises is not stored
            outcome = services._grade_memo[request] = _outcome(prompt, services)
    except ProviderError as exc:
        outcome = None, None, f"{PROVIDER_CAUSE}{exc}"
    except ValueError as exc:
        outcome = None, None, f"selection: {exc}"
    completion, value, cause = outcome
    if cause is None and not abs(value - item.gold_value) <= EPS_EVAL:
        cause = "wrong value"
    verdict = "correct" if cause is None else "incorrect"
    return ItemResult(item.id, selected_ids, completion, value, item.gold_value, verdict, cause)


def evaluate(
    dataset: list[QAItem],
    pool: ExamplePool,
    selection_config: SelectionConfig,
    services: Services,
) -> EvalReport:
    """Select, prompt, execute and grade every item; failures never abort the run."""
    results = [_grade(item, pool, selection_config, services) for item in dataset]
    n_items = len(dataset)
    n_correct = sum(r.verdict == "correct" for r in results)
    return EvalReport(
        n_items=n_items,
        n_correct=n_correct,
        accuracy=(n_correct / n_items) if n_items else 0.0,
        mean_examples_used=(
            sum(len(r.selected_ids) for r in results) / n_items if n_items else 0.0
        ),
        items=results,
    )


def save_report(report: EvalReport, path: str | Path, meta: dict | None = None) -> None:
    """Line-delimited per-item records plus a final summary record."""
    write_jsonl(path, [*report.items, {"summary": report.summary()}], meta)
