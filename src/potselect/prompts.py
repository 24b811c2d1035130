"""Prompt templates shared by the augmentation, selection and eval pipelines.

Every template is byte-exact and frozen by tests: downstream caching keys on
the rendered prompt, so any drift here silently invalidates caches.
"""

from __future__ import annotations

from collections.abc import Sequence

PROGRAM_HEADER = "# Python code, return ans"

REPHRASE_INSTRUCTION = "# Instruction: Rephrase the question"

CONCEPT_TEMPLATE = (
    "# Instruction: List the underlying concepts needed to solve the question"
    " below, as a short comma-separated list.\n"
    "Question: {question}\n"
    "Concepts:"
)


def example_block(question: str, answer_text: str) -> str:
    """One question-first example block, ending with a newline."""
    return f"Question: {question}\n{PROGRAM_HEADER}\n{answer_text.rstrip(chr(10))}\n"


def answer_first_block(answer_text: str, question: str) -> str:
    """One answer-first block (reversed order), ending with a newline."""
    return f"{PROGRAM_HEADER}\n{answer_text.rstrip(chr(10))}\n\nQuestion: {question}\n"


FEW_SHOT_STOP = ("Question:",)  # a few-shot or zero-shot completion ends before the next question


def few_shot_prompt(pairs: Sequence[tuple[str, str]], test_question: str) -> str:
    """Static examples followed by the test question and a bare header line.

    The completion is expected to continue with the answer program.  With an
    empty ``pairs`` this is the zero-shot prompt used for rough answers.
    """
    parts = [example_block(q, a) for q, a in pairs]
    parts.append(f"Question: {test_question}\n{PROGRAM_HEADER}\n")
    return "\n".join(parts)


def rephrase_prompt(question: str, answer_text: str) -> str:
    return example_block(question, answer_text) + "\n" + REPHRASE_INSTRUCTION


def question_generation_prompt(
    reference_pairs: Sequence[tuple[str, str]], modified_answer: str
) -> str:
    """Reversed answer/question pairs, then the modified answer awaiting its question."""
    parts = [answer_first_block(a, q) for q, a in reference_pairs]
    parts.append(f"{PROGRAM_HEADER}\n{modified_answer.rstrip(chr(10))}\n\nQuestion:")
    return "\n".join(parts)


def concept_prompt(text: str) -> str:
    return CONCEPT_TEMPLATE.format(question=text)


def zero_shot_prompt(test_question: str) -> str:
    return few_shot_prompt([], test_question)
