"""Expand a seed pool through the three augmentation stages.

A scripted provider stands in for the LLM so the run is deterministic and
offline: fixtures map each generator prompt (question rephrasing, answer
inference, answer generation, question generation) to a canned response.
Every generated pair must pass the two-phase consistency gate before it
enters the pool.
"""

import numpy as np

from potselect import AugmentationConfig, Example, ExamplePool, augment_pool
from potselect.augmentation import Provenance, random_chain, stage3
from potselect.interpreter import execute, modify_answer, parse
from potselect.providers import Fixture, HashEmbedding, ScriptedProvider, Services
from potselect import prompts

seeds = ExamplePool(
    tuple(
        Example(id=f"S{i}", question=f"Problem number {i}.", answer_text=f"ans = {i}")
        for i in range(1, 5)
    )
)

# Pattern fixtures answer any prompt of a given shape, capturing the
# question text so responses stay input-dependent but deterministic.
fixtures = [
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
services = Services(completion=ScriptedProvider(fixtures), embedding=HashEmbedding())

print("== stages 1-2 over four seeds ==")
result = augment_pool(seeds, AugmentationConfig(rng_seed=7), services, stages=2)
print(f"pool grew {len(seeds)} -> {len(result.pool)}")
for example in result.pool:
    tag = example.provenance.stage
    print(f"  [{tag:6}] {example.id:12} q={example.question[:40]!r}")

print()
print("== every accepted example carries its consistency report ==")
accepted = [e for e in result.pool if e.provenance.stage != "seed"][0]
report = accepted.consistency
print(f"output match: {report.output_match}, step similarity: {report.step_similarity:.3f}")

print()
print("== stage 3: modify the answer, generate a matching question ==")
# find a seed whose first chain draw is (*, 2) so the fixtures are simple
seed = next(
    s for s in range(2000) if random_chain(np.random.default_rng(s)).steps == (("*", 2.0),)
)
stage2 = Example(
    id="S1.s1.s2",
    question="Problem number 1, rephrased.",
    answer_text="ans = 1",
    provenance=Provenance("stage2"),
    parent_id="S1.s1",
)
modified_text = modify_answer(parse("ans = 1"), random_chain(np.random.default_rng(seed))).source_text
generated_q = "Problem number 1, doubled."
stage3_fixtures = [
    Fixture("pattern", r"(?s)\n\nQuestion:\Z", generated_q),
    Fixture(
        "exact",
        prompts.few_shot_prompt([(stage2.question, stage2.answer_text)], generated_q),
        modified_text,
    ),
]
services3 = Services(completion=ScriptedProvider(stage3_fixtures), embedding=HashEmbedding())
product = stage3(stage2, np.random.default_rng(seed), AugmentationConfig(iterations=1), services3, [])
print(f"modified answer:\n{product.answer_text}")
print(f"generated question: {product.question!r}")
print(f"executes to: {execute(parse(product.answer_text))}")

print()
print("== inconsistent generations never enter the pool ==")
bad_fixtures = [
    Fixture("pattern", r"(?s)# Instruction: Rephrase the question\Z", "a new question"),
    Fixture("pattern", r"(?s)# Python code, return ans\n\Z", "ans = 999999"),
]
bad_services = Services(completion=ScriptedProvider(bad_fixtures), embedding=HashEmbedding())
bad = augment_pool(seeds, AugmentationConfig(max_retries=1), bad_services, stages=1)
print(f"pool stays at {len(bad.pool)} (seeds retained), "
      f"{len(bad.attempts)} rejected attempts logged")
