"""Score a candidate pool against a test question and watch the greedy loop.

Each candidate gets four metrics: question relevance, concept overlap,
normalized answer complexity and similarity of its answer to a zero-shot
rough answer for the test question.  The loop repeatedly takes the best
weighted score, stops on a score plateau or at the target size, and prunes
a chosen answer that is conspicuously redundant.
"""

from potselect import Example, ExamplePool, SelectionConfig, Weights, interpreter, select_examples
from potselect.providers import Fixture, HashEmbedding, ScriptedProvider, Services
from potselect.selection import PoolStats, calculate_metrics

pool = ExamplePool(
    (
        Example(
            id="eggs",
            question="A farmer collects 16 eggs and sells the rest after eating 3.",
            answer_text="eggs = 16\neaten = 3\nsold = eggs - eaten\nans = sold",
        ),
        Example(
            id="train",
            question="A train travels 60 miles per hour for 2 hours.",
            answer_text="speed = 60\nhours = 2\nans = speed * hours",
        ),
        Example(
            id="fiber",
            question="A robe takes 2 bolts of blue fiber and half that much white fiber.",
            answer_text="blue = 2\nwhite = blue / 2\nans = blue + white",
        ),
        Example(
            id="market",
            question="Eggs sell at the market for 2 dollars each, 9 eggs sold.",
            answer_text="eggs = 9\nprice = 2\nans = eggs * price",
        ),
        Example(
            id="garden",
            question="A garden grows 5 rows of 4 plants each.",
            answer_text="rows = 5\nplants = 4\nans = rows * plants",
        ),
    )
)

test_question = "Janet sells eggs at the farmers market, how many dollars per day?"

# Pattern fixtures keep the demo offline: one answers concept-listing
# prompts, the other answers the zero-shot rough-answer prompt.
fixtures = [
    Fixture(
        "pattern",
        r"(?s)\A# Instruction: List the underlying concepts.*\nQuestion: ([^\n]*)\nConcepts:\Z",
        r"concepts of \1",
    ),
    Fixture(
        "pattern",
        r"\AQuestion: ([^\n]*)\n# Python code, return ans\n\Z",
        "eggs = 9\nans = eggs * 2",
    ),
]
services = Services(completion=ScriptedProvider(fixtures), embedding=HashEmbedding())

print("== per-candidate metric vectors ==")
counts = [interpreter.complexity(example.answer_text) for example in pool]
stats = PoolStats(min_complexity=min(counts), max_complexity=max(counts))
for example in pool:
    m = calculate_metrics(example.question, example.answer_text, test_question, stats, services)
    print(
        f"  {example.id:7} relevance={m.relevance:+.3f} concept={m.concept:+.3f} "
        f"complexity={m.complexity:.2f} similarity={m.similarity:+.3f}"
    )

print()
print("== greedy selection with uniform weights ==")
config = SelectionConfig(weights=Weights(), epsilon=1e-3, delta=0.1, max_chosen=3)
result = select_examples(pool, test_question, config, services)
for record in result.trace:
    note = ""
    if record.pruned_id:
        note = f"  pruned {record.pruned_id}"
    if record.stop:
        note += f"  stop: {record.stop}"
    print(f"  iteration {record.iteration}: picked {record.picked_id} "
          f"(score {record.picked_score:.4f}){note}")
print(f"chosen in order: {result.chosen_ids}")

print()
print("== relevance-only weights change the ranking ==")
config = SelectionConfig(weights=Weights(1, 0, 0, 0), epsilon=0.0, max_chosen=3)
result = select_examples(pool, test_question, config, services)
print(f"chosen in order: {result.chosen_ids}")
