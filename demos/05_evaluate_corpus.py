"""End-to-end evaluation: select, prompt, execute, grade — twice, with a cache.

Builds a small GSM8K-format dataset and a scripted provider on disk, runs
the evaluation through the command-line entry point, then runs it again to
show the warm response cache answering everything without provider calls
and the report coming out byte-identical.
"""

import json
import tempfile
from pathlib import Path

from potselect.cli import main

scratch = tempfile.TemporaryDirectory(prefix="potselect-demo-")
workdir = Path(scratch.name)
print(f"working under {workdir} (removed at the end)")

# seed pool: two worked examples
pool = [
    {
        "id": "bolts",
        "question": "A robe takes 2 bolts of blue fiber and half that much white fiber. How many bolts in total?",
        "answer_text": "blue = 2\nwhite = blue / 2\nans = blue + white",
        "provenance": {"stage": "seed"},
        "parent_id": None,
    },
    {
        "id": "eggs",
        "question": "Janet has 16 eggs, eats 3 and bakes with 4. How many are left?",
        "answer_text": "eggs = 16\neaten = 3\nbaked = 4\nans = eggs - eaten - baked",
        "provenance": {"stage": "seed"},
        "parent_id": None,
    },
]
(workdir / "pool.jsonl").write_text("\n".join(json.dumps(r) for r in pool) + "\n")

# five evaluation items, gold answers 10..50
dataset = [
    {"id": f"E{i}", "question": f"Evaluation question number {i}?", "answer": f"text\n#### {10 * i}"}
    for i in range(1, 6)
]
(workdir / "dataset.jsonl").write_text("\n".join(json.dumps(r) for r in dataset) + "\n")

# scripted responses: three correct programs, one wrong value, one garbage
def completion(question, response):
    pattern = r"(?s)\A.*\n\nQuestion: " + question.replace("?", r"\?") + r"\n# Python code, return ans\n\Z"
    return {"match": "pattern", "text": pattern, "response": response}

fixtures = [
    {
        "match": "pattern",
        "text": r"(?s)\A# Instruction: List the underlying concepts.*\nQuestion: ([^\n]*)\nConcepts:\Z",
        "response": r"concepts of \1",
    },
    {
        "match": "pattern",
        "text": r"\AQuestion: ([^\n]*)\n# Python code, return ans\n\Z",
        "response": r"rough answer about \1",
    },
    completion("Evaluation question number 1?", "ans = 10"),
    completion("Evaluation question number 2?", "ans = 20"),
    completion("Evaluation question number 3?", "ans = 30"),
    completion("Evaluation question number 4?", "ans = 0"),
    completion("Evaluation question number 5?", "no program, just words"),
]
(workdir / "fixtures.json").write_text(json.dumps(fixtures, indent=2))

args = [
    "eval",
    "--pool", str(workdir / "pool.jsonl"),
    "--dataset", str(workdir / "dataset.jsonl"),
    "--fixtures", str(workdir / "fixtures.json"),
    "--cache-dir", str(workdir / "cache"),
    "--out", str(workdir / "report.jsonl"),
]

print()
print("== cold run (provider answers, cache fills) ==")
assert main(args) == 0
cold = (workdir / "report.jsonl").read_bytes()

print()
print("== warm run (served entirely from cache) ==")
assert main(args) == 0
warm = (workdir / "report.jsonl").read_bytes()
print(f"reports byte-identical: {cold == warm}")

print()
print("== per-item verdicts ==")
for line in (workdir / "report.jsonl").read_text().splitlines():
    record = json.loads(line)
    if "item_id" in record:
        cause = f" ({record['cause']})" if record["cause"] else ""
        print(f"  {record['item_id']}: {record['verdict']}{cause}")
    elif "summary" in record:
        s = record["summary"]
        print(f"accuracy {s['accuracy']:.2f}, mean examples used {s['mean_examples_used']:.1f}")

print()
print("== cache contents ==")
main(["cache-stats", "--cache-dir", str(workdir / "cache")])
scratch.cleanup()
