"""Golden outputs: every command's files, cache entries and summary lines, pinned by SHA-256.

The commands run through ``cli.main`` in a temporary directory on the
13-seed pool (all three augmentation stages, for one stage-3 round and for
three) and the 5-item eval fixture.
One eval item's scripted completion is correct only when the first
selected example comes from stage 3, so the tuning objective varies with
the weights and TPE fits real densities after its startup trials.

The only fields stripped before hashing are the two timestamps: each trial
record's ``timestamp`` and each cache entry's ``created_at``.  A change
that alters an output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

from potselect.cli import main
from potselect.providers import Fixture
from potselect.tuning import TpeParams

from conftest import (
    augmentation_fixtures,
    completion_fixture,
    eval_dataset_records,
    eval_fixtures,
    save_fixtures,
    thirteen_seeds,
)

MANIFEST = Path(__file__).resolve().parent / "golden" / "outputs.json"

# Stage 3 turns "ans = N" into "temp0 = N / ans = temp0 <op> <k>"; the question
# generated for it spells the program out, and the inferred answer copies it back.
STAGE3_FIXTURES = [
    Fixture(
        "pattern",
        r"\n# Python code, return ans\n(temp0 = [^\n]*)\n(ans = [^\n]*)\n\nQuestion:\Z",
        r"Compute \1; then \2.",
    ),
    Fixture(
        "pattern",
        r"\nQuestion: Compute ([^\n;]*); then ([^\n]*)\.\n# Python code, return ans\n\Z",
        r"\1\n\2",
    ),
]

# Over several stage-3 rounds each round modifies the previous round's program,
# so the programs grow "tempN = ..." lines.  The generated question carries the
# program, and the inferred answer copies it back, except after a division
# step, where it has no program, so the round retries with a fresh chain.
_ROUND_PROGRAM = r"(?:temp\d+ = [^\n]*\n)+ans = temp\d+ "
ROUNDS_FIXTURES = [
    Fixture(
        "pattern",
        r"\n# Python code, return ans\n(" + _ROUND_PROGRAM + r"[^\n]*)\n\nQuestion:\Z",
        r"Compute:\n\1",
    ),
    Fixture(
        "pattern",
        r"\nQuestion: Compute:\n(" + _ROUND_PROGRAM + r"[-+*] [^\n]*)\n# Python code, return ans\n\Z",
        r"\1",
    ),
    Fixture(
        "pattern",
        r"\nQuestion: Compute:\n" + _ROUND_PROGRAM + r"/ [^\n]*\n# Python code, return ans\n\Z",
        "No program fits this question.",
    ),
]

_ITEM4 = r"\n\nQuestion: Evaluation question number 4\?\n# Python code, return ans\n\Z"


def _eval_fixtures() -> list[Fixture]:
    """The 5-item fixtures, with item 4 correct only after a stage-3 first example."""
    always_wrong = completion_fixture("Evaluation question number 4?", "ans = 0")
    fixtures = [f for f in eval_fixtures() if f != always_wrong]
    return fixtures + [
        Fixture("pattern", r"(?s)\AQuestion: Compute .*" + _ITEM4, "ans = 40"),
        Fixture("pattern", r"(?s)\A(?!Question: Compute ).*" + _ITEM4, "ans = 0"),
    ]


def _write_inputs() -> None:
    with open("seeds.jsonl", "w", encoding="utf-8") as fh:
        for example in thirteen_seeds():
            fh.write(json.dumps(example.to_json()) + "\n")
    with open("dataset.jsonl", "w", encoding="utf-8") as fh:
        for record in eval_dataset_records():
            fh.write(json.dumps(record) + "\n")
    save_fixtures(augmentation_fixtures() + STAGE3_FIXTURES, "augment_fixtures.json")
    save_fixtures(augmentation_fixtures() + ROUNDS_FIXTURES, "augment_rounds_fixtures.json")
    save_fixtures(_eval_fixtures(), "eval_fixtures.json")


_SELECT_ARGS = [
    "--pool", "pool.jsonl", "--dataset", "dataset.jsonl", "--fixtures", "eval_fixtures.json"
]

COMMANDS = {
    "augment": [
        "augment", "--pool", "seeds.jsonl", "--fixtures", "augment_fixtures.json",
        "--stages", "1,2,3", "--out", "pool.jsonl",
    ],
    "augment-rounds": [
        "augment", "--pool", "seeds.jsonl", "--fixtures", "augment_rounds_fixtures.json",
        "--stages", "1,2,3", "--iterations", "3", "--out", "rounds.jsonl",
    ],
    "select": ["select", *_SELECT_ARGS, "--out", "select.jsonl"],
    "eval": ["eval", *_SELECT_ARGS, "--out", "report.jsonl"],
    "tune": ["tune", *_SELECT_ARGS, "--budget", "20", "--out", "tuned.json"],
    "tune-cached": [
        "tune", *_SELECT_ARGS, "--budget", "20", "--cache-dir", "cache",
        "--out", "tuned-cached.json",
    ],
    "cache-stats": ["cache-stats", "--cache-dir", "cache"],
}


def _stripped(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name.endswith(".trials.jsonl"):
        return re.sub(rb', "timestamp": "[^"]*"', b"", data)
    if path.parent.name == "cache":
        return re.sub(rb"\ncreated_at: [^\n]*", b"", data, count=1)
    return data


def run_commands() -> dict[str, str]:
    """Run every command in the current directory; map each output to its pin."""
    _write_inputs()
    manifest = {}
    for name, argv in COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, (name, code)
        manifest[f"summary {name}"] = stdout.getvalue().strip()
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            manifest[f"sha256 {path.as_posix()}"] = hashlib.sha256(_stripped(path)).hexdigest()
    return manifest


def test_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    actual = run_commands()
    assert actual == json.loads(MANIFEST.read_text(encoding="utf-8"))
    # the startup trials' objectives differ, so every later trial is a TPE fit
    log = (tmp_path / "tuned.json.trials.jsonl").read_text(encoding="utf-8").splitlines()
    objectives = [json.loads(line)["objective"] for line in log[1:]]
    n_startup = TpeParams().n_startup
    assert len(objectives) > n_startup and len(set(objectives[:n_startup])) > 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        pins = run_commands()
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(pins)} pins -> {MANIFEST}")
