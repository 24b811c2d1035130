"""Golden outputs: every command's files, cache entries and summary lines, pinned by SHA-256.

The commands run through ``cli.main`` in a temporary directory on the
13-seed pool (all three augmentation stages, for one stage-3 round and for
three) and the 5-item eval fixture.
One eval item's scripted completion is correct only when the first
selected example comes from stage 3, so the tuning objective varies with
the weights and TPE fits real densities after its startup trials.

The only fields stripped before hashing are the two timestamps: each trial
record's ``timestamp`` and each cache entry's ``created_at``.  The manifest
also pins how many distinct requests each command sends, which neither a
re-sent request nor the cache changes.  A change that alters an output on
purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest

from potselect.cli import main
from potselect.providers import Fixture, ProviderUnavailable, ScriptedProvider
from potselect.records import encode_record
from potselect.tuning import TpeParams

from conftest import (
    RequestLedger,
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


def run_commands(ledger: RequestLedger) -> dict[str, str | int]:
    """Run every command in the current directory; map each output to its pin."""
    _write_inputs()
    manifest = {}
    for name, argv in COMMANDS.items():
        ledger.sent.clear()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, (name, code)
        manifest[f"summary {name}"] = stdout.getvalue().strip()
        manifest[f"distinct {name}"] = len(ledger.distinct)
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            manifest[f"sha256 {path.as_posix()}"] = hashlib.sha256(_stripped(path)).hexdigest()
    return manifest


def test_outputs_match_the_golden_manifest(tmp_path, monkeypatch, request_ledger):
    monkeypatch.chdir(tmp_path)
    actual = run_commands(request_ledger)
    assert actual == json.loads(MANIFEST.read_text(encoding="utf-8"))
    # the startup trials' objectives differ, so every later trial is a TPE fit
    log = (tmp_path / "tuned.json.trials.jsonl").read_text(encoding="utf-8").splitlines()
    objectives = [json.loads(line)["objective"] for line in log[1:]]
    n_startup = TpeParams().n_startup
    assert len(objectives) > n_startup and len(set(objectives[:n_startup])) > 1


# each command run with --cache-dir, the golden command whose outputs it must
# write, and its exit code when the provider goes down: eval records the failure
RESUMED = {
    "augment": ([*COMMANDS["augment"], "--cache-dir", "cache"], "augment", 2),
    "eval": ([*COMMANDS["eval"], "--cache-dir", "cache"], "eval", 0),
    "tune": (COMMANDS["tune-cached"], "tune-cached", 2),
}


def _uncached_form(path: Path) -> bytes:
    """``_stripped`` bytes, with a meta record's ``cache_dir`` put back to null, as
    the golden run of a command without ``--cache-dir`` records it."""
    data = _stripped(path)
    first, _, rest = data.partition(b"\n")
    record = json.loads(first) if path.suffix == ".jsonl" else None
    if isinstance(record, dict) and "meta" in record:
        record["meta"]["config"]["cache_dir"] = None
        return encode_record(record) + rest
    return data


@pytest.mark.parametrize("name", RESUMED)
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_a_run_interrupted_at_a_provider_call_resumes_to_the_golden_bytes(
    tmp_path, monkeypatch, request_ledger, name, at
):
    """The provider goes down at its k-th call, for the first, the middle and the
    last of the n calls an uninterrupted cached run makes.  Run again on the same
    cache, the command sends exactly the requests that have no entry and writes
    the golden files; no temp file and no quarantined entry is left."""
    monkeypatch.chdir(tmp_path)
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    _write_inputs()
    if name != "augment":  # the pool that eval and tune read
        assert main(COMMANDS["augment"]) == 0
    argv, pinned, down_code = RESUMED[name]
    n = golden[f"distinct {pinned}"]
    k = {"first": 1, "middle": math.ceil(n / 2), "last": n}[at]
    before = set(Path(".").rglob("*"))

    complete, calls = ScriptedProvider.complete, itertools.count(1)

    def down_from_k(provider, request):
        if next(calls) >= k:
            raise ProviderUnavailable("endpoint down")
        return complete(provider, request)

    with monkeypatch.context() as outage, contextlib.redirect_stdout(io.StringIO()):
        outage.setattr(ScriptedProvider, "complete", down_from_k)
        assert main(argv) == down_code
    cached = {path.name for path in Path("cache").iterdir()}
    assert len(cached) == k - 1

    request_ledger.sent.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    entries = {path.name for path in Path("cache").iterdir()}
    sent = [request.key() for request in request_ledger.sent]
    assert len(sent) == len(set(sent)) and set(sent) == entries - cached
    assert len(entries) == n

    written = sorted(set(Path(".").rglob("*")) - before)
    assert not [p for p in written if p.name.endswith((".tmp", ".corrupt"))]
    outputs = [p for p in written if p.is_file() and p.parent.name != "cache"]
    assert outputs
    for path in outputs:
        assert hashlib.sha256(_uncached_form(path)).hexdigest() == golden[f"sha256 {path}"]
    if name == "tune":  # the golden run wrote this cache
        for path in Path("cache").iterdir():
            assert hashlib.sha256(_stripped(path)).hexdigest() == golden[f"sha256 {path}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        os.chdir(root)
        pins = run_commands(RequestLedger(patch))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(pins)} pins -> {MANIFEST}")
