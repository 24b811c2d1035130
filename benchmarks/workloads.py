"""The three benchmark workloads: command lines, output checks and output digests.

A workload's unit is a seed for ``augment``, a question for ``eval`` and a
trial for ``tune``.  A unit fails when the command exits non-zero or when its
part of the output differs from what the generator predicts.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import generate

_CAUSE_TEXT = {
    "output mismatch": "output_mismatch",
    "completion contains no parseable answer block": "no_block",
    "step similarity below threshold": "step_similarity",
}


@dataclass
class Paths:
    """Where one repetition of a workload reads its inputs and writes its outputs."""

    inputs: dict[str, str]
    out: Path
    cache: Path

    def output_files(self) -> list[Path]:
        return sorted(p for p in self.out.parent.iterdir() if p.name.startswith(self.out.name))


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""


def argv(workload: str, paths: Paths, inputs: generate.Inputs) -> list[str]:
    common = ["--pool", paths.inputs["pool"], "--fixtures", paths.inputs["fixtures"], "--out", str(paths.out)]
    if workload == "augment":
        # no on-disk cache: its 3 500 file creations per command swung tenfold in
        # cost on a shared disk and drowned the augmentation work; tune writes the cache
        return ["augment", *common, "--stages", "1,2,3", "--iterations", str(generate.ITERATIONS)]
    if workload == "eval":
        return ["eval", *common, "--dataset", paths.inputs["dataset"]]
    # one example per prompt: the distinct prompts, and so the provider calls, then
    # depend little on the seed; eval measures the later picks and the pruning
    return ["tune", *common, "--dataset", paths.inputs["dataset"], "--cache-dir", str(paths.cache),
            "--budget", str(inputs.expect["units"]), "--max-chosen", "1"]


def records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cache_stats(directory: Path) -> dict[str, int]:
    """Entry count, entry bytes and quarantined entries of a cache directory.

    Counted here rather than by ``CacheStore.stats``, so that the quarantine
    check does not rest on the code it checks.
    """
    stats = {"entries": 0, "bytes": 0, "quarantined": 0}
    if directory.is_dir():
        for entry in directory.iterdir():
            if len(entry.name) == 64 and "." not in entry.name:
                stats["entries"] += 1
                stats["bytes"] += entry.stat().st_size
            elif entry.name.endswith(".corrupt"):
                stats["quarantined"] += 1
    return stats


def cause_class(record: dict) -> str | None:
    """Rejection cause of one attempt record, or its skip reason."""
    if record["skip_reason"]:
        return record["skip_reason"]
    report = record["report"]
    if record["accepted"] or report is None:
        return None
    return _CAUSE_TEXT.get(report["cause"], report["cause"])


def _digest(paths: Paths, drop_keys: tuple[str, ...] = ()) -> str:
    """Hash of every output file, minus per-record keys that hold wall-clock times."""
    h = hashlib.sha256()
    for path in paths.output_files():
        h.update(path.name.encode())
        if drop_keys:
            for record in records(path):
                for key in drop_keys:
                    record.pop(key, None)
                h.update(json.dumps(record, sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    # entries hold their creation time, so compare the cached keys only
    if paths.cache.is_dir():
        h.update("\n".join(sorted(p.name for p in paths.cache.iterdir())).encode())
    return h.hexdigest()


def check(workload: str, exit_code: int | str, paths: Paths, inputs: generate.Inputs) -> Outcome:
    units = inputs.expect["units"]
    if exit_code != 0:
        return Outcome(units, units, [f"{workload} exited with code {exit_code}"])
    try:
        outcome = {"augment": _check_augment, "eval": _check_eval, "tune": _check_tune}[workload](
            paths, inputs.expect
        )
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(units, units, [f"{workload} output is missing or malformed: {exc!r}"])
    quarantined = cache_stats(paths.cache)["quarantined"]
    if quarantined:
        outcome.problems.append(f"{quarantined} cache entries quarantined")
    return outcome


def _check_augment(paths: Paths, expect: dict) -> Outcome:
    pool = [r for r in records(paths.out) if "meta" not in r]
    attempts = records(Path(f"{paths.out}.attempts.jsonl"))
    seeds = {r["id"]: r for r in pool if "." not in r["id"]}
    products: dict[str, dict[int, dict]] = {}  # seed id -> stage -> product
    for r in pool:
        root, _, suffix = r["id"].partition(".")
        if suffix:
            products.setdefault(root, {})[int(r["id"][-1])] = r
    seen: dict[str, list[tuple]] = {}
    rejects: Counter = Counter()
    for r in attempts:
        cause = cause_class(r)
        # stage k's records name the stage k-1 product, whose id starts with the seed's
        seen.setdefault(r["seed_id"].partition(".")[0], []).append(
            (r["stage"], r["iteration"], r["attempt"], r["accepted"], cause)
        )
        if cause in generate.CAUSES:
            rejects[f"stage{r['stage']}.{cause}"] += 1
    failed = 0
    for seed_id, planned in expect["per_seed"].items():
        made = products.get(seed_id, {})
        seed = seeds.get(seed_id)
        # stages 1 and 2 echo the seed's program; stage 3 modifies it
        echoes = seed is not None and all(
            made[s]["answer_text"] == seed["answer_text"] for s in made if s < 3
        )
        if seen.get(seed_id) != planned["attempts"] or sorted(made) != planned["products"] or not echoes:
            failed += 1
    problems = []
    if len(pool) != expect["pool_size"]:
        problems.append(f"pool has {len(pool)} examples, expected {expect['pool_size']}")
    if dict(sorted(rejects.items())) != expect["rejects"]:
        problems.append(f"rejections {dict(rejects)} differ from {expect['rejects']}")
    return Outcome(expect["units"], failed, problems, _digest(paths))


def _check_eval(paths: Paths, expect: dict) -> Outcome:
    report = records(paths.out)
    items = {r["item_id"]: r for r in report if "item_id" in r}
    failed = 0
    for item_id, want in expect["items"].items():
        got = items.get(item_id)
        if got is None or got["gold_value"] != want["gold"]:
            failed += 1
            continue
        verdict, cause, value = got["verdict"], got["cause"] or "", got["value"]
        if want["verdict"] == "correct":
            ok = verdict == "correct" and value == want["value"] and not cause
        elif want["verdict"] == "wrong_value":
            ok = verdict == "incorrect" and value == want["value"] and cause == "wrong value"
        else:
            ok = verdict == "incorrect" and value is None and cause.startswith("parse:")
        failed += not ok
    problems = []
    summary = report[-1].get("summary", {})
    correct = sum(w["verdict"] == "correct" for w in expect["items"].values())
    if summary.get("n_items") != expect["units"] or summary.get("n_correct") != correct:
        problems.append(f"summary {summary} disagrees with {correct}/{expect['units']} correct")
    return Outcome(expect["units"], failed, problems, _digest(paths))


def _check_tune(paths: Paths, expect: dict) -> Outcome:
    from potselect.tuning import TpeParams

    log = records(Path(f"{paths.out}.trials.jsonl"))
    trials = [r for r in log if "seq" in r]
    accuracies = {k / expect["items"] for k in range(expect["items"] + 1)}
    valid = 0
    for seq, trial in enumerate(trials[: expect["units"]]):
        point = trial.get("point", [])
        valid += (
            trial["seq"] == seq
            and len(point) == 4
            and all(0.0 <= v <= 1.0 for v in point)
            and any(math.isclose(trial["objective"], a) for a in accuracies)
        )
    problems = []
    if len(trials) != expect["units"]:
        problems.append(f"{len(trials)} trials logged, expected {expect['units']}")
    fitted = fitted_suggestions([t["objective"] for t in trials], TpeParams().n_startup)
    if fitted == 0:
        problems.append("no suggestion came from a fitted TPE model")
    weights = json.loads(paths.out.read_text(encoding="utf-8"))
    best = max(trials, key=lambda t: t["objective"]) if trials else {"point": None}
    if trials and [weights[k] for k in ("relevance", "concept", "complexity", "similarity")] != best["point"]:
        problems.append("weights file is not the best trial's point")
    return Outcome(expect["units"], expect["units"] - valid, problems, _digest(paths, ("timestamp",)))


def fitted_suggestions(objectives: list[float], n_startup: int) -> int:
    """Trials whose point TPE drew from fitted densities: enough history, not all equal."""
    return sum(
        1 for seq in range(n_startup, len(objectives))
        if max(objectives[:seq]) > min(objectives[:seq])
    )
