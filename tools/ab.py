"""Paired A/B runs of the benchmark: a base commit's ``src/`` against the working
tree's, on one workload, with the same harness on both sides.

Run it from anywhere:

    python tools/ab.py --workload tune --pairs 10            # base HEAD: uncommitted changes
    python tools/ab.py --workload eval --pairs 3 --base HEAD~1 --seconds 10

It assembles two trees under ``.bench_build/ab/``: ``parent/`` holds the base
commit's ``src/``, extracted with ``git archive``, and ``change/`` a copy of the
working tree's ``src/``.  Each also gets a copy of the working tree's
``benchmarks/`` and ``BENCHMARK.json``, as ``benchmarks/run.py`` runs the
``src/`` beside it.  No git state changes.  The pairs alternate which side
runs first.  Per end-to-end metric of ``BENCHMARK.json`` it prints every
run in pair order, each side's median and quartiles, and the pairs each side
won (ties count for neither).  It flags a median gap smaller than the
parent's interquartile range, which a claimed gain must exceed.  It exits 1
when a run is not ``correct``.  Each invocation rebuilds ``.bench_build/ab/``,
so run one at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, ``statistics.quantiles``' inclusive method;
    one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and pair wins of one metric; ``parent[i]`` and
    ``change[i]`` are pair i's runs, and ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    wins = {"parent": 0, "change": 0}
    for p, c in zip(parent, change, strict=True):
        if p != c:
            wins["change" if sign * (c - p) > 0 else "parent"] += 1
    p_q1, p_q3 = quartiles(parent)
    median = {"parent": statistics.median(parent), "change": statistics.median(change)}
    return {
        "median": median,
        "quartiles": {"parent": (p_q1, p_q3), "change": quartiles(change)},
        "wins": wins,
        "within_parent_iqr": abs(median["change"] - median["parent"]) < p_q3 - p_q1,
    }


def assemble(base: str) -> dict[str, Path]:
    """The two trees, rebuilt from scratch; return each side's root."""
    out = ROOT / ".bench_build" / "ab"
    shutil.rmtree(out, ignore_errors=True)
    roots = {side: out / side for side in SIDES}
    archive = subprocess.run(
        ["git", "archive", "--format=tar", base, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(roots["parent"], filter="data")
    shutil.copytree(ROOT / "src", roots["change"] / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for root in roots.values():
        shutil.copytree(ROOT / "benchmarks", root / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return roots


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` run in ``root``: its last output line, as JSON."""
    command = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root.name}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="the parent side's commit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    roots = assemble(args.base)
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(roots[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            print(f"pair {pair} {side}: correct={result['correct']}", flush=True)
    print(f"{args.workload}: {args.pairs} pairs, parent {args.base}, {args.seconds} s runs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        summary = summarize(values["parent"], values["change"], metric["better"])
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better)")
        for side in SIDES:
            q1, q3 = summary["quartiles"][side]
            print(
                f"  {side:6} median {_fmt(summary['median'][side])}  quartiles {_fmt(q1)}..{_fmt(q3)}"
                f"  pairs won {summary['wins'][side]}  runs {' '.join(map(_fmt, values[side]))}"
            )
        if summary["within_parent_iqr"]:
            print("  the median gap is smaller than the parent's interquartile range")
    failed = [side for side in SIDES for r in runs[side] if not r["correct"]]
    if failed:
        print(f"\nruns not correct: {len(failed)} ({', '.join(sorted(set(failed)))})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
