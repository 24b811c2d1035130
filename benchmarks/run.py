"""Offline benchmark of potselect's augment, eval and tune commands.

Usage, from the repository root:

    python3 benchmarks/run.py --workload {augment,eval,tune,all} --seed N --seconds S --trace {0,1}

The run generates seeded inputs, then calls ``potselect.cli.main(argv)``
in-process, one closed-loop caller on one thread, repeating the command
until ``--seconds`` have passed.  With ``--trace 0`` the repetitions
alternate with the fixed task of ``reference.py``, and throughput is counted
per reference run.  Every repetition's output is checked.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds a traced
phase and reports per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object.  ``--workload all`` runs each
workload in its own process and reports them together.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import generate
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3

# Reported with --trace 0.  failed_ratio is printed beside them but carried in the
# result's "attempted" and "failed" fields: it is 0 on a passing run, and a
# reported end-to-end metric must never be 0.
END_TO_END = {
    "setup_s": "s",
    "units_per_ref": "1/ref",
    "provider_calls": "count",
    "peak_rss_mb": "MB",
}

# (name, unit, better); a ".calls" or ".self_s" name is read off the spans of that name
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("interpreter.parse.calls", "count", "lower"),
    ("interpreter.parse.self_s", "s", "lower"),
    ("interpreter.parse_line.calls", "count", "lower"),
    ("interpreter.execute.calls", "count", "lower"),
    ("interpreter.execute.self_s", "s", "lower"),
    ("interpreter.modify_answer.calls", "count", "lower"),
    ("interpreter.complexity.calls", "count", "lower"),
    ("providers.complete.calls", "count", "lower"),
    ("providers.complete.self_s", "s", "lower"),
    ("providers.complete_text.calls", "count", "lower"),
    ("providers.embed.calls", "count", "lower"),
    ("providers.embed_model.calls", "count", "lower"),
    ("providers.embed_model.self_s", "s", "lower"),
    ("providers.embed_memo_hit_ratio", "ratio", "higher"),
    ("providers.cosine.calls", "count", "lower"),
    ("providers.cosine.self_s", "s", "lower"),
    ("cache.get.calls", "count", "lower"),
    ("cache.get.self_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.put.calls", "count", "lower"),
    ("cache.put.self_s", "s", "lower"),
    ("cache.entries", "count", "lower"),
    ("cache.bytes", "bytes", "lower"),
    ("cache.quarantined", "count", "lower"),
    ("augmentation.augment_pool.self_s", "s", "lower"),
    ("augmentation.check_consistency.calls", "count", "lower"),
    ("augmentation.check_consistency.self_s", "s", "lower"),
    ("augmentation.extract_answer_block.calls", "count", "lower"),
    ("augmentation.extract_answer_block.self_s", "s", "lower"),
    ("augmentation.pool_get.calls", "count", "lower"),
    ("augmentation.attempts", "count", "lower"),
    ("augmentation.accepted", "count", "higher"),
    ("augmentation.accept_ratio", "ratio", "higher"),
    ("augmentation.reject.output_mismatch", "count", "lower"),
    ("augmentation.reject.no_block", "count", "lower"),
    ("augmentation.reject.step_similarity", "count", "lower"),
    ("selection.select_examples.calls", "count", "lower"),
    ("selection.select_examples.self_s", "s", "lower"),
    ("selection.calculate_metrics.calls", "count", "lower"),
    ("selection.calculate_metrics.self_s", "s", "lower"),
    ("selection.concept_extract.calls", "count", "lower"),
    ("selection.rough_answer.calls", "count", "lower"),
    ("selection.chosen_mean", "count", "lower"),
    ("selection.prunes", "count", "lower"),
    ("selection.stop.epsilon", "count", "lower"),
    ("selection.stop.max_chosen", "count", "lower"),
    ("tuning.tpe_suggest.calls", "count", "lower"),
    ("tuning.tpe_suggest.self_s", "s", "lower"),
    ("tuning.tpe_fitted", "count", "higher"),
    ("tuning.accuracy_objective.calls", "count", "lower"),
    ("tuning.accuracy_objective.self_s", "s", "lower"),
    ("evalharness.evaluate.self_s", "s", "lower"),
    ("evalharness.cause.wrong_value", "count", "lower"),
    ("evalharness.cause.parse", "count", "lower"),
    ("evalharness.cause.execute", "count", "lower"),
    ("evalharness.cause.provider", "count", "lower"),
    ("evalharness.cause.selection", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Bench:
    """One workload's inputs, working directory and repetitions in this process."""

    def __init__(self, workload: str, inputs: generate.Inputs, work: Path):
        self.workload = workload
        self.inputs = inputs
        self.paths = workloads.Paths(
            inputs=self.inputs.write(work / "inputs"), out=work / "out" / "result.jsonl", cache=work / "cache"
        )
        self.argv = workloads.argv(workload, self.paths, self.inputs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = ""
        self.runs = 0
        self._old = work / "old"  # earlier repetitions' directories, removed with ``work``

    def rep(self) -> float:
        """Run the command once on fresh output and cache directories; return its wall time."""
        from potselect import cli

        # moved aside, not deleted: unlinking thousands of cache entries would
        # slow the file system during the next timed repetition
        self._old.mkdir(exist_ok=True)
        for directory in (self.paths.out.parent, self.paths.cache):
            if directory.exists():
                directory.rename(self._old / f"{directory.name}-{self.runs}")
        self.paths.out.parent.mkdir(parents=True)
        self.runs += 1
        captured = io.StringIO()
        gc.collect()  # the previous repetition's garbage is not this one's cost
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = cli.main(self.argv)
            except Exception as exc:  # a crash fails the repetition, not the benchmark
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        outcome = workloads.check(self.workload, code, self.paths, self.inputs)
        if code != 0:
            outcome.problems.append(captured.getvalue().strip()[-500:])
        self.reference = self.reference or outcome.digest
        if outcome.digest != self.reference:
            outcome.failed = outcome.attempted
            outcome.problems.append("output differs from the first repetition")
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(p for p in outcome.problems if p not in self.problems)
        return elapsed

    def reps(self, seconds: float) -> list[float]:
        times: list[float] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.rep())
        return times

    def paired_reps(self, seconds: float) -> tuple[list[float], list[float]]:
        """Repetitions alternating with the reference task, which runs first and after each one."""
        times, refs = [], [reference.run_s()]
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.rep())
            refs.append(reference.run_s())
        return times, refs

    def counted_rep(self) -> int:
        """One warm-up repetition that counts provider calls; restores the provider after."""
        from potselect import providers

        tracer = spans.Tracer()
        tracer.install(providers.ScriptedProvider, "complete", "providers.complete")
        try:
            self.rep()
        finally:
            tracer.uninstall()
        return len(tracer.spans)

    def traced_reps(self, seconds: float, spans_path: Path) -> tuple[list[float], dict]:
        tracer = spans.Tracer()
        spans.install_potselect(tracer)
        times, per_rep = [], []
        start = time.perf_counter()
        try:
            while not times or time.perf_counter() - start < seconds:
                tracer.reset(run_id=len(times))
                times.append(self.rep())
                per_rep.append(self.layer_values(tracer))
        finally:
            tracer.uninstall()
        tracer.write(spans_path)
        return times, self.combine(per_rep)

    def layer_values(self, tracer: spans.Tracer) -> dict[str, float]:
        stats = spans.per_name(tracer.spans)
        counts = tracer.counts

        def calls(name: str) -> int:
            return stats.get(name, (0, 0.0))[0]

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        values: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls(base)
            elif kind == "self_s":
                values[name] = stats.get(base, (0, 0.0))[1]
        embeds = calls("providers.embed")
        values["providers.embed_memo_hit_ratio"] = ratio(embeds - calls("providers.embed_model"), embeds)
        for key in ("cache.hits", "cache.misses", "selection.prunes", "selection.stop.epsilon",
                    "selection.stop.max_chosen") + tuple(n for n, _, _ in PER_LAYER if ".cause." in n):
            values[key] = counts[key]
        values["cache.hit_ratio"] = ratio(counts["cache.hits"], calls("cache.get"))
        for key, value in workloads.cache_stats(self.paths.cache).items():
            values[f"cache.{key}"] = value
        values["selection.chosen_mean"] = ratio(counts["selection.chosen"], counts["selection.results"])
        values["tuning.tpe_fitted"] = calls("tuning.tpe_suggest") - calls("tuning.uniform")
        values.update(self.attempt_values())
        return values

    def attempt_values(self) -> dict[str, float]:
        path = Path(f"{self.paths.out}.attempts.jsonl")
        records = workloads.records(path) if path.exists() else []
        tried = [r for r in records if not r["skip_reason"]]
        accepted = sum(r["accepted"] for r in tried)
        values = {
            "augmentation.attempts": len(tried),
            "augmentation.accepted": accepted,
            "augmentation.accept_ratio": accepted / len(tried) if tried else 0.0,
        }
        for cause in generate.CAUSES:
            values[f"augmentation.reject.{cause}"] = sum(workloads.cause_class(r) == cause for r in tried)
        return values

    def combine(self, per_rep: list[dict]) -> dict[str, float]:
        """Times are medians over repetitions; counts must repeat exactly."""
        out = {}
        for name, unit, _ in PER_LAYER:
            if name not in per_rep[0]:
                continue
            values = [rep[name] for rep in per_rep]
            if unit in ("count", "ratio"):
                if len(set(values)) > 1:
                    self.problems.append(f"{name} differs between repetitions: {values}")
                out[name] = values[-1]
            else:
                out[name] = statistics.median(values)
        return out


def measure_setup(samples: int) -> float:
    """Median wall time from a fresh interpreter to ``potselect.cli`` imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import potselect.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import potselect.cli  # noqa: F401  (compiles bytecode before set-up is timed)

    if not Path(potselect.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"potselect imported from {potselect.cli.__file__}, not {SRC}")
    setup_s = measure_setup(SETUP_SAMPLES)
    build = ROOT / ".bench_build"
    work = build / f"potselect-{workload}-{os.getpid()}"
    try:
        bench = Bench(workload, generate.WORKLOADS[workload](seed), work)
        calls = bench.counted_rep()
        expected = bench.inputs.expect.get("provider_calls", calls)
        if calls != expected:
            bench.problems.append(f"{calls} provider calls, expected {expected}")
        if trace:
            plain = bench.reps(seconds / 2)
            traced, metrics = bench.traced_reps(seconds / 2, build / f"spans-{workload}-{seed}.jsonl")
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
            units = PER_LAYER_UNITS
        else:
            reference.run_s()  # warm-up
            times, refs = bench.paired_reps(seconds)
            units_count = bench.inputs.expect["units"]
            # the raw figures swing with the shared host, so they are printed but not reported
            print(f"{workload} units_per_s {statistics.median(units_count / t for t in times):.6g} 1/s")
            print(f"{workload} reference_s {statistics.median(refs):.6g} s")
            metrics = {
                "setup_s": setup_s,
                "units_per_ref": reference.units_per_ref(units_count, times, refs),
                "provider_calls": calls,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems:
        print(f"{workload} problem: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    print(f"{workload} failed_ratio {bench.failed / bench.attempted:.6g} ratio")
    return {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own fresh process; metric names gain a workload prefix."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in generate.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{workload} run failed with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        child = json.loads(lines[-1])
        result["correct"] = result["correct"] and child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            result["metrics"][f"{workload}.{name}"] = metric
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*generate.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "potselect" / "cli.py").is_file():
        print(f"no potselect sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
