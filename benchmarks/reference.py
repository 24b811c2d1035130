"""A fixed reference task, timed alternately with the benchmarked command.

The host this benchmark runs on is shared: its speed swings by 10-30% within
a minute and by up to a factor of two over a few minutes, for the command and
for any other code alike.  The reference task does the same kinds of work as
potselect (regex scans of prompts, JSON records, SHA-256 keys, small numpy
cosines and compiling short programs) but uses no potselect code, so no
change to the program can change its time.  Throughput counted in reference
runs rather than in seconds cancels most of the host's swings.
"""

from __future__ import annotations

import hashlib
import json
import re
import time

import numpy as np

PASSES = 9000  # about 0.35 s on a 2.1 GHz Xeon vCPU

_PROMPT = re.compile(r"Question: ([A-Z][a-z]+) has (\d+) ([a-z]+)[^\n]*\n# Python code, return ans\n")
_VECTORS = np.random.default_rng(0).standard_normal((64, 256))


def run_s(passes: int = PASSES) -> float:
    """Wall time of one run of the reference task."""
    start = time.perf_counter()
    seen = {}
    for i in range(passes):
        text = f"Question: Ava has {i} apples and buys {i % 7} more.\n# Python code, return ans\nans = {i}\n" * 6
        record = json.dumps({"prompt": text, "match": _PROMPT.search(text).groups(), "i": i}, sort_keys=True)
        seen[hashlib.sha256(record.encode()).hexdigest()[:8]] = json.loads(record)["i"]
        a, b = _VECTORS[i % 64], _VECTORS[(i * 7 + 1) % 64]
        float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        compile(f"x = {i} * 3\nans = x + 1\n", "<reference>", "exec")
    return time.perf_counter() - start


def units_per_ref(units: int, rep_s: list[float], ref_s: list[float]) -> float:
    """Median over repetitions of the units finished per reference run.

    ``ref_s`` holds one more time than ``rep_s``: repetition i ran between
    reference runs i and i + 1, and is measured against their mean.
    """
    if len(ref_s) != len(rep_s) + 1:
        raise ValueError(f"{len(rep_s)} repetitions need {len(rep_s) + 1} reference runs, not {len(ref_s)}")
    return float(np.median([units * (ref_s[i] + ref_s[i + 1]) / 2 / t for i, t in enumerate(rep_s)]))
