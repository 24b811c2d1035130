"""Span tracing around potselect's public functions, from the benchmark's side.

A ``Tracer`` replaces each traced function where callers look it up: the
module attribute for module-level functions, including the modules that
import a name directly, and the class attribute for methods.  Each call
records a span (id, parent id, name, start, end, run id) in memory.
``uninstall`` puts every original back, so an untraced run measures
unpatched code.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

Span = tuple[int, "int | None", str, float, float, int]  # id, parent, name, start, end, run
Observer = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, self.run_id))
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, owner: object, attr: str, name: str, observe: Observer | None = None) -> None:
        # a class's own dict holds the plain function, not a bound method
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def reset(self, run_id: int) -> None:
        """Start a new run: drop the spans and counts of the previous one."""
        self.spans.clear()
        self.counts.clear()
        self.run_id = run_id

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end, _ in spans:
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def per_name(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Call count and total self time for each span name."""
    own = self_times(spans)
    calls: Counter = Counter()
    total: defaultdict[str, float] = defaultdict(float)
    for span_id, _, name, _, _, _ in spans:
        calls[name] += 1
        total[name] += own[span_id]
    return {name: (calls[name], total[name]) for name in calls}


# --- what the benchmark traces in potselect ------------------------------------


def _cache_get(counts: Counter, args, kwargs, result) -> None:
    counts["cache.hits" if result is not None else "cache.misses"] += 1


def _selection(counts: Counter, args, kwargs, result) -> None:
    config = args[2] if len(args) > 2 else kwargs["config"]
    counts["selection.results"] += 1
    counts["selection.chosen"] += len(result.chosen)
    counts["selection.prunes"] += sum(1 for r in result.trace if r.pruned_id is not None)
    if any(r.stop == "epsilon" for r in result.trace):
        counts["selection.stop.epsilon"] += 1
    elif len(result.chosen) == config.max_chosen:
        counts["selection.stop.max_chosen"] += 1


_EVAL_CAUSES = ("wrong value", "parse", "execute", "provider", "selection")


def _evaluation(counts: Counter, args, kwargs, report) -> None:
    for item in report.items:
        for cause in _EVAL_CAUSES:
            if item.cause and item.cause.startswith(cause):
                counts["evalharness.cause." + cause.replace(" ", "_")] += 1


def install_potselect(tracer: Tracer) -> None:
    """Trace each layer boundary of potselect that the benchmark reports on."""
    from potselect import augmentation, cache, cli, evalharness, interpreter, providers, selection, tuning

    points = [
        (cli, "main", "cli.main", None),
        (interpreter, "parse", "interpreter.parse", None),
        (interpreter, "parse_line", "interpreter.parse_line", None),
        (interpreter, "execute", "interpreter.execute", None),
        (interpreter, "modify_answer", "interpreter.modify_answer", None),
        (interpreter, "complexity", "interpreter.complexity", None),
        (providers.ScriptedProvider, "complete", "providers.complete", None),
        (providers.Services, "complete_text", "providers.complete_text", None),
        (providers.Services, "embed", "providers.embed", None),
        (providers.HashEmbedding, "embed", "providers.embed_model", None),
        (selection, "cosine", "providers.cosine", None),
        (augmentation, "cosine", "providers.cosine", None),
        (cache.CacheStore, "get", "cache.get", _cache_get),
        (cache.CacheStore, "put", "cache.put", None),
        (augmentation, "augment_pool", "augmentation.augment_pool", None),
        (augmentation, "check_consistency", "augmentation.check_consistency", None),
        (augmentation, "extract_answer_block", "augmentation.extract_answer_block", None),
        (evalharness, "extract_answer_block", "augmentation.extract_answer_block", None),
        (augmentation.ExamplePool, "get", "augmentation.pool_get", None),
        (evalharness, "select_examples", "selection.select_examples", _selection),
        (selection, "calculate_metrics", "selection.calculate_metrics", None),
        (selection, "concept_extract", "selection.concept_extract", None),
        (selection, "rough_answer", "selection.rough_answer", None),
        (tuning, "tpe_suggest", "tuning.tpe_suggest", None),
        (tuning.SearchSpace, "uniform", "tuning.uniform", None),
        (tuning, "accuracy_objective", "tuning.accuracy_objective", None),
        (evalharness, "evaluate", "evalharness.evaluate", _evaluation),
    ]
    for owner, attr, name, observe in points:
        tracer.install(owner, attr, name, observe)
