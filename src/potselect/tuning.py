"""Metric-weight learning by Tree-structured Parzen Estimator search.

Maximizes an objective (by default: selection-pipeline accuracy over a
training subset) inside a box search space.  Trials before ``n_startup``
are uniform random; afterwards the history is split at the gamma-quantile
of the objective into good/bad sets, per-dimension Parzen densities
(bound-truncated Gaussian kernels plus a uniform prior component) are
fitted to each, and the candidate maximizing the good/bad density ratio is
suggested.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.stats import truncnorm

from .augmentation import MalformedRecord, read_jsonl
from .providers import Services
from .selection import SelectionConfig, Weights


@dataclass(frozen=True)
class SearchSpace:
    bounds: tuple[tuple[float, float], ...] = (((0.0, 1.0),) * 4)

    def __post_init__(self) -> None:
        for low, high in self.bounds:
            if not low < high:
                raise ValueError(f"need low < high per dimension, got ({low}, {high})")

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    def contains(self, point) -> bool:
        return all(
            low <= value <= high for value, (low, high) in zip(point, self.bounds, strict=True)
        )

    def uniform(self, rng: np.random.Generator) -> np.ndarray:
        lows = np.array([b[0] for b in self.bounds])
        highs = np.array([b[1] for b in self.bounds])
        return rng.uniform(lows, highs)


@dataclass(frozen=True)
class Trial:
    seq: int
    point: tuple[float, ...]
    objective: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.objective):
            raise ValueError("objective must be finite")


@dataclass
class TrialHistory:
    trials: list[Trial] = field(default_factory=list)
    rng_seed: int = 0

    def append(self, trial: Trial) -> None:
        if self.trials and trial.seq <= self.trials[-1].seq:
            raise ValueError("trial seq must be strictly increasing")
        self.trials.append(trial)

    def __len__(self) -> int:
        return len(self.trials)


@dataclass(frozen=True)
class TpeParams:
    n_startup: int = 10
    gamma: float = 0.25
    n_candidates: int = 24

    def __post_init__(self) -> None:
        if self.n_startup < 1 or self.n_candidates < 1:
            raise ValueError("n_startup and n_candidates must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")


class _Parzen1D:
    """Mixture of bound-truncated Gaussians plus one uniform prior component.

    Kernel bandwidths follow the neighbor-spacing rule, floored at 1% of the
    interval and capped at the interval width.  All components share weight
    1/(k+1), so the pdf is strictly positive on [low, high].
    """

    def __init__(self, values: Sequence[float], low: float, high: float):
        self.low = low
        self.high = high
        mus = np.sort(np.asarray(values, dtype=np.float64))
        width = high - low
        k = mus.size
        if k >= 2:
            left = np.diff(np.concatenate(([low], mus)))
            right = np.diff(np.concatenate((mus, [high])))
            # count-scaled floor keeps duplicate/clustered points from
            # collapsing to near-delta kernels and stalling the search
            floor = max(width * 1e-2, width / (1 + k))
            sigmas = np.clip(np.maximum(left, right), floor, width)
        elif k == 1:
            sigmas = np.array([width])
        else:
            sigmas = np.empty(0)
        self.mus = mus
        self.sigmas = sigmas

    def pdf(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        k = self.mus.size
        total = np.full(xs.shape, 1.0 / (self.high - self.low))
        if k:
            a = (self.low - self.mus) / self.sigmas
            b = (self.high - self.mus) / self.sigmas
            kernels = truncnorm.pdf(
                xs[..., None], a[None, :], b[None, :], loc=self.mus[None, :],
                scale=self.sigmas[None, :],
            )
            total = total + kernels.sum(axis=-1)
        return total / (k + 1)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        k = self.mus.size
        components = rng.integers(0, k + 1, size=size)
        out = np.empty(size)
        uniform_mask = components == k
        out[uniform_mask] = rng.uniform(self.low, self.high, size=int(uniform_mask.sum()))
        if k:
            idx = components[~uniform_mask]
            if idx.size:
                a = (self.low - self.mus[idx]) / self.sigmas[idx]
                b = (self.high - self.mus[idx]) / self.sigmas[idx]
                out[~uniform_mask] = truncnorm.rvs(
                    a, b, loc=self.mus[idx], scale=self.sigmas[idx], random_state=rng
                )
        return out


def tpe_suggest(
    history: TrialHistory, space: SearchSpace, params: TpeParams = TpeParams()
) -> np.ndarray:
    """Suggest the next point; deterministic given (seed, history).

    Uniform random below ``n_startup`` trials and on degenerate histories
    (all objectives equal).  Suggestions always lie inside the space.
    """
    rng = np.random.default_rng([abs(history.rng_seed) % 2**32, len(history.trials)])
    trials = history.trials
    if len(trials) < params.n_startup:
        return space.uniform(rng)
    objectives = np.array([t.objective for t in trials])
    if np.ptp(objectives) == 0.0:
        return space.uniform(rng)

    n_good = max(1, int(np.ceil(params.gamma * len(trials))))
    order = np.argsort(-objectives, kind="stable")
    points = np.array([t.point for t in trials], dtype=np.float64)
    good = points[order[:n_good]]
    bad = points[order[n_good:]]

    candidates = np.empty((params.n_candidates, space.ndim))
    log_ratio = np.zeros(params.n_candidates)
    for d, (low, high) in enumerate(space.bounds):
        good_density = _Parzen1D(good[:, d], low, high)
        bad_density = _Parzen1D(bad[:, d], low, high)
        xs = good_density.sample(rng, params.n_candidates)
        candidates[:, d] = xs
        log_ratio += np.log(good_density.pdf(xs)) - np.log(bad_density.pdf(xs))
    return candidates[int(np.argmax(log_ratio))]


def best_trial(history: TrialHistory) -> Trial:
    """Argmax objective; ties resolve to the earliest trial."""
    if not history.trials:
        raise ValueError("history is empty")
    best = history.trials[0]
    for trial in history.trials[1:]:
        if trial.objective > best.objective:
            best = trial
    return best


def optimize(
    objective: Callable[[np.ndarray], float],
    space: SearchSpace,
    budget: int,
    seed: int = 0,
    params: TpeParams = TpeParams(),
    history: TrialHistory | None = None,
    log_path: str | Path | None = None,
) -> TrialHistory:
    """Run ``budget`` new trials, appending to ``history`` when resuming.

    Each trial is persisted to ``log_path`` as soon as it completes, so an
    aborted run leaves a resumable partial history behind.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if history is None:
        history = TrialHistory(rng_seed=seed)
    log_fh = None
    if log_path is not None:
        path = Path(log_path)
        fresh = not path.exists() or path.stat().st_size == 0
        log_fh = open(path, "a", encoding="utf-8")
        if fresh:
            log_fh.write(json.dumps({"rng_seed": history.rng_seed}) + "\n")
            log_fh.flush()
    try:
        for _ in range(budget):
            point = tpe_suggest(history, space, params)
            value = float(objective(point))
            trial = Trial(seq=len(history.trials), point=tuple(float(v) for v in point), objective=value)
            history.append(trial)
            if log_fh is not None:
                record = {**asdict(trial), "timestamp": datetime.now(timezone.utc).isoformat()}
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")
                log_fh.flush()
    finally:
        if log_fh is not None:
            log_fh.close()
    return history


def load_history(path: str | Path) -> TrialHistory:
    """Rebuild a TrialHistory from a trial log."""
    history = TrialHistory()
    for line_no, record in read_jsonl(path):
        if "rng_seed" in record and "seq" not in record:
            history.rng_seed = record["rng_seed"]
            continue
        try:
            history.append(Trial(record["seq"], tuple(record["point"]), record["objective"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord(line_no, f"not a trial: {exc!r}") from None
    return history


def accuracy_objective(
    weights: Weights,
    train_pool,
    train_set,
    services: Services,
    selection_config_template: SelectionConfig | None = None,
    metrics_memo: dict[str, list] | None = None,
) -> float:
    """Fraction of training items solved by the full select/prompt/execute pipeline."""
    from .evalharness import evaluate

    template = selection_config_template or SelectionConfig()
    config = replace(template, weights=weights)
    report = evaluate(train_set, train_pool, config, services, metrics_memo=metrics_memo)
    return report.accuracy


def tune_weights(
    train_pool,
    train_set,
    budget: int,
    seed: int,
    services: Services,
    selection_config_template: SelectionConfig | None = None,
    *,
    objective: Callable[[np.ndarray], float] | None = None,
    log_path: str | Path | None = None,
) -> Weights:
    """TPE-search the weight box and return the best-scoring point as Weights.

    The selection metrics do not depend on the weights, so the accuracy
    objective computes each training item's metric rows on its first trial
    and reuses them on every later one.  Like the response cache, this
    assumes a prompt's response does not change between trials.
    """
    if objective is None:
        metrics_memo: dict[str, list] = {}

        def objective(point: np.ndarray) -> float:
            return accuracy_objective(
                Weights.from_array(point), train_pool, train_set, services,
                selection_config_template, metrics_memo,
            )

    history = optimize(objective, SearchSpace(), budget, seed=seed, log_path=log_path)
    return Weights.from_array(best_trial(history).point)
