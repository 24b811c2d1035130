"""Metric-weight learning by Tree-structured Parzen Estimator search.

Maximizes an objective (by default: selection-pipeline accuracy over a
training subset) over the weight box [0, 1]^4, one dimension per metric
weight.  The schedule is the fixed one of ``TpeParams``: the first 10
trials are uniform random; afterwards the history is split at the
0.25-quantile of the objective into good/bad sets, per-dimension Parzen
densities (Gaussian kernels truncated to [0, 1] plus a uniform prior
component) are fitted to each, all dimensions as one batch, and of 24
candidates drawn from the good densities the one maximizing the good/bad
density ratio is suggested.

The kernels are scipy's truncnorm density and inverse-cdf sampler
written out with scipy.special, operation for operation, so results are
bit-identical to truncnorm's.  The inverse cdf's logsumexp is a numpy port
of scipy's; only the left-tail mass of a kernel centred on the upper bound
calls scipy's own.  scipy.special is imported only once a density is fitted.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from .providers import ProviderError, Services
from .records import encode_record
from .selection import EmptyPool, SelectionConfig, Weights


@dataclass(frozen=True)
class SearchSpace:
    """The weight box [0, 1]^ndim, one dimension per field of ``Weights``."""

    ndim = len(fields(Weights))

    def contains(self, points) -> np.ndarray:
        """Whether each point (the last axis of ``points``) lies in the box; NaN lies outside."""
        points = np.asarray(points, dtype=np.float64)
        return ((0.0 <= points) & (points <= 1.0)).all(axis=-1)

    def uniform(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(np.zeros(self.ndim), np.ones(self.ndim))


@dataclass(frozen=True)
class Trial:
    """One evaluated point of the weight box; a point of the wrong length or
    outside the box, NaN included, raises ValueError naming the trial."""

    seq: int
    point: tuple[float, ...]
    objective: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.objective):
            raise ValueError("objective must be finite")
        if len(self.point) != SearchSpace.ndim or not SearchSpace().contains(self.point):
            raise ValueError(f"trial {self.seq} point {self.point} lies outside the space")


@dataclass
class TrialHistory:
    trials: list[Trial] = field(default_factory=list)
    rng_seed: int = 0


class TpeParams:
    """The fixed TPE schedule: uniform draws for the first ``n_startup`` trials,
    then a good set of the top ``ceil(gamma * n)`` trials and ``n_candidates``
    samples from its density.  Every fit therefore has at least 3 good and 7
    bad kernels."""

    n_startup = 10
    gamma = 0.25
    n_candidates = 24


_LOG_SQRT_2PI = 0.9189385332046727  # log(sqrt(2 pi)), rounded as scipy's truncnorm has it


def _log_gauss_mass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(Phi(b) - Phi(a)) per kernel for a <= 0 <= b, as scipy's truncnorm computes it.

    Scipy uses a central formula when b > 0 and a left-tail one when b == 0
    (a kernel centred on the upper bound); the two differ in the last ulp.
    A kernel centred below the box (a > 0) would take a third formula, which
    ``Trial`` rules out by rejecting points outside the space.
    """
    from scipy.special import log1p, log_ndtr, ndtr

    log_mass = log1p(-ndtr(a) - ndtr(-b))
    left = b <= 0
    if left.any():
        # Only a kernel centred exactly on the upper bound gets here, so this
        # complex log(x - y) keeps scipy's logsumexp and its array-API overhead.
        from scipy.special import logsumexp

        terms = [log_ndtr(b[left]), log_ndtr(a[left]) + np.pi * 1j]  # log(x - y)
        log_mass[left] = np.real(logsumexp(terms, axis=0))
    return log_mass


def _logaddexp(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp([x, y], axis=0)`` for real x and y, operation for operation.

    np.logaddexp differs in the last ulp.  Scipy takes another path where
    the result is not finite (both terms -inf, or either +inf); the kernels
    never get there, as x is the finite log_ndtr of a kernel's bound.
    Scipy's division of the sum by the tie count ``m`` is left out: with two
    terms, a tie makes the sum 0 and no tie makes ``m`` 1.
    """
    hi = np.maximum(x, y)
    x_tied, y_tied = x == hi, y == hi
    m = x_tied.astype(np.float64) + y_tied
    s = np.exp(np.where(x_tied, -np.inf, x) - hi) + np.exp(np.where(y_tied, -np.inf, y) - hi)
    return np.log1p(s) + np.log(m) + hi


class _Parzen1D:
    """One-dimensional Parzen densities on [0, 1], one per row of ``values``
    (shape ``(..., k)``): a mixture of Gaussians truncated to [0, 1] plus one
    uniform prior component.

    Kernel bandwidths follow the neighbor-spacing rule, floored at 0.01; no
    spacing on [0, 1] exceeds 1.  All components share weight 1/(k+1), so the pdf is
    strictly positive on [0, 1].  Every kernel centre must lie in [0, 1].
    ``tpe_suggest`` fits at least 3 kernels per row (see ``TpeParams``); the
    rule is the same for any k, and k = 0 leaves only the uniform component.
    Each row computes exactly what a fit of that row alone computes.
    """

    def __init__(self, values: np.ndarray):
        mus = np.sort(np.asarray(values, dtype=np.float64), axis=-1)
        low, high = 0.0, 1.0
        left = np.diff(mus, axis=-1, prepend=low)
        right = np.diff(mus, axis=-1, append=high)
        # count-scaled floor keeps duplicate/clustered points from
        # collapsing to near-delta kernels and stalling the search
        floor = max(1e-2, 1 / (1 + mus.shape[-1]))
        self.mus = mus
        self.sigmas = np.maximum(np.maximum(left, right), floor)
        # each kernel's bounds in its own standard units, and its mass between them
        self.a = (low - mus) / self.sigmas
        self.b = (high - mus) / self.sigmas
        self.log_mass = _log_gauss_mass(self.a, self.b)

    def pdf(self, xs: np.ndarray) -> np.ndarray:
        """Each row's density at that row's points ``xs`` (shape ``(..., n)``)."""
        mus, sigmas, a, b, log_mass = (
            v[..., None, :] for v in (self.mus, self.sigmas, self.a, self.b, self.log_mass)
        )
        z = (np.asarray(xs, dtype=np.float64)[..., None] - mus) / sigmas
        density = np.exp(-z**2 / 2.0 - _LOG_SQRT_2PI - log_mass) / sigmas
        kernels = np.where((a <= z) & (z <= b), density, 0.0)
        total = 1.0 + kernels.sum(axis=-1)
        return total / (self.mus.shape[-1] + 1)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws per row, shape ``(..., size)``.

        Row by row, the draws are a one-row fit's: the components, the
        uniform component's points, then the kernels' quantiles.  One inverse
        cdf then turns every row's quantiles into points.
        """
        *shape, k = self.mus.shape
        rows = math.prod(shape)
        out = np.empty((rows, size))
        components = np.empty((rows, size), dtype=np.int64)
        quantiles = []
        for row in range(rows):
            components[row] = rng.integers(0, k + 1, size=size)
            uniform_mask = components[row] == k
            n_uniform = int(uniform_mask.sum())
            out[row, uniform_mask] = rng.uniform(0.0, 1.0, size=n_uniform)
            quantiles.append(rng.uniform(size=size - n_uniform))
        drawn = components < k
        idx = (np.arange(rows)[:, None] * k + components)[drawn]  # flat kernel index
        z = self._ppf(np.concatenate(quantiles), idx)
        out[drawn] = z * self.sigmas.flat[idx] + self.mus.flat[idx]
        return out.reshape(*shape, size)

    def _ppf(self, q: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Standard-unit quantiles ``q`` of kernels ``idx`` (flat indices): truncnorm's inverse cdf.

        Kernels with a < 0 invert from the left tail, the others from the right.
        """
        from scipy.special import log_ndtr, ndtri_exp

        a, b, log_mass = self.a.flat[idx], self.b.flat[idx], self.log_mass.flat[idx]
        out = np.empty_like(q)
        left = a < 0
        right = ~left
        out[left] = ndtri_exp(_logaddexp(log_ndtr(a[left]), np.log(q[left]) + log_mass[left]))
        out[right] = -ndtri_exp(
            _logaddexp(log_ndtr(-b[right]), np.log1p(-q[right]) + log_mass[right])
        )
        return out


def tpe_suggest(history: TrialHistory) -> np.ndarray:
    """Suggest the next point of the weight box; deterministic given (seed, history).

    Uniform random below ``TpeParams.n_startup`` trials and on degenerate
    histories (all objectives equal).  Suggestions always lie inside the
    box, as every ``Trial`` does.
    """
    rng = np.random.default_rng([abs(history.rng_seed) % 2**32, len(history.trials)])
    trials = history.trials
    space = SearchSpace()
    if len(trials) < TpeParams.n_startup:
        return space.uniform(rng)
    objectives = np.array([t.objective for t in trials])
    if np.ptp(objectives) == 0.0:
        return space.uniform(rng)

    points = np.array([t.point for t in trials], dtype=np.float64)
    n_good = int(np.ceil(TpeParams.gamma * len(trials)))
    order = np.argsort(-objectives, kind="stable")
    good_density = _Parzen1D(points[order[:n_good]].T)
    bad_density = _Parzen1D(points[order[n_good:]].T)
    candidates = good_density.sample(rng, TpeParams.n_candidates)  # one row per dimension
    terms = np.log(good_density.pdf(candidates)) - np.log(bad_density.pdf(candidates))
    log_ratio = np.zeros(TpeParams.n_candidates)
    for term in terms:  # dimension by dimension from zeros: a fixed order of additions
        log_ratio += term
    return candidates[:, int(np.argmax(log_ratio))]


def best_trial(history: TrialHistory) -> Trial:
    """Argmax objective; ties resolve to the earliest trial."""
    if not history.trials:
        raise ValueError("history is empty")
    return max(history.trials, key=lambda trial: trial.objective)  # the first of equals


def optimize(
    objective: Callable[[np.ndarray], float],
    budget: int,
    seed: int = 0,
    log_path: str | Path | None = None,
) -> TrialHistory:
    """Run a new search of the weight box, ``budget`` trials from ``seed``.

    ``log_path``, when given, is overwritten with an ``{"rng_seed": seed}``
    header and then one ``encode_record`` line per trial, flushed as the trial
    completes, so a run that raises leaves the trials before it in the log.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    history = TrialHistory(rng_seed=seed)
    with open(os.devnull if log_path is None else log_path, "wb") as log_fh:
        log_fh.write(encode_record({"rng_seed": seed}))
        for _ in range(budget):
            point = tpe_suggest(history)
            value = float(objective(point))
            trial = Trial(seq=len(history.trials), point=tuple(float(v) for v in point), objective=value)
            history.trials.append(trial)
            record = {**vars(trial), "timestamp": datetime.now(timezone.utc).isoformat()}
            log_fh.write(encode_record(record))
            log_fh.flush()
    return history


def accuracy_objective(
    weights: Weights,
    train_pool,
    train_set,
    services: Services,
    selection_config_template: SelectionConfig | None = None,
) -> float:
    """Fraction of training items solved by the full select/prompt/execute pipeline;
    an item the provider failed raises ``ProviderError``, as it says nothing of the weights."""
    from .evalharness import PROVIDER_CAUSE, evaluate

    template = selection_config_template or SelectionConfig()
    config = replace(template, weights=weights)
    report = evaluate(train_set, train_pool, config, services)
    for item in report.items:
        if item.cause and item.cause.startswith(PROVIDER_CAUSE):
            raise ProviderError(f"item {item.item_id}: {item.cause.removeprefix(PROVIDER_CAUSE)}")
    return report.accuracy


def tune_weights(
    train_pool,
    train_set,
    budget: int,
    seed: int,
    services: Services,
    selection_config_template: SelectionConfig | None = None,
    *,
    log_path: str | Path | None = None,
) -> Trial:
    """Run one new TPE search of the weight box for pipeline accuracy, logged
    to ``log_path`` as :func:`optimize` does; return the best trial.

    ``services`` memoizes each training item's metric rows on its first
    trial (``selection.candidate_metrics``), so later trials only re-weight them.
    An empty pool raises ``EmptyPool``, and an empty training set
    ``ValueError``, before the first trial; a provider failure raises
    ``ProviderError`` in its trial, and the log keeps the trials before it.
    """
    if not train_pool:
        raise EmptyPool("candidate pool is empty")
    if not train_set:
        raise ValueError("training set is empty")

    def objective(point: np.ndarray) -> float:
        return accuracy_objective(
            Weights.from_array(point), train_pool, train_set, services, selection_config_template
        )

    return best_trial(optimize(objective, budget, seed=seed, log_path=log_path))
