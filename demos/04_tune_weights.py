"""Learn metric weights with the Tree-structured Parzen Estimator searcher.

The real pipeline scores a weight vector by selection-pipeline accuracy on
a training subset; that needs an LLM, so this demo optimizes a synthetic
stand-in objective with a known optimum at (0.3, 0.3, 0.3, 0.3) and shows
the search concentrating: uniform random for the first 10 startup trials,
then density-ratio suggestions from the good/bad trial split.
"""

import numpy as np

from potselect import Weights
from potselect.tuning import best_trial, optimize

TARGET = np.full(4, 0.3)


def objective(point) -> float:
    return -float(np.sum((np.asarray(point) - TARGET) ** 2))


print("== single run, budget 60 ==")
history = optimize(objective, budget=60, seed=0)
for start in range(0, 60, 10):
    window = history.trials[start : start + 10]
    dist = np.mean([np.max(np.abs(np.asarray(t.point) - 0.3)) for t in window])
    best_so_far = max(t.objective for t in history.trials[: start + 10])
    print(f"  trials {start:2d}-{start + 9:2d}: mean distance {dist:.3f}, best {best_so_far:+.4f}")
best = best_trial(history)
print(f"best point: {np.round(best.point, 3)} (objective {best.objective:+.5f})")

print()
print("== TPE vs uniform random search, 10 seeds ==")
tpe_scores, random_scores = [], []
for seed in range(10):
    tpe_scores.append(best_trial(optimize(objective, budget=60, seed=seed)).objective)
    rng = np.random.default_rng([seed, 1])
    random_scores.append(max(objective(p) for p in rng.uniform(0, 1, size=(60, 4))))
print(f"  TPE    median best: {np.median(tpe_scores):+.4f}")
print(f"  random median best: {np.median(random_scores):+.4f}")

print()
print("== the best trial's point as Weights ==")
history = optimize(objective, budget=40, seed=3)
weights = Weights.from_array(best_trial(history).point)
print(f"learned weights: relevance={weights.relevance:.3f} concept={weights.concept:.3f} "
      f"complexity={weights.complexity:.3f} similarity={weights.similarity:.3f}")
