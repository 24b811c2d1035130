"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; everything is deterministic and needs no network.
"""

from __future__ import annotations

import json
import time

import numpy as np

from potselect.augmentation import EPS_GATE, AugmentationConfig, augment_pool, check_consistency
from potselect.cli import main
from potselect.interpreter import InterpreterError, execute, parse, render
from potselect.providers import HashEmbedding, ScriptedProvider, Services, cosine
from potselect.selection import SelectionConfig, Weights, select_examples
from potselect.tuning import best_trial, optimize

from conftest import (
    BOLTS_A,
    BOLTS_VARIANT_A,
    CONCEPT_FIXTURE,
    DUCK_A,
    DUCK_MODIFIED_A,
    HOUSE_A,
    ROUGH_FIXTURE,
    StubEmbedding,
    augmentation_fixtures,
    concept_text,
    make_services,
    random_pool,
    random_weights,
    rough_text,
    thirteen_seeds,
)
from test_interpreter import random_program


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_interpreter_golden_traces():
    cases = [
        (BOLTS_A, 3.0),
        (HOUSE_A, 70000.0),
        (DUCK_A, 18.0),
        (DUCK_MODIFIED_A, 75.0),
        (BOLTS_VARIANT_A, 6.0),
    ]
    execute(parse(BOLTS_A))  # warmup so import/caching costs stay out of timings
    worst_ms = 0.0
    exact = True
    for text, expected in cases:
        start = time.perf_counter()
        value = execute(parse(text))
        elapsed_ms = (time.perf_counter() - start) * 1e3
        worst_ms = max(worst_ms, elapsed_ms)
        exact = exact and (value == expected)
    _criterion(
        1,
        "interpreter golden traces",
        exact and worst_ms < 1.0,
        f"exact values, worst {worst_ms:.3f} ms",
    )


def test_criterion_2_consistency_gate_soundness():
    rng = np.random.default_rng(2024)
    services = make_services()
    pairs = 0
    differing = 0
    violations = 0
    while pairs < 1000:
        a = random_program(rng, int(rng.integers(1, 7)))
        b = random_program(rng, int(rng.integers(1, 7)))
        try:
            a, b = parse(a), parse(b)
            va = execute(a)
            vb = execute(b)
        except InterpreterError:
            continue
        pairs += 1
        # tau = -1 removes the similarity phase: phase 1 alone must reject
        report = check_consistency(a, b, services, tau=-1.0)
        if abs(va - vb) > max(EPS_GATE, EPS_GATE * abs(vb)):
            differing += 1
            if report.verdict != "inconsistent":
                violations += 1
    _criterion(
        2,
        "consistency-gate soundness",
        violations == 0 and differing >= 500,
        f"{pairs} pairs, {differing} with differing values, {violations} violations",
    )


def test_criterion_3_pool_count_reproduction():
    result = augment_pool(
        thirteen_seeds(),
        AugmentationConfig(),
        make_services(augmentation_fixtures()),
        stages=2,
    )
    _criterion(
        3,
        "pool-count reproduction (13 seeds -> 39)",
        len(result.pool) == 39,
        f"got {len(result.pool)}",
    )


def _brute_force_first_pick(pool, q_t: str, weights: Weights) -> str:
    emb = HashEmbedding()

    def cos(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            return 0.0
        return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))

    counts = [e.answer_text.count("\n") for e in pool]
    lo, hi = min(counts), max(counts)
    best_index, best_score = 0, -np.inf
    for i, example in enumerate(pool):
        relevance = cos(emb.embed(example.question), emb.embed(q_t))
        concept = cos(emb.embed(concept_text(example.question)), emb.embed(concept_text(q_t)))
        complexity = 0.5 if hi == lo else (counts[i] - lo) / (hi - lo)
        similarity = cos(emb.embed(example.answer_text), emb.embed(rough_text(q_t)))
        s = float(
            np.dot(np.array([relevance, concept, complexity, similarity]), weights.as_array())
        )
        if s > best_score:
            best_index, best_score = i, s
    return pool.examples[best_index].id


def test_criterion_4_selection_oracle_equivalence():
    rng = np.random.default_rng(404)
    agreements = 0
    for _ in range(50):
        pool, q_t = random_pool(rng, n_max=6)
        weights = random_weights(rng)
        services = make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE])
        result = select_examples(
            pool, q_t, SelectionConfig(weights=weights, epsilon=0.0), services
        )
        expected = _brute_force_first_pick(pool, q_t, weights)
        if result.trace[0].picked_id == expected:
            agreements += 1
    _criterion(
        4,
        "selection oracle equivalence (first pick)",
        agreements == 50,
        f"{agreements}/50 agree",
    )


def test_criterion_5_prune_correctness():
    from potselect.augmentation import Example
    from potselect.selection import prune

    inv = 1.0 / np.sqrt(2.0)
    stand_out = {
        "ans = 0": [inv, inv],
        "ans = 1": [1.0, 0.0],
        "ans = 2": [0.0, 1.0],
    }
    chosen = [Example(id=f"e{i}", question=f"q{i}", answer_text=f"ans = {i}") for i in range(3)]
    services = Services(completion=ScriptedProvider([]), embedding=StubEmbedding(stand_out))
    removed_first = [e.id for e in prune(chosen, 0.1, services)] == ["e1", "e2"]

    duplicates = {
        "ans = 0": [1.0, 0.0],
        "ans = 1": [1.0, 0.0],
        "ans = 2": [0.0, 1.0],
    }
    services = Services(completion=ScriptedProvider([]), embedding=StubEmbedding(duplicates))
    kept_all = [e.id for e in prune(chosen, 0.1, services)] == ["e0", "e1", "e2"]
    _criterion(
        5,
        "prune correctness (hand-computed fixtures)",
        removed_first and kept_all,
        f"stand-out removed: {removed_first}, duplicate pair kept: {kept_all}",
    )


def test_criterion_6_selection_footprint():
    result = augment_pool(
        thirteen_seeds(),
        AugmentationConfig(),
        make_services(augmentation_fixtures()),
        stages=2,
    )
    pool = result.pool
    assert len(pool) == 39
    questions = [f"How many units remain after sale number {i}?" for i in range(1, 21)]
    sizes = []
    for question in questions:
        services = make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE])
        selection = select_examples(pool, question, SelectionConfig(), services)
        sizes.append(len(selection.chosen))
    mean_size = sum(sizes) / len(sizes)
    _criterion(
        6,
        "selection footprint (mean chosen <= 5 on 39-example pool)",
        mean_size <= 5.0,
        f"mean {mean_size:.3f} over {len(sizes)} questions",
    )


def test_criterion_7_tpe_competence():
    target = np.full(4, 0.3)

    def objective(point):
        return -float(np.sum((np.asarray(point) - target) ** 2))

    start = time.perf_counter()
    tpe_scores = []
    random_scores = []
    box_hits = 0
    for seed in range(20):
        history = optimize(objective, budget=60, seed=seed)
        best = best_trial(history)
        tpe_scores.append(best.objective)
        if np.all(np.abs(np.asarray(best.point) - 0.3) <= 0.1):
            box_hits += 1
        rng = np.random.default_rng([seed, 987654321])
        draws = rng.uniform(0.0, 1.0, size=(60, 4))
        random_scores.append(max(objective(p) for p in draws))
    elapsed = time.perf_counter() - start
    median_tpe = float(np.median(tpe_scores))
    median_random = float(np.median(random_scores))
    ok = median_tpe >= median_random and box_hits >= 15 and elapsed < 60.0
    _criterion(
        7,
        "TPE competence on the quadratic",
        ok,
        f"median {median_tpe:.4f} vs random {median_random:.4f}, "
        f"{box_hits}/20 in box, {elapsed:.1f} s",
    )


def test_criterion_8_end_to_end_determinism(eval_environment, capsys):
    cache_dir = eval_environment["tmp"] / "cache"
    out = eval_environment["tmp"] / "report.jsonl"
    blobs = []
    calls = []
    accuracies = []
    for _ in range(2):
        code = main(
            [
                "eval",
                "--pool", eval_environment["pool"],
                "--dataset", eval_environment["dataset"],
                "--fixtures", eval_environment["fixtures"],
                "--cache-dir", str(cache_dir),
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        calls.append(int(stdout.rsplit("provider_calls=", 1)[1].split()[0]))
        blobs.append(out.read_bytes())
        summary = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])["summary"]
        accuracies.append(summary["accuracy"])
    ok = (
        blobs[0] == blobs[1]
        and accuracies == [0.6, 0.6]
        and calls[0] > 0
        and calls[1] == 0
    )
    _criterion(
        8,
        "end-to-end determinism (cold/warm cmd_eval)",
        ok,
        f"byte-identical={blobs[0] == blobs[1]}, accuracy={accuracies[0]}, "
        f"warm provider calls={calls[1]}",
    )


def test_criterion_9_invariant_suite():
    rng = np.random.default_rng(99)
    failures: list[str] = []

    # cosine symmetry and positive-scale invariance, 500 cases each
    for _ in range(500):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        if abs(cosine(u, v) - cosine(v, u)) > 1e-12:
            failures.append("cosine symmetry")
            break
    for _ in range(500):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        alpha = float(rng.uniform(1e-3, 1e3))
        if abs(cosine(alpha * u, v) - cosine(u, v)) > 1e-9:
            failures.append("cosine scale invariance")
            break

    # weight positive-scaling pick-order invariance, 500 cases
    for _ in range(500):
        pool, q_t = random_pool(rng, n_max=4)
        weights = random_weights(rng)
        alpha = float(rng.uniform(0.1, 10.0))
        scaled = Weights.from_array(alpha * weights.as_array())
        base = select_examples(
            pool, q_t, SelectionConfig(weights=weights, epsilon=0.0),
            make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE]),
        )
        other = select_examples(
            pool, q_t, SelectionConfig(weights=scaled, epsilon=0.0),
            make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE]),
        )
        if [r.picked_id for r in base.trace] != [r.picked_id for r in other.trace]:
            failures.append("weight scaling pick order")
            break

    # no duplicates in chosen, pruned never reappears, 500 cases
    for _ in range(500):
        pool, q_t = random_pool(rng, n_max=6)
        config = SelectionConfig(
            weights=random_weights(rng),
            epsilon=0.0,
            delta=float(rng.uniform(0.0, 0.3)),
            max_chosen=int(rng.integers(1, 7)),
        )
        result = select_examples(
            pool, q_t, config, make_services([CONCEPT_FIXTURE, ROUGH_FIXTURE])
        )
        ids = result.chosen_ids
        pruned = {r.pruned_id for r in result.trace if r.pruned_id}
        picked = [r.picked_id for r in result.trace]
        if len(ids) != len(set(ids)) or (pruned & set(ids)) or len(picked) != len(set(picked)):
            failures.append("selection no-duplicate/no-reappear")
            break

    # parse/render round-trip stability, 500 cases
    for _ in range(500):
        text = random_program(rng, int(rng.integers(1, 8)))
        program = parse(text)
        if parse(render(program)).statements != program.statements:
            failures.append("parse round-trip")
            break

    # complexity additivity under a joining line break, 500 cases
    alphabet = list("ab c\n#=123.")
    for _ in range(500):
        a = "".join(rng.choice(alphabet, size=int(rng.integers(0, 40))))
        b = "".join(rng.choice(alphabet, size=int(rng.integers(0, 40))))
        if (a + "\n" + b).count("\n") != a.count("\n") + b.count("\n") + 1:
            failures.append("complexity additivity")
            break

    _criterion(
        9,
        "invariant property suite (>= 500 cases each)",
        not failures,
        "all invariants held" if not failures else f"failed: {failures}",
    )
