"""Batch command-line entry points: augment, select, tune, eval, cache-stats.

Configuration precedence is flag > config file > built-in default, and the
effective configuration is echoed into every output file's metadata record.
Identical runs write byte-identical files, except for two timestamps: each
trial-log record's ``timestamp`` and each cache entry's ``created_at``.

Exit codes: 0 success, 1 usage, 2 provider failure, 3 unreadable/invalid data.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import augmentation, evalharness, selection, tuning
from .cache import CacheStore
from .interpreter import InterpreterError
from .providers import (
    HashEmbedding,
    ProviderError,
    RemoteCompletionProvider,
    ScriptedProvider,
    Services,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROVIDER = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to our usage code
        raise UsageError(message)


_DEFAULTS = {
    "provider": "scripted",
    "fixtures": None,
    "cache_dir": None,
    "seed": 0,
    "weights": None,
    "epsilon": 1e-3,
    "delta": 0.1,
    "max_chosen": 5,
    "stages": "1,2,3",
    "iterations": 1,
    "max_retries": 3,
    "tau": 0.8,
    "dataset": None,
    "dataset_kind": "gsm8k",
    "pool": None,
    "out": None,
    "budget": 20,
    "synthetic_objective": False,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="potselect", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p: _Parser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--provider", choices=["scripted", "remote"])
        p.add_argument("--fixtures", help="fixture file for the scripted provider")
        p.add_argument("--cache-dir", dest="cache_dir")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")

    p = sub.add_parser("augment", help="expand a seed pool through the augmentation stages")
    common(p)
    p.add_argument("--pool", help="seed pool file (JSONL)")
    p.add_argument("--stages", help="comma list of stages to run, e.g. 1,2")
    p.add_argument("--iterations", type=int, help="stage-3 iteration count T")
    p.add_argument("--max-retries", dest="max_retries", type=int)
    p.add_argument("--tau", type=float, help="step-similarity threshold")

    for name, text in (
        ("select", "pick examples for each dataset question"),
        ("eval", "run the full selection + completion + execution evaluation"),
    ):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--pool")
        p.add_argument("--dataset")
        p.add_argument("--dataset-kind", dest="dataset_kind", choices=["gsm8k", "svamp"])
        p.add_argument("--weights", help="weights file path or 4 comma-separated numbers")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--max-chosen", dest="max_chosen", type=int)

    p = sub.add_parser("tune", help="learn metric weights by TPE search")
    common(p)
    p.add_argument("--pool")
    p.add_argument("--dataset")
    p.add_argument("--dataset-kind", dest="dataset_kind", choices=["gsm8k", "svamp"])
    p.add_argument("--budget", type=int, help="number of trials")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--max-chosen", dest="max_chosen", type=int)
    p.add_argument(
        "--synthetic-objective",
        dest="synthetic_objective",
        action="store_const",
        const=True,
        help="optimize the built-in quadratic test objective instead of accuracy",
    )

    p = sub.add_parser("cache-stats", help="report cache entry counts and sizes")
    common(p)
    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    from_file: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        from_file = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if not isinstance(from_file, dict):
            raise UsageError(f"config file {config_path} must hold one JSON object")
        unknown = set(from_file) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    effective = {}
    for key, default in _DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            effective[key] = flag
        elif key in from_file:
            effective[key] = from_file[key]
        else:
            effective[key] = default
    return effective


def _services(cfg: dict) -> Services:
    if cfg["provider"] == "remote":
        completion = RemoteCompletionProvider()
    else:
        if cfg["fixtures"]:
            completion = ScriptedProvider.from_file(cfg["fixtures"])
        else:
            completion = ScriptedProvider([])
    cache = CacheStore(cfg["cache_dir"]) if cfg["cache_dir"] else None
    return Services(completion=completion, embedding=HashEmbedding(), cache=cache)


def _weights(cfg: dict) -> selection.Weights:
    raw = cfg["weights"]
    if raw is None:
        return selection.Weights()
    if "," in str(raw):
        parts = str(raw).split(",")
        if len(parts) != 4:
            raise UsageError(f"--weights needs 4 comma-separated numbers, got {raw!r}")
        return selection.Weights.from_array([float(p) for p in parts])
    return selection.load_weights(raw)


def _selection_config(cfg: dict) -> selection.SelectionConfig:
    return selection.SelectionConfig(
        weights=_weights(cfg),
        epsilon=cfg["epsilon"],
        delta=cfg["delta"],
        max_chosen=cfg["max_chosen"],
    )


def _load_dataset(cfg: dict) -> list[evalharness.QAItem]:
    if not cfg["dataset"]:
        raise UsageError("--dataset is required")
    if cfg["dataset_kind"] == "svamp":
        return evalharness.load_svamp(cfg["dataset"])
    return evalharness.load_gsm8k(cfg["dataset"])


def _require(cfg: dict, key: str) -> str:
    if not cfg[key]:
        raise UsageError(f"--{key.replace('_', '-')} is required")
    return cfg[key]


def _meta(command: str, cfg: dict) -> dict:
    return {"command": command, "config": cfg}


def cmd_augment(cfg: dict) -> int:
    pool = augmentation.load_pool(_require(cfg, "pool"))
    out = _require(cfg, "out")
    services = _services(cfg)
    stages = tuple(int(s) for s in str(cfg["stages"]).split(",") if s.strip())
    config = augmentation.AugmentationConfig(
        iterations=cfg["iterations"],
        max_retries=cfg["max_retries"],
        tau=cfg["tau"],
        rng_seed=cfg["seed"],
    )
    result = augmentation.augment_pool(pool, config, services, stages=stages)
    augmentation.save_pool(result.pool, out, meta=_meta("augment", cfg))
    augmentation.write_jsonl(f"{out}.attempts.jsonl", map(asdict, result.attempts))
    counts = result.accepted_per_stage()
    print(
        f"pool: {len(pool)} seeds -> {len(result.pool)} examples "
        f"(stage1={counts[1]} stage2={counts[2]} stage3={counts[3]})"
    )
    return EXIT_OK


def cmd_select(cfg: dict) -> int:
    pool = augmentation.load_pool(_require(cfg, "pool"))
    dataset = _load_dataset(cfg)
    out = _require(cfg, "out")
    services = _services(cfg)
    config = _selection_config(cfg)
    records, traces = [], []
    for item in dataset:
        result = selection.select_examples(pool, item.question, config, services)
        scores = [score for _, score in result.chosen]
        records.append({"item_id": item.id, "chosen": result.chosen_ids, "scores": scores})
        traces.append({"item_id": item.id, "trace": [asdict(r) for r in result.trace]})
    augmentation.write_jsonl(out, records, meta=_meta("select", cfg))
    augmentation.write_jsonl(f"{out}.trace.jsonl", traces)
    print(f"selected for {len(dataset)} questions -> {out}")
    return EXIT_OK


def cmd_tune(cfg: dict) -> int:
    out = _require(cfg, "out")
    seed = cfg["seed"]
    log_path = Path(f"{out}.trials.jsonl")
    log_path.unlink(missing_ok=True)  # a new search, not a resumed one
    calls = 0
    if cfg["synthetic_objective"]:
        target = np.full(4, 0.3)

        def objective(point: np.ndarray) -> float:
            return -float(np.sum((np.asarray(point) - target) ** 2))

        weights = tuning.tune_weights(
            None, None, cfg["budget"], seed, None, objective=objective, log_path=log_path
        )
    else:
        pool = augmentation.load_pool(_require(cfg, "pool"))
        dataset = _load_dataset(cfg)
        services = _services(cfg)
        weights = tuning.tune_weights(
            pool, dataset, cfg["budget"], seed, services,
            selection_config_template=_selection_config(cfg),
            log_path=log_path,
        )
        calls = getattr(services.completion, "calls", 0)
    selection.save_weights(weights, out)
    history = tuning.load_history(log_path)
    best = tuning.best_trial(history)
    print(
        f"best objective {best.objective:.6f} at trial {best.seq}; weights -> {out} "
        f"provider_calls={calls}"
    )
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    pool = augmentation.load_pool(_require(cfg, "pool"))
    dataset = _load_dataset(cfg)
    out = _require(cfg, "out")
    services = _services(cfg)
    report = evalharness.evaluate(dataset, pool, _selection_config(cfg), services)
    evalharness.save_report(report, out, meta=_meta("eval", cfg))
    calls = getattr(services.completion, "calls", 0)
    print(
        f"items={report.n_items} correct={report.n_correct} "
        f"accuracy={report.accuracy:.4f} mean_examples={report.mean_examples_used:.4f} "
        f"provider_calls={calls}"
    )
    return EXIT_OK


def cmd_cache_stats(cfg: dict) -> int:
    if not cfg["cache_dir"]:
        raise UsageError("--cache-dir is required")
    stats = CacheStore(cfg["cache_dir"]).stats()
    print(
        f"entries={stats['entries']} bytes={stats['bytes']} quarantined={stats['quarantined']}"
    )
    return EXIT_OK


_COMMANDS = {
    "augment": cmd_augment,
    "select": cmd_select,
    "tune": cmd_tune,
    "eval": cmd_eval,
    "cache-stats": cmd_cache_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a command is required (augment|select|tune|eval|cache-stats)")
        cfg = _effective_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (
        OSError,
        json.JSONDecodeError,
        evalharness.DatasetError,
        InterpreterError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
