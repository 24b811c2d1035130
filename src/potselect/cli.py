"""Batch command-line entry points: augment, select, tune, eval, cache-stats.

Configuration precedence is flag > config file > built-in default, and the
effective configuration is echoed into every output file's metadata record.
Identical runs write byte-identical files, except for two timestamps: each
trial-log record's ``timestamp`` and each cache entry's ``created_at``.

Exit codes: 0 success, 1 usage, 2 provider failure, 3 unreadable/invalid data.
"""

from __future__ import annotations

import argparse
import math
import sys
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
from .records import DatasetError, read_json, write_jsonl

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROVIDER = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to our usage code
        raise UsageError(message)


def _stages(text: str) -> str:
    """Accept a comma list of the stages 1, 1,2 or 1,2,3, in any order, as each stage
    runs on the one before it; keep the text as given."""
    if {part.strip() for part in text.split(",")} not in ({"1"}, {"1", "2"}, {"1", "2", "3"}):
        raise argparse.ArgumentTypeError(f"stages must be 1, 1,2 or 1,2,3, got {text!r}")
    return text


class _InRange:
    """An argparse ``type``: parse with ``kind``, then require low <= value <= high."""

    def __init__(self, kind: type, low: float, high: float = math.inf):
        self.kind, self.low, self.high = kind, low, high
        self.__name__ = kind.__name__  # argparse names the type in its messages

    def __call__(self, text):
        value = self.kind(text)
        if not self.low <= value <= self.high:
            bound = f">= {self.low}" if self.high == math.inf else f"in [{self.low}, {self.high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value!r}")
        return value


_ALL = ("augment", "select", "tune", "eval", "cache-stats")
_SELECT = ("select", "tune", "eval")
_SC = selection.SelectionConfig  # a config class's attributes are its field defaults
_AC = augmentation.AugmentationConfig

# (config key, default, commands that take it, argparse keywords), one row per
# option; row order is the key order of the effective config echoed into ``meta``.
_OPTIONS = (
    ("provider", "scripted", _ALL, {"choices": ["scripted", "remote"]}),
    ("fixtures", None, _ALL, {"help": "fixture file for the scripted provider"}),
    ("cache_dir", None, _ALL, {}),
    ("seed", 0, _ALL, {"type": int}),
    ("weights", None, ("select", "eval"), {"help": "file or 4 comma-separated numbers"}),
    ("epsilon", _SC.epsilon, _SELECT, {"type": _InRange(float, 0)}),
    ("delta", _SC.delta, _SELECT, {"type": _InRange(float, 0)}),
    ("max_chosen", _SC.max_chosen, _SELECT, {"type": _InRange(int, 1)}),
    ("stages", "1,2,3", ("augment",), {"type": _stages, "help": "stages to run, e.g. 1,2"}),
    (
        "iterations", _AC.iterations, ("augment",),
        {"type": _InRange(int, 1), "help": "stage-3 rounds T"},
    ),
    ("max_retries", _AC.max_retries, ("augment",), {"type": _InRange(int, 0)}),
    (
        "tau", _AC.tau, ("augment",),
        {"type": _InRange(float, -1, 1), "help": "step-similarity threshold"},
    ),
    ("dataset", None, _SELECT, {}),
    ("dataset_kind", "gsm8k", _SELECT, {"choices": ["gsm8k", "svamp"]}),
    ("pool", None, ("augment", *_SELECT), {"help": "example pool file (JSONL)"}),
    ("out", None, _ALL, {}),
    ("budget", 20, ("tune",), {"type": _InRange(int, 1), "help": "number of trials"}),
    (
        "synthetic_objective", False, ("tune",),
        {"action": "store_const", "const": True, "help": "optimize a quadratic test objective"},
    ),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="potselect", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key, _, commands, kwargs in _OPTIONS:
            if command in commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key, **kwargs)
    return parser


def _check(key: str, default, kwargs: dict, value) -> None:
    """Give a config-file value its flag's checks: JSON type, choices, ``type`` and range."""
    if value is None and default is None:
        return
    parse = kwargs.get("type", str)
    if "action" in kwargs:
        types: tuple[type, ...] = (bool,)
    else:
        types = {int: (int,), float: (int, float)}.get(getattr(parse, "kind", parse), (str,))
    try:
        if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
            raise argparse.ArgumentTypeError(f"expected {types[-1].__name__}, got {value!r}")
        if value not in kwargs.get("choices", [value]):
            raise argparse.ArgumentTypeError(f"{value!r} is not one of {kwargs['choices']}")
        parse(value)
    except (argparse.ArgumentTypeError, OverflowError) as exc:  # an int beyond float range
        raise UsageError(f"config key {key!r}: {exc}") from None


def _effective_config(args: argparse.Namespace) -> dict:
    """Flag > config file > default for every option, in ``_OPTIONS`` order."""
    from_file: dict = {}
    if args.config:
        from_file = read_json(args.config)
        if not isinstance(from_file, dict):
            raise UsageError(f"config file {args.config} must hold one JSON object")
        rows = {key: (default, kwargs) for key, default, _, kwargs in _OPTIONS}
        for key, value in from_file.items():
            if key not in rows:
                raise UsageError(f"unknown config key {key!r}")
            _check(key, *rows[key], value)
    effective = {key: from_file.get(key, default) for key, default, *_ in _OPTIONS}
    effective.update((k, v) for k, v in vars(args).items() if k in effective and v is not None)
    return effective


def _services(cfg: dict) -> Services:
    if cfg["provider"] == "remote":
        completion = RemoteCompletionProvider()
    elif cfg["fixtures"]:
        completion = ScriptedProvider.from_file(cfg["fixtures"])
    else:
        completion = ScriptedProvider([])
    cache = CacheStore(cfg["cache_dir"]) if cfg["cache_dir"] else None
    return Services(completion=completion, embedding=HashEmbedding(), cache=cache)


def _weights(cfg: dict) -> selection.Weights:
    raw = cfg["weights"]
    if raw is None:
        return selection.Weights()
    if "," in raw:
        try:
            return selection.Weights.from_array([float(p) for p in raw.split(",")])
        except ValueError as exc:
            raise UsageError(f"--weights {raw!r} is not 4 comma-separated weights: {exc}") from None
    return selection.load_weights(raw)


def _selection_config(cfg: dict) -> selection.SelectionConfig:
    return selection.SelectionConfig(
        _weights(cfg), cfg["epsilon"], cfg["delta"], cfg["max_chosen"]
    )


def _load_dataset(cfg: dict) -> list[evalharness.QAItem]:
    load = evalharness.load_svamp if cfg["dataset_kind"] == "svamp" else evalharness.load_gsm8k
    return load(_require(cfg, "dataset"))


def _require(cfg: dict, key: str) -> str:
    if not cfg[key]:
        raise UsageError(f"--{key.replace('_', '-')} is required")
    return cfg[key]


def cmd_augment(cfg: dict) -> int:
    """Expand a seed pool through the augmentation stages."""
    pool = augmentation.load_pool(_require(cfg, "pool"))
    out = _require(cfg, "out")
    services = _services(cfg)
    stages = len({s.strip() for s in cfg["stages"].split(",")})  # _stages checked the set
    config = augmentation.AugmentationConfig(
        iterations=cfg["iterations"],
        max_retries=cfg["max_retries"],
        tau=cfg["tau"],
        rng_seed=cfg["seed"],
    )
    result = augmentation.augment_pool(pool, config, services, stages=stages)
    augmentation.save_pool(result.pool, out, meta={"command": "augment", "config": cfg})
    write_jsonl(f"{out}.attempts.jsonl", result.attempts)
    counts = result.accepted_per_stage()
    print(
        f"pool: {len(pool)} seeds -> {len(result.pool)} examples "
        f"(stage1={counts[1]} stage2={counts[2]} stage3={counts[3]}) "
        f"provider_calls={services.completion.calls}"
    )
    return EXIT_OK


def cmd_select(cfg: dict) -> int:
    """Pick examples for each dataset question."""
    pool = augmentation.load_pool(_require(cfg, "pool"))
    dataset = _load_dataset(cfg)
    out = _require(cfg, "out")
    services = _services(cfg)
    config = _selection_config(cfg)
    selections, traces = [], []
    for item in dataset:
        result = selection.select_examples(pool, item.question, config, services)
        scores = [score for _, score in result.chosen]
        selections.append({"item_id": item.id, "chosen": result.chosen_ids, "scores": scores})
        traces.append({"item_id": item.id, "trace": result.trace})
    write_jsonl(out, selections, meta={"command": "select", "config": cfg})
    write_jsonl(f"{out}.trace.jsonl", traces)
    print(f"selected for {len(dataset)} questions -> {out}")
    return EXIT_OK


def cmd_tune(cfg: dict) -> int:
    """Learn metric weights by TPE search."""
    out = _require(cfg, "out")
    seed = cfg["seed"]
    log_path = Path(f"{out}.trials.jsonl")
    # a run that fails before its first trial (empty pool or dataset) must
    # not leave an earlier run's log behind
    log_path.unlink(missing_ok=True)
    calls = 0
    if cfg["synthetic_objective"]:
        target = np.full(4, 0.3)

        def objective(point: np.ndarray) -> float:
            return -float(np.sum((np.asarray(point) - target) ** 2))

        history = tuning.optimize(objective, cfg["budget"], seed=seed, log_path=log_path)
        best = tuning.best_trial(history)
    else:
        pool = augmentation.load_pool(_require(cfg, "pool"))
        dataset = _load_dataset(cfg)
        services = _services(cfg)
        best = tuning.tune_weights(
            pool, dataset, cfg["budget"], seed, services,
            selection_config_template=_selection_config(cfg),
            log_path=log_path,
        )
        calls = services.completion.calls
    selection.save_weights(selection.Weights.from_array(best.point), out)
    print(
        f"best objective {best.objective:.6f} at trial {best.seq}; weights -> {out} "
        f"provider_calls={calls}"
    )
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    """Run the full selection + completion + execution evaluation."""
    pool = augmentation.load_pool(_require(cfg, "pool"))
    dataset = _load_dataset(cfg)
    out = _require(cfg, "out")
    services = _services(cfg)
    report = evalharness.evaluate(dataset, pool, _selection_config(cfg), services)
    evalharness.save_report(report, out, meta={"command": "eval", "config": cfg})
    calls = services.completion.calls
    print(
        f"items={report.n_items} correct={report.n_correct} "
        f"accuracy={report.accuracy:.4f} mean_examples={report.mean_examples_used:.4f} "
        f"provider_calls={calls}"
    )
    return EXIT_OK


def cmd_cache_stats(cfg: dict) -> int:
    """Report cache entry counts and sizes."""
    directory = Path(_require(cfg, "cache_dir"))
    if not directory.exists():  # an empty cache; a query creates nothing
        stats = dict.fromkeys(("entries", "bytes", "quarantined"), 0)
    else:
        stats = CacheStore(directory).stats()
    print("entries={entries} bytes={bytes} quarantined={quarantined}".format(**stats))
    return EXIT_OK


_COMMANDS = {
    "augment": cmd_augment,
    "select": cmd_select,
    "tune": cmd_tune,
    "eval": cmd_eval,
    "cache-stats": cmd_cache_stats,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except (OSError, DatasetError, InterpreterError, KeyError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
