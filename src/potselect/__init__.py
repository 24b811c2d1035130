"""potselect: example augmentation and weighted selection for PoT prompting.

Expands a small pool of question/program examples through an LLM with
executable consistency checking, scores candidates per test question on
weighted metrics, prunes redundancy, tunes the weights by TPE search, and
evaluates the resulting prompts on math-word-problem corpora.
"""

from .augmentation import (
    AugmentationConfig,
    ConsistencyReport,
    Example,
    ExamplePool,
    augment_pool,
    check_consistency,
    extract_answer_block,
    load_pool,
    save_pool,
)
from .cache import CacheStore
from .evalharness import (
    EvalReport,
    QAItem,
    build_prompt,
    evaluate,
    load_gsm8k,
    load_svamp,
)
from .interpreter import (
    ModificationChain,
    Program,
    complexity,
    execute,
    modify_answer,
    parse,
)
from .providers import (
    CompletionRequest,
    HashEmbedding,
    RemoteCompletionProvider,
    ScriptedProvider,
    Services,
    concept_extract,
    cosine,
)
from .selection import (
    MetricVector,
    SelectionConfig,
    Weights,
    calculate_metrics,
    prune,
    score,
    select_examples,
)
from .tuning import (
    SearchSpace,
    TpeParams,
    Trial,
    TrialHistory,
    accuracy_objective,
    tpe_suggest,
    tune_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationConfig",
    "CacheStore",
    "CompletionRequest",
    "ConsistencyReport",
    "EvalReport",
    "Example",
    "ExamplePool",
    "HashEmbedding",
    "MetricVector",
    "ModificationChain",
    "Program",
    "QAItem",
    "RemoteCompletionProvider",
    "ScriptedProvider",
    "SearchSpace",
    "SelectionConfig",
    "Services",
    "TpeParams",
    "Trial",
    "TrialHistory",
    "Weights",
    "accuracy_objective",
    "augment_pool",
    "build_prompt",
    "calculate_metrics",
    "check_consistency",
    "complexity",
    "concept_extract",
    "cosine",
    "evaluate",
    "execute",
    "extract_answer_block",
    "load_gsm8k",
    "load_pool",
    "load_svamp",
    "modify_answer",
    "parse",
    "prune",
    "save_pool",
    "score",
    "select_examples",
    "tpe_suggest",
    "tune_weights",
]
