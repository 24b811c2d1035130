"""``tools/ab.py``'s summary of paired runs: medians, quartiles, wins and the IQR flag."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_lower_is_better_counts_each_pair_once_and_ties_for_neither(ab):
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 12.0, 10.0, 11.0]
    summary = ab.summarize(parent, change, "lower")
    assert summary["median"] == {"parent": 12.0, "change": 11.0}
    assert summary["quartiles"] == {"parent": (11.0, 13.0), "change": (10.0, 12.0)}
    assert summary["wins"] == {"parent": 1, "change": 3}
    assert summary["within_parent_iqr"]  # a gap of 1 against an IQR of 2


def test_higher_is_better_and_a_gap_beyond_the_parent_iqr(ab):
    parent = [100.0, 101.0, 102.0, 103.0]
    change = [110.0, 108.0, 112.0, 100.0]
    summary = ab.summarize(parent, change, "higher")
    assert summary["median"] == {"parent": 101.5, "change": 109.0}
    assert summary["quartiles"]["parent"] == (100.75, 102.25)
    assert summary["wins"] == {"parent": 1, "change": 3}
    assert not summary["within_parent_iqr"]


def test_one_pair_is_its_own_quartiles(ab):
    summary = ab.summarize([3.0], [3.0], "lower")
    assert summary["quartiles"] == {"parent": (3.0, 3.0), "change": (3.0, 3.0)}
    assert summary["wins"] == {"parent": 0, "change": 0}
    assert not summary["within_parent_iqr"]  # equal medians are not smaller than 0


def test_pairs_of_unequal_length_raise(ab):
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0], "lower")
