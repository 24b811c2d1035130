"""The one JSON reader and the one JSONL writer."""

from __future__ import annotations

import dataclasses
import os
import re
import stat

import pytest

from potselect.augmentation import AttemptRecord, ConsistencyReport
from potselect.cache import CacheStore
from potselect.evalharness import ItemResult
from potselect.providers import CompletionRequest
from potselect.records import MalformedRecord, read_json, read_jsonl, write_jsonl
from potselect.selection import IterationRecord, Weights

_REPORT = ConsistencyReport(False, 2.5, 3.0, None, "inconsistent", "output mismatch")
_ITERATION = IterationRecord(2, {"b": 0.5, "a": 0.25}, "b", 0.5, {"a": 0.1, "b": 0.3}, "a")


@pytest.mark.parametrize(
    "record",
    [
        AttemptRecord("bolts", 3, 2, 1, False, _REPORT),
        _ITERATION,
        ItemResult("E1", ("bolts", "house"), "ans = 1", 1.0, 1.0, "correct"),
        Weights(0.4, 0.3, 0.2, 0.1),
    ],
    ids=["attempt", "trace-entry", "report-item", "weights"],
)
def test_a_dataclass_record_is_written_as_its_asdict(tmp_path, record):
    as_record, as_dict = tmp_path / "record.jsonl", tmp_path / "dict.jsonl"
    write_jsonl(as_record, [record, {"trace": [record]}], meta={"record": record})
    as_fields = dataclasses.asdict(record)
    write_jsonl(as_dict, [as_fields, {"trace": [as_fields]}], meta={"record": as_fields})
    assert as_record.read_bytes() == as_dict.read_bytes()


def test_a_lone_surrogate_is_written_as_its_json_escape(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"completion": "ans = 1\ud800", "question": "Zoë?"}])
    assert path.read_bytes() == '{"completion": "ans = 1\\ud800", "question": "Zoë?"}\n'.encode()
    assert [record for _, record in read_jsonl(path)] == [
        {"completion": "ans = 1\ud800", "question": "Zoë?"}
    ]


@pytest.mark.parametrize(
    "text, line_no",
    [("[\n  {},\n  {\"a\": }\n]", 3), ("[" * 100_000 + "]" * 100_000, 1)],
    ids=["syntax", "nested-too-deeply"],
)
def test_invalid_json_names_the_file_and_the_line(tmp_path, text, line_no):
    path = tmp_path / "data.json"
    path.write_text(text)
    message = f"^record {line_no}: invalid JSON in {re.escape(str(path))}: "
    with pytest.raises(MalformedRecord, match=message):
        read_json(path)


def test_a_write_replaces_the_file_a_symlink_names_with_a_plain_open_mode(tmp_path):
    target, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
    target.write_text("an earlier run\n")
    link.symlink_to(target)
    write_jsonl(link, [{"a": 1}])
    assert link.is_symlink() and target.read_text() == '{"a": 1}\n'
    store = CacheStore(tmp_path / "cache")
    store.put(CompletionRequest(prompt="p"), "r", "scripted")
    (entry,) = store.directory.iterdir()
    mask = os.umask(0)
    os.umask(mask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~mask
    assert stat.S_IMODE(entry.stat().st_mode) == 0o666 & ~mask  # a cache entry's too
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "link.jsonl", "real.jsonl"]
