"""How a record enters or leaves a file: one reader, one encoder, one writer.

Every input file is decoded by ``read_json`` or ``read_jsonl``, or, once read,
by the ``decode_json`` or ``decode_jsonl`` under them; every output line is
encoded by ``encode_record``, and every file but the streamed trial log, cache
entries too, is written whole by ``replace_file``.  The loaders elsewhere check
only a record's shape.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator


class DatasetError(Exception):
    pass


class MalformedRecord(DatasetError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"record {line_no}: {reason}")
        self.line_no = line_no


def decode_json(text: str, path: str | Path, line_no: int = 1) -> object:
    """``json.loads`` of ``text``, which starts at line ``line_no`` of ``path``.  Invalid
    JSON, or JSON nested too deeply to decode, raises MalformedRecord naming the file
    and the line where decoding failed (the first line, for nesting)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(line_no + exc.lineno - 1, f"invalid JSON in {path}: {exc}") from None
    except RecursionError as exc:
        raise MalformedRecord(line_no, f"invalid JSON in {path}: {exc}") from None


def read_json(path: str | Path) -> object:
    """The one JSON value a UTF-8 file holds; its shape is the caller's to check."""
    return decode_json(Path(path).read_text(encoding="utf-8"), path)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``decode_jsonl`` of the lines of a UTF-8 JSONL file, read as they are decoded."""
    with open(path, encoding="utf-8") as fh:
        # a loop, not ``yield from``: delegating raised eval's peak RSS on the
        # benchmark's seed-0 inputs by about 0.4 MB
        for line_no_and_record in decode_jsonl(fh, path):
            yield line_no_and_record


def decode_jsonl(lines: Iterable[str], path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of ``path``'s ``lines``.

    Line numbers count every line from 1.  Invalid JSON, JSON nested too
    deeply to decode, or a line that is not a JSON object raises
    MalformedRecord.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = decode_json(line, path, line_no)
        if not isinstance(record, dict):
            raise MalformedRecord(line_no, "record is not an object")
        yield line_no, record


def write_jsonl(path: str | Path, records: Iterable, meta: dict | None = None) -> None:
    """One ``encode_record`` line per record, after an optional meta record,
    written to ``path`` by ``replace_file``."""
    lines = [] if meta is None else [{"meta": meta}]
    lines.extend(records)
    replace_file(path, map(encode_record, lines))


def encode_record(record) -> bytes:
    """One JSON line: sorted keys, non-ASCII kept as UTF-8.

    A dataclass record, at any depth, is written as its fields, uncopied.  A
    lone surrogate, which UTF-8 cannot encode, can only sit inside a JSON
    string, so it is written as its JSON escape (``\\ud800``).
    """
    text = json.dumps(record, sort_keys=True, ensure_ascii=False, default=vars) + "\n"
    return text.encode("utf-8", "backslashreplace")


def replace_file(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, which then replaces
    ``path`` whole; on any failure the temporary file is removed and an
    earlier file at ``path`` is left as it was."""
    path = Path(path).resolve()  # a symlinked target is replaced, not the link
    # a random name beside the target, created exclusively with the mode a
    # plain open gives, not an owner-only one
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
