"""Persistent content-addressed storage for completion responses.

``Services.complete`` reads and writes it.  One UTF-8 file per request
key under a directory.  Each entry declares byte lengths for the canonical
request and the verbatim response so round-trips are bit-exact.  Writes go
through a temp file and an atomic rename, so concurrent writers of the same
key are benign and distinct keys never interfere.  A reader that finds an
entry gone, or already quarantined, by another process counts a miss.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .providers import CompletionRequest

_KEY_NAME = re.compile(r"^[0-9a-f]{64}$")


class CacheCorrupt(Exception):
    """A stored entry failed key or length recomputation."""


@dataclass(frozen=True)
class CacheEntry:
    key: str
    response: str
    created_at: str
    provider_id: str


class CacheStore:
    """Directory of cache entries, one file per 64-hex request key."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def get(self, request: "CompletionRequest") -> str | None:
        """Return the stored response, or None on miss.

        A corrupt entry is quarantined (renamed ``<key>.corrupt``) and
        treated as a miss.
        """
        key = request.key()
        path = self.directory / key
        try:
            entry = _read_entry(path)
            if entry.key != key:
                raise CacheCorrupt(f"stored key {entry.key!r} != expected {key!r}")
        except FileNotFoundError:
            return None
        except CacheCorrupt:
            with contextlib.suppress(FileNotFoundError):  # another process moved it first
                os.replace(path, path.with_name(key + ".corrupt"))
            return None
        return entry.response

    def put(self, request: "CompletionRequest", response: str, provider_id: str) -> None:
        request_bytes = request.canonical().encode("utf-8")
        key = hashlib.sha256(request_bytes).hexdigest()  # request.key(), serialized once
        created_at = datetime.now(timezone.utc).isoformat()
        response_bytes = response.encode("utf-8")
        header = (
            f"key: {key}\n"
            f"provider_id: {provider_id}\n"
            f"created_at: {created_at}\n"
            f"request_bytes: {len(request_bytes)}\n"
            f"response_bytes: {len(response_bytes)}\n"
            "\n"
        )
        fd, tmp_name = tempfile.mkstemp(prefix=f".{key}.", dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header.encode("utf-8"))
                fh.write(request_bytes)
                fh.write(response_bytes)
            os.replace(tmp_name, self.directory / key)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    def stats(self) -> dict[str, int]:
        entries = 0
        total_bytes = 0
        quarantined = 0
        for path in self.directory.iterdir():
            if _KEY_NAME.match(path.name):
                entries += 1
                total_bytes += path.stat().st_size
            elif path.name.endswith(".corrupt"):
                quarantined += 1
        return {"entries": entries, "bytes": total_bytes, "quarantined": quarantined}


def _read_entry(path: Path) -> CacheEntry:
    blob = path.read_bytes()
    head, sep, body = blob.partition(b"\n\n")
    if not sep:
        raise CacheCorrupt("missing header separator")
    fields: dict[str, str] = {}
    for raw in head.decode("utf-8", errors="replace").split("\n"):
        name, colon, value = raw.partition(": ")
        if not colon:
            raise CacheCorrupt(f"malformed header line {raw!r}")
        fields[name] = value
    try:
        request_len = int(fields["request_bytes"])
        response_len = int(fields["response_bytes"])
        key = fields["key"]
        provider_id = fields["provider_id"]
        created_at = fields["created_at"]
    except (KeyError, ValueError) as exc:
        raise CacheCorrupt(f"bad header: {exc}") from None
    if len(body) != request_len + response_len:
        raise CacheCorrupt("declared lengths do not match body size")
    request_bytes = body[:request_len]
    if hashlib.sha256(request_bytes).hexdigest() != key:
        raise CacheCorrupt("request digest does not match stored key")
    try:
        response = body[request_len:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CacheCorrupt(f"response is not UTF-8: {exc}") from None
    return CacheEntry(key=key, response=response, created_at=created_at, provider_id=provider_id)

