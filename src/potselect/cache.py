"""Persistent content-addressed storage for completion responses.

``Services.complete`` reads and writes it.  One UTF-8 file per request
key under a directory.  Each entry declares byte lengths for the canonical
request and the verbatim response so round-trips are bit-exact; a lone
surrogate, which strict UTF-8 cannot encode, is stored as its three
``surrogatepass`` bytes, so any ``str`` round-trips.  ``records.replace_file``
writes an entry as it writes an output file, through a temp file and an
atomic rename, so concurrent writers of the same key are benign, distinct
keys never interfere, and an entry gets an output file's mode.  A reader
that finds an entry gone, or already quarantined, by another process
counts a miss.

A store verifies an entry on its first read and serves it from memory
afterwards, as it does a response it has written: a run reads each entry
file at most once.  An entry corrupted on disk after that is quarantined
by the next store, in the next run or another process, that reads it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from .records import replace_file

if TYPE_CHECKING:
    from .providers import CompletionRequest

_KEY_NAME = re.compile(r"^[0-9a-f]{64}$")


class CacheCorrupt(Exception):
    """A stored entry failed key or length recomputation."""


class CacheStore:
    """Directory of cache entries, one file per 64-hex request key."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # request -> the response this store verified on a read or wrote with put
        self._known: dict["CompletionRequest", str] = {}

    def get(self, request: "CompletionRequest") -> str | None:
        """Return the stored response, or None on miss.

        The first read of an entry verifies it; later calls for the same
        request are served from memory and touch no file.  A corrupt entry
        is quarantined (renamed ``<key>.corrupt``) and treated as a miss;
        a miss or a corrupt entry leaves nothing in memory.
        """
        known = self._known.get(request)
        if known is not None:
            return known
        key = request.key()
        path = self.directory / key
        try:
            stored_key, response = _read_entry(path)
            if stored_key != key:
                raise CacheCorrupt(f"stored key {stored_key!r} != expected {key!r}")
        except FileNotFoundError:
            return None
        except CacheCorrupt:
            with contextlib.suppress(FileNotFoundError):  # another process moved it first
                os.replace(path, path.with_name(key + ".corrupt"))
            return None
        self._known[request] = response
        return response

    def put(self, request: "CompletionRequest", response: str, provider_id: str) -> None:
        request_bytes = request.canonical().encode("utf-8", "surrogatepass")
        key = hashlib.sha256(request_bytes).hexdigest()  # request.key(), serialized once
        response_bytes = response.encode("utf-8", "surrogatepass")
        header = (
            f"key: {key}\n"
            f"provider_id: {provider_id}\n"
            f"created_at: {datetime.now(timezone.utc).isoformat()}\n"
            f"request_bytes: {len(request_bytes)}\n"
            f"response_bytes: {len(response_bytes)}\n"
            "\n"
        )
        replace_file(self.directory / key, (header.encode("utf-8"), request_bytes, response_bytes))
        self._known[request] = response

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


def _read_entry(path: Path) -> tuple[str, str]:
    """The key an entry declares and its response."""
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
        # provider_id and created_at are informational, yet an entry must have them
        key, _provider_id, _created_at = fields["key"], fields["provider_id"], fields["created_at"]
    except (KeyError, ValueError) as exc:
        raise CacheCorrupt(f"bad header: {exc}") from None
    if len(body) != request_len + response_len:
        raise CacheCorrupt("declared lengths do not match body size")
    request_bytes = body[:request_len]
    if hashlib.sha256(request_bytes).hexdigest() != key:
        raise CacheCorrupt("request digest does not match stored key")
    try:
        response = body[request_len:].decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise CacheCorrupt(f"response is not UTF-8: {exc}") from None
    return key, response

