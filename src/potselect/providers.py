"""Completion and embedding providers, cosine similarity, service bundle.

Two completion providers: a scripted one that replays fixture files for
deterministic tests, and a remote HTTP adapter with retry/backoff.  The
embedder is a bit-exact deterministic hashed bag-of-tokens encoder.
``requests`` is imported only when the remote adapter posts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .cache import CacheStore
from .prompts import concept_prompt
from .records import read_json

ENDPOINT_ENV = "POTSELECT_ENDPOINT"
TOKEN_ENV = "POTSELECT_API_TOKEN"
MODEL_ENV = "POTSELECT_MODEL"


class ProviderError(Exception):
    pass


class ProviderUnavailable(ProviderError):
    """Remote provider failed after exhausting its retry budget."""


class NoFixture(ProviderError):
    """Scripted provider has no mapping for a prompt (a test-authoring error)."""


class DimensionMismatch(ProviderError):
    pass


class MalformedResponse(ProviderError):
    """The remote endpoint answered, but not with JSON carrying the expected field."""


TEMPERATURE = 0.0  # every completion is greedy
MAX_TOKENS = 512  # and at most this long


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    model_id: str = "scripted"
    stop_sequences: tuple[str, ...] = ()

    def canonical(self) -> str:
        """Unique serialization: sorted keys, fixed separators and number forms."""
        return json.dumps(
            {
                "max_tokens": MAX_TOKENS,
                "model_id": self.model_id,
                "prompt": self.prompt,
                "stop_sequences": list(self.stop_sequences),
                "temperature": TEMPERATURE,
            },
            sort_keys=True,
            ensure_ascii=False,
            separators=(",", ":"),
        )

    def key(self) -> str:
        """SHA-256 of the canonical form's UTF-8 bytes; a lone surrogate is encoded
        with ``surrogatepass``, so every ``str`` has a key."""
        return hashlib.sha256(self.canonical().encode("utf-8", "surrogatepass")).hexdigest()


@dataclass(frozen=True)
class Fixture:
    kind: str  # "exact" | "pattern"
    text: str
    response: str

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "pattern"):
            raise ValueError(f"match kind must be exact|pattern, got {self.kind!r}")


def load_fixtures(path: str | Path) -> list[Fixture]:
    """The fixtures of a file holding a JSON array of objects; invalid JSON raises
    ``MalformedRecord``, and another shape, a missing or non-string field, or an
    unknown match kind ``ValueError`` naming the fixture's index."""
    records = read_json(path)
    if not isinstance(records, list):
        raise ValueError(f"fixture file {path} must hold a JSON array")
    fixtures = []
    for i, r in enumerate(records):
        if not isinstance(r, dict):
            raise ValueError(f"fixture {i}: not an object")
        missing = next((key for key in ("match", "text", "response") if key not in r), None)
        if missing is not None:
            raise ValueError(f"fixture {i}: missing field {missing}")
        values = (r["match"], r["text"], r["response"])
        if not all(isinstance(v, str) for v in values):
            raise ValueError(f"fixture {i}: match, text and response must be strings")
        try:
            fixtures.append(Fixture(*values))
        except ValueError as exc:  # an unknown match kind
            raise ValueError(f"fixture {i}: {exc}") from None
    return fixtures


class ScriptedProvider:
    """Replays fixture responses: exact prompt match or regex search.

    A prompt is answered by the first fixture, in declared order, that
    matches it, however often it is sent: one prompt has one response, as
    in the response cache.  Pattern responses may use backreferences
    (``\\1``) into the match.

    Each distinct prompt is matched against the fixtures once, when it is
    first seen, and the first match's response is expanded from that match
    with the template parsed when the fixture was compiled; ``calls`` still
    counts every request.  The memo is keyed by the prompt text itself, so
    a prompt object sent again is found by its cached hash, and the memo
    keeps every distinct prompt alive for the provider's lifetime.
    A pattern that does not compile, or a response with a bad group
    reference, raises ``ValueError`` on construction, naming the fixture's
    index.
    """

    provider_id = "scripted"
    model_id = "scripted"

    def __init__(self, fixtures: list[Fixture] | None = None):
        self.fixtures = list(fixtures or [])
        self.calls = 0
        self._patterns = [_compile_fixture(i, f) for i, f in enumerate(self.fixtures)]
        self._served: dict[str, str | None] = {}  # prompt -> response, None if unmatched

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedProvider":
        return cls(load_fixtures(path))

    def complete(self, request: CompletionRequest) -> str:
        self.calls += 1
        prompt = request.prompt
        try:
            response = self._served[prompt]
        except KeyError:
            response = self._served[prompt] = self._match(prompt)
        if response is None:
            head = prompt[:120].replace("\n", "\\n")
            raise NoFixture(f"no fixture matches prompt starting {head!r}")
        return response

    def _match(self, prompt: str) -> str | None:
        """The response of the first fixture matching ``prompt``, a pattern's
        expanded from the match just found; None when no fixture matches."""
        for fixture, pattern in zip(self.fixtures, self._patterns):
            if pattern is None:
                if fixture.text == prompt:
                    return fixture.response
            elif match := pattern.search(prompt):
                return _expand(match, fixture.response)
        return None


def _expand(match: re.Match, template: str) -> str:
    """``match.expand(template)``, from the template parse that ``re`` caches.

    ``Match.expand`` parses its template on every call; ``Pattern.subn``
    keeps the parse in ``re``'s cache.  Its first match is ``match``, which
    leaves the text around it as it was, so the expansion is the middle.
    """
    prompt = match.string
    substituted, _ = match.re.subn(template, prompt, count=1)
    return substituted[match.start() : len(substituted) - (len(prompt) - match.end())]


def _compile_fixture(index: int, fixture: Fixture) -> re.Pattern | None:
    """Compile a pattern fixture and check its response template; None for exact ones."""
    if fixture.kind == "exact":
        return None
    try:
        pattern = re.compile(fixture.text)
        pattern.sub(fixture.response, "")  # parses the template, group references included
    except (re.error, IndexError) as exc:  # an unknown group name is an IndexError
        raise ValueError(f"fixture {index}: {exc}") from None
    return pattern


Transport = Callable[[str, dict, dict], object]

MAX_ATTEMPTS = 3  # transport calls per request
BACKOFF_BASE = 0.5  # seconds before the second attempt; each later wait doubles


def _http_transport(endpoint: str, payload: dict, headers: dict) -> object:
    import requests

    resp = requests.post(endpoint, json=payload, headers=headers, timeout=60)
    if resp.status_code >= 500:
        raise requests.ConnectionError(f"server error {resp.status_code}")
    resp.raise_for_status()
    try:
        return resp.json()["text"]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedResponse(f"response carries no 'text' field: {exc!r}") from None


class RemoteCompletionProvider:
    """Single-shot HTTP completion adapter with retry/backoff.

    Endpoint, auth token and model come from arguments or the
    ``POTSELECT_ENDPOINT`` / ``POTSELECT_API_TOKEN`` / ``POTSELECT_MODEL``
    environment variables.  ``transport(endpoint, payload, headers)``
    returns the response's ``text`` value; ``calls`` counts requests.
    A request makes at most ``MAX_ATTEMPTS`` transport calls.
    """

    provider_id = "remote"

    def __init__(
        self,
        endpoint: str | None = None,
        token: str | None = None,
        model_id: str | None = None,
        transport: Transport | None = None,
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV, "")
        self.model_id = model_id or os.environ.get(MODEL_ENV, "default")
        if not self.endpoint:
            raise ValueError(f"no endpoint configured (set {ENDPOINT_ENV})")
        self.calls = 0
        self._transport = transport or _http_transport

    def complete(self, request: CompletionRequest) -> str:
        """Retry connection errors, timeouts and 5xx, waiting 0.5 s and then 1 s.

        Any other request failure is fatal at once; both end as ProviderUnavailable.
        A ``text`` value that is not a string raises MalformedResponse.
        """
        import requests

        retryable = (requests.ConnectionError, requests.Timeout, ConnectionError, TimeoutError)
        self.calls += 1
        payload = {
            "model": request.model_id,
            "prompt": request.prompt,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
            "stop": list(request.stop_sequences),
        }
        headers = {"Authorization": f"Bearer {self.token}"} if self.token else {}
        delay = BACKOFF_BASE
        last: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                text = self._transport(self.endpoint, payload, headers)
            except retryable as exc:
                last = exc
                if attempt + 1 < MAX_ATTEMPTS:
                    time.sleep(delay)
                    delay *= 2
            except requests.RequestException as exc:
                raise ProviderUnavailable(f"non-retryable failure: {exc}") from exc
            else:
                if not isinstance(text, str):
                    raise MalformedResponse(f"'text' is {type(text).__name__}, not a string")
                return text
        raise ProviderUnavailable(f"gave up after {MAX_ATTEMPTS} attempts: {last}") from last


TOKEN_HASH_MEMO_SIZE = 4096  # distinct tokens whose bucket is kept
EMBED_DIMENSION = 256  # buckets of the hashed bag of tokens
_TOKEN = re.compile(r"[a-z0-9]+")


class HashEmbedding:
    """Deterministic hashed bag-of-tokens embedding, bit-exact by construction.

    Lowercase, split on non-alphanumeric runs, hash each token with a fixed
    64-bit hash (blake2b, 8-byte digest, big-endian), accumulate token counts
    into bucket ``hash % EMBED_DIMENSION``, L2-normalize.  Empty token list
    yields the all-zero vector.  Depends only on the multiset of tokens.
    Each distinct token's bucket is computed once while it stays among the last
    ``TOKEN_HASH_MEMO_SIZE`` distinct tokens.  One ``np.bincount`` counts the
    buckets, and integer counts convert to float64 exactly; the norm is
    ``math.sqrt(v.dot(v))``, which is what ``np.linalg.norm`` computes for a
    1-D float64 vector.
    """

    @staticmethod
    @functools.lru_cache(maxsize=TOKEN_HASH_MEMO_SIZE)
    def _token_bucket(token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % EMBED_DIMENSION

    def embed(self, text: str) -> np.ndarray:
        buckets = list(map(self._token_bucket, _TOKEN.findall(text.lower())))
        # an intp array even when empty: np.bincount of an empty float list raises
        counts = np.bincount(np.array(buckets, dtype=np.intp), minlength=EMBED_DIMENSION)
        vector = counts.astype(np.float64)
        norm = math.sqrt(vector.dot(vector))
        if norm > 0:
            vector /= norm
        return vector


Embedded = tuple[np.ndarray, float]  # a float64 vector and its norm, math.sqrt(v.dot(v))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|), 0.0 when either norm is zero; clamped to [-1, 1], NaN passes.

    ``math.sqrt(x.dot(x))`` is exactly what ``np.linalg.norm`` computes for a
    1-D float64 vector, at a fraction of its call overhead.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:  # before the norms: a 2-D input has no scalar self-dot
        raise DimensionMismatch(f"dimensions differ: {u.shape} vs {v.shape}")
    return embedded_cosine((u, math.sqrt(u.dot(u))), (v, math.sqrt(v.dot(v))))


def embedded_cosine(a: Embedded, b: Embedded) -> float:
    """``cosine`` of two vectors whose norms are already known, bit for bit."""
    u, nu = a
    v, nv = b
    if u.shape != v.shape:
        raise DimensionMismatch(f"dimensions differ: {u.shape} vs {v.shape}")
    if nu == 0.0 or nv == 0.0:
        return 0.0
    value = float(u.dot(v) / (nu * nv))
    return -1.0 if value < -1.0 else 1.0 if value > 1.0 else value


def stacked(column: list[Embedded]) -> Embedded:
    """The vectors of ``column`` as the rows of one C-contiguous matrix, with their
    norms as an array, both read-only because memos share them; vectors of two
    shapes raise ``DimensionMismatch``."""
    vectors = [vector for vector, _ in column]
    try:
        matrix = np.array(vectors)
    except ValueError:
        odd = next(v.shape for v in vectors if v.shape != vectors[0].shape)
        raise DimensionMismatch(f"dimensions differ: {vectors[0].shape} vs {odd}") from None
    norms = np.array([norm for _, norm in column])
    matrix.flags.writeable = norms.flags.writeable = False
    return matrix, norms


def embedded_cosines(a: Embedded, b: Embedded) -> np.ndarray:
    """``embedded_cosine`` of each row of ``a`` with the same row of ``b``, bit for bit.

    ``a`` is a matrix with its norm array, as ``stacked`` returns; ``b`` is one
    too, or one vector and its norm, which every row is then compared with.
    ``np.vecdot`` takes each row's product with the ``ddot`` that ``ndarray.dot``
    runs for one pair of vectors, so every value is the one pair's; a matrix
    product (``@``, ``matmul``, ``einsum``) can differ in the last ulp.
    The zero-norm rule and the clamp are ``embedded_cosine``'s: NaN passes.
    """
    u, nu = a
    v, nv = b
    if u.shape[1:] != v.shape[-1:]:
        raise DimensionMismatch(f"dimensions differ: {u.shape[1:]} vs {v.shape[-1:]}")
    zero = (nu == 0.0) | (nv == 0.0)
    values = np.vecdot(u, v) / np.where(zero, 1.0, nu * nv)
    values[zero] = 0.0
    values[values < -1.0] = -1.0
    values[values > 1.0] = 1.0
    return values


@dataclass
class Services:
    """Completion + embedding providers and an optional response cache.

    ``request`` builds a completion request and ``complete`` sends one: it
    is the one place where a completion meets the cache.  A caller that
    sends the same prompt many times builds its request once and passes it
    to ``complete`` each time.  Not shareable across threads: the embed memo
    grows on every new text, the metrics memo on every new pool and (pool,
    question) pair, the grade memo on every new few-shot request,
    ``ScriptedProvider`` memoizes each distinct prompt's response, and the
    cache keeps each response it has read or written in a dict keyed by the
    request.  The embed, fixture and cache memos do not change what a call
    returns or counts: a prompt has one response, from the provider as from
    the cache, the provider's ``calls`` counts every request, and a cache
    hit served from memory is still a hit.

    The metrics memo, kept by ``selection.candidate_metrics``, does change
    what is requested.  Once per pool it holds the pool's candidates, with
    the stacked embeddings of the concept responses they last got, and once
    per (pool, question) the question's metric rows, so a repeated question
    makes no further metric completions.  Like the response cache, it relies
    on a prompt having one response, as does scoring, which embeds the test
    question's concept-list and rough-answer responses once.  Those two
    requests are re-sent per candidate only because the benchmark pins
    eval's provider-call count (ROADMAP item 1).  The candidates' concept
    matrix is reused only while their responses compare equal.  Every array
    a memo hands out is read-only.

    The grade memo, kept by ``evalharness._grade``, changes what is
    requested too.  It maps each few-shot request to its graded outcome: the
    completion, then its executed value or its parse or execute cause, which
    follow from the completion alone.  A request graded before is not
    completed, parsed or executed again, so a later ``tune`` trial sends
    nothing for a selection an earlier one made; a grade that raises stores
    nothing.  It too relies on one response per prompt.  A run memo in front
    of ``complete`` (ROADMAP item 3) would also dedupe these sends; this memo
    would then save only the extraction and execution.
    """

    completion: object
    embedding: object
    cache: CacheStore | None = None
    _embed_memo: dict[str, Embedded] = field(default_factory=dict, init=False, repr=False)
    # id(pool) -> (pool, selection's candidates and their concept matrix,
    # question -> its (n, 4) metric rows); holding the pool keeps its id from reuse
    _metrics_memo: dict[int, tuple[object, object, dict[str, np.ndarray]]] = field(
        default_factory=dict, init=False, repr=False
    )
    # few-shot request -> (completion, executed value or None, parse/execute cause or None)
    _grade_memo: dict[CompletionRequest, tuple[str, float | None, str | None]] = field(
        default_factory=dict, init=False, repr=False
    )

    def request(self, prompt: str, stop_sequences: tuple[str, ...] = ()) -> CompletionRequest:
        """The request for ``prompt`` under the completion provider's model."""
        return CompletionRequest(
            prompt=prompt,
            model_id=getattr(self.completion, "model_id", "default"),
            stop_sequences=stop_sequences,
        )

    def complete(self, request: CompletionRequest) -> str:
        """A cache hit, or else the provider's response, which the cache then stores."""
        if self.cache is None:
            return self.completion.complete(request)
        response = self.cache.get(request)
        if response is None:
            response = self.completion.complete(request)
            self.cache.put(request, response, self.completion.provider_id)
        return response

    def complete_text(self, prompt: str, *, stop_sequences: tuple[str, ...] = ()) -> str:
        """``complete`` of the request that ``request`` builds."""
        return self.complete(self.request(prompt, stop_sequences))

    def embed(self, text: str) -> np.ndarray:
        return self.embed_with_norm(text)[0]

    def embed_with_norm(self, text: str) -> Embedded:
        """``text``'s embedding as a float64 vector, with its norm as ``cosine``
        computes it; both are computed once per distinct text.  Every caller
        gets the memo's own vector, so it is read-only."""
        hit = self._embed_memo.get(text)
        if hit is None:
            vector = np.asarray(self.embedding.embed(text), dtype=np.float64)
            vector.flags.writeable = False
            hit = self._embed_memo[text] = (vector, math.sqrt(vector.dot(vector)))
        return hit


def concept_request(text: str, services: Services) -> CompletionRequest:
    """The request for the concept list of ``text``."""
    return services.request(concept_prompt(text))


def concept_extract(text: str, services: Services) -> str:
    """Ask the completion provider for the concept list of ``text``, verbatim."""
    return services.complete(concept_request(text, services))
