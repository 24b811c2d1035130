"""Scripted/remote providers, the deterministic embedder and cosine."""

from __future__ import annotations

import hashlib
import json
import math
import re
import tempfile

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from potselect.cache import CacheStore
from potselect.providers import (
    CompletionRequest,
    DimensionMismatch,
    Fixture,
    HashEmbedding,
    NoFixture,
    ProviderUnavailable,
    RemoteCompletionProvider,
    ScriptedProvider,
    TOKEN_HASH_MEMO_SIZE,
    Services,
    cosine,
    embedded_cosine,
    embedded_cosines,
    load_fixtures,
    stacked,
)

from conftest import StubEmbedding, fake_post, save_fixtures


class SpyFixture:
    """A fixture that counts reads of its response (needed to expand it)."""

    def __init__(self, kind, text, response):
        self.kind, self.text, self._response, self.reads = kind, text, response, 0

    @property
    def response(self):
        self.reads += 1
        return self._response


# Repeated and overlapping fixtures: texts that are exact prompts, patterns
# matching several of them, and the same text declared more than once; some
# hold a lone surrogate, which a JSON fixture file can carry.
_FIXTURE_TEXTS = ("a", "ab", "ba", "b", "a(b)", "(a)b?", r"\Ab", "b|ab", "a\ud800", "\udfff|b")


@st.composite
def _fixtures_and_prompts(draw):
    fixture = st.builds(
        Fixture,
        st.sampled_from(["exact", "pattern"]),
        st.sampled_from(_FIXTURE_TEXTS),
        st.sampled_from(["r", "s", r"<\g<0>>", "r\udc80"]),
    )
    fixtures = draw(st.lists(fixture, max_size=6))
    texts = [f.text for f in fixtures] + ["ab", "zz", "\udfff"]
    return fixtures, draw(st.lists(st.sampled_from(texts), max_size=12))


def _answer(complete, prompt):
    """``complete(prompt)``, or ``NoFixture`` when no fixture matches."""
    try:
        return complete(prompt)
    except NoFixture:
        return NoFixture


class TestCompletionRequest:
    def test_identical_requests_share_a_key(self):
        a = CompletionRequest(prompt="p", model_id="m", stop_sequences=("s",))
        b = CompletionRequest(prompt="p", model_id="m", stop_sequences=("s",))
        assert a.key() == b.key()
        assert a.canonical() == b.canonical()

    def test_every_field_enters_the_canonical_form(self):
        base = CompletionRequest(prompt="p")
        variants = [
            CompletionRequest(prompt="q"),
            CompletionRequest(prompt="p", model_id="other"),
            CompletionRequest(prompt="p", stop_sequences=("x",)),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == 4
        # the cache's memory is keyed by the request: its equality covers the same fields
        assert len({base, *variants, CompletionRequest(prompt="p")}) == 4

    def test_canonical_form_carries_the_fixed_temperature_and_token_limit(self):
        request = CompletionRequest(prompt="p", model_id="m", stop_sequences=("s",))
        assert request.canonical() == (
            '{"max_tokens":512,"model_id":"m","prompt":"p","stop_sequences":["s"],'
            '"temperature":0.0}'
        )

    def test_key_is_sha256_of_canonical(self):
        request = CompletionRequest(prompt="p")
        expected = hashlib.sha256(request.canonical().encode("utf-8")).hexdigest()
        assert request.key() == expected
        assert re.fullmatch(r"[0-9a-f]{64}", request.key())


class TestScriptedProvider:
    def test_exact_fixture_echo(self):
        provider = ScriptedProvider([Fixture("exact", "P1", "rephrased question text")])
        assert provider.complete(CompletionRequest(prompt="P1")) == "rephrased question text"

    def test_unmapped_prompt_raises_no_fixture(self):
        provider = ScriptedProvider([Fixture("exact", "P1", "r")])
        with pytest.raises(NoFixture):
            provider.complete(CompletionRequest(prompt="something else"))

    def test_repeated_identical_prompts_get_the_first_matching_fixture(self):
        provider = ScriptedProvider(
            [Fixture("exact", "P", "first"), Fixture("exact", "P", "second")]
        )
        request = CompletionRequest(prompt="P")
        # one prompt has one response: the first matching fixture's, every time
        assert [provider.complete(request) for _ in range(3)] == ["first"] * 3

    def test_pattern_match_with_backreference_expansion(self):
        provider = ScriptedProvider(
            [Fixture("pattern", r"count (\d+) sheep", r"counted \1")]
        )
        out = provider.complete(CompletionRequest(prompt="please count 42 sheep now"))
        assert out == "counted 42"

    def test_call_counter(self):  # the second call is answered from the per-prompt memo
        provider = ScriptedProvider([Fixture("exact", "P", "r")])
        provider.complete(CompletionRequest(prompt="P"))
        provider.complete(CompletionRequest(prompt="P"))
        assert provider.calls == 2

    def test_fixture_file_round_trip(self, tmp_path):
        fixtures = [Fixture("exact", "a", "b"), Fixture("pattern", r"x(\d)", r"\1")]
        path = tmp_path / "fixtures.json"
        save_fixtures(fixtures, path)
        assert load_fixtures(path) == fixtures

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fixture("fuzzy", "a", "b")

    def test_two_patterns_on_one_prompt_the_first_answers_every_time(self):
        provider = ScriptedProvider(
            [Fixture("pattern", r"n(\d)", r"first \1"), Fixture("pattern", r"(n)\d", r"second \1")]
        )
        request = CompletionRequest(prompt="n7")
        answers = [provider.complete(request) for _ in range(4)]
        assert answers == ["first 7"] * 4

    def test_exact_and_pattern_fixtures_follow_declared_order(self):
        provider = ScriptedProvider(
            [
                Fixture("pattern", r"P(\d)", r"pattern \1"),
                Fixture("exact", "P1", "exact"),
                Fixture("pattern", r"\AP", "anchored"),
            ]
        )
        request = CompletionRequest(prompt="P1")
        answers = [provider.complete(request) for _ in range(4)]
        assert answers == ["pattern 1"] * 4

    def test_one_pattern_expands_each_prompt_from_its_own_match(self):
        provider = ScriptedProvider([Fixture("pattern", r"count (\d+) (\w+)", r"\2: \1")])
        assert provider.complete(CompletionRequest(prompt="count 3 sheep")) == "sheep: 3"
        assert provider.complete(CompletionRequest(prompt="count 12 cows")) == "cows: 12"
        assert provider.complete(CompletionRequest(prompt="count 3 sheep")) == "sheep: 3"

    def test_repeated_unmatched_prompt_raises_every_time(self):
        provider = ScriptedProvider([Fixture("pattern", r"\Ayes", "r")])
        for _ in range(3):
            with pytest.raises(NoFixture):
                provider.complete(CompletionRequest(prompt="no"))
        assert provider.calls == 3
        assert provider.complete(CompletionRequest(prompt="yes")) == "r"

    def test_one_unmatched_request_sent_again_raises_and_counts_every_time(self):
        provider = ScriptedProvider([Fixture("exact", "n", "r")])
        request = CompletionRequest(prompt="no")
        for calls in range(1, 4):
            with pytest.raises(NoFixture, match="no fixture matches prompt starting 'no'"):
                provider.complete(request)
            assert provider.calls == calls

    def test_prompts_matching_the_same_fixtures_each_get_the_first(self):
        provider = ScriptedProvider(
            [Fixture("pattern", r"(\w+)", r"first \1"), Fixture("pattern", r"(\w+)", r"second \1")]
        )
        a, b = CompletionRequest(prompt="A"), CompletionRequest(prompt="B")
        answers = [provider.complete(r) for r in (a, b, a, b)]
        assert answers == ["first A", "first B", "first A", "first B"]

    def test_a_prompt_with_a_lone_surrogate_is_served_and_memoized(self):
        fixture = SpyFixture("pattern", "\ud800(x)", r"got \1")
        provider = ScriptedProvider([fixture])
        reads = fixture.reads  # construction checks the template
        request = CompletionRequest(prompt="a\ud800x")
        assert [provider.complete(request) for _ in range(3)] == ["got x"] * 3
        equal_text = "".join(["a", "\ud800", "x"])  # another object, the same text
        assert provider.complete(CompletionRequest(prompt=equal_text)) == "got x"
        assert (fixture.reads - reads, provider.calls) == (1, 4)

    def test_each_matching_response_is_expanded_once_per_prompt(self):
        first = SpyFixture("pattern", r"(a)", r"\1\1")
        second = SpyFixture("pattern", r"(a)", r"\1\1\1")
        provider = ScriptedProvider([first, second])
        built = [first.reads, second.reads]  # construction checks the templates
        answers = [provider.complete(CompletionRequest(prompt="a")) for _ in range(3)]
        assert answers == ["aa"] * 3
        assert [first.reads, second.reads] == [built[0] + 1, built[1]]
        assert provider.complete(CompletionRequest(prompt="ba")) == "aa"
        assert [first.reads, second.reads] == [built[0] + 2, built[1]]

    @settings(max_examples=300, deadline=None)
    @given(_fixtures_and_prompts())
    def test_a_repeated_prompt_gets_one_response(self, case):
        fixtures, prompts = case
        provider = ScriptedProvider(fixtures)

        def complete(prompt):
            return provider.complete(CompletionRequest(prompt))

        answers = {(p, _answer(complete, p)) for p in prompts}
        assert len(answers) == len(set(prompts))

    @pytest.mark.parametrize(
        "text, response, message",
        [
            ("(", "r", "missing \\)"),
            (r"(\d)", r"\3", "invalid group reference 3"),
            (r"(\d)", r"\g<name>", "unknown group name"),
            (r"(\d)", r"\q", "bad escape"),
        ],
        ids=["pattern", "group-number", "group-name", "escape"],
    )
    def test_bad_pattern_fixture_is_rejected_on_construction(self, text, response, message):
        fixtures = [Fixture("exact", "P", r"\3 is fine here"), Fixture("pattern", text, response)]
        with pytest.raises(ValueError, match=f"fixture 1: .*{message}"):
            ScriptedProvider(fixtures)

    @pytest.mark.parametrize("field", ["match", "text", "response"])
    def test_missing_fixture_field_is_rejected_on_loading(self, tmp_path, field):
        record = {"match": "pattern", "text": "(a)", "response": "r"}
        del record[field]
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps([{"match": "exact", "text": "P", "response": "R"}, record]))
        with pytest.raises(ValueError, match=f"^fixture 1: missing field {field}$"):
            load_fixtures(path)

    @pytest.mark.parametrize(
        "pattern, template, prompt",
        [
            (r"count (\d+)", r"n=\1", "count 42 sheep"),
            (r"(?P<word>\w+)!", r"\g<word>?", "say hi! now"),
            (r"(a)(b)", r"\2\n\1", "xxabyy"),
            (r"(\d)", r"\\\1\\", "x7y"),
            (r"mid(\w)", r"<\1> \g<0>", "left mid5 right"),
            (r"(x)?y", r"[\1]", "zyy"),
            (r"(?<=a)b", "B", "abab"),
            (r"b*", r"[\g<0>]", "aaa"),
        ],
        ids=["group-number", "group-name", "newline", "backslash", "middle", "unmatched-group",
             "literal", "empty-match"],
    )
    def test_expansion_equals_match_expand(self, pattern, template, prompt):
        match = re.search(pattern, prompt)
        provider = ScriptedProvider([Fixture("pattern", pattern, template)])
        assert provider.complete(CompletionRequest(prompt=prompt)) == match.expand(template)

    @pytest.mark.parametrize("field", ["match", "text", "response"])
    def test_non_string_fixture_field_is_rejected_on_loading(self, tmp_path, field):
        record = {"match": "pattern", "text": "(a)", "response": "r", field: 5}
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps([{"match": "exact", "text": "P", "response": "R"}, record]))
        with pytest.raises(ValueError, match="fixture 1: match, text and response must be strings"):
            load_fixtures(path)


# words with capitals, digits and non-ASCII letters, some of which lowercase to
# ASCII letters plus other characters
_WORDS = (
    "Janet's", "ducks", "16", "eggs", "EGGS", "café", "ǅemal", "İstanbul", "日本", "ﬁve", "Ⅻ"
)
_SEPARATORS = (" ", ", ", "! ", "\n", "—", "-")


@st.composite
def _embedding_texts(draw):
    """Texts that are empty, punctuation only, non-ASCII, full of repeated tokens,
    or longer than ``TOKEN_HASH_MEMO_SIZE`` distinct tokens."""
    kind = draw(st.sampled_from(["any", "punctuation", "words", "distinct"]))
    if kind == "any":
        return draw(st.text(max_size=60))
    if kind == "punctuation":
        return draw(st.text(alphabet=" \t\n.,;:!?'\"-—()[]#$%&*+/<=>@^_`{|}~", max_size=30))
    if kind == "words":
        pieces = st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS))
        return "".join(w + sep for w, sep in draw(st.lists(pieces, max_size=40)))
    count = draw(st.integers(TOKEN_HASH_MEMO_SIZE + 1, TOKEN_HASH_MEMO_SIZE + 64))
    return " ".join(f"t{i}" for i in range(count))


class TestHashEmbedding:
    def test_deterministic(self):
        emb = HashEmbedding()
        assert np.array_equal(emb.embed("a b"), emb.embed("a b"))

    def test_empty_text_is_zero_vector_of_256(self):
        vector = HashEmbedding().embed("")
        assert vector.shape == (256,)
        assert not vector.any()

    def test_punctuation_only_is_zero_vector(self):
        assert not HashEmbedding().embed("?!,  .").any()

    def test_token_order_invariance(self):
        emb = HashEmbedding()
        a = emb.embed("total eggs sold")
        b = emb.embed("sold eggs total")
        assert cosine(a, b) == 1.0

    def test_depends_only_on_token_multiset(self):
        emb = HashEmbedding()
        assert np.array_equal(emb.embed("a, b; A!"), emb.embed("b a a"))

    @settings(max_examples=300, deadline=None)
    @given(_embedding_texts())
    def test_bit_exact_against_independent_recomputation(self, text):
        # the construction is pinned: lowercase, split on non-alphanumeric,
        # 64-bit hash -> bucket hash % 256, counts, L2-normalize
        expected = np.zeros(256)
        for token in re.split(r"[^a-z0-9]+", text.lower()):
            if token:
                digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
                expected[int.from_bytes(digest, "big") % 256] += 1.0
        norm = np.linalg.norm(expected)
        if norm > 0:
            expected /= norm
        assert HashEmbedding().embed(text).tobytes() == expected.tobytes()

    def test_l2_normalized(self):
        vector = HashEmbedding().embed("one two three four")
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)

    def test_token_hash_memo_is_bounded_and_vectors_stay_exact(self):
        def uncached(text):
            vector = np.zeros(256)
            for token in re.split(r"[^a-z0-9]+", text.lower()):
                if token:
                    vector[HashEmbedding._token_bucket.__wrapped__(token)] += 1.0
            return vector / np.linalg.norm(vector)

        emb = HashEmbedding()
        many = " ".join(f"t{i}" for i in range(TOKEN_HASH_MEMO_SIZE + 50))
        texts = ["eggs sold at the market", many]
        texts.append(texts[0])  # its tokens were evicted by the second text
        for text in texts:
            assert emb.embed(text).tobytes() == uncached(text).tobytes()
        assert HashEmbedding._token_bucket.cache_info().currsize <= TOKEN_HASH_MEMO_SIZE


class TestCosine:
    def test_self_similarity_is_one(self):
        assert cosine(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 1.0

    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_computed_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            0.7071067811865475, abs=1e-15
        )

    def test_zero_norm_degenerates_to_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.zeros(2), np.zeros(3))

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
        st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    )
    def test_symmetry(self, u, v):
        assert cosine(np.array(u), np.array(v)) == pytest.approx(
            cosine(np.array(v), np.array(u)), abs=1e-12
        )

    # components below ~1e-154 underflow when squared inside the norm, which
    # breaks the real-number identity; keep magnitudes well conditioned
    _component = st.floats(-1e3, 1e3).map(lambda x: 0.0 if abs(x) < 1e-6 else x)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(_component, min_size=3, max_size=3),
        st.lists(_component, min_size=3, max_size=3),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, u, v, alpha):
        u = np.array(u)
        v = np.array(v)
        assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)

    def test_result_clipped_into_range(self):
        u = np.array([1e-8, 1e-8, 1e-8])
        assert -1.0 <= cosine(u, u) <= 1.0

    @staticmethod
    def _oracle(u, v) -> float:
        """The earlier formula: ``np.linalg.norm`` for the norms, ``np.clip`` to clamp."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))

    def test_equals_the_norm_and_clip_formula_exactly(self):
        rng = np.random.default_rng(0)
        pairs = []
        for dim in range(1, 1025):
            for _ in range(4):
                u, v = rng.standard_normal((2, dim)) * 10.0 ** rng.uniform(-5, 5, size=(2, 1))
                pairs += [(u, v), (u, 3.0 * u), (u, -0.5 * u)]
        emb = HashEmbedding()
        texts = [" ".join(rng.choice(["eggs", "sold", "total", "a", "b", "7"], 5)) for _ in range(200)]
        pairs += [(emb.embed(a), emb.embed(b)) for a, b in zip(texts, texts[1:])]
        pairs += [(np.zeros(5), np.ones(5)), (np.ones(5), np.zeros(5)), ([1, 2, 3], [3.0, -2, 1])]
        assert [cosine(u, v) for u, v in pairs] == [self._oracle(u, v) for u, v in pairs]
        raw = [np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)) for u, v in pairs[:3000]]
        assert any(abs(r) > 1.0 for r in raw)  # the clamp was exercised

    def test_nan_component_gives_nan(self):
        assert np.isnan(cosine(np.array([1.0, np.nan]), np.array([1.0, 2.0])))
        assert np.isnan(cosine([np.nan, 0.0], [np.nan, 0.0]))

    def test_embedded_cosine_equals_cosine_exactly(self):
        rng = np.random.default_rng(1)
        pairs = [
            tuple(rng.standard_normal((2, d)) * 10.0 ** rng.uniform(-5, 5)) for d in range(1, 300)
        ]
        pairs += [(u, 3.0 * u) for u, _ in pairs[:50]]
        pairs += [(np.zeros(4), np.ones(4)), (np.full(2, np.nan), np.ones(2))]

        def embedded(v):
            return v, math.sqrt(v.dot(v))

        got = [embedded_cosine(embedded(u), embedded(v)) for u, v in pairs]
        assert np.array(got).tobytes() == np.array([cosine(u, v) for u, v in pairs]).tobytes()
        with pytest.raises(DimensionMismatch, match=r"dimensions differ: \(2,\) vs \(3,\)"):
            embedded_cosine(embedded(np.ones(2)), embedded(np.ones(3)))

    def test_shape_mismatch_raises_for_list_inputs(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0, 2.0], [[1.0, 2.0]])


def _embedded(vector: np.ndarray):
    return vector, math.sqrt(vector.dot(vector))


class TestEmbeddedCosines:
    """Selection's scores, and so the golden output hashes, rest on ``np.vecdot`` over
    C-contiguous rows taking each row's product exactly as ``ndarray.dot`` takes one
    pair's.  If numpy ever routes ``vecdot`` differently, these fail first."""

    @staticmethod
    def _rows(rng, n: int, dim: int) -> np.ndarray:
        return rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-5, 5, size=(n, 1))

    def test_vecdot_equals_per_row_dot_bytewise(self):
        rng = np.random.default_rng(7)
        cases = [(self._rows(rng, 6, dim), self._rows(rng, 6, dim)) for dim in range(1, 1025)]
        words = ["eggs", "sold", "total", "market", "a", "b", "7", "12"]
        emb = HashEmbedding()
        texts = [" ".join(rng.choice(words, int(rng.integers(0, 12)))) for _ in range(600)]
        hashed = np.array([emb.embed(text) for text in texts])  # sparse, some all zero
        cases.append((hashed[:300], hashed[300:]))
        # four-wide score rows and weights, as select_examples scores them
        cases.append((rng.uniform(-1.0, 1.0, (3000, 4)), rng.uniform(0.0, 2.0, (3000, 4))))
        for u, v in cases:
            assert u.flags.c_contiguous and v.flags.c_contiguous
            per_row = np.array([a.dot(b) for a, b in zip(u, v)])
            assert np.vecdot(u, v).tobytes() == per_row.tobytes()
            broadcast = np.array([a.dot(v[0]) for a in u])
            assert np.vecdot(u, v[0]).tobytes() == broadcast.tobytes()

    def test_equal_embedded_cosine_exactly(self):
        rng = np.random.default_rng(8)
        clamped = 0
        for dim in (1, 2, 3, 5, 16, 255, 256, 1024):
            u, v = self._rows(rng, 60, dim), self._rows(rng, 60, dim)
            v[:20] = -0.5 * u[:20]  # antiparallel
            v[20:30] = 3.0 * u[20:30]
            u[30], v[31] = 0.0, 0.0  # zero norms
            u[32, 0], v[33] = np.nan, np.nan
            left, right = [_embedded(r) for r in u], [_embedded(r) for r in v]
            for one in (right[0], right[31], right[33]):  # a broadcast vector, zero and NaN too
                expected = np.array([embedded_cosine(a, one) for a in left])
                assert embedded_cosines(stacked(left), one).tobytes() == expected.tobytes()
            expected = np.array([embedded_cosine(a, b) for a, b in zip(left, right)])
            got = embedded_cosines(stacked(left), stacked(right))
            assert got.tobytes() == expected.tobytes()
            assert np.isnan(got[[32, 33]]).all() and (got[[30, 31]] == 0.0).all()
            with np.errstate(invalid="ignore", divide="ignore"):
                raw = np.array([a.dot(b) / (na * nb) for (a, na), (b, nb) in zip(left, right)])
            clamped += int(np.sum(np.abs(raw) > 1.0))
        assert clamped > 0  # the clamp fired

    def test_stacked_is_c_contiguous_and_rejects_two_shapes(self):
        rng = np.random.default_rng(9)
        column = [_embedded(r) for r in rng.standard_normal((3, 4))]
        matrix, norms = stacked(column)
        assert matrix.flags.c_contiguous and matrix.shape == (3, 4)
        assert norms.tolist() == [norm for _, norm in column]
        assert not matrix.flags.writeable and not norms.flags.writeable  # memos share them
        with pytest.raises(DimensionMismatch, match=r"\Adimensions differ: \(2,\) vs \(3,\)\Z"):
            stacked([_embedded(np.ones(2)), _embedded(np.ones(2)), _embedded(np.ones(3))])

    def test_dimension_mismatch_keeps_embedded_cosines_message(self):
        rows = stacked([_embedded(np.ones(2))] * 3)
        message = r"\Adimensions differ: \(2,\) vs \(3,\)\Z"
        with pytest.raises(DimensionMismatch, match=message):
            embedded_cosine(_embedded(np.ones(2)), _embedded(np.ones(3)))
        with pytest.raises(DimensionMismatch, match=message):
            embedded_cosines(rows, _embedded(np.ones(3)))
        with pytest.raises(DimensionMismatch, match=message):
            embedded_cosines(rows, stacked([_embedded(np.ones(3))] * 3))


class _FlakyTransport:
    def __init__(self, fail_times: int, response: str = "ok"):
        self.fail_times = fail_times
        self.calls = 0
        self.response = response

    def __call__(self, endpoint, payload, headers):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise requests.ConnectionError("refused")
        return self.response


class TestRemoteProvider:
    @pytest.fixture(autouse=True)
    def sleeps(self, monkeypatch):
        """The waits between attempts, recorded instead of slept."""
        waits = []
        monkeypatch.setattr("time.sleep", waits.append)
        return waits

    def test_unreachable_endpoint_exhausts_retry_budget(self):
        transport = _FlakyTransport(fail_times=99)
        provider = RemoteCompletionProvider(
            endpoint="http://example.invalid", transport=transport
        )
        with pytest.raises(ProviderUnavailable):
            provider.complete(CompletionRequest(prompt="p"))
        assert transport.calls == 3

    def test_timeout_is_retried_then_gives_up(self):
        calls = {"n": 0}

        def transport(endpoint, payload, headers):
            calls["n"] += 1
            raise requests.Timeout("slow")

        provider = RemoteCompletionProvider(
            endpoint="http://example.invalid", transport=transport
        )
        with pytest.raises(ProviderUnavailable, match="gave up after 3 attempts"):
            provider.complete(CompletionRequest(prompt="p"))
        assert calls["n"] == 3

    def test_recovers_after_transient_failures(self):
        transport = _FlakyTransport(fail_times=2, response="answer")
        provider = RemoteCompletionProvider(
            endpoint="http://example.invalid", transport=transport
        )
        assert provider.complete(CompletionRequest(prompt="p")) == "answer"
        assert transport.calls == 3

    def test_retries_wait_half_a_second_then_one(self, sleeps):
        exhausted = _FlakyTransport(fail_times=99)
        provider = RemoteCompletionProvider(endpoint="http://example.invalid", transport=exhausted)
        with pytest.raises(ProviderUnavailable, match="gave up after 3 attempts"):
            provider.complete(CompletionRequest(prompt="p"))
        assert (sleeps, exhausted.calls) == ([0.5, 1.0], 3)

        sleeps.clear()
        transient = _FlakyTransport(fail_times=1, response="answer")
        provider = RemoteCompletionProvider(endpoint="http://example.invalid", transport=transient)
        assert provider.complete(CompletionRequest(prompt="p")) == "answer"
        assert (sleeps, transient.calls) == ([0.5], 2)

    def test_non_retryable_failure_raises_immediately(self):
        def transport(endpoint, payload, headers):
            raise requests.HTTPError("400 bad request")

        provider = RemoteCompletionProvider(
            endpoint="http://example.invalid", transport=transport
        )
        with pytest.raises(ProviderUnavailable):
            provider.complete(CompletionRequest(prompt="p"))

    def test_requires_an_endpoint(self, monkeypatch):
        monkeypatch.delenv("POTSELECT_ENDPOINT", raising=False)
        with pytest.raises(ValueError):
            RemoteCompletionProvider()

    def test_payload_carries_request_fields(self):
        seen = {}

        def transport(endpoint, payload, headers):
            seen.update(payload)
            return "r"

        provider = RemoteCompletionProvider(
            endpoint="http://example.invalid", model_id="m", transport=transport
        )
        provider.complete(CompletionRequest(prompt="p", model_id="m", stop_sequences=("s",)))
        assert seen == {
            "model": "m",
            "prompt": "p",
            "temperature": 0.0,
            "max_tokens": 512,
            "stop": ["s"],
        }


    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b'{"choices": []}',
            b"[1, 2]",
            b'{"text": null}',
            b'{"text": 3}',
            b'{"text": ["a"]}',
        ],
    )
    def test_malformed_body_is_a_provider_error(self, monkeypatch, body):
        from potselect.providers import MalformedResponse

        posts = fake_post(monkeypatch, 200, body)
        provider = RemoteCompletionProvider(endpoint="http://example.invalid")
        with pytest.raises(MalformedResponse):
            provider.complete(CompletionRequest(prompt="p"))
        assert len(posts) == 1

    @pytest.mark.parametrize("text", [None, 3, ["a"]], ids=["null", "number", "list"])
    def test_non_string_text_from_any_transport_is_malformed(self, text):
        from potselect.providers import MalformedResponse

        provider = RemoteCompletionProvider(
            endpoint="http://example.invalid", transport=lambda e, p, h: text
        )
        with pytest.raises(MalformedResponse, match="not a string"):
            provider.complete(CompletionRequest(prompt="p"))

    def test_server_error_is_retried_then_unavailable(self, monkeypatch):
        posts = fake_post(monkeypatch, 503, b"busy")
        provider = RemoteCompletionProvider(endpoint="http://example.invalid")
        with pytest.raises(ProviderUnavailable):
            provider.complete(CompletionRequest(prompt="p"))
        assert len(posts) == 3

    def test_client_error_is_unavailable_after_one_post(self, monkeypatch):
        posts = fake_post(monkeypatch, 400, b'{"error": "bad input"}')
        provider = RemoteCompletionProvider(endpoint="http://example.invalid")
        with pytest.raises(ProviderUnavailable):
            provider.complete(CompletionRequest(prompt="p"))
        assert len(posts) == 1


class TestConceptExtract:
    def test_wraps_fixed_template_and_returns_verbatim(self):
        from potselect.prompts import concept_prompt
        from potselect.providers import concept_extract

        prompt = concept_prompt("How many eggs?")
        provider = ScriptedProvider([Fixture("exact", prompt, "  arithmetic, totals  ")])
        services = Services(completion=provider, embedding=HashEmbedding())
        assert concept_extract("How many eggs?", services) == "  arithmetic, totals  "

    def test_empty_input_still_issues_the_template(self):
        from potselect.prompts import concept_prompt
        from potselect.providers import concept_extract

        provider = ScriptedProvider([Fixture("exact", concept_prompt(""), "none")])
        services = Services(completion=provider, embedding=HashEmbedding())
        assert concept_extract("", services) == "none"
        assert provider.calls == 1


class TestServices:
    def test_complete_text_uses_provider_model_id(self):
        provider = ScriptedProvider([Fixture("exact", "p", "r")])
        services = Services(completion=provider, embedding=HashEmbedding())
        assert services.complete_text("p") == "r"

    def test_complete_text_sends_the_request_that_request_builds(self, request_ledger):
        provider = ScriptedProvider([Fixture("exact", "p", "r")])
        provider.model_id = "m"
        services = Services(completion=provider, embedding=HashEmbedding())
        request = services.request("p", ("s",))
        assert request == CompletionRequest(prompt="p", model_id="m", stop_sequences=("s",))
        assert services.complete(request) == services.complete_text("p", stop_sequences=("s",))
        assert request_ledger.sent == [request, request]

    @settings(max_examples=200, deadline=None)
    @given(_fixtures_and_prompts())
    def test_a_cache_never_changes_a_response(self, case):
        fixtures, prompts = case
        plain = Services(ScriptedProvider(fixtures), HashEmbedding())
        with tempfile.TemporaryDirectory() as directory:
            cached = Services(ScriptedProvider(fixtures), HashEmbedding(), CacheStore(directory))
            for prompt in prompts:
                assert _answer(plain.complete_text, prompt) == _answer(cached.complete_text, prompt)
            # the next run reads the entries from disk and needs no fixture
            warm = Services(ScriptedProvider([]), HashEmbedding(), CacheStore(directory))
            for prompt in prompts:
                assert _answer(plain.complete_text, prompt) == _answer(warm.complete_text, prompt)

    def test_embed_memoizes(self):
        class CountingEmbedding:
            def __init__(self):
                self.calls = 0

            def embed(self, text):
                self.calls += 1
                return np.ones(4)

        embedding = CountingEmbedding()
        services = Services(completion=ScriptedProvider([]), embedding=embedding)
        services.embed("t")
        services.embed("t")
        assert embedding.calls == 1

    def test_shared_embeddings_are_read_only(self):
        services = Services(completion=ScriptedProvider([]), embedding=HashEmbedding())
        before = cosine(services.embed("total eggs sold"), services.embed("eggs sold today"))
        vector = services.embed("total eggs sold")
        with pytest.raises(ValueError, match="read-only"):
            vector *= -1
        with pytest.raises(ValueError, match="read-only"):
            services.embed_with_norm("eggs sold today")[0][0] = 1.0
        after = cosine(services.embed("total eggs sold"), services.embed("eggs sold today"))
        assert after == before == pytest.approx(2 / 3)

    def test_embed_with_norm_keeps_a_float64_vector_beside_its_norm(self):
        embedding = StubEmbedding({"t": [3, 4]})
        services = Services(completion=ScriptedProvider([]), embedding=embedding)
        vector, norm = services.embed_with_norm("t")
        assert vector.dtype == np.float64 and vector.tolist() == [3.0, 4.0]
        assert norm == 5.0
        assert services.embed("t") is vector
        assert services.embed_with_norm("t")[0] is vector
