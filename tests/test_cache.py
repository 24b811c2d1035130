"""Content-addressed response cache: idempotence, corruption, round-trips."""

from __future__ import annotations

import pytest

from potselect.cache import CacheCorrupt, CacheStore, _read_entry, cached_complete
from potselect.providers import CompletionRequest, Fixture, NoFixture, ScriptedProvider


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "cache")


def _provider(response="r"):
    return ScriptedProvider([Fixture("pattern", r"(?s).*", response)])


class TestCachedComplete:
    def test_idempotence_one_provider_call_for_n_requests(self, store):
        provider = _provider()
        request = CompletionRequest(prompt="p")
        for _ in range(5):
            assert cached_complete(request, store, provider) == "r"
        assert provider.calls == 1

    def test_distinct_temperatures_are_distinct_keys(self, store):
        provider = _provider()
        cached_complete(CompletionRequest(prompt="p", temperature=0.0), store, provider)
        cached_complete(CompletionRequest(prompt="p", temperature=0.7), store, provider)
        assert provider.calls == 2
        assert store.stats()["entries"] == 2

    def test_no_cache_passes_through(self):
        provider = _provider()
        request = CompletionRequest(prompt="p")
        cached_complete(request, None, provider)
        cached_complete(request, None, provider)
        assert provider.calls == 2

    def test_provider_errors_propagate_and_nothing_is_stored(self, store):
        provider = ScriptedProvider([])
        with pytest.raises(NoFixture):
            cached_complete(CompletionRequest(prompt="p"), store, provider)
        assert store.stats()["entries"] == 0


class TestCorruption:
    def test_tampered_entry_quarantined_then_refetched(self, store):
        provider = _provider("original")
        request = CompletionRequest(prompt="p")
        cached_complete(request, store, provider)
        path = store.directory / request.key()
        path.write_bytes(path.read_bytes().replace(b"original", b"tampered!"))

        assert cached_complete(request, store, provider) == "original"
        assert provider.calls == 2
        assert store.stats()["quarantined"] == 1
        assert store.stats()["entries"] == 1

    def test_wrong_key_in_header_is_corrupt(self, store):
        provider = _provider()
        request = CompletionRequest(prompt="p")
        cached_complete(request, store, provider)
        path = store.directory / request.key()
        blob = path.read_bytes()
        path.write_bytes(blob.replace(request.key().encode()[:8], b"deadbeef", 1))
        with pytest.raises(CacheCorrupt):
            _read_entry(path)

    def test_truncated_entry_is_corrupt(self, store):
        provider = _provider()
        request = CompletionRequest(prompt="p")
        cached_complete(request, store, provider)
        path = store.directory / request.key()
        path.write_bytes(path.read_bytes()[:-2])
        assert store.get(request) is None
        assert store.stats()["quarantined"] == 1

    def test_response_that_is_not_utf8_is_quarantined(self, store):
        request = CompletionRequest(prompt="p")
        store.put(request, "café", "scripted")
        path = store.directory / request.key()
        path.write_bytes(path.read_bytes().replace("é".encode(), b"\xc3\x29"))
        assert store.get(request) is None
        assert not path.exists()
        assert path.with_name(request.key() + ".corrupt").exists()
        assert store.stats() == {"entries": 0, "bytes": 0, "quarantined": 1}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "response",
        [
            "plain",
            "",
            "multi\nline\n\nwith blanks\n",
            "unicode: ∑ αβγ — テスト\r\nwindows line",
            "trailing spaces   \n\ttabs\t",
            "key: sneaky\n\nheader-like body",
        ],
    )
    def test_response_round_trips_bit_exact(self, store, response):
        provider = _provider(response)
        request = CompletionRequest(prompt="p with unicode ∆ and\nnewlines")
        assert cached_complete(request, store, provider) == response
        assert store.get(request) == response

    def test_entry_header_fields(self, store):
        provider = _provider("resp")
        request = CompletionRequest(prompt="p")
        cached_complete(request, store, provider)
        entry = _read_entry(store.directory / request.key())
        assert entry.key == request.key()
        assert entry.provider_id == "scripted"
        assert entry.response == "resp"
        assert entry.created_at  # informational timestamp present

    def test_double_put_same_key_is_benign(self, store):
        request = CompletionRequest(prompt="p")
        store.put(request, "r", "scripted")
        store.put(request, "r", "scripted")
        assert store.get(request) == "r"
        assert store.stats()["entries"] == 1


def test_stats_counts_only_well_named_entries(store):
    provider = _provider()
    cached_complete(CompletionRequest(prompt="a"), store, provider)
    (store.directory / "notes.txt").write_text("not an entry")
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
