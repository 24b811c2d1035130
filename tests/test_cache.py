"""Content-addressed response cache: idempotence, corruption, round-trips."""

from __future__ import annotations

import pytest

from potselect.cache import CacheCorrupt, CacheStore, _read_entry
from potselect.providers import CompletionRequest, Fixture, NoFixture

from conftest import make_services


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "cache")


def _services(store, response="r"):
    return make_services([Fixture("pattern", r"(?s).*", response)], cache=store)


class TestCachedComplete:
    """The cache round-trip of ``Services.complete_text``."""

    def test_idempotence_one_provider_call_for_n_requests(self, store):
        services = _services(store)
        for _ in range(5):
            assert services.complete_text("p") == "r"
        assert services.completion.calls == 1

    def test_distinct_model_ids_and_stop_sequences_are_distinct_keys(self, store):
        services = _services(store)
        services.complete_text("p")
        services.complete_text("p", stop_sequences=("x",))
        other = _services(store)
        other.completion.model_id = "other"
        other.complete_text("p")
        assert (services.completion.calls, other.completion.calls) == (2, 1)
        assert store.stats()["entries"] == 3

    def test_no_cache_passes_through(self):
        services = _services(None)
        services.complete_text("p")
        services.complete_text("p")
        assert services.completion.calls == 2

    def test_provider_errors_propagate_and_nothing_is_stored(self, store):
        services = make_services([], cache=store)
        with pytest.raises(NoFixture):
            services.complete_text("p")
        assert store.stats()["entries"] == 0


class TestCorruption:
    def test_tampered_entry_quarantined_then_refetched(self, store):
        services = _services(store, "original")
        request = CompletionRequest(prompt="p")
        services.complete_text("p")
        path = store.directory / request.key()
        path.write_bytes(path.read_bytes().replace(b"original", b"tampered!"))

        assert services.complete_text("p") == "original"
        assert services.completion.calls == 2
        assert store.stats()["quarantined"] == 1
        assert store.stats()["entries"] == 1

    def test_wrong_key_in_header_is_corrupt(self, store):
        request = CompletionRequest(prompt="p")
        _services(store).complete_text("p")
        path = store.directory / request.key()
        blob = path.read_bytes()
        path.write_bytes(blob.replace(request.key().encode()[:8], b"deadbeef", 1))
        with pytest.raises(CacheCorrupt):
            _read_entry(path)

    def test_truncated_entry_is_corrupt(self, store):
        request = CompletionRequest(prompt="p")
        _services(store).complete_text("p")
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
        prompt = "p with unicode ∆ and\nnewlines"
        request = CompletionRequest(prompt=prompt)
        assert _services(store, response).complete_text(prompt) == response
        assert store.get(request) == response

    def test_entry_header_fields(self, store):
        request = CompletionRequest(prompt="p")
        _services(store, "resp").complete_text("p")
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
    _services(store).complete_text("a")
    (store.directory / "notes.txt").write_text("not an entry")
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
