"""Content-addressed response cache: idempotence, corruption, round-trips."""

from __future__ import annotations

import os

import pytest

from potselect import records
from potselect.cache import CacheCorrupt, CacheStore, _read_entry
from potselect.providers import CompletionRequest, Fixture, NoFixture

from conftest import failing_open, make_services


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
    """An entry damaged on disk is quarantined by the next store that reads it,
    here a fresh one over the same directory, as the next run's is."""

    def test_tampered_entry_quarantined_then_refetched(self, store):
        _services(store, "original").complete_text("p")
        path = store.directory / CompletionRequest(prompt="p").key()
        path.write_bytes(path.read_bytes().replace(b"original", b"tampered!"))

        rerun = _services(CacheStore(store.directory), "original")  # the next run
        assert rerun.complete_text("p") == "original"
        assert rerun.completion.calls == 1
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
        assert CacheStore(store.directory).get(request) is None
        assert store.stats()["quarantined"] == 1

    def test_response_that_is_not_utf8_is_quarantined(self, store):
        request = CompletionRequest(prompt="p")
        store.put(request, "café", "scripted")
        path = store.directory / request.key()
        path.write_bytes(path.read_bytes().replace("é".encode(), b"\xc3\x29"))
        assert CacheStore(store.directory).get(request) is None
        assert not path.exists()
        assert path.with_name(request.key() + ".corrupt").exists()
        assert store.stats() == {"entries": 0, "bytes": 0, "quarantined": 1}


class TestConcurrentProcesses:
    """Another process sharing the directory may remove or quarantine an entry
    between two steps of ``get``; either is a miss, not an error.  The reader is
    a fresh store, as another process's is."""

    def test_an_entry_removed_before_it_is_read_is_a_miss(self, store, monkeypatch):
        request = CompletionRequest(prompt="p")
        store.put(request, "r", "scripted")

        def removed_first(path):
            path.unlink()  # the other process
            return _read_entry(path)

        monkeypatch.setattr("potselect.cache._read_entry", removed_first)
        assert CacheStore(store.directory).get(request) is None
        assert store.stats() == {"entries": 0, "bytes": 0, "quarantined": 0}

    def test_an_entry_quarantined_first_by_another_process_is_a_miss(self, store, monkeypatch):
        request = CompletionRequest(prompt="p")
        store.put(request, "r", "scripted")
        path = store.directory / request.key()
        path.write_bytes(path.read_bytes()[:-1])
        replace = os.replace

        def quarantined_first(source, target):
            replace(source, target)  # the other process
            replace(source, target)

        monkeypatch.setattr("potselect.cache.os.replace", quarantined_first)
        assert CacheStore(store.directory).get(request) is None
        assert store.stats() == {"entries": 0, "bytes": 0, "quarantined": 1}


class TestReadOnce:
    """A store reads and verifies an entry file at most once and then serves it
    from memory; a miss, a corrupt entry or a failed ``put`` leaves nothing in
    memory, so the next ``get`` reads the disk again."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The names of the files ``_read_entry`` is asked to read, in order."""
        names = []

        def counting(path):
            names.append(path.name)
            return _read_entry(path)

        monkeypatch.setattr("potselect.cache._read_entry", counting)
        return names

    def test_after_put_no_get_reads_the_disk(self, store, reads):
        request = CompletionRequest(prompt="p")
        store.put(request, "r", "scripted")
        assert [store.get(request) for _ in range(5)] == ["r"] * 5
        assert reads == []

    def test_a_fresh_store_reads_an_entry_once(self, store, reads):
        store.put(CompletionRequest(prompt="p"), "r", "scripted")
        fresh = CacheStore(store.directory)
        # equal requests, not one object, find the response in memory
        assert [fresh.get(CompletionRequest(prompt="p")) for _ in range(5)] == ["r"] * 5
        assert reads == [CompletionRequest(prompt="p").key()]

    def test_a_missing_entry_is_read_again(self, store, reads):
        request = CompletionRequest(prompt="p")
        assert store.get(request) is None
        assert store.get(request) is None
        CacheStore(store.directory).put(request, "r", "scripted")  # another process
        assert store.get(request) == "r"
        assert store.get(request) == "r"
        assert reads == [request.key()] * 3

    def test_a_corrupt_entry_is_read_again(self, store, reads):
        request = CompletionRequest(prompt="p")
        store.put(request, "r", "scripted")
        path = store.directory / request.key()
        path.write_bytes(path.read_bytes()[:-1])
        fresh = CacheStore(store.directory)
        assert fresh.get(request) is None  # quarantined
        assert fresh.get(request) is None  # and now missing
        store.put(request, "r", "scripted")
        assert fresh.get(request) == "r"
        assert fresh.get(request) == "r"
        assert reads == [request.key()] * 3
        assert store.stats() == {"entries": 1, "bytes": path.stat().st_size, "quarantined": 1}

    def test_a_failed_put_leaves_nothing_in_memory(self, store, reads, monkeypatch):
        request = CompletionRequest(prompt="p")
        replace = os.replace

        def full_disk(source, target):
            raise OSError("no space left on device")

        monkeypatch.setattr("potselect.cache.os.replace", full_disk)
        with pytest.raises(OSError):
            store.put(request, "r", "scripted")
        monkeypatch.setattr("potselect.cache.os.replace", replace)
        assert store.get(request) is None
        assert reads == [request.key()]
        assert list(store.directory.iterdir()) == []

    @pytest.mark.parametrize("failing", ["header", "request", "response", "rename"])
    def test_a_failed_put_leaves_the_earlier_entry_whole(self, store, reads, monkeypatch, failing):
        """A put that fails at any of its three writes or at its rename leaves the
        entry an earlier run wrote, no temporary file and nothing in memory."""
        request = CompletionRequest(prompt="p")
        CacheStore(store.directory).put(request, "first", "scripted")  # an earlier run
        path = store.directory / request.key()
        earlier = path.read_bytes()

        def full_disk(source, target):
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            if failing == "rename":
                patch.setattr(records.os, "replace", full_disk)
            else:
                write_no = ["header", "request", "response"].index(failing) + 1
                patch.setattr(records, "open", failing_open(0, write_no), raising=False)
            with pytest.raises(OSError):
                store.put(request, "second", "scripted")
        assert list(store.directory.iterdir()) == [path]
        assert path.read_bytes() == earlier
        assert store.get(request) == "first"
        assert reads == [request.key()]

    def test_a_put_after_a_get_replaces_what_memory_serves(self, store):
        request = CompletionRequest(prompt="p")
        store.put(request, "first", "scripted")
        assert store.get(request) == "first"
        store.put(request, "second", "scripted")
        assert store.get(request) == CacheStore(store.directory).get(request) == "second"


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
            "ans = 1\ud800 lone surrogates \udfff\udc80",
        ],
    )
    def test_response_round_trips_bit_exact(self, store, response):
        prompt = "p with unicode ∆ and\nnewlines"
        request = CompletionRequest(prompt=prompt)
        assert _services(store, response).complete_text(prompt) == response
        assert CacheStore(store.directory).get(request) == response  # read from disk

    def test_a_prompt_with_a_lone_surrogate_round_trips_through_a_fresh_store(self, store):
        request = CompletionRequest(prompt="q\ud800", stop_sequences=("\udfff",))
        store.put(request, "r\udc80", "scripted")
        assert CacheStore(store.directory).get(request) == "r\udc80"
        assert CacheStore(store.directory).get(CompletionRequest(prompt="q\udc00")) is None
        assert store.stats() == {
            "entries": 1, "bytes": (store.directory / request.key()).stat().st_size, "quarantined": 0
        }

    def test_entry_header_fields(self, store):
        """The header names the key, the provider and the time of writing; no
        reader uses the last two, but an entry without either is corrupt."""
        request = CompletionRequest(prompt="p")
        _services(store, "resp").complete_text("p")
        path = store.directory / request.key()
        blob = path.read_bytes()
        head = blob.partition(b"\n\n")[0].decode()
        fields = dict(line.split(": ", 1) for line in head.split("\n"))
        assert (fields["key"], fields["provider_id"]) == (request.key(), "scripted")
        assert fields["created_at"]  # informational timestamp present
        assert _read_entry(path) == (request.key(), "resp")
        for name in ("provider_id", "created_at"):
            path.write_bytes(blob.replace(f"{name}: {fields[name]}\n".encode(), b""))
            with pytest.raises(CacheCorrupt, match=f"bad header: '{name}'"):
                _read_entry(path)

    def test_put_names_the_entry_by_key_and_stores_the_canonical_request(self, store):
        request = CompletionRequest(prompt="∑ \ud7ff\n", model_id="m", stop_sequences=("Q:",))
        store.put(request, "r", "scripted")
        blob = (store.directory / request.key()).read_bytes()
        assert blob.endswith(b"\n\n" + request.canonical().encode("utf-8") + b"r")

    def test_double_put_same_key_is_benign(self, store):
        request = CompletionRequest(prompt="p")
        store.put(request, "r", "scripted")
        store.put(request, "r", "scripted")
        assert CacheStore(store.directory).get(request) == "r"
        assert store.stats()["entries"] == 1


def test_stats_counts_only_well_named_entries(store):
    _services(store).complete_text("a")
    (store.directory / "notes.txt").write_text("not an entry")
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
