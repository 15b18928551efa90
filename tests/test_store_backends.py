"""Tests for the store backend stack: URLs, codec, local/HTTP/tiered.

Pins the seams the multi-node story stands on: store-URL parsing with
exit-2 diagnostics, the byte-level record codec (including the
pre-refactor on-disk layout read warm by the new stack), exactly-one-
winner claim races on both lease arbiters, lease-TTL expiry handover,
cross-backend export/import byte-identity, and claim-before-compute
deferral in ``run_suite``.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.cli import main
from repro.store import (
    ResultStore,
    StoreKey,
    StoreURLError,
    open_backend,
    run_suite,
    split_store_url,
)
from repro.store import codec
from repro.store.local import LocalBackend
from repro.store.remote import HTTPBackend, serve
from repro.store.tiered import TieredBackend

#: Overrides that shrink fig01 to test scale (also part of the key).
TINY = {"accesses": 120, "seed": 1}


@pytest.fixture
def http_server(tmp_path):
    """An in-thread ``repro store serve`` daemon over a temp directory."""
    server = serve(str(tmp_path / "served"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


def _key(tag="k"):
    return StoreKey("cell", {"benchmark": "gcc", "selector": tag})


class TestStoreURLs:
    def test_bare_path_means_dir(self):
        assert split_store_url(".repro-store") == ("dir", ".repro-store")
        assert split_store_url("/var/s") == ("dir", "/var/s")

    def test_explicit_dir(self):
        assert split_store_url("dir:/var/s") == ("dir", "/var/s")

    def test_http_keeps_full_url(self):
        assert split_store_url("http://h:1") == ("http", "http://h:1")
        assert split_store_url("https://h:1") == ("https", "https://h:1")

    def test_windowsish_single_letter_prefix_is_a_scheme_error(self):
        with pytest.raises(StoreURLError):
            split_store_url("c:store")

    def test_unknown_scheme_lists_supported_and_suggests(self):
        with pytest.raises(StoreURLError) as excinfo:
            split_store_url("dri:/var/s")
        message = str(excinfo.value)
        assert "dir, http, https, tiered" in message
        assert "did you mean" in message and "dir" in excinfo.value.suggestions

    def test_unknown_scheme_without_suggestion(self):
        with pytest.raises(StoreURLError) as excinfo:
            split_store_url("s3://bucket/x")
        assert excinfo.value.scheme == "s3"

    def test_open_backend_kinds(self, tmp_path, http_server):
        local = open_backend(str(tmp_path / "a"))
        assert isinstance(local, LocalBackend)
        remote = open_backend(http_server)
        assert isinstance(remote, HTTPBackend)
        tiered = open_backend(f"tiered:{tmp_path / 'b'}+{http_server}")
        assert isinstance(tiered, TieredBackend)
        assert isinstance(tiered.local, LocalBackend)
        assert isinstance(tiered.remote, HTTPBackend)

    def test_tiered_splits_on_last_plus(self, tmp_path, http_server):
        root = str(tmp_path / "a+b")
        tiered = open_backend(f"tiered:{root}+{http_server}")
        assert tiered.local.root == root

    def test_malformed_tiered_rejected(self):
        with pytest.raises(ValueError):
            open_backend("tiered:only-one-side")

    def test_store_url_error_is_value_error(self):
        assert issubclass(StoreURLError, ValueError)


class TestCLIUnknownScheme:
    def test_store_command_exits_2(self, capsys):
        assert main(["store", "--store", "s3://bucket", "stats"]) == 2
        err = capsys.readouterr().err
        assert "unknown store scheme 's3'" in err
        assert "dir, http, https, tiered" in err

    def test_suite_command_exits_2_with_did_you_mean(self, capsys):
        assert main(["suite", "fig01", "--store", "dirr:/tmp/x"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "dir" in err

    def test_serve_requires_local_store(self, http_server, capsys):
        assert main(["store", "--store", http_server, "serve"]) == 2
        assert "local directory store" in capsys.readouterr().err


class TestCodec:
    def test_round_trip(self):
        key = _key()
        record = codec.build_record(key, {"ipc": 1.25}, {"benchmark": "gcc"})
        content = codec.encode_record(record)
        decoded, problem = codec.decode_record(content)
        assert problem is None
        assert decoded == record

    def test_corrupt_footer_flagged(self):
        content = codec.encode_record(
            codec.build_record(_key(), {"ipc": 1.0}, None)
        )
        tampered = content.replace(b"1.0", b"9.9")
        _, problem = codec.decode_record(tampered)
        assert problem is not None

    def test_pre_refactor_byte_layout_reads_warm(self, tmp_path):
        """Hand-written old-format bytes are hits for the new stack.

        This is the byte-compatibility contract: the encoder is the
        pre-refactor one (insertion-ordered JSON body + blake2b-16
        footer), so a store populated before the backend split reads
        warm with zero recomputation.
        """
        import hashlib

        key = _key("alecto")
        value = {"ipc": 1.5, "table_misses": 3}
        # The exact pre-refactor serialization, written by hand.
        body = json.dumps(
            {
                "schema": "repro.store.v1",
                "kind": key.kind,
                "key": key.payload,
                "key_digest": key.digest,
                "value": value,
                "meta": {"benchmark": "gcc"},
            },
            default=float,
        ).encode("utf-8")
        footer = json.dumps(
            {
                "blake2b": hashlib.blake2b(
                    body, digest_size=16
                ).hexdigest()
            }
        ).encode("utf-8")
        root = tmp_path / "old-store"
        shard = root / key.digest[:2]
        shard.mkdir(parents=True)
        (shard / f"{key.digest}.json").write_bytes(body + b"\n" + footer + b"\n")

        store = ResultStore(str(root))
        assert store.get_value(key) == value
        assert store.verify() == []
        # And the new encoder writes those exact bytes back.
        assert codec.encode_record(
            codec.build_record(key, value, {"benchmark": "gcc"})
        ) == body + b"\n" + footer + b"\n"


def _race_claim(url, digest, start, results):
    backend = open_backend(url)
    start.wait()
    results.put(backend.claim(digest, 30.0))


class TestClaimRaces:
    @staticmethod
    def _race(url, claimants=4):
        ctx = multiprocessing.get_context("fork")
        start = ctx.Event()
        results = ctx.Queue()
        digest = _key().digest
        procs = [
            ctx.Process(target=_race_claim, args=(url, digest, start, results))
            for _ in range(claimants)
        ]
        for proc in procs:
            proc.start()
        start.set()
        outcomes = [results.get(timeout=30) for _ in procs]
        for proc in procs:
            proc.join(timeout=30)
        return outcomes

    def test_local_claim_race_has_one_winner(self, tmp_path):
        outcomes = self._race(str(tmp_path / "store"))
        assert sorted(outcomes) == [False, False, False, True]

    def test_http_claim_race_has_one_winner(self, http_server):
        outcomes = self._race(http_server)
        assert sorted(outcomes) == [False, False, False, True]

    @pytest.mark.parametrize("backend_url", ["local", "http"])
    def test_expired_lease_hands_over(self, tmp_path, http_server, backend_url):
        url = str(tmp_path / "store") if backend_url == "local" else http_server
        digest = _key().digest
        first = open_backend(url)
        second = open_backend(url)
        assert first.claim(digest, 0.05)
        assert not second.claim(digest, 30.0)  # still held
        time.sleep(0.1)
        assert second.claim(digest, 30.0)  # TTL passed: abandoned → taken
        assert not first.claim(digest, 30.0)  # ...and now excludes first

    def test_release_is_owner_checked(self, tmp_path):
        url = str(tmp_path / "store")
        digest = _key().digest
        first = open_backend(url)
        second = open_backend(url)
        assert first.claim(digest, 30.0)
        second.release(digest)  # not the owner: must be a no-op
        assert not second.claim(digest, 30.0)
        first.release(digest)
        assert second.claim(digest, 30.0)

    def test_same_owner_reclaim_renews(self, tmp_path):
        backend = open_backend(str(tmp_path / "store"))
        digest = _key().digest
        assert backend.claim(digest, 30.0)
        assert backend.claim(digest, 30.0)  # renewal, not a conflict
        assert backend.counters.lease_conflicts == 0


class TestHTTPBackend:
    def test_put_get_round_trip(self, http_server):
        store = ResultStore(http_server)
        key = _key()
        store.put(key, {"ipc": 2.0}, meta={"benchmark": "gcc"})
        assert store.get_value(key) == {"ipc": 2.0}
        assert store.contains(key)
        assert store.verify() == []

    def test_conditional_get_hits_etag_cache(self, http_server):
        store = ResultStore(http_server)
        key = _key()
        store.put(key, {"ipc": 2.0})
        store.get_value(key)
        before = store.backend.counters.conditional_get_hits
        store.get_value(key)
        assert store.backend.counters.conditional_get_hits == before + 1

    def test_put_rejects_digest_mismatch(self, http_server):
        backend = open_backend(http_server)
        content = codec.encode_record(
            codec.build_record(_key(), {"ipc": 1.0}, None)
        )
        with pytest.raises(OSError):
            backend.put_bytes("ab" * 16, content)  # wrong address

    def test_put_rejects_garbage(self, http_server):
        backend = open_backend(http_server)
        with pytest.raises(OSError):
            backend.put_bytes("ab" * 16, b"not a record")

    def test_list_and_delete(self, http_server):
        store = ResultStore(http_server)
        key = _key()
        store.put(key, {"ipc": 2.0})
        assert list(store.backend.list_keys()) == [key.digest]
        assert store.backend.delete(key.digest)
        assert not store.backend.delete(key.digest)
        assert store.get_value(key) is None

    def test_unreachable_server_claim_fails_open(self):
        store = ResultStore("http://127.0.0.1:9")  # discard port: refused
        key = _key()
        assert store.claim(key, 30.0)  # fail open: compute anyway
        store.release(key)  # must not raise

    def test_unreachable_server_get_degrades_to_miss(self):
        store = ResultStore("http://127.0.0.1:9")
        assert store.get_value(_key()) is None
        assert store.stats.get_retries > 0

    def test_remote_store_has_no_local_root(self, http_server):
        store = ResultStore(http_server)
        assert store.local_root is None
        assert store.summary()["backend"]["type"] == "http"


def _send_with_length(url, method, path, length):
    """One request with a hand-set Content-Length and no body."""
    import http.client
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest(method, path)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestContentLength:
    """A bad Content-Length is answered at once, never read or raised on."""

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5", "+7"])
    @pytest.mark.parametrize(
        "method, prefix", [("PUT", "/records/"), ("POST", "/leases/")]
    )
    def test_malformed_length_is_400(self, http_server, method, prefix, length):
        status, document = _send_with_length(
            http_server, method, prefix + "ab" * 16, length
        )
        assert status == 400
        assert "Content-Length" in document["error"]
        assert list(open_backend(http_server).list_keys()) == []

    def test_oversized_length_is_413_unread(self, http_server):
        from repro.store.remote import MAX_BODY_BYTES

        status, document = _send_with_length(
            http_server, "PUT", "/records/" + "ab" * 16, str(MAX_BODY_BYTES + 1)
        )
        assert status == 413
        assert str(MAX_BODY_BYTES) in document["error"]
        # The daemon still serves a well-formed request afterwards.
        store = ResultStore(http_server)
        store.put(_key(), {"ipc": 1.0})
        assert store.get_value(_key()) == {"ipc": 1.0}


class TestTieredBackend:
    def test_read_through_promotes(self, tmp_path, http_server):
        shared = ResultStore(http_server)
        key = _key()
        shared.put(key, {"ipc": 3.0})

        local_root = str(tmp_path / "tier")
        tiered = ResultStore(f"tiered:{local_root}+{http_server}")
        assert tiered.get_value(key) == {"ipc": 3.0}
        assert tiered.backend.counters.tier_promotions == 1
        # Promoted copy is byte-identical and served locally next time.
        roundtrips = tiered.backend.remote.counters.remote_roundtrips
        assert tiered.get_value(key) == {"ipc": 3.0}
        assert tiered.backend.remote.counters.remote_roundtrips == roundtrips
        assert tiered.backend.local.get_bytes(key.digest) == shared.backend.get_bytes(
            key.digest
        )

    def test_write_through_lands_in_both_tiers(self, tmp_path, http_server):
        tiered = ResultStore(f"tiered:{tmp_path / 'tier'}+{http_server}")
        key = _key()
        tiered.put(key, {"ipc": 4.0})
        assert tiered.backend.local.get_bytes(key.digest) is not None
        assert tiered.backend.remote.get_bytes(key.digest) is not None

    def test_leases_go_to_the_remote(self, tmp_path, http_server):
        tiered = ResultStore(f"tiered:{tmp_path / 'a'}+{http_server}")
        other = ResultStore(http_server)
        key = _key()
        assert tiered.claim(key, 30.0)
        assert not other.backend.claim(key.digest, 30.0)
        tiered.release(key)
        assert other.backend.claim(key.digest, 30.0)

    def test_journal_root_is_the_local_tier(self, tmp_path, http_server):
        local_root = str(tmp_path / "tier")
        tiered = ResultStore(f"tiered:{local_root}+{http_server}")
        assert tiered.local_root == local_root


class TestCrossBackendExportImport:
    def test_dir_to_http_round_trips_byte_identically(
        self, tmp_path, http_server
    ):
        source = ResultStore(str(tmp_path / "src"))
        keys = [_key(tag) for tag in ("a", "b", "c")]
        for index, key in enumerate(keys):
            source.put(key, {"ipc": 1.0 + index}, meta={"benchmark": "gcc"})
        archive = str(tmp_path / "records.jsonl.gz")
        assert source.export(archive) == len(keys)

        target = ResultStore(http_server)
        assert target.import_archive(archive) == len(keys)
        for key in keys:
            assert target.backend.get_bytes(key.digest) == source.backend.get_bytes(
                key.digest
            )
        assert target.verify() == []

    def test_http_to_dir_round_trips_byte_identically(
        self, tmp_path, http_server
    ):
        source = ResultStore(http_server)
        key = _key()
        source.put(key, {"ipc": 9.0})
        archive = str(tmp_path / "records.jsonl.gz")
        assert source.export(archive) == 1
        target = ResultStore(str(tmp_path / "dst"))
        assert target.import_archive(archive) == 1
        assert target.backend.get_bytes(key.digest) == source.backend.get_bytes(
            key.digest
        )


class TestClaimBeforeCompute:
    def test_expired_peer_lease_is_taken_over(self, tmp_path, monkeypatch):
        """A peer that claimed and died hands its cell to this node."""
        from repro.experiments.runner import resolve_experiments
        from repro.store.keys import experiment_key

        monkeypatch.setenv("REPRO_LEASE_TTL", "0.2")
        store = ResultStore(str(tmp_path / "store"))
        (name, _, params), = resolve_experiments(["fig01"], overrides=TINY)
        key = experiment_key(name, params)
        peer = ResultStore(str(tmp_path / "store"))
        assert peer.backend.claim(key.digest, 0.2)  # then the peer "dies"

        report = run_suite(["fig01"], overrides=TINY, store=store)
        assert report.deferred == ["fig01"]
        assert report.computed == ["fig01"]
        assert store.get_value(key) is not None

    def test_peer_record_is_adopted_without_computing(
        self, tmp_path, monkeypatch
    ):
        """While a peer holds the lease, its landed record is a hit."""
        from repro.experiments.runner import resolve_experiments
        from repro.sim import simulation_count
        from repro.store.keys import experiment_key

        # Warm a scratch store to obtain the exact record bytes a peer
        # would publish.
        scratch = ResultStore(str(tmp_path / "scratch"))
        run_suite(["fig01"], overrides=TINY, store=scratch)
        (name, _, params), = resolve_experiments(["fig01"], overrides=TINY)
        key = experiment_key(name, params)
        record_bytes = scratch.backend.get_bytes(key.digest)
        assert record_bytes is not None

        store = ResultStore(str(tmp_path / "store"))
        peer = ResultStore(str(tmp_path / "store"))
        assert peer.backend.claim(key.digest, 60.0)

        def land_record():
            time.sleep(0.3)
            peer.backend.put_bytes(key.digest, record_bytes)
            peer.backend.release(key.digest)

        publisher = threading.Thread(target=land_record)
        publisher.start()
        before = simulation_count()
        try:
            report = run_suite(["fig01"], overrides=TINY, store=store)
        finally:
            publisher.join()
        assert report.deferred == ["fig01"]
        assert report.cached == ["fig01"]
        assert report.computed == []
        assert simulation_count() - before == 0


class TestServeDaemonWiring:
    def test_health_and_keys_endpoints(self, http_server):
        import urllib.request

        with urllib.request.urlopen(f"{http_server}/healthz", timeout=5) as r:
            assert json.load(r) == {"ok": True}
        with urllib.request.urlopen(f"{http_server}/keys", timeout=5) as r:
            assert json.load(r) == []

    def test_two_node_smoke_zero_simulations_on_warm_node(
        self, tmp_path, http_server
    ):
        """Node A computes through HTTP; node B (empty local tier) reads
        everything warm — zero simulations, byte-identical rows."""
        from repro.sim import simulation_count

        node_a = ResultStore(http_server)
        cold = run_suite(["fig01"], overrides=TINY, store=node_a)
        assert cold.computed == ["fig01"]

        node_b = ResultStore(f"tiered:{tmp_path / 'b-local'}+{http_server}")
        before = simulation_count()
        warm = run_suite(["fig01"], overrides=TINY, store=node_b)
        assert simulation_count() - before == 0
        assert warm.cached == ["fig01"] and warm.computed == []
        assert json.dumps(cold.results[0].to_dict()) == json.dumps(
            warm.results[0].to_dict()
        )
        assert node_b.verify() == []
