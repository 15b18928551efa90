"""The async job API: jobspec canonicalization, server, and idempotency."""

import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.experiments.runner import RetryPolicy
from repro.jobs import (
    JOBSPEC_SCHEMA,
    JobClient,
    JobServerError,
    JobSpecError,
    canonical_json,
    canonicalize_jobspec,
    job_digest,
    serve,
)

#: Tiny deterministic scale shared by every live-execution test.
TINY = {"accesses": 120, "seed": 1}

#: Retries must not dominate test wall-clock.
FAST_POLICY = RetryPolicy(backoff_base=0.01, backoff_max=0.02)


@contextmanager
def _server(store_root, **kwargs):
    kwargs.setdefault("policy", FAST_POLICY)
    server = serve(str(store_root), port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, JobClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestJobSpec:
    def test_canonical_form(self):
        spec = canonicalize_jobspec(
            {"experiments": ["fig01"], "fast": True, "overrides": TINY}
        )
        assert spec == {
            "schema": JOBSPEC_SCHEMA,
            "experiments": ["fig01"],
            "fast": True,
            "overrides": {"accesses": 120, "seed": 1},
        }

    def test_defaults_omitted(self):
        spec = canonicalize_jobspec(
            {"experiments": ["fig01"], "fast": False, "overrides": {},
             "jobs": 1}
        )
        assert spec == {"schema": JOBSPEC_SCHEMA, "experiments": ["fig01"]}

    def test_all_equals_explicit_list(self):
        from repro.registry import list_experiments

        all_spec = canonicalize_jobspec({"experiments": "all"})
        explicit = canonicalize_jobspec({"experiments": list_experiments()})
        assert canonical_json(all_spec) == canonical_json(explicit)
        assert job_digest(all_spec) == job_digest(explicit)

    def test_experiment_list_sorted_and_deduped(self):
        a = canonicalize_jobspec({"experiments": ["fig08", "fig01", "fig08"]})
        b = canonicalize_jobspec({"experiments": ["fig01", "fig08"]})
        assert a == b

    def test_execution_hints_excluded_from_digest(self):
        base = canonicalize_jobspec({"experiments": ["fig01"]})
        hinted = canonicalize_jobspec(
            {"experiments": ["fig01"], "jobs": 4, "store": "/tmp/elsewhere"}
        )
        assert hinted["jobs"] == 4 and hinted["store"] == "/tmp/elsewhere"
        assert job_digest(hinted) == job_digest(base)

    def test_cell_mode_selector_defaults_canonicalize(self):
        spelled = canonicalize_jobspec(
            {"workload": "mcf", "selector": "ipcp:degree=3"}
        )
        bare = canonicalize_jobspec({"workload": "mcf", "selector": "ipcp"})
        assert spelled == bare
        assert job_digest(spelled) == job_digest(bare)

    def test_cell_mode_non_default_kept(self):
        spec = canonicalize_jobspec(
            {"workload": "mcf", "selector": "ipcp:degree=4"}
        )
        assert spec["selector"] == "ipcp:degree=4"

    def test_rejects_unknown_field(self):
        with pytest.raises(JobSpecError, match="unknown jobspec field"):
            canonicalize_jobspec({"experiments": ["fig01"], "bogus": 1})

    def test_rejects_unknown_experiment(self):
        with pytest.raises(JobSpecError, match="unknown experiment"):
            canonicalize_jobspec({"experiments": ["nonsense"]})

    def test_rejects_mixed_modes(self):
        with pytest.raises(JobSpecError, match="not both"):
            canonicalize_jobspec(
                {"experiments": ["fig01"], "workload": "mcf",
                 "selector": "ipcp"}
            )

    def test_rejects_empty(self):
        with pytest.raises(JobSpecError):
            canonicalize_jobspec({})
        with pytest.raises(JobSpecError):
            canonicalize_jobspec({"experiments": []})

    def test_rejects_bad_schema(self):
        with pytest.raises(JobSpecError, match="unsupported jobspec schema"):
            canonicalize_jobspec(
                {"schema": "repro.jobspec.v9", "experiments": ["fig01"]}
            )

    def test_rejects_bad_config_preset(self):
        with pytest.raises(JobSpecError, match="unknown config preset"):
            canonicalize_jobspec(
                {"workload": "mcf", "selector": "ipcp", "config": "bogus"}
            )

    def test_canonical_json_is_stable(self):
        a = canonicalize_jobspec(
            {"overrides": {"seed": 1, "accesses": 120},
             "experiments": ["fig01"], "fast": True}
        )
        b = canonicalize_jobspec(
            {"experiments": ["fig01"], "fast": True,
             "overrides": {"accesses": 120, "seed": 1}}
        )
        assert canonical_json(a) == canonical_json(b)


class TestServerLifecycle:
    def test_healthz_and_submit_to_done(self, tmp_path):
        with _server(tmp_path / "store") as (server, client):
            health = client.healthz()
            assert health["ok"] is True and health["queued"] == 0
            document = client.submit(
                {"experiments": ["fig01"], "fast": True, "overrides": TINY}
            )
            assert document["schema"] == "repro.job.v1"
            assert document["state"] in ("queued", "running", "done")
            done = client.wait(document["id"], timeout=240)
            assert done["state"] == "done"
            assert done["simulations"] > 0
            assert done["progress"]["completed"] == 1
            assert done["progress"]["computed"] == 1
            results = list(client.results(document["id"]))
            assert len(results) == 1
            assert results[0]["name"] == "fig01"
            assert results[0]["schema"] == "repro.experiment-result.v1"
            listing = client.list_jobs()
            assert [job["id"] for job in listing] == [document["id"]]

    def test_resubmission_replays_warm_with_zero_simulations(self, tmp_path):
        spec = {"experiments": ["fig01"], "fast": True, "overrides": TINY}
        with _server(tmp_path / "store") as (server, client):
            first = client.wait(client.submit(spec)["id"], timeout=240)
            assert first["state"] == "done" and first["simulations"] > 0
            second = client.wait(client.submit(spec)["id"], timeout=60)
            assert second["id"] != first["id"]
            assert second["state"] == "done"
            assert second["simulations"] == 0
            assert second["progress"]["cached"] == 1
            assert second["progress"]["computed"] == 0
            a = list(client.results(first["id"]))
            b = list(client.results(second["id"]))
            assert json.dumps(a[0]["rows"], sort_keys=True) == json.dumps(
                b[0]["rows"], sort_keys=True
            )

    def test_default_spelled_out_spec_is_same_job_identity(self, tmp_path):
        """jobs/store hints and defaulted fields do not defeat idempotency."""
        with _server(tmp_path / "store") as (server, client):
            base = client.wait(
                client.submit({"experiments": ["fig01"], "fast": True,
                               "overrides": TINY})["id"],
                timeout=240,
            )
            spelled = client.submit(
                {"schema": JOBSPEC_SCHEMA, "experiments": ["fig01"],
                 "fast": True, "overrides": TINY, "jobs": 1}
            )
            assert spelled["digest"] == base["digest"]
            done = client.wait(spelled["id"], timeout=60)
            assert done["simulations"] == 0

    def test_unknown_job_is_404(self, tmp_path):
        with _server(tmp_path / "store") as (server, client):
            with pytest.raises(JobServerError) as excinfo:
                client.status("nope-1")
            assert excinfo.value.status == 404

    def test_bad_spec_is_400(self, tmp_path):
        with _server(tmp_path / "store") as (server, client):
            with pytest.raises(JobServerError) as excinfo:
                client.submit({"experiments": ["nonsense"]})
            assert excinfo.value.status == 400

    def test_cell_mode_job(self, tmp_path):
        spec = {"workload": "mcf", "selector": "ipcp",
                "overrides": {"accesses": 300, "seed": 1}}
        with _server(tmp_path / "store") as (server, client):
            done = client.wait(client.submit(spec)["id"], timeout=120)
            assert done["state"] == "done"
            rows = list(client.results(done["id"]))
            assert rows[0]["workload"] == "mcf"
            assert rows[0]["selector"] == "ipcp"
            assert rows[0]["rows"]  # per-cell summary landed
            warm = client.wait(
                client.submit(dict(spec, selector="ipcp:degree=3"))["id"],
                timeout=60,
            )
            assert warm["simulations"] == 0
            assert warm["progress"]["cached"] == 1


def _post_with_length(url, path, length, body=b""):
    """POST with a hand-set Content-Length; returns (status, json body)."""
    import http.client
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Length", length)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestContentLength:
    """A bad Content-Length is answered at once, never read or raised on."""

    @pytest.mark.parametrize(
        "length, status", [("abc", 400), ("-1", 400), ("1.5", 400), ("+7", 400)]
    )
    def test_malformed_length_is_400(self, tmp_path, length, status):
        with _server(tmp_path / "store", start_workers=False) as (
            server, client,
        ):
            got, document = _post_with_length(client.url, "/jobs", length)
            assert got == status
            assert "Content-Length" in document["error"]
            assert client.healthz()["ok"] is True
            assert client.list_jobs() == []

    def test_oversized_length_is_413_unread(self, tmp_path):
        from repro.jobs.server import MAX_BODY_BYTES

        with _server(tmp_path / "store", start_workers=False) as (
            server, client,
        ):
            got, document = _post_with_length(
                client.url, "/jobs", str(MAX_BODY_BYTES + 1)
            )
            assert got == 413
            assert str(MAX_BODY_BYTES) in document["error"]
            assert client.list_jobs() == []


class TestConcurrencyAndBackpressure:
    def test_concurrent_submissions_deduplicate_to_one_computation(
        self, tmp_path
    ):
        spec = {"experiments": ["fig01"], "fast": True, "overrides": TINY}
        with _server(tmp_path / "store", start_workers=False) as (
            server, client,
        ):
            ids, errors = [], []

            def submit():
                try:
                    ids.append(client.submit(spec)["id"])
                except Exception as exc:  # noqa: BLE001 — collected
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            # All eight submissions landed on ONE queued job.
            assert len(set(ids)) == 1
            assert client.healthz()["queued"] == 1
            server.manager.start()
            done = client.wait(ids[0], timeout=240)
            assert done["state"] == "done"
            assert done["progress"]["computed"] == 1
            # One computation total: the store saw exactly one cold run.
            assert len(client.list_jobs()) == 1

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        with _server(
            tmp_path / "store", start_workers=False, queue_limit=1
        ) as (server, client):
            client.submit({"experiments": ["fig01"], "fast": True,
                           "overrides": TINY})
            with pytest.raises(JobServerError) as excinfo:
                client.submit({"experiments": ["fig08"], "fast": True,
                               "overrides": TINY})
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None

    def test_cancel_queued_job(self, tmp_path):
        with _server(tmp_path / "store", start_workers=False) as (
            server, client,
        ):
            document = client.submit(
                {"experiments": ["fig01"], "fast": True, "overrides": TINY}
            )
            cancelled = client.cancel(document["id"])
            assert cancelled["state"] == "cancelled"
            assert client.status(document["id"])["state"] == "cancelled"
            assert client.healthz()["queued"] == 0
            # A cancelled job is terminal: resubmission is a NEW job.
            fresh = client.submit(
                {"experiments": ["fig01"], "fast": True, "overrides": TINY}
            )
            assert fresh["id"] != document["id"]

    def test_results_stream_ends_on_terminal_state(self, tmp_path):
        with _server(tmp_path / "store", start_workers=False) as (
            server, client,
        ):
            document = client.submit(
                {"experiments": ["fig01"], "fast": True, "overrides": TINY}
            )
            client.cancel(document["id"])
            assert list(client.results(document["id"])) == []


class TestByteIdentityWithDirectSuite:
    def test_served_rows_match_repro_suite(self, tmp_path):
        """A served job and a direct run_suite into the same store agree
        byte-for-byte (the PR's acceptance criterion)."""
        from repro.store import ResultStore, run_suite

        store_root = str(tmp_path / "store")
        direct_root = str(tmp_path / "direct")
        with _server(store_root) as (server, client):
            served = client.wait(
                client.submit({"experiments": ["fig01"], "fast": True,
                               "overrides": TINY})["id"],
                timeout=240,
            )
            assert served["state"] == "done"
            served_rows = list(client.results(served["id"]))[0]["rows"]
        report = run_suite(
            ["fig01"], fast=True, overrides=TINY,
            store=ResultStore(direct_root),
        )
        direct_rows = report.results[0].to_dict()["rows"]
        assert json.dumps(served_rows, sort_keys=True) == json.dumps(
            direct_rows, sort_keys=True
        )

    def test_direct_suite_after_served_job_is_warm(self, tmp_path):
        """The served job's records are ordinary store records: a direct
        `repro suite` against the same store replays them."""
        from repro.store import ResultStore, run_suite

        store_root = str(tmp_path / "store")
        with _server(store_root) as (server, client):
            client.wait(
                client.submit({"experiments": ["fig01"], "fast": True,
                               "overrides": TINY})["id"],
                timeout=240,
            )
        report = run_suite(
            ["fig01"], fast=True, overrides=TINY,
            store=ResultStore(store_root),
        )
        assert report.cached == ["fig01"] and not report.computed


class TestFaultInjection:
    def test_job_dispatch_io_retries_and_converges(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "job_dispatch_io:p=1:seed=3:attempts=1"
        )
        with _server(tmp_path / "store") as (server, client):
            done = client.wait(
                client.submit({"experiments": ["fig01"], "fast": True,
                               "overrides": TINY})["id"],
                timeout=240,
            )
            assert done["state"] == "done"
            # attempt 0 always faulted, attempt 1 always succeeded.
            assert done["attempts"] == 2

    def test_job_dispatch_io_exhaustion_fails_job(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "job_dispatch_io:p=1:seed=3")
        with _server(tmp_path / "store") as (server, client):
            done = client.wait(
                client.submit({"experiments": ["fig01"], "fast": True,
                               "overrides": TINY})["id"],
                timeout=60,
            )
            assert done["state"] == "failed"
            assert done["attempts"] == FAST_POLICY.max_attempts
            assert "job_dispatch_io" in (done["error"] or "")

    def test_failed_job_resubmission_recovers(self, tmp_path, monkeypatch):
        """Crash-then-resubmit: the second job resumes from the store
        (here: recomputes cleanly once the faults clear)."""
        monkeypatch.setenv("REPRO_FAULTS", "job_dispatch_io:p=1:seed=3")
        spec = {"experiments": ["fig01"], "fast": True, "overrides": TINY}
        with _server(tmp_path / "store") as (server, client):
            failed = client.wait(client.submit(spec)["id"], timeout=60)
            assert failed["state"] == "failed"
            monkeypatch.delenv("REPRO_FAULTS")
            done = client.wait(client.submit(spec)["id"], timeout=240)
            assert done["state"] == "done"


class TestProgressCallback:
    def test_run_suite_progress_events(self, tmp_path):
        from repro.store import ResultStore, run_suite

        events = []
        store = ResultStore(str(tmp_path / "store"))
        run_suite(["fig01"], fast=True, overrides=TINY, store=store,
                  progress=events.append)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "resolved"
        assert events[0]["requested"] == 1
        computed = [e for e in events if e["event"] == "result"]
        assert computed and computed[0]["source"] == "computed"
        assert computed[0]["name"] == "fig01"

        events.clear()
        run_suite(["fig01"], fast=True, overrides=TINY, store=store,
                  progress=events.append)
        cached = [e for e in events if e["event"] == "result"]
        assert cached and cached[0]["source"] == "cached"

    def test_progress_exceptions_are_swallowed(self, tmp_path):
        from repro.store import ResultStore, run_suite

        def broken(event):
            raise RuntimeError("progress must not break the run")

        store = ResultStore(str(tmp_path / "store"))
        report = run_suite(["fig01"], fast=True, overrides=TINY,
                           store=store, progress=broken)
        assert report.status == "clean"
        assert len(report.results) == 1
