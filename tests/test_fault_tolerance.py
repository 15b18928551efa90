"""End-to-end tests for fault-tolerant suite execution.

Every recovery path is driven by the deterministic fault-injection
harness (:mod:`repro.faults`), so these tests exercise exactly what a
worker OOM, a hung cell, or a flaky filesystem would — on demand and
reproducibly.  The invariant pinned throughout: **recovery never changes
results**.  Rows produced via retries, pool respawns, and resumed runs
are byte-identical to a fault-free run.
"""

import dataclasses
import json
import os
import time

import pytest

from repro import faults
from repro.experiments.runner import (
    DispatchStats,
    RetryPolicy,
    SuiteExecutionError,
    SuiteRunner,
    _evict_pool,
)
from repro.registry import EXPERIMENTS
from repro.store import ResultStore, run_suite

#: Shrinks fig01/fig08 to test scale (also part of the store key).
TINY = {"accesses": 120, "seed": 1}


def _crash_on_first_attempt(attempt):
    """Pool-worker payload: SIGKILL self on the first dispatch only."""
    import signal

    if attempt == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return "computed"


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture
def fresh_pools():
    """Evict cached pools so workers fork with the test's environment.

    Pool workers read ``REPRO_FAULTS`` from the environment they
    inherited at fork; a pool cached by an earlier test predates the
    variable and would never arm the plan.
    """
    for jobs in (2, 3, 4):
        _evict_pool(jobs)
    yield
    for jobs in (2, 3, 4):
        _evict_pool(jobs)


@pytest.fixture
def fault_env(monkeypatch, fresh_pools):
    """Set ``REPRO_FAULTS`` for the test (and fork fresh pools)."""

    def arm(spec):
        monkeypatch.setenv(faults.FAULTS_ENV, spec)

    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    return arm


def rows_of(report):
    return json.dumps(
        [result.rows for result in report.results], default=float
    )


FAST = RetryPolicy(backoff_base=0.01, backoff_max=0.05)


class TestSerialRetry:
    def test_injected_failure_retries_to_success(self, fault_env, store):
        baseline = run_suite(["fig01"], overrides=TINY, store=None)
        # attempts=1: the first try always fails, the retry always works.
        fault_env("cell_exception:p=1:attempts=1")
        report = run_suite(["fig01"], overrides=TINY, policy=FAST)
        assert report.computed == ["fig01"]
        assert report.retries == 1
        assert report.attempts["experiment/fig01"] == 2
        assert rows_of(report) == rows_of(baseline)

    def test_exhausted_attempts_raise_with_cause(self, fault_env):
        fault_env("cell_exception:p=1")
        with pytest.raises(SuiteExecutionError, match="cell_exception"):
            run_suite(["fig01"], overrides=TINY, policy=FAST)

    def test_keep_going_records_structured_failure(self, fault_env, store):
        fault_env("cell_exception:p=1")
        report = run_suite(
            ["fig01"], overrides=TINY, store=store, keep_going=True,
            policy=FAST,
        )
        assert report.failed == ["fig01"]
        assert report.results == []
        assert report.status == "failed"
        (failure,) = report.failures
        assert failure.label == "experiment/fig01"
        assert failure.attempts == FAST.max_attempts
        assert failure.kind == "exception"
        assert failure.site == "cell_exception"
        assert "cell_exception" in failure.error
        assert len(failure.traceback_digest) == 16

    def test_partial_run_keeps_the_survivors(self, store):
        broken = EXPERIMENTS.get("fig08")
        meta = EXPERIMENTS.metadata("fig08")

        def explode(**kwargs):
            raise RuntimeError("injected failure")

        EXPERIMENTS.add(
            "fig08", dataclasses.replace(broken, fn=explode), **meta
        )
        try:
            report = run_suite(
                ["fig01", "fig08"], overrides=TINY, store=store,
                keep_going=True, policy=FAST,
            )
        finally:
            EXPERIMENTS.add("fig08", broken, **meta)
        assert report.computed == ["fig01"]
        assert report.failed == ["fig08"]
        assert report.status == "partial"
        assert len(report.results) == 1  # fig01's rows survive


class TestJournal:
    def test_clean_run_writes_clean_journal(self, store):
        report = run_suite(["fig01"], overrides=TINY, store=store)
        assert report.journal_path is not None
        assert os.path.dirname(report.journal_path) == os.path.join(
            store.root, "journal"
        )
        doc = json.load(open(report.journal_path))
        assert doc["schema"] == "repro.suite-journal.v1"
        assert doc["status"] == "clean"
        assert doc["computed"] == ["fig01"]
        assert doc["failures"] == []
        assert doc["policy"]["max_attempts"] == 3

    def test_partial_journal_carries_failures(self, fault_env, store):
        fault_env("cell_exception:p=1")
        report = run_suite(
            ["fig01"], overrides=TINY, store=store, keep_going=True,
            policy=FAST,
        )
        doc = json.load(open(report.journal_path))
        assert doc["status"] == "failed"
        assert doc["failed"] == ["fig01"]
        assert doc["failures"][0]["site"] == "cell_exception"
        assert doc["failures"][0]["attempts"] == FAST.max_attempts
        assert doc["faults"] == "cell_exception:p=1"

    def test_aborted_run_still_journals(self, fault_env, store):
        fault_env("cell_exception:p=1")
        with pytest.raises(SuiteExecutionError):
            run_suite(["fig01"], overrides=TINY, store=store, policy=FAST)
        journal_dir = os.path.join(store.root, "journal")
        (name,) = os.listdir(journal_dir)
        doc = json.load(open(os.path.join(journal_dir, name)))
        assert doc["status"] == "aborted"
        assert doc["error"]

    def test_journal_ids_unique_within_process(self, store):
        first = run_suite(["fig01"], overrides=TINY, store=store)
        second = run_suite(["fig01"], overrides=TINY, store=store)
        assert first.journal_path != second.journal_path


class TestPoolRecovery:
    def test_worker_crash_respawns_and_completes(self, fault_env, store):
        baseline = run_suite(
            ["fig01", "fig08"], overrides=TINY, store=None, policy=FAST
        )
        # Every experiment's first dispatch SIGKILLs its worker; the
        # re-dispatch (attempt 1) runs clean.
        fault_env("worker_crash:p=1:attempts=1")
        report = run_suite(
            ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
            policy=FAST,
        )
        assert sorted(report.computed) == ["fig01", "fig08"]
        assert report.pool_respawns >= 1
        assert report.status == "clean"
        assert rows_of(report) == rows_of(baseline)

    def test_crash_does_not_charge_attempts(self, fault_env, store):
        fault_env("worker_crash:p=1:attempts=1")
        report = run_suite(
            ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
            policy=RetryPolicy(max_attempts=1, backoff_base=0.01),
        )
        # max_attempts=1 leaves no retry budget, yet the run completes:
        # a crash is charged to the respawn budget, not to the task.
        assert sorted(report.computed) == ["fig01", "fig08"]

    def test_respawn_budget_bounds_crash_loops(self, fault_env, store):
        fault_env("worker_crash:p=1")  # every dispatch dies, forever
        with pytest.raises(SuiteExecutionError, match="respawn budget"):
            run_suite(
                ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
                policy=RetryPolicy(max_pool_respawns=2, backoff_base=0.01),
            )

    def test_respawn_budget_exhaustion_is_journalled(self, fault_env, store):
        """The pool-budget abort must land in the journal's failure list.

        The journal is written from ``stats.failures`` — if the budget
        failures were only carried by the raised exception, the journal
        would record ``status: "aborted"`` with an empty failure list
        for exactly the failure mode it exists to post-mortem.
        """
        fault_env("worker_crash:p=1")
        with pytest.raises(SuiteExecutionError, match="respawn budget"):
            run_suite(
                ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
                policy=RetryPolicy(max_pool_respawns=1, backoff_base=0.01),
            )
        journal_dir = os.path.join(store.root, "journal")
        docs = [
            json.load(open(os.path.join(journal_dir, name)))
            for name in os.listdir(journal_dir)
        ]
        aborted = [doc for doc in docs if doc["status"] == "aborted"]
        assert aborted, "abort was not journalled"
        failures = aborted[-1]["failures"]
        assert failures, "pool-budget abort journalled an empty failure list"
        assert all(f["kind"] == "pool" for f in failures)
        assert all("respawn budget" in f["error"] for f in failures)

    def test_pool_private_processes_attribute_exists(self):
        """Pin the private map ``_terminate_pool`` kills stragglers with.

        Straggler cancellation reaches into
        ``ProcessPoolExecutor._processes``; if a CPython release renames
        it, deadline enforcement degrades to ``shutdown(wait=False)`` —
        which never interrupts a running worker.  Fail loudly here
        instead of silently leaking stuck processes.
        """
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=1)
        try:
            assert pool.submit(os.getpid).result() > 0
            processes = getattr(pool, "_processes", None)
            assert processes, "ProcessPoolExecutor._processes went missing"
        finally:
            pool.shutdown()

    def test_hard_kill_resume_is_byte_identical(self, fault_env, store):
        """SIGKILL a pool worker mid-suite; rerun; rows must not move.

        The first run is killed outright (respawn budget 0, so the crash
        aborts it, as a ctrl-C or OOM-killed orchestrator would).  The
        warm rerun over the same store completes from whatever was
        absorbed and its rows are byte-identical to a fault-free run.
        """
        baseline = run_suite(
            ["fig01", "fig08"], overrides=TINY, store=None, policy=FAST
        )
        fault_env("worker_crash:p=1:attempts=1")
        with pytest.raises(SuiteExecutionError):
            run_suite(
                ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
                policy=RetryPolicy(max_pool_respawns=0, backoff_base=0.01),
            )
        # The interrupted run journaled its abort.
        journal_dir = os.path.join(store.root, "journal")
        docs = [
            json.load(open(os.path.join(journal_dir, name)))
            for name in os.listdir(journal_dir)
        ]
        assert any(doc["status"] == "aborted" for doc in docs)
        # Fault off, fresh pools: the resumed run completes cleanly.
        os.environ.pop(faults.FAULTS_ENV, None)
        _evict_pool(2)
        resumed = run_suite(
            ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
            policy=FAST,
        )
        assert sorted(resumed.cached + resumed.computed) == [
            "fig01", "fig08"
        ]
        assert rows_of(resumed) == rows_of(baseline)

    def test_warm_store_never_dispatches_under_crash_plan(
        self, fault_env, store
    ):
        # Warm the store, then crash every dispatch: nothing is left to
        # dispatch, so the armed plan never gets a worker to kill.
        warm = run_suite(["fig01", "fig08"], overrides=TINY, store=store)
        assert sorted(warm.computed) == ["fig01", "fig08"]
        fault_env("worker_crash:p=1")
        report = run_suite(
            ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
            policy=FAST,
        )
        assert sorted(report.cached) == ["fig01", "fig08"]
        assert report.computed == []

    def test_absorbed_tasks_skip_re_dispatch(self, fresh_pools):
        """A crashed task the store absorbed meanwhile is not re-run.

        Drives :func:`_dispatch_pool` directly: the task's first
        dispatch kills its worker; by re-dispatch time the ``absorbed``
        callback (the store's stand-in) already has the value, so the
        dispatcher yields it as ``absorbed`` without re-executing.
        """
        from repro.experiments.runner import _dispatch_pool, _Task

        task = _Task(
            key="k",
            label="cell/x/y",
            fn=_crash_on_first_attempt,
            make_args=lambda attempt: (attempt,),
        )
        stats = DispatchStats()
        outcomes = list(
            _dispatch_pool(
                2, [task], FAST, stats,
                absorbed=lambda t: "stored-value" if t.dispatches else None,
            )
        )
        assert outcomes == [(task, "absorbed", "stored-value")]
        assert stats.pool_respawns >= 1
        assert stats.failures == []


class TestDeadlines:
    def test_stalled_experiment_is_requeued(self, fault_env, store):
        baseline = run_suite(
            ["fig01", "fig08"], overrides=TINY, store=None, policy=FAST
        )
        # The deadline scales with this machine's speed (three serial
        # runs of both experiments, at least 3 s), so a stall-free retry
        # on a busy machine never expires.  First dispatch of each
        # experiment sleeps ten deadlines; the deadline cancels it, the
        # pool recycles, and the retry runs stall-free.
        deadline = max(3.0, 3 * baseline.elapsed_seconds)
        fault_env(f"cell_stall:p=1:attempts=1:s={10 * deadline:.1f}")
        report = run_suite(
            ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
            policy=RetryPolicy(
                experiment_deadline=deadline,
                backoff_base=0.01,
                backoff_max=0.05,
            ),
        )
        assert sorted(report.computed) == ["fig01", "fig08"]
        assert report.deadline_requeues >= 1
        assert rows_of(report) == rows_of(baseline)

    def test_queued_tasks_are_not_falsely_expired(self, fresh_pools):
        """Deadline clocks start at execution, not at enqueue.

        One worker, four 0.4s tasks, a 1.0s per-task deadline: the tail
        task waits ~1.2s for its slot — longer than its deadline — so a
        dispatcher that stamps ``started`` at submit and queues all four
        at once would falsely expire healthy tasks (charging attempts
        and recycling the pool under the in-flight ones).  Keeping at
        most ``jobs`` tasks in flight makes every task finish clean.
        """
        from repro.experiments.runner import _dispatch_pool, _Task

        tasks = [
            _Task(
                key=index,
                label=f"cell/sleep/{index}",
                fn=time.sleep,
                make_args=lambda attempt, index=index: (0.4,),
                deadline=1.0,
            )
            for index in range(4)
        ]
        stats = DispatchStats()
        outcomes = list(_dispatch_pool(1, tasks, FAST, stats))
        assert [status for _, status, _ in outcomes] == ["ok"] * 4
        assert stats.deadline_requeues == 0
        assert stats.retries == 0
        assert stats.failures == []

    def test_deadline_exhaustion_is_a_structured_failure(
        self, fault_env, store
    ):
        fault_env("cell_stall:p=1:s=30")  # stalls on every attempt
        report = run_suite(
            ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
            keep_going=True,
            policy=RetryPolicy(
                max_attempts=2, experiment_deadline=1.0,
                backoff_base=0.01, backoff_max=0.05,
            ),
        )
        assert sorted(report.failed) == ["fig01", "fig08"]
        assert all(f.kind == "deadline" for f in report.failures)
        assert report.status == "failed"


class TestIOFaults:
    def test_store_put_retries_through_io_fault(self, fault_env, store):
        fault_env("store_put_io:p=1:attempts=1")
        report = run_suite(["fig01"], overrides=TINY, store=store)
        assert report.computed == ["fig01"]
        assert store.stats.put_retries >= 1
        assert store.verify() == []  # every retried write landed intact

    def test_store_put_io_exhaustion_propagates(self, fault_env, tmp_path):
        fault_env("store_put_io:p=1")
        store = ResultStore(str(tmp_path / "s"))
        from repro.store.keys import StoreKey

        with pytest.raises(OSError, match="store_put_io"):
            store.put(StoreKey("cell", {"k": 1}), {"v": 2})
        assert store.stats.puts == 0

    def test_trace_read_io_fires_in_open_trace(self, fault_env, tmp_path):
        from repro.cpu.tracefile import open_trace, write_trace
        from repro.workloads import get_profile

        path = str(tmp_path / "t.trace.gz")
        write_trace(path, get_profile("mcf").generate(50, seed=1))
        fault_env("trace_read_io:p=1:attempts=1")
        with pytest.raises(OSError, match="trace_read_io"):
            open_trace(path)
        # At ambient attempt 1 (a retried work unit) the site is past
        # its attempts gate and the open succeeds.
        with faults.attempt_context(1):
            assert open_trace(path).meta is not None


class TestDispatcherDeterminism:
    def test_retried_rows_byte_identical_cell_grain(self, fault_env, store):
        """Cell-grain fan-out under injected cell failures: same rows."""
        from repro.workloads import get_profile

        profiles = {"gcc": get_profile("gcc"), "mcf": get_profile("mcf")}
        clean = SuiteRunner(jobs=1).speedup_suite(
            profiles, ["ipcp"], accesses=150, seed=1
        )
        fault_env("cell_exception:p=0.5:seed=3:attempts=2")
        faulted = SuiteRunner(jobs=2, policy=FAST).speedup_suite(
            profiles, ["ipcp"], accesses=150, seed=1
        )
        assert json.dumps(faulted, default=float) == json.dumps(
            clean, default=float
        )

    def test_deferred_cell_fires_no_fault_sites(
        self, fault_env, store, monkeypatch
    ):
        """A cell won back from a peer's expired lease simulates
        in-process, where no cell fault site fires: only pooled cells
        fail (once) and retry, and the rows equal a clean run's."""
        from repro.experiments.common import cell_store_key
        from repro.workloads.profiles import profile

        profiles = {
            "tiny_stream": profile("tiny_stream", "test", True, 0.3, [
                (1.0, "stream", {"footprint": 8 << 20, "run_length": 400}),
            ]),
            "tiny_compute": profile("tiny_compute", "test", False, 0.15, [
                (1.0, "stride", {"stride": 64, "footprint": 256 << 10}),
            ]),
        }
        clean = SuiteRunner(jobs=1).speedup_suite(profiles, ["ipcp"], accesses=150)
        monkeypatch.setenv("REPRO_LEASE_TTL", "0.3")
        key = cell_store_key(profiles["tiny_stream"], "ipcp", 150, 1, None, {})
        peer = ResultStore(store.root)
        assert peer.claim(key, 0.3)  # the peer then goes silent
        fault_env("cell_exception:p=1:attempts=1")
        faulted = SuiteRunner(jobs=2, store=store, policy=FAST).speedup_suite(
            profiles, ["ipcp"], accesses=150
        )
        assert faulted == clean
        assert store.get_value(key) is not None

    def test_backoff_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=1.0,
            backoff_jitter=0.25,
        )
        delays = [policy.backoff_delay(n, "cell/gcc/alecto") for n in (1, 2, 3, 4, 5)]
        assert delays == [
            policy.backoff_delay(n, "cell/gcc/alecto") for n in (1, 2, 3, 4, 5)
        ]
        for failures, delay in enumerate(delays, start=1):
            base = min(1.0, 0.1 * 2.0 ** (failures - 1))
            assert base * 0.75 <= delay <= base * 1.25
        # distinct tokens de-synchronize
        assert policy.backoff_delay(1, "a") != policy.backoff_delay(1, "b")

    def test_acceptance_spec_full_suite(self, fault_env, store):
        """The ISSUE's acceptance spec: probabilistic crash+exception
        injection over a multi-experiment pool run converges to rows
        byte-identical to a fault-free run."""
        names = ["fig01", "abl_epoch"]
        baseline = run_suite(names, overrides=TINY, store=None, policy=FAST)
        fault_env("worker_crash:p=0.2:seed=1,cell_exception:p=0.1:seed=2")
        report = run_suite(
            names, overrides=TINY, jobs=2, store=store, keep_going=True,
            policy=FAST,
        )
        assert report.failed == []
        assert sorted(report.computed) == sorted(names)
        assert rows_of(report) == rows_of(baseline)


class TestStatsPlumbing:
    def test_dispatch_stats_flow_into_report(self, fault_env, store):
        fault_env("cell_exception:p=1:attempts=1")
        report = run_suite(
            ["fig01", "fig08"], overrides=TINY, jobs=2, store=store,
            policy=FAST,
        )
        assert report.retries == 2  # one per experiment
        assert report.attempts == {
            "experiment/fig01": 2,
            "experiment/fig08": 2,
        }

    def test_caller_supplied_stats_accumulate(self, fault_env):
        fault_env("cell_exception:p=1:attempts=1")
        stats = DispatchStats()
        runner = SuiteRunner(jobs=1, policy=FAST)
        from repro.experiments.runner import resolve_experiments

        resolved = resolve_experiments(["fig01"], overrides=TINY)
        list(runner.run_resolved(resolved, stats=stats))
        assert stats.retries == 1
        assert stats.failures == []
