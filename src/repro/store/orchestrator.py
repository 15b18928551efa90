"""Incremental suite orchestration: run experiments *through* the store.

:func:`run_suite` is the engine behind ``repro suite`` and the
EXPERIMENTS.md generator: every requested experiment is looked up in the
:class:`~repro.store.resultstore.ResultStore` first, only the misses
execute (fanned out over a process pool when ``jobs > 1``), and each
result is persisted the moment it completes — so an interrupted run
resumes exactly where it stopped, and a warm run over a populated store
executes zero simulations.

While the suite runs, the store is the ambient
:func:`~repro.store.resultstore.active_store`, so the per-cell caching
inside :func:`repro.experiments.common.speedup_suite` sees it too: when
a code-fingerprint bump invalidates an experiment record, re-running it
replays every untouched (benchmark × selector × config) cell from the
store and simulates only the cells the bump actually touched.

Execution is fault-tolerant (see :mod:`repro.experiments.runner` and
``docs/robustness.md``): failing experiments retry with backoff, broken
pools respawn, and with ``keep_going=True`` an experiment that exhausts
its retry budget is recorded as a structured :class:`TaskFailure` in the
report instead of aborting the suite.  Every store-backed run also
writes a **journal** — a small JSON manifest under
``<store>/journal/`` capturing what ran, what failed, and the retry
policy in force — so post-mortems of long unattended runs do not depend
on scrollback.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.log import get_logger
from repro.store.keys import experiment_key
from repro.store.leases import resolve_leased
from repro.store.resultstore import ResultStore, activate

if TYPE_CHECKING:  # pragma: no cover — avoids importing the experiments
    from repro.experiments.runner import (  # package eagerly
        DispatchStats,
        ExperimentResult,
        RetryPolicy,
        TaskFailure,
    )

_log = get_logger("store")

#: Schema identifier written into every run journal.
JOURNAL_SCHEMA = "repro.suite-journal.v1"

__all__ = ["JOURNAL_SCHEMA", "SuiteReport", "run_suite"]


@dataclass
class SuiteReport:
    """Outcome of one :func:`run_suite` call.

    Attributes:
        results: one :class:`ExperimentResult` per requested experiment
            that *completed*, in request order (cached and computed
            alike); with ``keep_going``, failed experiments are absent.
        cached: names served from the store.
        computed: names that executed this run.
        failed: names that exhausted their retry budget (non-empty only
            under ``keep_going``; otherwise the run raises instead).
        deferred: names another node held a claim on when this run
            wanted to compute them; each was later resolved — read from
            the store once the peer finished (also listed in
            ``cached``), or computed here after the peer's lease
            expired (also listed in ``computed``).
        failures: one structured :class:`TaskFailure` (attempts, kind,
            fault site, error, traceback digest) per entry in ``failed``.
        retries: work-unit re-dispatches after charged failures.
        pool_respawns: times a broken/recycled process pool was replaced.
        deadline_requeues: work units cancelled past their deadline.
        attempts: dispatch count per work-unit label (experiments here;
            cell-grain attempts are accounted inside their experiment).
        store: the store used, or ``None`` when caching was off.
        journal_path: the run-journal JSON written under
            ``<store>/journal/`` (``None`` without a store).
        elapsed_seconds: wall-clock duration of the whole call.
        worker_simulations: simulations executed inside pool workers
            (``jobs > 1``); the caller's own process count comes from
            :func:`repro.sim.simulation_count` deltas.
    """

    results: List[ExperimentResult]
    cached: List[str] = field(default_factory=list)
    computed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    deferred: List[str] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    pool_respawns: int = 0
    deadline_requeues: int = 0
    attempts: Dict[str, int] = field(default_factory=dict)
    store: Optional[ResultStore] = None
    journal_path: Optional[str] = None
    elapsed_seconds: float = 0.0
    worker_simulations: int = 0

    @property
    def status(self) -> str:
        """``"clean"`` (no failures), ``"partial"``, or ``"failed"``.

        ``"failed"`` means *nothing* completed; any completed result
        alongside failures is ``"partial"`` (the keep-going outcome).
        """
        if not self.failed:
            return "clean"
        return "failed" if not self.results else "partial"


def _result_from_record(record: Dict[str, Any]) -> "ExperimentResult":
    """Rebuild an :class:`ExperimentResult` from a stored record value."""
    from repro.experiments.runner import ExperimentResult, validate_result_dict

    value = record["value"]
    validate_result_dict(value)
    return ExperimentResult(
        name=value["name"],
        title=value["title"],
        params=value["params"],
        rows=value["rows"],
        elapsed_seconds=value["elapsed_seconds"],
        version=value["version"],
    )


_JOURNAL_COUNTER = 0


def _journal_run_id() -> str:
    """A filesystem-safe run id: timestamp + pid + per-process counter.

    Unique across concurrent suite processes sharing one store (pid) and
    across rapid back-to-back runs in one process (counter); sortable by
    start time for humans listing the journal directory.
    """
    global _JOURNAL_COUNTER
    _JOURNAL_COUNTER += 1
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{_JOURNAL_COUNTER:03d}"


def _write_journal(
    store: ResultStore,
    run_id: str,
    document: Dict[str, Any],
) -> Optional[str]:
    """Atomically write one run journal; never raises.

    The journal is telemetry about a run that already happened — failing
    to record it must not turn a successful (or already-failing) suite
    into a different outcome.  A purely remote store has no local
    directory to journal into; the run proceeds without one.
    """
    local_root = store.local_root
    if local_root is None:
        return None
    journal_dir = os.path.join(local_root, "journal")
    path = os.path.join(journal_dir, f"{run_id}.json")
    try:
        os.makedirs(journal_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=journal_dir, prefix=f".{run_id}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle, indent=2, default=float)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        _log.warning("could not write suite journal %s: %s", path, exc)
        return None
    return path


def run_suite(
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    fast: bool = False,
    overrides: Optional[Mapping[str, Any]] = None,
    store: Optional[ResultStore] = None,
    keep_going: bool = False,
    policy: Optional["RetryPolicy"] = None,
    progress: Optional[Any] = None,
) -> SuiteReport:
    """Run experiments incrementally against ``store``.

    Args:
        names: experiment names (default: every registered experiment).
        jobs: worker processes for the cache misses.
        fast: apply each experiment's ``fast_params`` (the reduced smoke
            scale); part of the cache key, so fast and full-scale rows
            never alias.
        overrides: parameter overrides (``accesses``/``seed``/...),
            applied to experiments that declare them and folded into
            each key.
        store: the result store; ``None`` disables caching and behaves
            exactly like :class:`~repro.experiments.runner.SuiteRunner`.
        keep_going: record experiments that exhaust their retry budget
            as structured failures in the report (``failed`` /
            ``failures``) and keep running, instead of raising
            :class:`~repro.experiments.runner.SuiteExecutionError` at
            the first permanent failure.
        policy: the :class:`~repro.experiments.runner.RetryPolicy`
            (retries, backoff, deadlines, respawn budget); default
            ``RetryPolicy()``.
        progress: optional callback receiving event dicts as the run
            advances — ``{"event": "resolved", "requested", "cached",
            "deferred"}`` once after store classification, ``{"event":
            "result", "name", "source": "cached"|"computed", "result"}``
            per completed experiment (cache hits, live completions, and
            deferred resolutions alike), and ``{"event": "failed",
            "name", "failure"}`` per permanent failure under
            ``keep_going``.  ``Exception``-derived errors raised by the
            callback are swallowed — progress reporting can never change
            a run's outcome — while ``BaseException``-level ones
            propagate and abort the run (the job server's cancellation
            hook relies on this).

    Raises:
        repro.experiments.runner.SuiteExecutionError: an experiment
            failed permanently and ``keep_going`` was off.  The journal
            (when a store is set) is still written, with
            ``status: "aborted"``.
    """
    from repro.experiments.runner import (
        DispatchStats,
        RetryPolicy,
        SuiteRunner,
        pool_simulation_count,
        resolve_experiments,
    )

    start = time.perf_counter()
    if policy is None:
        policy = RetryPolicy()
    resolved = resolve_experiments(names, fast=fast, overrides=overrides)
    report = SuiteReport(results=[], store=store)

    def notify(event: Dict[str, Any]) -> None:
        if progress is None:
            return
        try:
            progress(event)
        except Exception:  # noqa: BLE001 — progress must never break a run
            _log.debug("progress callback failed on %r", event.get("event"))

    hits: Dict[str, ExperimentResult] = {}
    keys_by_name: Dict[str, Any] = {}

    def lookup(name: str) -> bool:
        """Serve ``name`` from the store; whether its record was usable."""
        record = store.get(keys_by_name[name])
        if record is None:
            return False
        try:
            result = _result_from_record(record)
        except ValueError as exc:
            # A record that passed the store's integrity checks but
            # carries an invalid/obsolete result payload (e.g. a future
            # RESULT_SCHEMA bump) is a miss to recompute and overwrite,
            # never a crash.  Reclassify the get() that counted a hit.
            store.stats.hits -= 1
            store.stats.misses += 1
            store.stats.corrupt += 1
            _log.warning(
                "recomputing %r: cached result record is invalid (%s)", name, exc
            )
            return False
        hits[name] = result
        report.cached.append(name)
        notify({"event": "result", "name": name, "source": "cached", "result": result})
        return True

    if store is None:
        misses = list(resolved)
    else:
        misses = []
        for entry in resolved:
            keys_by_name[entry[0]] = experiment_key(entry[0], entry[2])
            if not lookup(entry[0]):
                misses.append(entry)

    #: Each miss's ``(name, applied, params)`` triple, in request order.
    entries = {entry[0]: entry for entry in misses}
    stats = DispatchStats()
    aborted: Optional[BaseException] = None
    pool_before = pool_simulation_count()

    def on_claimed(deferred: List[str]) -> None:
        report.deferred.extend(deferred)
        if deferred:
            _log.info(
                "deferring %d experiment(s) another node claimed: %s",
                len(deferred),
                ", ".join(deferred),
            )
        notify(
            {
                "event": "resolved",
                "requested": len(resolved),
                "cached": len(report.cached),
                "deferred": len(report.deferred),
            }
        )

    def execute(batch: List[str], landed) -> None:
        runner = SuiteRunner(jobs=jobs, store=store, policy=policy)
        with activate(store):
            for name, result in runner.run_resolved(
                [entries[name] for name in batch],
                keep_going=keep_going,
                stats=stats,
                progress=notify,
            ):
                hits[name] = result
                report.computed.append(name)
                # run_resolved persisted the record before yielding, so
                # peers polling this key flip from "leased" to "cached"
                # with no gap.
                landed(name)
                notify(
                    {
                        "event": "result",
                        "name": name,
                        "source": "computed",
                        "result": result,
                    }
                )

    try:
        # Claim-before-compute: two suites against one shared store
        # partition the misses -- whoever wins a key's lease computes
        # it, everyone else defers and reads the record when it lands.
        resolve_leased(
            store,
            {name: keys_by_name.get(name) for name in entries},
            lookup,
            execute,
            on_claimed=on_claimed,
            what="experiment",
        )
    except BaseException as exc:
        aborted = exc
        raise
    finally:
        # Covers both fan-out grains: experiments dispatched to workers
        # AND cells one experiment fanned out via speedup_suite — even
        # when the run aborts mid-way.
        report.worker_simulations = pool_simulation_count() - pool_before
        report.failures = list(stats.failures)
        report.failed = sorted(
            {
                f.label.split("/", 1)[1]
                for f in report.failures
                if f.label.startswith("experiment/")
            }
        )
        report.retries = stats.retries
        report.pool_respawns = stats.pool_respawns
        report.deadline_requeues = stats.deadline_requeues
        report.attempts = dict(stats.attempts)
        report.results = [hits[name] for name, _, _ in resolved if name in hits]
        report.elapsed_seconds = time.perf_counter() - start
        if store is not None:
            run_id = _journal_run_id()
            status = "aborted" if aborted is not None else report.status
            document = {
                "schema": JOURNAL_SCHEMA,
                "run_id": run_id,
                "status": status,
                "requested": [name for name, _, _ in resolved],
                "cached": list(report.cached),
                "computed": list(report.computed),
                "failed": list(report.failed),
                "deferred": list(report.deferred),
                "failures": [f.as_dict() for f in report.failures],
                "retries": report.retries,
                "pool_respawns": report.pool_respawns,
                "deadline_requeues": report.deadline_requeues,
                "attempts": dict(report.attempts),
                "jobs": jobs,
                "fast": fast,
                "keep_going": keep_going,
                "policy": policy.as_dict(),
                "faults": os.environ.get("REPRO_FAULTS") or None,
                "elapsed_seconds": report.elapsed_seconds,
                "worker_simulations": report.worker_simulations,
                "error": str(aborted) if aborted is not None else None,
            }
            report.journal_path = _write_journal(store, run_id, document)

    return report
