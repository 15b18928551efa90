"""Experiment API: registered experiments, structured results, parallelism.

Every paper figure/table is a registered :class:`Experiment` (see
:func:`repro.registry.register_experiment`): a ``run()`` function with
declared, introspectable parameters.  Invoking one returns an
:class:`ExperimentResult` — a structured, JSON-serializable record of the
rows plus the parameters, timing, and library version that produced them —
instead of a bare dict, so suites of experiments can be executed, archived
and diffed mechanically.

:class:`SuiteRunner` adds process-pool parallelism at two grains:

- across experiments (``run_experiments`` with several names), and
- across the independent (benchmark, selector) cells of a speedup suite
  (:meth:`SuiteRunner.speedup_suite`, the one body behind
  :func:`repro.experiments.common.speedup_suite`),

with the benchmark's access stream recorded **once** — spooled to an
on-disk block-compressed ``repro.trace.v2`` file
(:mod:`repro.cpu.blocktrace`) by the parent and replayed lazily by every
worker — instead of regenerated per job.
:meth:`SuiteRunner.replay_shards` adds a third grain: the disjoint
shards of a *single* trace (v2 shard cursors), so one multi-GB import
can be decoded and replayed across the whole pool at once.
Traces are seeded with a process-stable hash
(:func:`repro.common.hashing.stable_hash`), and the trace file round-trips
records exactly, so parallel results are numerically identical to serial
ones.

:func:`replay_experiment` is the bridge between the two subsystems: it
wraps a simulation of any re-iterable record stream (an in-memory list or
a :class:`~repro.cpu.tracefile.TraceReader`) in an
:class:`ExperimentResult`, which is how ``repro trace replay`` proves a
recorded trace reproduces the in-memory run byte for byte.

With a :class:`repro.store.ResultStore` (``SuiteRunner(store=...)``, or
ambient via :func:`repro.store.activate`), suite cells are read through
the content-addressed store — only misses simulate, and results persist
the moment they exist.  :func:`repro.store.run_suite` layers whole-
experiment caching on top; see :mod:`repro.store`.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import os
import re
import shutil
import tempfile
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import __version__
from repro import faults
from repro.experiments.common import format_table, make_selector
from repro.log import get_logger
from repro.registry import get_experiment, list_experiments
from repro.sim import simulate

#: Schema identifier embedded in every serialized result.
RESULT_SCHEMA = "repro.experiment-result.v1"

#: Environment flag set in pool workers so nested code never spawns a
#: second process pool.
_WORKER_ENV = "REPRO_POOL_WORKER"

_log = get_logger("runner")

__all__ = [
    "DispatchStats",
    "Experiment",
    "ExperimentResult",
    "RESULT_SCHEMA",
    "RetryPolicy",
    "SuiteExecutionError",
    "SuiteRunner",
    "TaskFailure",
    "experiment_main",
    "render_result",
    "replay_experiment",
    "resolve_experiments",
    "run_experiments",
    "simulation_rows",
    "validate_result_dict",
    "write_results_json",
]


@dataclass
class ExperimentResult:
    """Structured output of one experiment run.

    Attributes:
        name: registry name of the experiment (``"fig08"``).
        title: human-readable figure/table title.
        params: the fully-resolved parameters of this run (declared
            defaults merged with any overrides).
        rows: the experiment's rows — JSON-serializable nested dicts of
            numbers, exactly what the module's ``run()`` returned.
        elapsed_seconds: wall-clock duration of the run.
        version: ``repro.__version__`` that produced the result.
        schema: schema identifier (:data:`RESULT_SCHEMA`).
    """

    name: str
    title: str
    params: Dict[str, Any]
    rows: Any
    elapsed_seconds: float
    version: str = __version__
    schema: str = RESULT_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, suitable for ``json.dumps``."""
        return {
            "schema": self.schema,
            "name": self.name,
            "title": self.title,
            "params": dict(self.params),
            "rows": self.rows,
            "elapsed_seconds": self.elapsed_seconds,
            "version": self.version,
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), default=float, **kwargs)


def validate_result_dict(data: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``data`` is a valid serialized result."""
    required = {
        "schema": str,
        "name": str,
        "title": str,
        "params": dict,
        "elapsed_seconds": (int, float),
        "version": str,
    }
    for key, types in required.items():
        if key not in data:
            raise ValueError(f"result missing key {key!r}")
        if not isinstance(data[key], types):
            raise ValueError(
                f"result key {key!r} has type {type(data[key]).__name__}, "
                f"expected {types}"
            )
    if data["schema"] != RESULT_SCHEMA:
        raise ValueError(f"unknown result schema {data['schema']!r}")
    if "rows" not in data:
        raise ValueError("result missing key 'rows'")
    try:
        json.dumps(data["rows"], default=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"result rows are not JSON-serializable: {exc}")
    if data["elapsed_seconds"] < 0:
        raise ValueError("elapsed_seconds must be non-negative")


@dataclass(frozen=True)
class Experiment:
    """A registered paper figure/table.

    Attributes:
        name: registry/CLI name.
        title: human-readable title, printed above the rows.
        paper: the paper's headline claim for this figure (documentation).
        fn: the underlying ``run()`` function.
        fast_params: reduced-scale overrides for smoke runs
            (``--fast`` / CI / tests).
    """

    name: str
    title: str
    fn: Callable[..., Any]
    paper: str = ""
    fast_params: Dict[str, Any] = field(default_factory=dict)

    @property
    def params(self) -> Dict[str, Any]:
        """Declared parameters: keyword arguments of ``fn`` with defaults."""
        out: Dict[str, Any] = {}
        for parameter in inspect.signature(self.fn).parameters.values():
            if parameter.default is not inspect.Parameter.empty:
                out[parameter.name] = parameter.default
        return out

    def accepted(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """The subset of ``overrides`` this experiment declares."""
        declared = self.params
        return {k: v for k, v in overrides.items() if k in declared}

    def run(self, **overrides: Any) -> ExperimentResult:
        """Execute the experiment and wrap its rows in a result record."""
        declared = self.params
        unknown = set(overrides) - set(declared)
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} does not declare parameters "
                f"{sorted(unknown)} (declared: {sorted(declared)})"
            )
        start = time.perf_counter()
        rows = self.fn(**overrides)
        elapsed = time.perf_counter() - start
        return ExperimentResult(
            name=self.name,
            title=self.title,
            params={**declared, **overrides},
            rows=rows,
            elapsed_seconds=elapsed,
        )


def _format_value(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.3f}" if abs(value) < 10000 else f"{value:,.0f}"


def render_result(result: ExperimentResult) -> str:
    """Shared text rendering used by every experiment's ``main()``."""
    lines = [result.title]
    rows = result.rows
    if isinstance(rows, dict) and rows:
        values = list(rows.values())
        if all(isinstance(v, dict) for v in values):
            keysets = {tuple(v.keys()) for v in values}
            if len(keysets) == 1:
                lines.append(format_table(rows))
            else:
                for name, row in rows.items():
                    cells = "  ".join(
                        f"{k}={_format_value(v)}" for k, v in row.items()
                    )
                    lines.append(f"  {name}: {cells}")
        else:
            for name, value in rows.items():
                lines.append(f"  {name}: {_format_value(value)}")
    else:
        lines.append(f"  {rows!r}")
    return "\n".join(lines)


def experiment_main(name: str) -> Callable[[], None]:
    """Build the shared ``main()`` for an experiment module."""

    def main() -> None:
        result = get_experiment(name).run()
        print(render_result(result))

    main.__doc__ = f"Run the {name!r} experiment at full scale and print it."
    return main


# -- trace replay as an experiment ------------------------------------------


def simulation_rows(result, baseline=None) -> Dict[str, Any]:
    """JSON-serializable rows summarizing one :class:`SimulationResult`.

    The same function builds the rows for a replayed-trace run and for an
    in-memory run, so equal simulations yield byte-identical rows.
    """
    rows: Dict[str, Any] = {
        "selector": result.selector_name,
        "ipc": result.ipc,
        "instructions": result.core.instructions,
        "cycles": result.core.cycles,
        "l1_hit_rate": result.l1_hit_rate,
        "dram_reads": result.dram_reads,
        "dram_prefetch_reads": result.dram_prefetch_reads,
    }
    if baseline is not None:
        rows["baseline_ipc"] = baseline.ipc
        rows["speedup"] = result.ipc / baseline.ipc if baseline.ipc else 0.0
    if result.selector_name != "none":
        rows["accuracy"] = result.metrics.accuracy
        rows["coverage"] = result.metrics.coverage
        rows["issued"] = result.metrics.issued
        rows["table_misses"] = result.table_misses
    return rows


def replay_experiment(
    trace,
    selector_spec: Optional[str] = None,
    config=None,
    name: str = "trace-replay",
    title: str = "Trace replay",
    params: Optional[Mapping[str, Any]] = None,
) -> ExperimentResult:
    """Simulate a record stream and wrap it in an :class:`ExperimentResult`.

    Args:
        trace: a *re-iterable* record stream — an in-memory list or a
            :class:`repro.cpu.tracefile.TraceReader` (both can be
            iterated twice: once for the no-prefetching baseline, once
            under the selector).  A one-shot iterator is rejected with
            ``TypeError`` when ``selector_spec`` is given — the baseline
            run would exhaust it and the selector would silently see an
            empty stream.
        selector_spec: registry selector spec (``"alecto"``,
            ``"bandit6"``, ...); ``None``/``"none"`` runs the baseline
            only.
        config: :class:`~repro.common.config.SystemConfig` (Table I
            defaults when omitted).
        params: provenance recorded in the result (e.g. the trace file's
            header meta).

    The rows depend only on the record stream, the selector, and the
    config — not on where the records came from — so a recorded trace
    replayed from disk produces rows byte-identical to the in-memory
    generation it was recorded from.
    """
    spec = None if selector_spec in (None, "none") else selector_spec
    if spec is not None and iter(trace) is trace:
        # A one-shot iterator would be exhausted by the baseline run and
        # feed the selector an empty stream — silently reporting ipc 0.
        raise TypeError(
            "replay_experiment needs a re-iterable trace (a list or a "
            "TraceReader) when a selector is given; got a one-shot "
            f"iterator {type(trace).__name__!r}"
        )
    start = time.perf_counter()
    baseline = simulate(trace, None, config=config, name=name)
    if spec is not None:
        result = simulate(trace, make_selector(spec), config=config, name=name)
        rows = simulation_rows(result, baseline)
    else:
        rows = simulation_rows(baseline)
    elapsed = time.perf_counter() - start
    return ExperimentResult(
        name=name,
        title=title,
        params=dict(params or {}),
        rows=rows,
        elapsed_seconds=elapsed,
    )


# -- process-pool workers ---------------------------------------------------

#: Simulations executed in pool workers on this process's behalf —
#: experiment-level fan-out and cell-level fan-out alike.  The ``repro
#: suite`` summary adds this to the in-process
#: :func:`repro.sim.simulation_count` delta so pooled work is never
#: reported as zero simulations.
_POOL_SIMULATIONS = 0


def pool_simulation_count() -> int:
    """Simulations executed in pool workers for this process (monotonic)."""
    return _POOL_SIMULATIONS


#: Per-process cache of generated traces, keyed by
#: (benchmark, accesses, seed): in-process cells of the same benchmark,
#: in this suite or a later sweep point (and Figs. 10 and 18), reuse
#: the stream instead of regenerating it.  The limit holds a whole suite
#: (SPEC06's memory-intensive set is 18 benchmarks), so a sweep that
#: visits the same suite once per point does not clear it every point.
_TRACE_CACHE: Dict[Any, Any] = {}
_TRACE_CACHE_LIMIT = 32

#: Long-lived executors, one per worker count, tagged with the registry
#: revision they were forked at.  Reusing the pool across SuiteRunner
#: calls keeps the workers' trace caches warm over a whole parameter
#: sweep (an experiment may call ``speedup_suite`` once per sweep point)
#: and avoids repeated pool start-up; a registration made after the fork
#: (e.g. a custom composite) bumps the revision, so the next call gets a
#: fresh pool that can see it.  Workers are joined at interpreter exit by
#: concurrent.futures' atexit hook.  (Under the ``spawn`` start method,
#: components registered from unimported modules — e.g. ``__main__`` —
#: remain invisible to workers; fan-out with custom components needs
#: Linux/fork.)
_POOLS: Dict[int, tuple] = {}


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    from repro.registry import registry_revision

    revision = registry_revision()
    entry = _POOLS.get(jobs)
    if entry is not None:
        if entry[0] == revision:
            return entry[1]
        entry[1].shutdown(wait=False, cancel_futures=True)
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_worker_init)
    _POOLS[jobs] = (revision, pool)
    return pool


def _evict_pool(jobs: int) -> None:
    """Drop a broken pool so the next call starts a fresh one."""
    entry = _POOLS.pop(jobs, None)
    if entry is not None:
        entry[1].shutdown(wait=False, cancel_futures=True)


def _worker_init() -> None:
    os.environ[_WORKER_ENV] = "1"


def _terminate_pool(jobs: int) -> None:
    """Kill a pool's worker processes and drop it from the cache.

    Used for ``BrokenProcessPool`` recovery (the workers are already
    dying) and for deadline enforcement: ``shutdown(wait=False)`` alone
    never interrupts a *running* worker, so a straggler would keep
    occupying its pool slot — and its memory — indefinitely.  Killing
    the processes outright is the only cancellation the stdlib pool
    supports; every in-flight task is re-dispatched to the replacement
    pool by the caller.
    """
    entry = _POOLS.pop(jobs, None)
    if entry is None:
        return
    pool = entry[1]
    process_map = getattr(pool, "_processes", None)
    if process_map is None:
        # Straggler killing rides on this private attribute (pinned by
        # a test); if a CPython release renames it, deadline enforcement
        # would silently degrade to shutdown(wait=False) — which never
        # interrupts a running worker.  Make the degradation visible.
        _log.warning(
            "ProcessPoolExecutor._processes is missing on this Python; "
            "straggler workers cannot be killed and may leak until exit"
        )
    processes = list((process_map or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # a broken pool may refuse further calls
        pass
    for process in processes:
        try:
            process.kill()
        except Exception:
            pass


# -- fault-tolerant dispatch -------------------------------------------------


def _jitter_draw(token: str) -> float:
    """Deterministic uniform [0, 1) draw for backoff jitter."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the suite runner survives failing, crashing, or stalled work.

    Attributes:
        max_attempts: total tries per work unit (first attempt included)
            before it is declared failed.  Pool crashes do **not** consume
            attempts — the crashed unit cannot be told apart from its
            innocent pool-mates, so charging any of them would let one
            poisoned cell exhaust everyone's budget; crashes draw from
            the separate respawn budget instead.
        backoff_base: delay before the first retry, seconds.
        backoff_factor: multiplier per subsequent retry (exponential).
        backoff_max: ceiling on the un-jittered delay.
        backoff_jitter: +/- fraction of deterministic jitter applied to
            every delay (a pure hash of the work unit's label and retry
            number — reproducible, yet de-synchronized across units so
            retried cells do not stampede the pool in lockstep).
        cell_deadline: wall-clock seconds one (benchmark, selector) cell
            may run before it is cancelled and re-queued (``None`` = no
            deadline).  Enforced only under a process pool: a stalled
            serial run has no supervisor left to cancel it.
        experiment_deadline: same, for one whole experiment.
        max_pool_respawns: ``BrokenProcessPool`` recoveries allowed per
            dispatch before aborting; ``None`` scales with the task
            count (``4 + 2 x tasks``).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.25
    cell_deadline: Optional[float] = None
    experiment_deadline: Optional[float] = None
    max_pool_respawns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")

    def backoff_delay(self, failures: int, token: str) -> float:
        """Delay before retry number ``failures`` of work unit ``token``."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, failures - 1),
        )
        if self.backoff_jitter <= 0 or base <= 0:
            return base
        draw = _jitter_draw(f"backoff|{token}|{failures}")
        return base * (1.0 + self.backoff_jitter * (2.0 * draw - 1.0))

    def respawn_budget(self, tasks: int) -> int:
        if self.max_pool_respawns is not None:
            return self.max_pool_respawns
        return 4 + 2 * tasks

    def as_dict(self) -> Dict[str, Any]:
        """JSON form recorded in suite journals."""
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "backoff_jitter": self.backoff_jitter,
            "cell_deadline": self.cell_deadline,
            "experiment_deadline": self.experiment_deadline,
            "max_pool_respawns": self.max_pool_respawns,
        }


def _traceback_digest(exc: BaseException) -> str:
    """Short stable digest of an exception's formatted traceback.

    Journals and failure records carry the digest, not the traceback:
    it groups repeats of the same failure across runs without dumping
    multi-KB tracebacks into structured output.
    """
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class TaskFailure:
    """One work unit that exhausted its retry budget.

    Attributes:
        label: the unit (``"experiment/fig08"``, ``"cell/mcf/alecto"``).
        attempts: dispatches consumed (including crash re-dispatches).
        kind: ``"exception"`` (the unit raised), ``"deadline"`` (it
            outlived its wall-clock budget), or ``"pool"`` (the pool
            respawn budget ran out underneath it).
        site: the fault-injection site, when the final error was an
            injected fault (``None`` for organic failures).
        error: ``TypeName: message`` of the final error.
        traceback_digest: :func:`_traceback_digest` of the final error.
    """

    label: str
    attempts: int
    kind: str
    error: str
    site: Optional[str] = None
    traceback_digest: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "attempts": self.attempts,
            "kind": self.kind,
            "site": self.site,
            "error": self.error,
            "traceback_digest": self.traceback_digest,
        }


@dataclass
class DispatchStats:
    """Counters accumulated by one fault-tolerant dispatch.

    Attributes:
        retries: re-dispatches after a charged failure (exception or
            deadline; crash re-dispatches are counted in
            ``pool_respawns`` instead).
        pool_respawns: times a broken pool was replaced.
        deadline_requeues: work units cancelled past their deadline.
        attempts: dispatch count per work-unit label.
        failures: units that exhausted their budget (kept by
            keep-going callers; fatal otherwise).
    """

    retries: int = 0
    pool_respawns: int = 0
    deadline_requeues: int = 0
    attempts: Dict[str, int] = field(default_factory=dict)
    failures: List[TaskFailure] = field(default_factory=list)


class SuiteExecutionError(RuntimeError):
    """A work unit failed permanently (and keep-going was off).

    The message embeds every failure's label and final error, so callers
    matching on the underlying error text (or users reading the abort
    line) see the root cause, not just "something failed".
    """

    def __init__(self, failures: Sequence[TaskFailure]):
        self.failures = list(failures)
        detail = "; ".join(
            f"{f.label} failed after {f.attempts} attempt(s): {f.error}"
            for f in self.failures
        )
        super().__init__(detail or "suite execution failed")


class _Task:
    """One dispatchable work unit inside :func:`_dispatch_pool`."""

    __slots__ = ("key", "label", "fn", "make_args", "deadline",
                 "dispatches", "errors", "started")

    def __init__(self, key, label, fn, make_args, deadline=None):
        self.key = key
        self.label = label
        self.fn = fn
        #: ``make_args(attempt) -> tuple`` — the attempt index is baked
        #: into the submitted args so fault sites and logs can tell
        #: dispatches apart.
        self.make_args = make_args
        self.deadline = deadline
        self.dispatches = 0
        self.errors = 0
        self.started = 0.0


class _DeadlineExceeded(Exception):
    """Internal marker: a task outlived its wall-clock deadline."""


def _charge_failure(
    task: _Task,
    exc: BaseException,
    kind: str,
    policy: RetryPolicy,
    stats: DispatchStats,
    waiting: List[Tuple[float, int, _Task]],
    counter,
) -> Optional[TaskFailure]:
    """Record one failed attempt; schedule a retry or return the failure."""
    task.errors += 1
    if task.errors < policy.max_attempts:
        stats.retries += 1
        delay = policy.backoff_delay(task.errors, task.label)
        _log.warning(
            "%s failed (%s, attempt %d/%d): %s; retrying in %.2fs",
            task.label, kind, task.errors, policy.max_attempts, exc, delay,
        )
        heappush(waiting, (time.monotonic() + delay, next(counter), task))
        return None
    failure = TaskFailure(
        label=task.label,
        attempts=task.dispatches,
        kind=kind,
        site=getattr(exc, "site", None),
        error=f"{type(exc).__name__}: {exc}",
        traceback_digest=_traceback_digest(exc),
    )
    stats.failures.append(failure)
    _log.error(
        "%s failed permanently after %d attempt(s): %s",
        task.label, task.dispatches, failure.error,
    )
    return failure


def _dispatch_pool(
    jobs: int,
    tasks: Sequence[_Task],
    policy: RetryPolicy,
    stats: DispatchStats,
    keep_going: bool = False,
    absorbed: Optional[Callable[[_Task], Optional[Any]]] = None,
) -> Iterator[Tuple[_Task, str, Any]]:
    """Run ``tasks`` on the shared pool, surviving faults per ``policy``.

    Yields ``(task, status, value)`` as units finalize, where status is
    ``"ok"`` (value = the worker's return), ``"absorbed"`` (the store
    already held the result when the unit came up for re-dispatch;
    value = that result), or ``"failed"`` (keep-going only; value = the
    :class:`TaskFailure`, also recorded in ``stats``).

    Recovery semantics:

    - a task that **raises** is retried with exponential backoff up to
      ``policy.max_attempts``, then declared failed (fatal via
      :class:`SuiteExecutionError` unless ``keep_going``);
    - a **deadline** expiry cancels the straggler *for real* — the pool
      is recycled (stdlib pools cannot kill one worker), the straggler
      is charged a failed attempt and re-queued, and innocent in-flight
      tasks are re-dispatched uncharged;
    - a ``BrokenProcessPool`` (worker SIGKILLed: OOM, segfault,
      injected ``worker_crash``) respawns the pool and re-dispatches
      every in-flight task, *minus* any ``absorbed`` by the store in
      the meantime; nobody is charged an attempt, but respawns draw
      from ``policy.respawn_budget`` so a reliably crashing unit cannot
      loop forever.
    """
    counter = itertools.count()
    ready = deque(tasks)
    waiting: List[Tuple[float, int, _Task]] = []
    pending: Dict[Any, _Task] = {}
    respawns = 0
    budget = policy.respawn_budget(len(tasks))
    pool = _get_pool(jobs)

    def recover_pool(reason: str, charge_budget: bool) -> None:
        nonlocal pool, respawns
        stats.pool_respawns += 1
        if charge_budget:
            respawns += 1
            if respawns > budget:
                pool_failures = [
                    TaskFailure(
                        label=task.label,
                        attempts=task.dispatches,
                        kind="pool",
                        error=(
                            f"pool respawn budget ({budget}) exhausted: "
                            f"{reason}"
                        ),
                    )
                    for task in (
                        list(pending.values()) + list(ready)
                        + [entry[2] for entry in waiting]
                    )
                ]
                # Record the failures in stats *before* raising: the run
                # journal is written from ``stats.failures`` in the
                # caller's finally block, and an abort journalled with
                # an empty failure list would hide exactly the failure
                # mode the journal exists to post-mortem.
                stats.failures.extend(pool_failures)
                raise SuiteExecutionError(pool_failures)
        for future, task in pending.items():
            future.cancel()
            ready.append(task)
        pending.clear()
        _terminate_pool(jobs)
        pool = _get_pool(jobs)
        _log.warning(
            "process pool respawned (%s); %d task(s) re-queued",
            reason, len(ready),
        )

    while ready or waiting or pending:
        now = time.monotonic()
        while waiting and waiting[0][0] <= now:
            ready.append(heappop(waiting)[2])

        submitted_broken = None
        # Keep at most ``jobs`` tasks in flight.  The pool runs exactly
        # ``jobs`` at once, so anything submitted beyond that would sit
        # in the executor's queue with its deadline clock already
        # running (``started`` is stamped at submit) — and a healthy
        # queued task would be falsely expired once tasks > jobs.
        # Leaving the excess in ``ready`` keeps submit ≈ execution
        # start, so deadlines measure runtime, not queue wait.
        while ready and len(pending) < jobs:
            task = ready.popleft()
            # Re-dispatch only work the store has not already absorbed
            # (an experiment persisted by a worker that died *after*
            # putting it, a cell another process computed meanwhile).
            if absorbed is not None and task.dispatches > 0:
                value = absorbed(task)
                if value is not None:
                    yield task, "absorbed", value
                    continue
            attempt = task.dispatches
            task.dispatches += 1
            stats.attempts[task.label] = task.dispatches
            task.started = time.monotonic()
            try:
                future = pool.submit(task.fn, *task.make_args(attempt))
            except (BrokenProcessPool, RuntimeError) as exc:
                # The pool broke between completions; put the task back
                # (uncharged) and respawn.
                task.dispatches -= 1
                stats.attempts[task.label] = task.dispatches
                ready.appendleft(task)
                submitted_broken = exc
                break
            pending[future] = task
        if submitted_broken is not None:
            recover_pool(str(submitted_broken) or "submit failed", True)
            continue

        if not pending:
            if waiting:
                time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
            continue

        timeout = None
        if waiting:
            timeout = max(0.0, waiting[0][0] - now)
        for task in pending.values():
            if task.deadline is not None:
                remaining = task.deadline - (now - task.started)
                timeout = remaining if timeout is None else min(timeout, remaining)
        if timeout is not None:
            timeout = max(timeout, 0.01)
        done, _ = wait(list(pending), timeout=timeout, return_when=FIRST_COMPLETED)

        broken = None
        for future in done:
            task = pending.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool as exc:
                broken = exc
                ready.append(task)  # uncharged: the culprit is unknowable
            except Exception as exc:
                failure = _charge_failure(
                    task, exc, "exception", policy, stats, waiting, counter
                )
                if failure is not None:
                    if not keep_going:
                        raise SuiteExecutionError([failure])
                    yield task, "failed", failure
            else:
                yield task, "ok", value
        if broken is not None:
            recover_pool(str(broken) or "worker died abruptly", True)
            continue

        now = time.monotonic()
        expired = [
            task for task in pending.values()
            if task.deadline is not None and now - task.started > task.deadline
        ]
        if expired:
            stats.deadline_requeues += len(expired)
            expired_set = set(id(task) for task in expired)
            survivors = [
                task for task in pending.values()
                if id(task) not in expired_set
            ]
            pending.clear()
            failures = []
            for task in expired:
                exc = _DeadlineExceeded(
                    f"{task.label} exceeded its {task.deadline:.1f}s deadline"
                )
                failure = _charge_failure(
                    task, exc, "deadline", policy, stats, waiting, counter
                )
                if failure is not None:
                    failures.append((task, failure))
            # Killing the straggler means recycling the pool; innocents
            # re-queue uncharged.  Deadline recycles are bounded by
            # max_attempts per task, so they do not draw on the crash
            # respawn budget.
            ready.extend(survivors)
            _terminate_pool(jobs)
            pool = _get_pool(jobs)
            stats.pool_respawns += 1
            _log.warning(
                "deadline exceeded by %d task(s); pool recycled, %d "
                "innocent task(s) re-queued",
                len(expired), len(survivors),
            )
            for task, failure in failures:
                if not keep_going:
                    raise SuiteExecutionError([failure])
                yield task, "failed", failure


def _run_serial_attempts(
    label: str,
    call: Callable[[int], Any],
    policy: RetryPolicy,
    stats: DispatchStats,
) -> Tuple[bool, Any]:
    """In-process twin of :func:`_dispatch_pool` for one work unit.

    Retries ``call(attempt)`` with the same charged-failure accounting
    (no deadlines — a stalled serial run has no supervisor to cancel
    it, and no crash recovery — there is no worker to lose).  Returns
    ``(True, value)`` or ``(False, TaskFailure)``.
    """
    errors = 0
    while True:
        attempt = stats.attempts.get(label, 0)
        stats.attempts[label] = attempt + 1
        try:
            return True, call(attempt)
        except Exception as exc:
            errors += 1
            if errors < policy.max_attempts:
                stats.retries += 1
                delay = policy.backoff_delay(errors, label)
                _log.warning(
                    "%s failed (attempt %d/%d): %s; retrying in %.2fs",
                    label, errors, policy.max_attempts, exc, delay,
                )
                time.sleep(delay)
                continue
            failure = TaskFailure(
                label=label,
                attempts=stats.attempts[label],
                kind="exception",
                site=getattr(exc, "site", None),
                error=f"{type(exc).__name__}: {exc}",
                traceback_digest=_traceback_digest(exc),
            )
            stats.failures.append(failure)
            _log.error(
                "%s failed permanently after %d attempt(s): %s",
                label, failure.attempts, failure.error,
            )
            return False, failure


def _cached_trace(profile, accesses: int, seed: int):
    # Key on the profile's full definition, not just its name: pool
    # workers outlive a single suite call, and a same-named profile with
    # different patterns (common for ad-hoc test profiles) must not be
    # served the previous definition's trace.
    key = (repr(profile), accesses, seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        if len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            _TRACE_CACHE.clear()
        trace = profile.generate(accesses, seed=seed)
        _TRACE_CACHE[key] = trace
    return trace


def _fire_cell_faults(token: str, attempt: int) -> None:
    """Fire the per-work-unit fault sites at the top of a work unit.

    Sits *outside* the simulate loop: injection decides per cell, never
    per access, so a disarmed plan costs one dict lookup per cell.
    """
    faults.fire("worker_crash", token, attempt)
    faults.fire("cell_exception", token, attempt)
    faults.fire("cell_stall", token, attempt)


def _trace_cell_worker(
    trace_path: str,
    benchmark: str,
    selector_name: Optional[str],
    config,
    selector_kwargs: Dict[str, Any],
    attempt: int = 0,
) -> Dict[str, Any]:
    """Simulate one cell by lazily replaying a spooled trace file.

    The reader (either trace version, via ``open_trace``) streams
    records straight into the simulator — the worker never materializes
    the access list, so worker memory stays O(1) in the trace length.
    """
    from repro.cpu.tracefile import open_trace

    with faults.attempt_context(attempt):
        _fire_cell_faults(f"cell/{benchmark}/{selector_name or 'none'}", attempt)
        reader = open_trace(trace_path)
        selector = (
            make_selector(selector_name, **selector_kwargs)
            if selector_name is not None
            else None
        )
        return simulation_rows(
            simulate(reader, selector, config=config, name=benchmark)
        )


def _spool_streams(
    profiles: Mapping[str, Any], accesses: int, seed: int, spool_dir: str
) -> Dict[str, str]:
    """Record every profile's stream once into ``spool_dir``.

    Streams ``profile.stream()`` through a block-compressed
    ``repro.trace.v2`` :class:`~repro.cpu.blocktrace.BlockTraceWriter`
    (independently compressed blocks decode faster than the v1
    monolithic gzip stream, and every worker cell replays the spool), so
    the parent's memory stays O(1) no matter the access count.  Returns
    ``{benchmark: trace path}``.
    """
    from repro.cpu.blocktrace import BlockTraceWriter

    paths: Dict[str, str] = {}
    for index, (bench, profile) in enumerate(profiles.items()):
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", bench)
        path = os.path.join(spool_dir, f"{index:03d}_{safe}.trace.v2")
        meta = {
            "benchmark": bench,
            "suite": getattr(profile, "suite", ""),
            "accesses": accesses,
            "seed": seed,
        }
        with BlockTraceWriter(path, meta=meta) as writer:
            writer.write_all(profile.stream(accesses, seed=seed))
        paths[bench] = path
    return paths


def _shard_replay_worker(
    trace_path: str,
    shard_index: int,
    shards: int,
    selector_spec: Optional[str],
    config,
) -> Dict[str, Any]:
    """Replay one shard of a trace file; returns its summary rows.

    Workers receive ``(path, index, shards)`` — never a reader — and
    open their own shard cursor, so each decodes exactly the blocks its
    records live in.  With ``shards == 1`` the whole file replays (and
    any trace version is accepted); the rows are then identical to a
    serial whole-file replay by construction.
    """
    from repro.cpu.tracefile import TraceFormatError, open_trace

    try:
        reader = open_trace(trace_path)
        trace = reader.shard(shard_index, shards) if shards > 1 else reader
        result = replay_experiment(
            trace,
            selector_spec=selector_spec,
            config=config,
            name=f"shard{shard_index}",
        )
        return result.rows
    except TraceFormatError as exc:
        # Under a pool the parent sees errors from many concurrent
        # shards of possibly many files; a bare byte offset does not say
        # *which* shard of *which* file is corrupt.
        raise TraceFormatError(
            f"shard {shard_index}/{shards} of {trace_path!r}: {exc}"
        ) from exc


def _aggregate_shard_rows(
    shard_rows: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Whole-trace totals from per-shard rows (counters sum; IPC derives)."""
    out: Dict[str, Any] = {
        "selector": shard_rows[0]["selector"] if shard_rows else "none",
        "shards": len(shard_rows),
    }
    for counter in (
        "instructions",
        "cycles",
        "dram_reads",
        "dram_prefetch_reads",
        "issued",
        "table_misses",
    ):
        if all(counter in rows for rows in shard_rows):
            out[counter] = sum(rows[counter] for rows in shard_rows)
    cycles = out.get("cycles", 0)
    out["ipc"] = out.get("instructions", 0) / cycles if cycles else 0.0
    return out


def _cell_meta(benchmark: str, selector_spec: Optional[str]) -> Dict[str, Any]:
    """Provenance recorded with one cached cell (not part of the key)."""
    return {
        "created": time.time(),
        "benchmark": benchmark,
        "selector": selector_spec or "none",
    }


def _run_experiment_attempt(
    name: str, overrides: Dict[str, Any], attempt: int
) -> ExperimentResult:
    """Run one experiment attempt with its fault sites armed.

    Shared by the serial retry loop and :func:`_experiment_worker`, so
    the ``experiment/<name>`` fault tokens — and hence any spec's
    deterministic decisions — are identical at every job count.
    """
    with faults.attempt_context(attempt):
        _fire_cell_faults(f"experiment/{name}", attempt)
        return get_experiment(name).run(**overrides)


def _experiment_worker(
    name: str,
    overrides: Dict[str, Any],
    store_root: Optional[str] = None,
    attempt: int = 0,
) -> Tuple[ExperimentResult, Dict[str, Any]]:
    """Run one experiment in a pool worker.

    When the parent runs against a result store, its root is passed down
    so the experiment's *cells* (``speedup_suite`` simulations) read and
    write the store from inside the worker too; the experiment-level
    record itself is put by the parent as the future completes.

    Returns the result plus this task's counters (simulations executed,
    store hits/puts), which the parent folds into its own totals — the
    ``repro suite`` summary must reflect worker activity, not just the
    parent process.
    """
    from repro.sim import simulation_count

    sims_before = simulation_count()
    if store_root is None:
        result = _run_experiment_attempt(name, overrides, attempt)
        store_stats: Dict[str, int] = {}
    else:
        from repro.store import ResultStore, activate

        store = ResultStore(store_root)
        with activate(store):
            result = _run_experiment_attempt(name, overrides, attempt)
        store_stats = store.stats.as_dict()
    stats = {
        "simulations": simulation_count() - sims_before,
        "store": store_stats,
    }
    return result, stats


def resolve_experiments(
    names: Optional[Sequence[str]] = None,
    fast: bool = False,
    overrides: Optional[Mapping[str, Any]] = None,
) -> List[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    """Resolve a suite request into ``(name, applied, params)`` triples.

    ``applied`` is what will be passed to :meth:`Experiment.run`
    (``fast_params`` plus accepted overrides); ``params`` is the fully
    resolved parameter set the run will record — the same dict the
    result store keys experiment records on
    (:func:`repro.store.keys.experiment_key`).
    """
    if names is None:
        names = list_experiments()
    resolved = []
    for name in names:
        experiment = get_experiment(name)
        applied: Dict[str, Any] = {}
        if fast:
            applied.update(experiment.fast_params)
        if overrides:
            applied.update(experiment.accepted(overrides))
        resolved.append((name, applied, {**experiment.params, **applied}))
    return resolved


class SuiteRunner:
    """Fans independent work units out over a ``ProcessPoolExecutor``.

    Args:
        jobs: worker processes.  ``1`` (or running inside another
            SuiteRunner worker) executes serially in-process; results are
            numerically identical either way.
        store: optional :class:`repro.store.ResultStore`.  When given,
            ``speedup_suite`` reads cells through it and fans out only
            the misses, and every computed cell and experiment result is
            persisted the moment it exists — making long suite runs
            resumable after an interrupt.  Incremental *skipping* of
            whole experiments lives one level up, in
            :func:`repro.store.run_suite`.
    """

    def __init__(
        self, jobs: int = 1, store=None, policy: Optional[RetryPolicy] = None
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if os.environ.get(_WORKER_ENV):
            jobs = 1  # never nest process pools
        self.jobs = jobs
        self.store = store
        #: Retry / deadline / pool-respawn behaviour (see
        #: :class:`RetryPolicy`); ``RetryPolicy()`` by default, so every
        #: caller gets bounded retries without opting in.
        self.policy = policy if policy is not None else RetryPolicy()

    # -- (benchmark, selector) cells ---------------------------------------

    def speedup_suite(
        self,
        profiles: Mapping[str, Any],
        selector_names: Sequence[str],
        accesses: int = 15000,
        seed: int = 1,
        config=None,
        **selector_kwargs: Any,
    ) -> Dict[str, Dict[str, float]]:
        """Speedup over no-prefetching for every (benchmark, selector) pair.

        Returns ``{benchmark: {selector: speedup}}``; every selector of
        a benchmark sees the identical access stream.  Each cell is read
        through ``self.store`` (or the ambient
        :func:`~repro.store.resultstore.active_store`) and only the
        misses simulate, claim-first
        (:func:`~repro.store.leases.resolve_leased`), each persisted as
        it completes.  At ``jobs == 1`` claimed cells simulate
        in-process on :func:`_cached_trace`; at ``jobs > 1`` each
        benchmark's stream is spooled once to a ``repro.trace.v2`` file
        and the cells fan out over the pool (:func:`_trace_cell_worker`,
        retried per ``self.policy``).  Cells a peer held and this node
        later won always simulate in-process.  Rows are identical at
        every job count.
        """
        from repro.experiments.common import cell_store_key
        from repro.store.leases import resolve_leased
        from repro.store.resultstore import active_store

        store = self.store if self.store is not None else active_store()
        cells = [
            (bench, selector)
            for bench in profiles
            for selector in (None, *selector_names)
        ]
        keys: Dict[Any, Any] = {}
        summaries: Dict[Any, Dict[str, Any]] = {}

        def lookup(cell) -> bool:
            value = store.get_value(keys[cell])
            if value is not None:
                summaries[cell] = value
            return value is not None

        def record(cell, rows: Dict[str, Any]) -> None:
            summaries[cell] = rows
            if store is not None:
                store.put(keys[cell], rows, meta=_cell_meta(*cell))

        def in_process(batch, landed) -> None:
            for cell in batch:
                bench, spec = cell
                result = simulate(
                    _cached_trace(profiles[bench], accesses, seed),
                    make_selector(spec, **selector_kwargs) if spec is not None else None,
                    config=config,
                    name=bench,
                )
                record(cell, simulation_rows(result))
                landed(cell)

        def pooled(batch, landed) -> None:
            spool_dir = tempfile.mkdtemp(prefix="repro-trace-spool-")
            try:
                benches = {bench for bench, _ in batch}
                paths = _spool_streams(
                    {b: profiles[b] for b in profiles if b in benches},
                    accesses, seed, spool_dir,
                )
                tasks = [
                    _Task(
                        key=cell,
                        label=f"cell/{cell[0]}/{cell[1] or 'none'}",
                        fn=_trace_cell_worker,
                        make_args=lambda attempt, cell=cell: (
                            paths[cell[0]], cell[0], cell[1],
                            config, selector_kwargs, attempt,
                        ),
                        deadline=self.policy.cell_deadline,
                    )
                    for cell in batch
                ]
                # On re-dispatch (after a pool crash or deadline
                # recycle), skip any cell another process already
                # persisted: the store is the arbiter of progress.
                absorbed = (
                    None
                    if store is None
                    else lambda task: store.get_value(keys[task.key])
                )
                global _POOL_SIMULATIONS
                for task, status, value in _dispatch_pool(
                    self.jobs, tasks, self.policy, DispatchStats(),
                    absorbed=absorbed,
                ):
                    if status == "ok":
                        _POOL_SIMULATIONS += 1  # one simulate() per cell
                        record(task.key, value)
                    else:
                        # "absorbed": another process simulated and
                        # stored the cell; use it without a simulation.
                        summaries[task.key] = value
                    landed(task.key)
            except Exception:
                _evict_pool(self.jobs)
                raise
            finally:
                shutil.rmtree(spool_dir, ignore_errors=True)

        if store is not None:
            for cell in cells:
                keys[cell] = cell_store_key(
                    profiles[cell[0]], cell[1], accesses, seed, config,
                    selector_kwargs,
                )
                lookup(cell)
        resolve_leased(
            store,
            {cell: keys.get(cell) for cell in cells if cell not in summaries},
            lookup,
            pooled if self.jobs > 1 else in_process,
            leftover=in_process,
            what="cell",
        )
        rows: Dict[str, Dict[str, float]] = {}
        for bench in profiles:
            baseline = summaries[(bench, None)]["ipc"]
            rows[bench] = {
                selector: (
                    summaries[(bench, selector)]["ipc"] / baseline
                    if baseline
                    else 0.0
                )
                for selector in selector_names
            }
        return rows

    # -- sharded trace replay ----------------------------------------------

    def replay_shards(
        self,
        trace_path: str,
        selector_spec: Optional[str] = None,
        shards: int = 1,
        config=None,
    ) -> Dict[str, Dict[str, Any]]:
        """Replay ``shards`` disjoint, contiguous shards of one trace.

        Each shard is an independent replay cell (fresh simulator state,
        SimPoint-style) fed by a ``repro.trace.v2`` shard cursor
        (:meth:`repro.cpu.blocktrace.BlockTraceReader.shard`), so the
        process pool decodes and simulates disjoint parts of one
        multi-GB trace concurrently — no worker reads a byte outside its
        shard's blocks.  Rows are byte-identical whether shards run in
        pool workers or serially in-process (pinned by tests), and
        ``shards=1`` is byte-identical to a serial whole-file replay.

        Returns ``{"shard0": rows, ..., "overall": totals}`` (the
        ``overall`` entry — summed counters, derived IPC — only when
        ``shards > 1``).
        """
        from repro.cpu.tracefile import open_trace

        if shards < 1:
            raise ValueError("shards must be >= 1")
        reader = open_trace(trace_path)
        if shards > 1 and not hasattr(reader, "shard"):
            raise ValueError(
                f"sharded replay needs a seekable repro.trace.v2 file; "
                f"{trace_path!r} is {reader.schema} — convert it with "
                f"`repro trace convert`"
            )
        rows: Dict[str, Dict[str, Any]] = {}
        if self.jobs == 1 or shards == 1:
            for index in range(shards):
                rows[f"shard{index}"] = _shard_replay_worker(
                    trace_path, index, shards, selector_spec, config
                )
        else:
            pool = _get_pool(self.jobs)
            try:
                futures = {
                    pool.submit(
                        _shard_replay_worker,
                        trace_path,
                        index,
                        shards,
                        selector_spec,
                        config,
                    ): index
                    for index in range(shards)
                }
                collected: Dict[int, Dict[str, Any]] = {}
                global _POOL_SIMULATIONS
                for future in as_completed(futures):
                    collected[futures[future]] = future.result()
                    # Baseline replay, plus the selector replay if any.
                    _POOL_SIMULATIONS += (
                        2 if selector_spec not in (None, "none") else 1
                    )
                for index in sorted(collected):
                    rows[f"shard{index}"] = collected[index]
            except Exception:
                _evict_pool(self.jobs)
                raise
        if shards > 1:
            rows["overall"] = _aggregate_shard_rows(list(rows.values()))
        return rows

    # -- whole experiments -------------------------------------------------

    def _put_experiment(
        self, name: str, params: Dict[str, Any], result: ExperimentResult
    ) -> None:
        if self.store is None:
            return
        from repro.store.keys import experiment_key

        self.store.put(
            experiment_key(name, params),
            result.to_dict(),
            meta={"created": time.time(), "experiment": name},
        )

    def _absorbed_experiment(self, name: str, params: Dict[str, Any]):
        """The store's record of this experiment, as a worker-style result.

        Consulted before *re*-dispatching an experiment after a pool
        crash: a worker that died after persisting its result must not
        be re-run.  Returns ``(result, stats)`` shaped like
        :func:`_experiment_worker`'s return, or ``None``.
        """
        if self.store is None:
            return None
        from repro.store.keys import experiment_key
        from repro.store.orchestrator import _result_from_record

        record = self.store.get(experiment_key(name, params))
        if record is None:
            return None
        try:
            result = _result_from_record(record)
        except Exception:
            return None
        return result, {"simulations": 0, "store": {}}

    def run_resolved(
        self,
        resolved: Sequence[Tuple[str, Dict[str, Any], Dict[str, Any]]],
        keep_going: bool = False,
        stats: Optional[DispatchStats] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Iterator[Tuple[str, ExperimentResult]]:
        """Execute ``(name, applied, params)`` triples, yielding on completion.

        Results are yielded (and, with a store, persisted) as each
        experiment finishes — completion order under a pool, input order
        serially — so a consumer interrupted mid-suite loses only the
        in-flight experiments.  The store, when set, is also made the
        ambient :func:`~repro.store.resultstore.active_store` so cell
        caching applies inside the experiments themselves.

        Execution is governed by ``self.policy``: failing experiments
        are retried with backoff; under a pool, stragglers past
        ``experiment_deadline`` are cancelled and re-queued, and broken
        pools are respawned.  An experiment that exhausts its attempts
        raises :class:`SuiteExecutionError` — unless ``keep_going``, in
        which case it is recorded in ``stats.failures`` (pass a
        :class:`DispatchStats` to collect them) and skipped.

        ``progress``, when given, is called with ``{"event": "failed",
        "name", "failure"}`` for each permanent ``keep_going`` failure
        (completions are observable from the yielded pairs, so only
        failures — which are *not* yielded — need a side channel).
        """
        from repro.store.resultstore import activate

        if stats is None:
            stats = DispatchStats()

        def report_failure(name: str, failure: Any) -> None:
            if progress is not None:
                progress({"event": "failed", "name": name, "failure": failure})
        with activate(self.store):
            if self.jobs == 1 or len(resolved) == 1:
                # A single experiment still profits from parallelism:
                # forward the job count to experiments declaring ``jobs``.
                for name, applied, params in resolved:
                    experiment = get_experiment(name)
                    if self.jobs > 1 and "jobs" in experiment.params:
                        applied = {**applied, "jobs": self.jobs}
                    ok, value = _run_serial_attempts(
                        f"experiment/{name}",
                        lambda attempt, name=name, applied=applied: (
                            _run_experiment_attempt(name, applied, attempt)
                        ),
                        self.policy,
                        stats,
                    )
                    if not ok:
                        if not keep_going:
                            raise SuiteExecutionError([value])
                        report_failure(name, value)
                        continue
                    self._put_experiment(name, params, value)
                    yield name, value
                return

            store_root = self.store.root if self.store is not None else None
            tasks = [
                _Task(
                    key=(name, tuple(sorted(params.items()))),
                    label=f"experiment/{name}",
                    fn=_experiment_worker,
                    make_args=lambda attempt, name=name, applied=applied: (
                        name, applied, store_root, attempt,
                    ),
                    deadline=self.policy.experiment_deadline,
                )
                for name, applied, params in resolved
            ]
            params_by_key = {
                task.key: params
                for task, (name, _, params) in zip(tasks, resolved)
            }

            def absorbed(task):
                return self._absorbed_experiment(
                    task.key[0], params_by_key[task.key]
                )

            global _POOL_SIMULATIONS
            try:
                for task, status, value in _dispatch_pool(
                    self.jobs,
                    tasks,
                    self.policy,
                    stats,
                    keep_going=keep_going,
                    absorbed=absorbed if self.store is not None else None,
                ):
                    if status == "failed":
                        report_failure(task.key[0], value)
                        continue  # recorded in stats.failures
                    name = task.key[0]
                    result, worker_stats = value
                    _POOL_SIMULATIONS += worker_stats["simulations"]
                    if self.store is not None:
                        for field_name, count in worker_stats["store"].items():
                            setattr(
                                self.store.stats,
                                field_name,
                                getattr(self.store.stats, field_name) + count,
                            )
                    if status == "ok":
                        self._put_experiment(
                            name, params_by_key[task.key], result
                        )
                    yield name, result
            except Exception:
                _evict_pool(self.jobs)
                raise

    def run_experiments(
        self,
        names: Optional[Sequence[str]] = None,
        fast: bool = False,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> List[ExperimentResult]:
        """Run several experiments, in parallel when ``jobs > 1``.

        Args:
            names: experiment names (default: every registered experiment).
            fast: apply each experiment's declared ``fast_params``
                (reduced-scale smoke run).
            overrides: parameter overrides, applied to every experiment
                that declares the parameter (others ignore it).

        Returns:
            One :class:`ExperimentResult` per name, in input order.
        """
        resolved = resolve_experiments(names, fast=fast, overrides=overrides)
        by_name = {name: result for name, result in self.run_resolved(resolved)}
        return [by_name[name] for name, _, _ in resolved]


def run_experiments(
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    fast: bool = False,
    overrides: Optional[Mapping[str, Any]] = None,
) -> List[ExperimentResult]:
    """Convenience wrapper: ``SuiteRunner(jobs).run_experiments(...)``."""
    return SuiteRunner(jobs=jobs).run_experiments(
        names, fast=fast, overrides=overrides
    )


def results_document(results: Sequence[ExperimentResult]) -> Dict[str, Any]:
    """The ``repro.experiment-suite.v1`` document for a result collection.

    One serialized :class:`ExperimentResult` per experiment under
    ``"results"``; the CLI wraps this document in its
    ``repro.cli-output.v1`` envelope, the library writes it bare.
    """
    return {
        "schema": "repro.experiment-suite.v1",
        "version": __version__,
        "results": [result.to_dict() for result in results],
    }


def write_results_json(
    results: Sequence[ExperimentResult], path: str
) -> Dict[str, Any]:
    """Write a result collection to ``path`` and return the document."""
    document = results_document(results)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, default=float)
        handle.write("\n")
    return document
