"""The ``repro serve`` job daemon: bounded queue, worker pool, HTTP API.

Architecture — three small pieces behind one lock:

- :class:`Job`: one submitted jobspec and everything observable about
  it (state, per-cell progress counters, streamed results, journal).
- :class:`JobManager`: a FIFO queue bounded by ``queue_limit`` feeding
  ``workers`` daemon threads.  Submission canonicalizes the spec
  (:func:`repro.jobs.spec.canonicalize_jobspec`), so two spellings of
  the same logical request share a digest: a resubmission while the
  first job is still queued/running **deduplicates** onto it, and a
  resubmission after completion becomes a new job that replays entirely
  from the store (0 simulations).  A full queue raises
  :class:`QueueFull`, which the HTTP layer maps to ``429`` +
  ``Retry-After`` — backpressure, not buffering.
- the HTTP surface (:class:`_JobRequestHandler`), a
  ``ThreadingHTTPServer`` with the same discipline as
  ``repro store serve``:

  ==========  ==========================  ================================
  method      path                        semantics
  ==========  ==========================  ================================
  POST        ``/jobs``                   submit a jobspec; ``202`` with
                                          the job document, ``200`` when
                                          deduplicated onto a live job,
                                          ``400`` on a bad spec, ``429``
                                          + ``Retry-After`` when full
  GET         ``/jobs``                   list all jobs (newest last)
  GET         ``/jobs/<id>``              job document with progress
  GET         ``/jobs/<id>/results``      NDJSON stream of per-experiment
                                          results as they land
  DELETE      ``/jobs/<id>``              cancel (queued: immediate;
                                          running: best-effort at the
                                          next progress event)
  GET         ``/healthz``                liveness + queue depth
  ==========  ==========================  ================================

Execution reuses the whole robustness stack: each job runs through
:func:`repro.store.orchestrator.run_suite` with ``keep_going=True``
under the manager's :class:`~repro.experiments.runner.RetryPolicy`, so
failures retry with backoff, every run writes a journal, and a crashed
job resumes from the store on resubmission.  The dispatch path hosts
the ``job_dispatch_io`` fault site (:mod:`repro.faults`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib import parse as urlparse

from repro import faults
from repro.jobs.spec import (
    JobSpecError,
    canonicalize_jobspec,
    job_digest,
)
from repro.log import get_logger
from repro.output import envelope

_log = get_logger("jobs")

#: Largest request body read, in bytes; far above any jobspec.
MAX_BODY_BYTES = 1 << 20

#: Schema identifier of the job status document.
JOB_SCHEMA = "repro.job.v1"

#: Default TCP port of the job daemon (distinct from the store's 8737).
DEFAULT_PORT = 8642

#: Seconds a 429 response advises the client to wait before retrying.
RETRY_AFTER_SECONDS = 2

#: Job states.  queued/running are *live* (submissions deduplicate onto
#: them); done/partial/failed/cancelled are terminal.
LIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "partial", "failed", "cancelled")

__all__ = [
    "DEFAULT_PORT",
    "JOB_SCHEMA",
    "Job",
    "JobManager",
    "QueueFull",
    "serve",
]


class QueueFull(RuntimeError):
    """The job queue is at ``queue_limit``; retry after backoff."""


class _JobCancelled(BaseException):
    """Raised out of the progress callback to abort a running suite.

    Derives from ``BaseException`` on purpose: the orchestrator's
    progress plumbing swallows ``Exception``-level callback errors
    (progress must never change a run's outcome), while cancellation
    *must* propagate and abort the run.
    """


class Job:
    """One submitted jobspec and its observable lifecycle."""

    def __init__(self, job_id: str, spec: Dict[str, Any], digest: str):
        self.id = job_id
        self.spec = spec
        self.digest = digest
        self.state = "queued"
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.progress: Dict[str, int] = {
            "requested": 0,
            "completed": 0,
            "cached": 0,
            "computed": 0,
            "failed": 0,
            "deferred": 0,
        }
        self.results: List[Dict[str, Any]] = []
        self.simulations = 0
        self.attempts = 0
        self.error: Optional[str] = None
        self.journal: Optional[str] = None
        self.cancel_event = threading.Event()

    def as_dict(self) -> Dict[str, Any]:
        """The ``repro.job.v1`` status document."""
        elapsed = None
        if self.started is not None:
            elapsed = (self.finished or time.time()) - self.started
        return {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "digest": self.digest,
            "state": self.state,
            "spec": self.spec,
            "progress": dict(self.progress),
            "results": len(self.results),
            "simulations": self.simulations,
            "attempts": self.attempts,
            "error": self.error,
            "journal": self.journal,
            "created": self.created,
            "elapsed_seconds": elapsed,
        }


class JobManager:
    """Bounded FIFO job queue feeding a pool of worker threads."""

    def __init__(
        self,
        store_url: str,
        workers: int = 2,
        queue_limit: int = 16,
        policy: Optional[Any] = None,
    ):
        self.store_url = store_url
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: "deque[Job]" = deque()
        self._jobs: Dict[str, Job] = {}
        self._sequence: Dict[str, int] = {}
        self._stopping = False
        self._policy = policy
        self._threads: List[threading.Thread] = []
        self._worker_count = max(1, int(workers))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        with self._lock:
            if self._threads or self._stopping:
                return
            for index in range(self._worker_count):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-job-worker-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def stop(self) -> None:
        """Stop accepting work and wake every waiter; cancel running jobs."""
        with self._cond:
            self._stopping = True
            for job in self._jobs.values():
                if job.state in LIVE_STATES:
                    job.cancel_event.set()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    # -- submission --------------------------------------------------------

    def submit(self, raw_spec: Dict[str, Any]):
        """Canonicalize and enqueue a jobspec.

        Returns ``(job, created)``: ``created`` is ``False`` when the
        submission deduplicated onto a live (queued/running) job with
        the same identity digest.  Raises :class:`JobSpecError` for an
        invalid spec and :class:`QueueFull` when the queue is at its
        limit.
        """
        spec = canonicalize_jobspec(raw_spec)
        digest = job_digest(spec)
        with self._cond:
            if self._stopping:
                raise QueueFull("server is shutting down")
            for job in self._jobs.values():
                if job.digest == digest and job.state in LIVE_STATES:
                    return job, False
            if len(self._queue) >= self.queue_limit:
                raise QueueFull(f"job queue is full ({self.queue_limit} queued)")
            sequence = self._sequence.get(digest, 0) + 1
            self._sequence[digest] = sequence
            job = Job(f"{digest}-{sequence}", spec, digest)
            self._jobs[job.id] = job
            self._queue.append(job)
            self._cond.notify()
            return job, True

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job; returns its (new) state or ``None`` if unknown.

        A queued job is removed immediately; a running one gets its
        cancel flag set and aborts at the next progress event
        (best-effort — a cell mid-simulation finishes first).  Terminal
        jobs are left untouched.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == "queued":
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                job.state = "cancelled"
                job.finished = time.time()
                self._cond.notify_all()
            elif job.state == "running":
                job.cancel_event.set()
            return job.state

    def stream_results(self, job_id: str):
        """Yield result dicts as they land; returns at a terminal state.

        The generator long-polls the manager condition, so an HTTP
        handler iterating it streams NDJSON rows live without busy
        waiting.
        """
        cursor = 0
        while True:
            with self._cond:
                job = self._jobs.get(job_id)
                if job is None:
                    return
                while cursor >= len(job.results):
                    if job.state in TERMINAL_STATES or self._stopping:
                        return
                    self._cond.wait(timeout=1.0)
                batch = job.results[cursor:]
                cursor = len(job.results)
            for item in batch:
                yield item

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait(timeout=1.0)
                if self._stopping and not self._queue:
                    return
                job = self._queue.popleft()
                job.state = "running"
                job.started = time.time()
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 — worker must survive
                _log.error("job %s crashed: %s", job.id, exc)
                with self._cond:
                    job.state = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.finished = time.time()
                    self._cond.notify_all()

    def _run_job(self, job: Job) -> None:
        from repro.experiments.runner import RetryPolicy

        policy = self._policy if self._policy is not None else RetryPolicy()
        errors = 0
        while True:
            job.attempts += 1
            attempt = job.attempts - 1
            try:
                # The dispatch-path fault site: fires *before* any suite
                # work starts, so an injected fault never half-runs a job.
                faults.fire("job_dispatch_io", f"job/{job.digest}", attempt)
                self._execute(job, policy)
                return
            except _JobCancelled:
                with self._cond:
                    job.state = "cancelled"
                    job.finished = time.time()
                    self._cond.notify_all()
                return
            except Exception as exc:  # noqa: BLE001 — retried per policy
                errors += 1
                if errors < policy.max_attempts and not job.cancel_event.is_set():
                    delay = policy.backoff_delay(errors, f"job/{job.digest}")
                    _log.warning(
                        "job %s failed (attempt %d/%d): %s; retrying in %.2fs",
                        job.id, errors, policy.max_attempts, exc, delay,
                    )
                    time.sleep(delay)
                    continue
                with self._cond:
                    job.state = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.finished = time.time()
                    self._cond.notify_all()
                return

    def _open_store(self, job: Job):
        from repro.store.resultstore import ResultStore

        url = job.spec.get("store") or self.store_url
        return ResultStore(url)

    def _progress_callback(self, job: Job):
        def on_event(event: Dict[str, Any]) -> None:
            if job.cancel_event.is_set():
                raise _JobCancelled(job.id)
            kind = event.get("event")
            with self._cond:
                if kind == "resolved":
                    job.progress["requested"] = int(event.get("requested", 0))
                    job.progress["deferred"] = int(event.get("deferred", 0))
                elif kind == "result":
                    job.progress["completed"] += 1
                    source = event.get("source")
                    if source in ("cached", "computed"):
                        job.progress[source] += 1
                    result = event.get("result")
                    if result is not None:
                        job.results.append(result.to_dict())
                elif kind == "failed":
                    job.progress["failed"] += 1
                self._cond.notify_all()

        return on_event

    def _execute(self, job: Job, policy) -> None:
        from repro.sim import simulation_count

        sims_before = simulation_count()
        store = self._open_store(job)
        if "experiments" in job.spec:
            report = self._execute_suite(job, store, policy)
            status = report.status
            journal = report.journal_path
            worker_sims = report.worker_simulations
            error = (
                "; ".join(f.error for f in report.failures) or None
                if report.failed
                else None
            )
        else:
            self._execute_cell(job, store)
            status, journal, worker_sims, error = "clean", None, 0, None
        with self._cond:
            job.simulations = simulation_count() - sims_before + worker_sims
            job.journal = journal
            job.error = error
            job.state = {"clean": "done"}.get(status, status)
            job.finished = time.time()
            self._cond.notify_all()

    def _execute_suite(self, job: Job, store, policy):
        from repro.store.orchestrator import run_suite

        spec = job.spec
        return run_suite(
            names=spec["experiments"],
            jobs=int(spec.get("jobs", 1)),
            fast=bool(spec.get("fast", False)),
            overrides=spec.get("overrides") or None,
            store=store,
            keep_going=True,
            policy=policy,
            progress=self._progress_callback(job),
        )

    def _execute_cell(self, job: Job, store) -> None:
        from repro.cli import _system_config
        from repro.experiments.common import cell_rows
        from repro.registry import build_workload, parse_spec
        from repro.store.resultstore import activate

        spec = job.spec
        overrides = spec.get("overrides") or {}
        accesses = int(overrides.get("accesses", 15000))
        seed = int(overrides.get("seed", 1))
        profile = build_workload(spec["workload"])
        selector_name, selector_params = parse_spec(spec["selector"])
        config = _system_config(spec.get("config", "default"))
        notify = self._progress_callback(job)
        notify({"event": "resolved", "requested": 1, "deferred": 0})
        with activate(store):
            rows = cell_rows(
                profile,
                selector_name,
                accesses,
                seed=seed,
                config=config,
                **selector_params,
            )
        cached = store.stats.hits > 0
        with self._cond:
            job.progress["completed"] += 1
            job.progress["cached" if cached else "computed"] += 1
            job.results.append(
                {
                    "name": f"{spec['workload']}/{spec['selector']}",
                    "workload": spec["workload"],
                    "selector": spec["selector"],
                    "config": spec.get("config", "default"),
                    "accesses": accesses,
                    "seed": seed,
                    "rows": rows,
                }
            )
            self._cond.notify_all()


# -- the daemon ---------------------------------------------------------------


class _JobRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-jobs/1"
    protocol_version = "HTTP/1.1"

    # Provided by _JobServer at runtime.
    server: "_JobServer"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    # -- helpers -----------------------------------------------------------

    def _send(
        self,
        status: int,
        content: bytes = b"",
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(content)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if content:
            self.wfile.write(content)

    def _send_envelope(
        self,
        status: int,
        command: str,
        data: Any,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = json.dumps(envelope(command, data), sort_keys=True)
        self._send(status, payload.encode("utf-8") + b"\n", extra_headers=extra_headers)

    def _error(self, status: int, message: str,
               extra_headers: Optional[Dict[str, str]] = None) -> None:
        self._send(
            status,
            json.dumps({"error": message}).encode("utf-8") + b"\n",
            extra_headers=extra_headers,
        )

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None once a bad ``Content-Length`` has
        been answered: 400 unless it is a decimal integer, 413 above
        :data:`MAX_BODY_BYTES`.  The connection then closes, since the
        unread body would otherwise be parsed as the next request."""
        header = (self.headers.get("Content-Length") or "0").strip()
        length = int(header) if header.isascii() and header.isdigit() else -1
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length) if length else b""
        self.close_connection = True
        if length < 0:
            self._error(400, f"invalid Content-Length: {header!r}")
        else:
            self._error(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return None

    def _job_path(self):
        """Split ``/jobs/<id>[/results]`` → ``(job_id, tail)`` or ``None``."""
        path = urlparse.urlsplit(self.path).path
        prefix = "/jobs/"
        if not path.startswith(prefix):
            return None
        rest = urlparse.unquote(path[len(prefix):])
        job_id, _, tail = rest.partition("/")
        return (job_id, tail) if job_id else None

    # -- endpoints ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        manager = self.server.manager
        path = urlparse.urlsplit(self.path).path
        if path == "/healthz":
            self._send_envelope(
                200,
                "healthz",
                {
                    "ok": True,
                    "queued": manager.queue_depth(),
                    "queue_limit": manager.queue_limit,
                    "store": manager.store_url,
                },
            )
            return
        if path == "/jobs":
            self._send_envelope(
                200, "job-list", [job.as_dict() for job in manager.jobs()]
            )
            return
        parts = self._job_path()
        if parts is None:
            self._error(404, "not found")
            return
        job_id, tail = parts
        job = manager.get(job_id)
        if job is None:
            self._error(404, f"no job {job_id}")
            return
        if tail == "":
            self._send_envelope(200, "job-status", job.as_dict())
            return
        if tail == "results":
            self._stream_results(job_id)
            return
        self._error(404, "not found")

    def _stream_results(self, job_id: str) -> None:
        # NDJSON of unknown length: no Content-Length, so the connection
        # closes to delimit the stream (announced via Connection: close).
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for result in self.server.manager.stream_results(job_id):
                line = json.dumps(envelope("job-results", result), sort_keys=True)
                self.wfile.write(line.encode("utf-8") + b"\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass
        self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802
        path = urlparse.urlsplit(self.path).path
        if path != "/jobs":
            self._error(404, "not found")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            raw = json.loads(body or b"{}")
        except ValueError:
            self._error(400, "request body must be a JSON jobspec")
            return
        try:
            job, created = self.server.manager.submit(raw)
        except JobSpecError as exc:
            self._error(400, str(exc))
            return
        except QueueFull as exc:
            self._error(
                429, str(exc),
                extra_headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        self._send_envelope(202 if created else 200, "submit", job.as_dict())

    def do_DELETE(self) -> None:  # noqa: N802
        parts = self._job_path()
        if parts is None or parts[1] != "":
            self._error(404, "not found")
            return
        state = self.server.manager.cancel(parts[0])
        if state is None:
            self._error(404, f"no job {parts[0]}")
            return
        self._send_envelope(200, "cancel", {"id": parts[0], "state": state})


class _JobServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        # shutdown() returns once the loop next polls; at the stdlib's
        # 0.5 s default every stop of the daemon took about that long.
        super().serve_forever(poll_interval)

    def __init__(self, address, manager: JobManager):
        self.manager = manager
        super().__init__(address, _JobRequestHandler)

    def server_close(self) -> None:
        self.manager.stop()
        super().server_close()


def serve(
    store_url: str,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    workers: int = 2,
    queue_limit: int = 16,
    policy: Optional[Any] = None,
    start_workers: bool = True,
) -> _JobServer:
    """Build (but do not run) a job daemon over ``store_url``.

    Returns the server; call ``serve_forever()`` to run it (the CLI
    does), or drive it from a thread in tests.  ``port=0`` binds an
    ephemeral port, readable from ``server.server_address``.
    ``start_workers=False`` leaves the queue unserviced — tests use it
    to pin backpressure and cancellation deterministically.
    """
    manager = JobManager(
        store_url, workers=workers, queue_limit=queue_limit, policy=policy
    )
    server = _JobServer((host, port), manager)
    if start_workers:
        manager.start()
    return server
