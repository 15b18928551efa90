"""The benchmark's workloads: what one operation is, and how it is checked.

Each workload derives every input from the run's seed, performs its
set-up in :meth:`setup`, repeats :meth:`op` for the measured window and
checks every operation's output in :meth:`verify` afterwards.  An
operation's latency is what a user of the toolkit waits for; ``op``
returns the number of accesses it simulated.

Cells and sizes follow the toolkit's own uses, so the benchmark measures
the traffic the toolkit already runs:

- ``alecto-long``: one store-backed cell (``experiments.common.cell_rows``),
  the paper's Alecto selector on ``gcc`` at 30k accesses: the
  ``gcc``/``alecto`` case of ``repro bench`` at its default size.  The
  selector, its prefetchers and their tables dominate.
- ``trace-replay``: an ``mcf`` trace of 30k accesses recorded to a v2
  file at set-up, replayed the way ``repro trace replay`` does by
  default: the no-prefetching baseline, then Alecto.  ``mcf`` at 30k is
  ``repro bench``'s decode and ``mcf``/``alecto`` case.  Decode, core
  and the cache/DRAM hierarchy carry the baseline half.
- ``served-suite``: the Fig. 1 experiment at its fast size (every SPEC06
  and SPEC17 profile under IPCP and Alecto, 800 accesses a cell), as the
  CI serve smoke submits it: a suite job to an in-process ``repro serve``
  daemon over HTTP with its results streamed, then the same job
  resubmitted, which must replay from the store with zero simulations.
  Per-cell set-up, the store, the orchestrator and the job service carry
  a large share.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List

#: Accesses per cell of the long cells: ``repro bench``'s default size.
BENCH_ACCESSES = 30_000


def _derived_seed(seed: int, index: int) -> int:
    """The input seed of operation ``index`` of a run seeded ``seed``."""
    return seed * 1000 + index


def _trace_instructions(records) -> int:
    return sum(record.nonmem_before + 1 for record in records)


class Workload:
    """One workload's set-up, operation and output check."""

    name = ""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> int:
        raise NotImplementedError

    def verify(self) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""


class AlectoLong(Workload):
    name = "alecto-long"
    profile_name = "gcc"
    selector = "alecto"
    accesses = BENCH_ACCESSES

    def setup(self) -> None:
        from repro.registry import build_selector
        from repro.store.resultstore import ResultStore
        from repro.workloads import get_profile

        self.profile = get_profile(self.profile_name)
        self.store = ResultStore(os.path.join(self.workdir, "store"))
        build_selector(self.selector)
        self.rows: List[tuple] = []

    def op(self, index: int) -> int:
        from repro.experiments.common import cell_rows
        from repro.store.resultstore import activate

        seed = _derived_seed(self.seed, index)
        with activate(self.store):
            rows = cell_rows(self.profile, self.selector, self.accesses, seed=seed)
        self.rows.append((seed, rows))
        return self.accesses

    def verify(self) -> List[str]:
        from repro.common.config import SystemConfig
        from repro.experiments.common import cell_rows
        from repro.experiments.runner import replay_experiment
        from repro.store.resultstore import activate

        width = SystemConfig().issue_width
        errors = []
        for index, (seed, rows) in enumerate(self.rows):
            where = f"{self.name} seed {seed}"
            trace = self.profile.generate(self.accesses, seed=seed)
            if rows.get("instructions") != _trace_instructions(trace):
                errors.append(f"{where}: instruction count differs from the trace")
            if not 0 < rows.get("ipc", 0) <= width:
                errors.append(f"{where}: ipc {rows.get('ipc')} out of range")
            for ratio in ("accuracy", "coverage", "l1_hit_rate"):
                if not 0 <= rows.get(ratio, -1) <= 1:
                    errors.append(f"{where}: {ratio} {rows.get(ratio)} out of range")
            if rows.get("selector") != self.selector or rows.get("issued", 0) <= 0:
                errors.append(f"{where}: no prefetches issued by {self.selector}")
            with activate(self.store):
                cached = cell_rows(self.profile, self.selector, self.accesses, seed=seed)
            if cached != rows:
                errors.append(f"{where}: store round trip changed the rows")
            if index == 0:
                # The trace-replay path simulates the same cell on its
                # own; a store or cell-path fault shows as a difference.
                replayed = replay_experiment(trace, self.selector).rows
                if {key: replayed.get(key) for key in rows} != rows:
                    errors.append(f"{where}: rows differ from an in-memory replay")
        return errors


class TraceReplay(Workload):
    name = "trace-replay"
    profile_name = "mcf"
    selector = "alecto"
    accesses = BENCH_ACCESSES
    traces = 2

    def setup(self) -> None:
        from repro.cpu.blocktrace import write_trace_v2
        from repro.workloads import get_profile

        self.profile = get_profile(self.profile_name)
        self.paths: List[str] = []
        for index in range(self.traces):
            seed = _derived_seed(self.seed, index)
            path = os.path.join(self.workdir, f"{self.profile_name}-{seed}.trace.v2")
            meta = {"benchmark": self.profile_name, "accesses": self.accesses,
                    "seed": seed}
            # Streamed, so no whole trace is ever held in memory and
            # peak_rss_mb measures the replays.
            write_trace_v2(path, self.profile.stream(self.accesses, seed=seed),
                           meta=meta)
            self.paths.append(path)
        self.rows: List[tuple] = []

    def op(self, index: int) -> int:
        from repro.cpu.tracefile import open_trace
        from repro.experiments.runner import replay_experiment

        trace = index % self.traces
        reader = open_trace(self.paths[trace])
        result = replay_experiment(reader, self.selector, params=reader.meta)
        self.rows.append((trace, result.rows))
        return 2 * self.accesses

    def verify(self) -> List[str]:
        """Every replay must match, row for row, the same simulation on
        the trace regenerated in memory (``repro trace replay
        --compare-inmemory``), so a decoder that misreads records fails."""
        from repro.experiments.runner import replay_experiment

        errors = []
        expected: Dict[int, Any] = {}
        for trace, rows in self.rows:
            where = f"{self.name} trace {trace}"
            if trace not in expected:
                records = self.profile.generate(
                    self.accesses, seed=_derived_seed(self.seed, trace)
                )
                expected[trace] = replay_experiment(records, self.selector).rows
                if expected[trace].get("instructions") != _trace_instructions(records):
                    errors.append(f"{where}: instruction count differs from the trace")
                if not expected[trace].get("ipc", 0) > 0:
                    errors.append(f"{where}: non-positive ipc")
            if rows != expected[trace]:
                errors.append(f"{where}: replayed rows differ from the in-memory run")
        return errors


class ServedSuite(Workload):
    name = "served-suite"
    experiment = "fig01"

    def setup(self) -> None:
        from repro.registry import get_experiment
        from repro.jobs.client import JobClient
        from repro.jobs.server import serve

        self.accesses = get_experiment(self.experiment).fast_params["accesses"]
        store = os.path.join(self.workdir, "store")
        self.server = serve(store, host="127.0.0.1", port=0)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-serve", daemon=True
        )
        self._thread.start()
        host, port = self.server.server_address[:2]
        self.client = JobClient(f"http://{host}:{port}")
        self.client.healthz()
        self.jobs: List[tuple] = []

    def _run_job(self, spec: Dict[str, Any]):
        document = self.client.submit(spec)
        results = list(self.client.results(document["id"]))
        return self.client.status(document["id"]), results

    def op(self, index: int) -> int:
        """Run the job cold, then resubmit it: it must replay from the store."""
        spec = {
            "experiments": [self.experiment],
            "fast": True,
            "overrides": {"seed": _derived_seed(self.seed, index)},
        }
        cold = self._run_job(spec)
        self.jobs.append((index, cold, self._run_job(spec)))
        return cold[0]["simulations"] * self.accesses

    def verify(self) -> List[str]:
        errors = []
        simulations = {cold["simulations"] for _, (cold, _), _ in self.jobs}
        if len(simulations) != 1 or not simulations.pop() > 0:
            errors.append(f"{self.name}: cold jobs simulated unequal cell counts")
        for index, (cold, results), (warm, replayed) in self.jobs:
            where = f"{self.name} job {index}"
            if cold["state"] != "done" or warm["state"] != "done":
                errors.append(f"{where}: states {cold['state']}/{warm['state']}")
            if warm["simulations"] != 0:
                errors.append(f"{where}: warm resubmission simulated again")
            if [r["rows"] for r in results] != [r["rows"] for r in replayed]:
                errors.append(f"{where}: warm rows differ from cold rows")
            for result in results:
                for suite, row in result["rows"].items():
                    if not row["with_ddra"] > 0 or not row["without_ddra"] > 0:
                        errors.append(f"{where}: empty table-miss row for {suite}")
        return errors

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=30)


WORKLOADS = {cls.name: cls for cls in (AlectoLong, TraceReplay, ServedSuite)}
