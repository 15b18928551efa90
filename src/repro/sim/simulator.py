"""The simulation loops: single-core and multi-core.

Per demand request the loop follows the paper's Fig. 4 data flow:

1. the core retires the preceding non-memory instructions;
2. the demand request walks the hierarchy (timing);
3. one ``selector.step(access)`` call shows the request to the selector's
   bookkeeping, allocates it to prefetchers, which train and emit
   candidates, and filters the batch (the protocol of
   :mod:`repro.selection.base`);
4. survivors are issued into the hierarchy and reported back
   (``post_issue``).

The multi-core loop keeps cores cycle-ordered (always stepping the core
with the smallest local clock), so contention on the shared LLC and DRAM
is resolved in approximate global time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.common.types import (
    REGION_SHIFT,
    AccessType,
    DemandAccess,
)
from repro.cpu.core import CoreModel, CoreStats
from repro.cpu.trace import TraceRecord
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.selection.base import SelectionAlgorithm
from repro.sim.energy import EnergyModel, EnergyReport
from repro.sim.metrics import PrefetchMetrics

#: Prefetches per prefetcher per access that may fill the L1; deeper ones
#: fill the L2 (bounding L1 pollution, as IPCP and Alecto both do).
L1_FILL_DEPTH = 4


@dataclass
class SimulationResult:
    """Everything one simulation run reports."""

    name: str
    selector_name: str
    core: CoreStats
    metrics: PrefetchMetrics
    table_misses: int
    table_lookups: int
    training_occurrences: Dict[str, int]
    issued_by_prefetcher: Dict[str, int]
    useful_by_prefetcher: Dict[str, int]
    energy: EnergyReport
    l1_hit_rate: float
    dram_reads: int
    dram_prefetch_reads: int
    selector_storage_bits: int

    @property
    def ipc(self) -> float:
        return self.core.ipc


@dataclass
class MulticoreResult:
    """Per-core results of a multi-core simulation."""

    cores: List[SimulationResult]

    @property
    def total_instructions(self) -> int:
        return sum(r.core.instructions for r in self.cores)

    @property
    def max_cycles(self) -> float:
        return max(r.core.cycles for r in self.cores)

    def weighted_speedup(self, baseline: "MulticoreResult") -> float:
        """Mean per-core IPC ratio against a baseline run."""
        ratios = [
            mine.ipc / base.ipc
            for mine, base in zip(self.cores, baseline.cores)
            if base.ipc > 0
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0


#: Lookahead sentinel marking an exhausted trace iterator.
_DONE = object()


class _CoreContext:
    """One core's engine: trace cursor + core model + hierarchy + selector.

    The trace may be any iterable of records — a list, a
    :meth:`~repro.workloads.profiles.BenchmarkProfile.stream` generator,
    or a :class:`~repro.cpu.tracefile.TraceReader` — and is consumed
    lazily with a one-record lookahead (for ``done``), so memory stays
    O(1) at arbitrary access counts.
    """

    def __init__(
        self,
        core_id: int,
        trace: Iterable[TraceRecord],
        config: SystemConfig,
        selector: Optional[SelectionAlgorithm],
        shared: Optional[SharedMemory],
    ):
        self.core_id = core_id
        self._records: Iterator[TraceRecord] = iter(trace)
        self._pending = next(self._records, _DONE)
        self.position = 0
        self.core = CoreModel(config)
        self.selector = selector
        self._line_shift = config.line_shift
        if selector is not None:
            selector.set_line_bytes(config.line_bytes)
        self.metrics = PrefetchMetrics()
        self.hierarchy = MemoryHierarchy(
            config,
            core_id=core_id,
            shared=shared,
            on_prefetch_used=self._on_prefetch_used,
            on_prefetch_evicted=self._on_prefetch_evicted,
        )

    # -- prefetch-outcome callbacks ------------------------------------------

    def _on_prefetch_used(self, record, timely: bool) -> None:
        if timely:
            self.metrics.covered_timely += 1
        else:
            self.metrics.covered_untimely += 1
        if self.selector is not None:
            self.selector.observe_prefetch_used(record, timely)

    def _on_prefetch_evicted(self, record) -> None:
        self.metrics.overpredicted += 1
        if self.selector is not None:
            self.selector.observe_prefetch_evicted(record)

    # -- stepping ----------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._pending is _DONE

    def step(self) -> None:
        """Execute the next trace record."""
        record = self._pending
        if record is _DONE:
            return
        self._pending = next(self._records, _DONE)
        self._run_records((record,))

    def run(self) -> None:
        """Execute the remaining trace (single-core driver loop)."""
        record = self._pending
        if record is _DONE:
            return
        self._pending = _DONE
        self._run_records(chain((record,), self._records))

    def _run_records(self, records: Iterable[TraceRecord]) -> None:
        """Execute a stream of trace records with the loop state in locals.

        The per-access data flow is the paper's Fig. 4 (see module
        docstring): one ``step`` call per access selects the batch to
        issue.  Hot names are bound once here because this loop runs
        millions of times per experiment.  ``records`` is consumed
        lazily — nothing in this loop materializes the trace.
        """
        position = self.position
        core = self.core
        core_stats = core.stats
        outstanding = core._misses
        issue_width = core.issue_width
        advance = core.advance
        memory_access = core.memory_access
        hierarchy_demand = self.hierarchy.demand_access
        issue_prefetch = self.hierarchy.issue_prefetch
        metrics = self.metrics
        selector = self.selector
        if selector is not None:
            select = selector.step
            # Hooks a selector leaves at the base class's no-op are skipped.
            kind = type(selector)
            post_issue = None
            if kind.post_issue is not SelectionAlgorithm.post_issue:
                post_issue = selector.post_issue
            rewarded = kind.needs_reward is not SelectionAlgorithm.needs_reward
        core_id = self.core_id
        line_shift = self._line_shift
        store = AccessType.STORE
        load = AccessType.LOAD
        new_tuple = tuple.__new__

        for pc, address, access_type, nonmem_before, dependent in records:
            position += 1
            if nonmem_before > 0:
                if outstanding:
                    advance(nonmem_before)
                else:
                    # CoreModel.advance's fast path (nothing outstanding).
                    core_stats.cycles += nonmem_before / issue_width
                    core_stats.instructions += nonmem_before
            cycle = int(core_stats.cycles)
            line = address >> line_shift
            latency, hit_level, covered_by, _ = hierarchy_demand(
                line, cycle, access_type is store
            )
            if covered_by is None and hit_level != "l1":
                metrics.uncovered += 1
            memory_access(latency, access_type is load, dependent)

            if selector is None:
                continue
            access = new_tuple(DemandAccess, (
                pc, address, access_type, core_id, position, line,
                address >> REGION_SHIFT,
            ))
            final = select(access)
            if final:
                # Deep prefetches land in the L2 to bound L1 pollution:
                # every candidate past the first L1_FILL_DEPTH per
                # prefetcher fills the next level (Alecto's own c / m+1
                # split may mark earlier ones).
                fill_rank: Dict[str, int] = {}
                for candidate in final:
                    rank = fill_rank.get(candidate.prefetcher, 0)
                    fill_rank[candidate.prefetcher] = rank + 1
                    if rank >= L1_FILL_DEPTH:
                        candidate.to_next_level = True
                    if issue_prefetch(candidate, cycle):
                        metrics.issued += 1
            if post_issue is not None:
                post_issue(access, final)
            if rewarded and selector.needs_reward:
                selector.performance_sample(
                    core_stats.instructions, core_stats.cycles
                )
        self.position = position

    def finish(self) -> None:
        self.core.drain()

    def result(self, name: str, config: SystemConfig) -> SimulationResult:
        selector = self.selector
        prefetchers = selector.prefetchers if selector is not None else []
        table_misses = sum(p.table_stats.misses for p in prefetchers)
        table_lookups = sum(p.table_stats.lookups for p in prefetchers)
        ledger = self.hierarchy.ledger
        useful = {
            name_: ledger.used_timely.get(name_, 0)
            + ledger.used_untimely.get(name_, 0)
            for name_ in ledger.issued
        }
        l1 = self.hierarchy.l1.stats
        l2 = self.hierarchy.l2.stats
        llc = self.hierarchy.llc.stats
        energy = EnergyModel(config).report(
            l1_accesses=l1.demand_accesses + l1.prefetch_fills,
            l2_accesses=l2.demand_accesses + l2.prefetch_fills,
            llc_accesses=llc.demand_accesses,
            dram_reads=self.hierarchy.dram.total_reads,
            prefetchers=prefetchers,
            selector_storage_bits=(
                selector.storage_bits if selector is not None else 0
            ),
            selector_accesses=self.position,
        )
        return SimulationResult(
            name=name,
            selector_name=selector.name if selector is not None else "none",
            core=self.core.stats,
            metrics=self.metrics,
            table_misses=table_misses,
            table_lookups=table_lookups,
            training_occurrences=(
                dict(selector.training_occurrences) if selector is not None else {}
            ),
            issued_by_prefetcher=dict(ledger.issued),
            useful_by_prefetcher=useful,
            energy=energy,
            l1_hit_rate=l1.demand_hit_rate,
            dram_reads=self.hierarchy.dram.stats.reads,
            dram_prefetch_reads=self.hierarchy.dram.stats.prefetch_reads,
            selector_storage_bits=(
                selector.storage_bits if selector is not None else 0
            ),
        )


#: Count of simulations executed by this process (both entry points).
#: The result store's incremental-suite tests and the ``repro suite``
#: summary use the delta to prove a warm run executed zero simulations.
_SIMULATIONS_EXECUTED = 0


def simulation_count() -> int:
    """Simulations executed by this process so far (monotonic)."""
    return _SIMULATIONS_EXECUTED


def simulate(
    trace: Iterable[TraceRecord],
    selector: Optional[SelectionAlgorithm] = None,
    config: Optional[SystemConfig] = None,
    name: str = "run",
) -> SimulationResult:
    """Run one trace on a single core.

    Args:
        trace: the committed-instruction trace — any iterable of records.
            Lists work as before; a generator
            (:meth:`~repro.workloads.profiles.BenchmarkProfile.stream`)
            or a :class:`~repro.cpu.tracefile.TraceReader` is consumed
            lazily, so the run needs O(1) memory regardless of length.
        selector: selection algorithm owning the prefetchers; None means
            the no-prefetching baseline.
        config: system parameters (Table I defaults when omitted).
        name: label copied into the result.
    """
    global _SIMULATIONS_EXECUTED
    _SIMULATIONS_EXECUTED += 1
    config = config or SystemConfig()
    context = _CoreContext(0, trace, config, selector, shared=None)
    context.run()
    context.finish()
    return context.result(name, config)


def simulate_phases(
    trace: Iterable[TraceRecord],
    selector: Optional[SelectionAlgorithm] = None,
    config: Optional[SystemConfig] = None,
    name: str = "run",
    phase_length: int = 5000,
) -> tuple:
    """Run one trace on a single core, snapshotting per-phase counters.

    One continuous simulation (selector and prefetcher state carries
    across boundaries — that is the point: the ``scenario_phase``
    experiment measures how selection *re-adapts* right after a phase
    change), with IPC / accuracy / coverage derived from counter deltas
    every ``phase_length`` accesses.

    Returns ``(SimulationResult, phases)`` where ``phases`` is a list of
    per-phase row dicts (``accesses``, ``ipc``, and — under a selector —
    ``accuracy`` / ``coverage`` / ``issued`` computed from that phase's
    counter deltas alone).  Because prefetches issued near a boundary
    may only be *used* in the next phase, a phase's delta-accuracy can
    legitimately exceed 1 — that spill-over credit is part of the
    boundary behaviour being measured, not an error.  The final
    ``SimulationResult`` is identical to what :func:`simulate` returns
    for the same inputs; counts as one simulation for
    :func:`simulation_count`.
    """
    from itertools import islice

    global _SIMULATIONS_EXECUTED
    _SIMULATIONS_EXECUTED += 1
    if phase_length <= 0:
        raise ValueError("phase_length must be positive")
    config = config or SystemConfig()
    context = _CoreContext(0, (), config, selector, shared=None)
    records = iter(trace)
    metrics = context.metrics
    stats = context.core.stats
    phases: List[Dict[str, float]] = []
    last = {
        "instructions": 0, "cycles": 0.0, "issued": 0,
        "useful": 0, "misses": 0,
    }
    while True:
        before = context.position
        context._run_records(islice(records, phase_length))
        accesses = context.position - before
        if accesses == 0:
            break
        now = {
            "instructions": stats.instructions,
            "cycles": stats.cycles,
            "issued": metrics.issued,
            "useful": metrics.useful,
            "misses": metrics.total_misses,
        }
        cycles = now["cycles"] - last["cycles"]
        row: Dict[str, float] = {
            "accesses": accesses,
            "ipc": (now["instructions"] - last["instructions"]) / cycles
            if cycles else 0.0,
        }
        if selector is not None:
            issued = now["issued"] - last["issued"]
            useful = now["useful"] - last["useful"]
            misses = now["misses"] - last["misses"]
            row["accuracy"] = useful / issued if issued else 0.0
            row["coverage"] = useful / misses if misses else 0.0
            row["issued"] = issued
        phases.append(row)
        last = now
    context.finish()
    return context.result(name, config), phases


def simulate_multicore(
    traces: Sequence[Iterable[TraceRecord]],
    selector_factory,
    config: Optional[SystemConfig] = None,
    name: str = "run",
) -> MulticoreResult:
    """Run per-core traces against a shared LLC and DRAM.

    Args:
        traces: one trace per core (each any iterable of records,
            consumed lazily with one record of lookahead per core).
        selector_factory: callable ``(core_id) -> SelectionAlgorithm or
            None``; each core gets private prefetchers/selector state.
        config: system parameters; ``cores`` must match ``len(traces)``.
    """
    global _SIMULATIONS_EXECUTED
    _SIMULATIONS_EXECUTED += 1
    config = config or SystemConfig(cores=len(traces))
    if config.cores != len(traces):
        raise ValueError(
            f"config.cores ({config.cores}) != number of traces ({len(traces)})"
        )
    shared = SharedMemory(config)
    contexts = [
        _CoreContext(core_id, trace, config, selector_factory(core_id), shared)
        for core_id, trace in enumerate(traces)
    ]
    # Step the core with the smallest local clock so shared-resource
    # contention is resolved in approximate global cycle order.  The heap
    # replaces an O(cores) min() scan per step; ties break on core_id,
    # matching the first-in-list behaviour of the scan it replaces.
    heap = [
        (c.core.stats.cycles, c.core_id, c) for c in contexts if not c.done
    ]
    heapq.heapify(heap)
    while heap:
        _, core_id, context = heapq.heappop(heap)
        context.step()
        if context.done:
            context.finish()
        else:
            heapq.heappush(heap, (context.core.stats.cycles, core_id, context))
    return MulticoreResult(
        cores=[c.result(f"{name}/core{c.core_id}", config) for c in contexts]
    )
