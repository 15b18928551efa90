"""Three-level memory hierarchy with prefetch-outcome tracking.

Structure follows paper Table I: private L1D and L2 per core, a shared LLC
sized per core, and a common DRAM.  Prefetches fill into the L1 (or into
the L2, for Alecto's "next level" overflow lines, Section IV-B), carry an
in-flight ``ready_cycle``, and have their eventual fate (used timely, used
late, evicted unused) reported to a :class:`PrefetchLedger` and to optional
callbacks consumed by the selection algorithms.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Optional

from repro.common.config import SystemConfig
from repro.common.types import PrefetchCandidate
from repro.memory.cache import Cache, PrefetchRecord
from repro.memory.dram import DRAM


class AccessResult(
    namedtuple(
        "AccessResult",
        ("latency", "hit_level", "prefetch_record", "prefetch_timely"),
        defaults=(None, False),
    )
):
    """Outcome of one demand access walking the hierarchy.

    Immutable and tuple-backed (built with ``tuple.__new__`` once per
    access); ``hit_level`` is one of ``"l1"``, ``"l2"``, ``"llc"`` and
    ``"dram"``.
    """

    __slots__ = ()

    @property
    def was_covered_by_prefetch(self) -> bool:
        return self.prefetch_record is not None


@dataclass
class PrefetchLedger:
    """Per-prefetcher accounting of issued prefetches and their fates.

    This feeds the Fig. 10 metric breakdown and the accuracy numbers used
    throughout Section VI.
    """

    issued: Dict[str, int] = field(default_factory=dict)
    used_timely: Dict[str, int] = field(default_factory=dict)
    used_untimely: Dict[str, int] = field(default_factory=dict)
    evicted_unused: Dict[str, int] = field(default_factory=dict)
    dropped: Dict[str, int] = field(default_factory=dict)

    def _bump(self, bucket: Dict[str, int], prefetcher: str) -> None:
        bucket[prefetcher] = bucket.get(prefetcher, 0) + 1

    def record_issue(self, prefetcher: str) -> None:
        self._bump(self.issued, prefetcher)

    def record_use(self, prefetcher: str, timely: bool) -> None:
        if timely:
            self._bump(self.used_timely, prefetcher)
        else:
            self._bump(self.used_untimely, prefetcher)

    def record_eviction(self, prefetcher: str) -> None:
        self._bump(self.evicted_unused, prefetcher)

    def record_drop(self, prefetcher: str) -> None:
        self._bump(self.dropped, prefetcher)

    # -- aggregates ----------------------------------------------------------

    def total_issued(self) -> int:
        return sum(self.issued.values())

    def total_useful(self) -> int:
        return sum(self.used_timely.values()) + sum(self.used_untimely.values())

    def accuracy(self, prefetcher: Optional[str] = None) -> float:
        """Useful / issued, overall or for one prefetcher."""
        if prefetcher is None:
            issued = self.total_issued()
            useful = self.total_useful()
        else:
            issued = self.issued.get(prefetcher, 0)
            useful = self.used_timely.get(prefetcher, 0) + self.used_untimely.get(
                prefetcher, 0
            )
        return useful / issued if issued else 0.0


class SharedMemory:
    """LLC + DRAM shared by all cores of a multi-core system."""

    def __init__(self, config: SystemConfig):
        llc = config.llc
        self.llc = Cache(
            name="llc",
            num_sets=llc.num_sets,
            ways=llc.ways,
            latency=llc.latency,
            mshrs=llc.mshrs,
        )
        self.dram = DRAM(config.dram)


class MemoryHierarchy:
    """Private L1D/L2 plus a (possibly shared) LLC and DRAM.

    Args:
        config: system parameters.
        core_id: owning core.
        shared: LLC/DRAM shared across cores; a private instance is created
            when omitted (single-core use).
        on_prefetch_used: callback ``(record, timely)`` fired on the first
            demand use of a prefetched line.
        on_prefetch_evicted: callback ``(record)`` fired when a prefetched
            line is displaced before any demand use.
    """

    def __init__(
        self,
        config: SystemConfig,
        core_id: int = 0,
        shared: Optional[SharedMemory] = None,
        on_prefetch_used: Optional[Callable[[PrefetchRecord, bool], None]] = None,
        on_prefetch_evicted: Optional[Callable[[PrefetchRecord], None]] = None,
    ):
        self.config = config
        self.core_id = core_id
        self.l1 = Cache(
            name="l1d",
            num_sets=config.l1d.num_sets,
            ways=config.l1d.ways,
            latency=config.l1d.latency,
            mshrs=config.l1d.mshrs,
        )
        self.l2 = Cache(
            name="l2",
            num_sets=config.l2.num_sets,
            ways=config.l2.ways,
            latency=config.l2.latency,
            mshrs=config.l2.mshrs,
        )
        self.shared = shared if shared is not None else SharedMemory(config)
        # Bound-method caches for the per-access walk; the cache/DRAM
        # objects are fixed for the hierarchy's lifetime.
        self._l2_demand = self.l2.demand_access
        self._l2_fill = self.l2.fill
        self._llc_demand = self.shared.llc.demand_access
        self._llc_fill = self.shared.llc.fill
        self._dram_access = self.shared.dram.access
        self.ledger = PrefetchLedger()
        self.on_prefetch_used = on_prefetch_used
        self.on_prefetch_evicted = on_prefetch_evicted
        # Outstanding prefetch fills, kept as a heap of ready cycles so the
        # MSHR occupancy check is O(log n) instead of a cache scan.
        self._outstanding_prefetches: List[int] = []
        # The prefetch queue (Fig. 3): candidates arriving while the MSHRs
        # are busy wait here and issue as fills complete.
        self.prefetch_queue_depth = 32
        self._prefetch_queue: Deque[PrefetchCandidate] = deque()

    @property
    def llc(self) -> Cache:
        return self.shared.llc

    @property
    def dram(self) -> DRAM:
        return self.shared.dram

    # -- internal helpers ------------------------------------------------------

    def _note_eviction(self, record: PrefetchRecord) -> None:
        """A prefetched line was displaced before any demand use.

        Callers check the victim's ``prefetch`` first, so ordinary
        evictions cost no call.
        """
        self.ledger.record_eviction(record.prefetcher)
        if self.on_prefetch_evicted is not None:
            self.on_prefetch_evicted(record)

    def _note_use(self, record: PrefetchRecord, timely: bool) -> None:
        self.ledger.record_use(record.prefetcher, timely)
        if self.on_prefetch_used is not None:
            self.on_prefetch_used(record, timely)

    def outstanding_prefetches(self, cycle: int) -> int:
        """Number of prefetch fills still in flight at ``cycle``."""
        heap = self._outstanding_prefetches
        while heap and heap[0] <= cycle:
            heappop(heap)
        return len(heap)

    # -- demand path ------------------------------------------------------------

    def demand_access(self, line: int, cycle: int, is_write: bool = False) -> AccessResult:
        """Walk the hierarchy for a demand request; fills all levels on miss.

        The L1 tag check is :meth:`Cache.demand_access` inlined: most
        demands hit the L1, and this spares them a method frame.
        """
        if self._prefetch_queue:
            self._drain_prefetch_queue(cycle)
        l1 = self.l1
        l1_stats = l1.stats
        l1_stats.demand_accesses += 1
        entries = l1._sets.get(line % l1.num_sets)
        entry = entries.get(line) if entries is not None else None
        if entry is not None:
            l1_stats.demand_hits += 1
            # Re-insert at the MRU end of the recency order.
            del entries[line]
            entries[line] = entry
            if is_write:
                entry.dirty = True
            wait = entry.ready_cycle - cycle
            if wait < 0:
                wait = 0
            timely = wait == 0
            record = entry.prefetch
            if record is not None:
                # First demand use consumes the prefetch provenance.
                entry.prefetch = None
                if timely:
                    l1_stats.prefetch_hits_timely += 1
                else:
                    l1_stats.prefetch_hits_untimely += 1
                self._note_use(record, timely)
            return tuple.__new__(
                AccessResult, (l1.latency + wait, "l1", record, timely)
            )
        l1_stats.demand_misses += 1

        latency = l1.latency
        hit, wait, record, timely = self._l2_demand(line, cycle, is_write)
        if hit:
            latency += self.l2.latency + wait
            if record is not None:
                self._note_use(record, timely)
            evicted = l1.fill(line, cycle, cycle + latency)
            if evicted is not None and evicted.prefetch is not None:
                self._note_eviction(evicted.prefetch)
            return tuple.__new__(AccessResult, (latency, "l2", record, timely))

        hit, wait, record, timely = self._llc_demand(line, cycle, is_write)
        if hit:
            latency += self.shared.llc.latency + wait
            if record is not None:
                self._note_use(record, timely)
            ready = cycle + latency
            evicted = self._l2_fill(line, cycle, ready)
            if evicted is not None and evicted.prefetch is not None:
                self._note_eviction(evicted.prefetch)
            evicted = l1.fill(line, cycle, ready)
            if evicted is not None and evicted.prefetch is not None:
                self._note_eviction(evicted.prefetch)
            return tuple.__new__(AccessResult, (latency, "llc", record, timely))

        latency += self.shared.llc.latency + self._dram_access(line, cycle, False)
        ready = cycle + latency
        evicted = self._llc_fill(line, cycle, ready)
        if evicted is not None and evicted.prefetch is not None:
            self._note_eviction(evicted.prefetch)
        evicted = self._l2_fill(line, cycle, ready)
        if evicted is not None and evicted.prefetch is not None:
            self._note_eviction(evicted.prefetch)
        evicted = l1.fill(line, cycle, ready)
        if evicted is not None and evicted.prefetch is not None:
            self._note_eviction(evicted.prefetch)
        return tuple.__new__(AccessResult, (latency, "dram", None, False))

    # -- prefetch path ------------------------------------------------------------

    def _drain_prefetch_queue(self, cycle: int) -> None:
        """Issue queued prefetches for which an MSHR has freed up."""
        queue = self._prefetch_queue
        heap = self._outstanding_prefetches
        mshrs = self.l1.mshrs
        while queue:
            while heap and heap[0] <= cycle:
                heappop(heap)
            if len(heap) >= mshrs:
                return
            self._issue_now(queue.popleft(), cycle)

    def issue_prefetch(self, candidate: PrefetchCandidate, cycle: int) -> bool:
        """Issue ``candidate``; returns False when it was dropped.

        Drops happen when the target line is already resident at the fill
        level (redundant) or when both the MSHRs and the prefetch queue are
        full.  Candidates arriving while the MSHRs are busy wait in the
        prefetch queue and issue as fills complete.
        """
        line = candidate.line
        to_next_level = candidate.to_next_level
        # Residency probes (Cache.probe, inlined): the L2 for a next-level
        # candidate, then the L1.
        if to_next_level:
            l2 = self.l2
            entries = l2._sets.get(line % l2.num_sets)
            resident = entries is not None and line in entries
        else:
            resident = False
        if not resident:
            l1 = self.l1
            entries = l1._sets.get(line % l1.num_sets)
            resident = entries is not None and line in entries
        if resident:
            self.ledger.record_drop(candidate.prefetcher)
            return False
        heap = self._outstanding_prefetches
        while heap and heap[0] <= cycle:
            heappop(heap)
        if len(heap) >= self.l1.mshrs:
            if len(self._prefetch_queue) >= self.prefetch_queue_depth:
                self.ledger.record_drop(candidate.prefetcher)
                return False
            self._prefetch_queue.append(candidate)
            return True
        # A next-level candidate was just probed absent from the L2, so the
        # pricing walk can start one level down (single-walk fold).
        return self._issue_now(candidate, cycle, l2_known_absent=to_next_level)

    def _issue_now(
        self, candidate: PrefetchCandidate, cycle: int, l2_known_absent: bool = False
    ) -> bool:
        """Send an admitted candidate into the hierarchy.

        Args:
            l2_known_absent: skip the L2 probe of the pricing walk; only set
                when the caller probed the L2 this same cycle.  Queued
                candidates always re-probe because residency may have
                changed while they waited.
        """
        line = candidate.line
        l2 = self.l2
        llc = self.shared.llc
        # Locate the line to price the fill (Cache.probe, inlined).
        if l2_known_absent:
            in_l2 = False
        else:
            entries = l2._sets.get(line % l2.num_sets)
            in_l2 = entries is not None and line in entries
        if in_l2:
            latency = l2.latency
        else:
            entries = llc._sets.get(line % llc.num_sets)
            if entries is not None and line in entries:
                latency = l2.latency + llc.latency
            else:
                latency = l2.latency + llc.latency + self._dram_access(
                    line, cycle, True
                )

        ready = cycle + latency
        prefetcher = candidate.prefetcher
        record = PrefetchRecord(
            prefetcher, candidate.pc, cycle, ready, candidate.core_id, line
        )
        candidate.issue_cycle = cycle
        self.ledger.record_issue(prefetcher)
        heappush(self._outstanding_prefetches, ready)

        if candidate.to_next_level:
            evicted = self._l2_fill(line, cycle, ready, record)
        else:
            evicted = self.l1.fill(line, cycle, ready, record)
            if evicted is not None and evicted.prefetch is not None:
                self._note_eviction(evicted.prefetch)
            # The fill passes through the L2 (mostly-inclusive hierarchy),
            # so an early prefetch evicted from the small L1 before use
            # still serves the later demand from the L2.
            evicted = self._l2_fill(line, cycle, ready)
        if evicted is not None and evicted.prefetch is not None:
            self._note_eviction(evicted.prefetch)
        return True
