"""Tests for the three-level hierarchy: demand walk, prefetch path, ledger."""

import pytest

from repro.common.config import SystemConfig
from repro.common.types import PrefetchCandidate
from repro.memory.dram import DRAM
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory


def make_hierarchy(**kwargs):
    return MemoryHierarchy(SystemConfig(), **kwargs)


def candidate(line, to_next_level=False, prefetcher="stride"):
    return PrefetchCandidate(
        line=line, prefetcher=prefetcher, pc=0x400, to_next_level=to_next_level
    )


class TestDemandPath:
    def test_cold_miss_goes_to_dram(self):
        h = make_hierarchy()
        result = h.demand_access(1, cycle=0)
        assert result.hit_level == "dram"
        assert result.latency > 100

    def test_second_access_hits_l1(self):
        h = make_hierarchy()
        h.demand_access(1, cycle=0)
        result = h.demand_access(1, cycle=1000)
        assert result.hit_level == "l1"
        assert result.latency == h.l1.latency

    def test_l2_hit_after_l1_eviction(self):
        h = make_hierarchy()
        h.demand_access(1, cycle=0)
        # Evict line 1 from the 64-set, 8-way L1 by filling its set.
        for i in range(1, 10):
            h.demand_access(1 + i * 64, cycle=i * 1000)
        result = h.demand_access(1, cycle=100_000)
        assert result.hit_level == "l2"

    def test_latencies_ordered_by_level(self):
        h = make_hierarchy()
        dram = h.demand_access(1, cycle=0).latency
        l1 = h.demand_access(1, cycle=10_000).latency
        assert l1 < dram


class TestDemandLatency:
    """The exact demand latency at each level under Table I (L1 4, L2 15,
    LLC 35 cycles).  An LLC hit or a DRAM access leaves the L2 term out;
    that is the model as its rows were recorded, so a walk that adds the
    L2 latency on those paths moves every row."""

    LINE = 77

    def test_l1_hit_costs_l1_latency(self):
        h = make_hierarchy()
        h.l1.fill(self.LINE, cycle=0, ready_cycle=0)
        result = h.demand_access(self.LINE, cycle=100)
        assert (result.hit_level, result.latency) == ("l1", 4)

    def test_l2_hit_costs_l1_plus_l2(self):
        h = make_hierarchy()
        h.l2.fill(self.LINE, cycle=0, ready_cycle=0)
        result = h.demand_access(self.LINE, cycle=100)
        assert (result.hit_level, result.latency) == ("l2", 4 + 15)

    def test_llc_hit_has_no_l2_term(self):
        h = make_hierarchy()
        h.llc.fill(self.LINE, cycle=0, ready_cycle=0)
        result = h.demand_access(self.LINE, cycle=100)
        assert (result.hit_level, result.latency) == ("llc", 4 + 35)

    def test_dram_access_has_no_l2_term(self):
        config = SystemConfig()
        dram = DRAM(config.dram).access(self.LINE, 100, is_prefetch=False)
        result = MemoryHierarchy(config).demand_access(self.LINE, cycle=100)
        assert (result.hit_level, result.latency) == ("dram", 4 + 35 + dram)


class TestPrefetchPath:
    def test_prefetch_then_demand_is_covered(self):
        h = make_hierarchy()
        assert h.issue_prefetch(candidate(5), cycle=0)
        result = h.demand_access(5, cycle=10_000)
        assert result.was_covered_by_prefetch
        assert result.prefetch_timely

    def test_untimely_prefetch(self):
        h = make_hierarchy()
        h.issue_prefetch(candidate(5), cycle=0)
        result = h.demand_access(5, cycle=3)
        assert result.was_covered_by_prefetch
        assert not result.prefetch_timely
        assert result.latency > h.l1.latency

    def test_duplicate_prefetch_dropped(self):
        h = make_hierarchy()
        assert h.issue_prefetch(candidate(5), cycle=0)
        assert not h.issue_prefetch(candidate(5), cycle=1)
        assert h.ledger.dropped.get("stride") == 1

    def test_next_level_prefetch_fills_l2_only(self):
        h = make_hierarchy()
        h.issue_prefetch(candidate(5, to_next_level=True), cycle=0)
        assert not h.l1.probe(5)
        assert h.l2.probe(5)

    def test_l1_prefetch_also_fills_l2(self):
        h = make_hierarchy()
        h.issue_prefetch(candidate(5), cycle=0)
        assert h.l1.probe(5)
        assert h.l2.probe(5)

    def test_prefetch_queue_absorbs_mshr_overflow(self):
        h = make_hierarchy()
        mshrs = h.l1.mshrs
        issued = [h.issue_prefetch(candidate(100 + i), cycle=0) for i in range(mshrs + 5)]
        assert all(issued)  # queued, not dropped
        # After fills complete, a demand access drains the queue.
        h.demand_access(10_000, cycle=100_000)
        assert h.ledger.total_issued() == mshrs + 5

    def test_prefetch_queue_overflow_drops(self):
        h = make_hierarchy()
        total = h.l1.mshrs + h.prefetch_queue_depth + 5
        results = [h.issue_prefetch(candidate(200 + i), cycle=0) for i in range(total)]
        assert results.count(False) == 5

    def test_outstanding_prefetch_accounting(self):
        h = make_hierarchy()
        h.issue_prefetch(candidate(5), cycle=0)
        assert h.outstanding_prefetches(cycle=0) == 1
        assert h.outstanding_prefetches(cycle=10_000) == 0


class TestLedgerAndCallbacks:
    def test_ledger_issue_and_use(self):
        h = make_hierarchy()
        h.issue_prefetch(candidate(5), cycle=0)
        h.demand_access(5, cycle=10_000)
        assert h.ledger.issued["stride"] == 1
        assert h.ledger.used_timely["stride"] == 1
        assert h.ledger.accuracy("stride") == 1.0

    def test_used_callback_fires(self):
        events = []
        h = MemoryHierarchy(
            SystemConfig(),
            on_prefetch_used=lambda record, timely: events.append((record.line, timely)),
        )
        h.issue_prefetch(candidate(5), cycle=0)
        h.demand_access(5, cycle=10_000)
        assert events == [(5, True)]

    def test_evicted_callback_fires(self):
        events = []
        h = MemoryHierarchy(
            SystemConfig(),
            on_prefetch_evicted=lambda record: events.append(record.line),
        )
        h.issue_prefetch(candidate(5), cycle=0)
        # Force eviction of line 5 from its L1 set (set index 5, 8 ways).
        for i in range(1, 10):
            h.demand_access(5 + i * 64, cycle=i * 1000)
        assert 5 in events
        assert h.ledger.evicted_unused.get("stride", 0) >= 1

    def test_accuracy_overall(self):
        h = make_hierarchy()
        h.issue_prefetch(candidate(5), cycle=0)
        h.issue_prefetch(candidate(6), cycle=0)
        h.demand_access(5, cycle=10_000)
        assert h.ledger.accuracy() == pytest.approx(0.5)


class TestSharedMemory:
    def test_two_cores_share_llc(self):
        config = SystemConfig(cores=2)
        shared = SharedMemory(config)
        core0 = MemoryHierarchy(config, core_id=0, shared=shared)
        core1 = MemoryHierarchy(config, core_id=1, shared=shared)
        core0.demand_access(1, cycle=0)
        # Core 1 misses privately but hits the shared LLC.
        result = core1.demand_access(1, cycle=10_000)
        assert result.hit_level == "llc"

    def test_private_l1s(self):
        config = SystemConfig(cores=2)
        shared = SharedMemory(config)
        core0 = MemoryHierarchy(config, core_id=0, shared=shared)
        core1 = MemoryHierarchy(config, core_id=1, shared=shared)
        core0.demand_access(1, cycle=0)
        assert core0.l1.probe(1)
        assert not core1.l1.probe(1)
