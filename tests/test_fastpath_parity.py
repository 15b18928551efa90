"""Parity of the O(1) fast-path structures against brute-force references.

The dict-based :class:`repro.memory.cache.Cache` and
:class:`repro.common.tables.SetAssociativeTable` replaced list-based sets
with O(ways) tag scans and ``min()`` victim selection.  These tests pin the
rewrite to the old semantics three ways:

1. randomized operation streams driven against a line-by-line port of the
   previous implementation (including the deliberate LRU-refill recency
   fix), asserting identical return values, statistics and victims;
2. the same for the set-associative table, under both LRU and random
   replacement (the random-victim RNG sequence must match exactly);
3. a golden end-to-end run: one mid-size profile simulated with the real
   cache and hierarchy, and with the reference cache driven by a port of
   the hierarchy walk that called ``Cache`` methods for every level,
   asserting identical stats, IPC and per-prefetcher ledger counts.

The real :class:`~repro.memory.hierarchy.MemoryHierarchy` resolves L1
hits and residency probes by reading ``Cache._sets`` directly, which the
reference cache (sets are lists) does not support; so the reference side
runs :class:`ReferenceHierarchy`, which keeps the earlier walk.
"""

import heapq
import random

import pytest

from repro.common.tables import SetAssociativeTable
from repro.common.hashing import index_hash
from repro.memory.cache import Cache, CacheStats, EvictionInfo, PrefetchRecord
from repro.memory.hierarchy import AccessResult, MemoryHierarchy


# -- reference models (ports of the pre-rewrite list-based implementations) --


class _RefLine:
    __slots__ = ("tag", "last_use", "ready_cycle", "dirty", "prefetch")

    def __init__(self, tag, last_use, ready_cycle, dirty, prefetch):
        self.tag = tag
        self.last_use = last_use
        self.ready_cycle = ready_cycle
        self.dirty = dirty
        self.prefetch = prefetch


class ReferenceCache:
    """The previous list-based cache: O(ways) scans, ``min()`` eviction.

    Includes the LRU-refill recency fix (a refill of a resident line
    refreshes ``last_use``) so that it models the *intended* semantics the
    dict-based cache implements.
    """

    def __init__(self, name, num_sets, ways, latency, mshrs):
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.latency = latency
        self.mshrs = mshrs
        self.stats = CacheStats()
        self._sets = {}
        self._clock = 0

    @property
    def capacity_lines(self):
        return self.num_sets * self.ways

    def _find(self, line):
        for entry in self._sets.get(line % self.num_sets, []):
            if entry.tag == line:
                return entry
        return None

    def probe(self, line):
        return self._find(line) is not None

    def demand_access(self, line, cycle, is_write=False):
        self._clock += 1
        self.stats.demand_accesses += 1
        entry = self._find(line)
        if entry is None:
            self.stats.demand_misses += 1
            return False, 0, None, False
        self.stats.demand_hits += 1
        entry.last_use = self._clock
        if is_write:
            entry.dirty = True
        extra_wait = max(0, entry.ready_cycle - cycle)
        record = entry.prefetch
        timely = extra_wait == 0
        if record is not None:
            entry.prefetch = None
            if timely:
                self.stats.prefetch_hits_timely += 1
            else:
                self.stats.prefetch_hits_untimely += 1
        return True, extra_wait, record, timely

    def fill(self, line, cycle, ready_cycle, prefetch=None, is_write=False):
        self._clock += 1
        entry = self._find(line)
        if entry is not None:
            entry.ready_cycle = min(entry.ready_cycle, ready_cycle)
            if is_write:
                entry.dirty = True
            entry.last_use = self._clock  # the LRU-refill recency fix
            return None
        if prefetch is not None:
            self.stats.prefetch_fills += 1
        entries = self._sets.setdefault(line % self.num_sets, [])
        evicted = None
        if len(entries) >= self.ways:
            victim = min(entries, key=lambda e: e.last_use)
            entries.remove(victim)
            evicted = EvictionInfo(
                line=victim.tag, dirty=victim.dirty, prefetch=victim.prefetch
            )
            if victim.prefetch is not None:
                self.stats.prefetched_evicted_unused += 1
        entries.append(_RefLine(line, self._clock, ready_cycle, is_write, prefetch))
        return evicted

    def invalidate(self, line):
        entries = self._sets.get(line % self.num_sets, [])
        for entry in entries:
            if entry.tag == line:
                entries.remove(entry)
                return True
        return False

    def occupancy(self):
        return sum(len(entries) for entries in self._sets.values())


class _RefWay:
    __slots__ = ("key", "value", "last_use")

    def __init__(self, key, value, last_use):
        self.key = key
        self.value = value
        self.last_use = last_use


class ReferenceTable:
    """The previous list-based set-associative table."""

    def __init__(self, num_entries, ways=4, replacement="lru", seed=11):
        self.num_entries = num_entries
        self.ways = ways
        self.num_sets = num_entries // ways
        self.replacement = replacement
        self._sets = {}
        self._clock = 0
        self._rng = random.Random(seed)
        self.lookups = self.hits = self.misses = 0
        self.insertions = self.evictions = 0

    def _set_for(self, key):
        return self._sets.setdefault(index_hash(key, self.num_sets), [])

    def lookup(self, key, update_lru=True):
        self._clock += 1
        self.lookups += 1
        for way in self._set_for(key):
            if way.key == key:
                self.hits += 1
                if update_lru:
                    way.last_use = self._clock
                return way.value
        self.misses += 1
        return None

    def peek(self, key):
        for way in self._sets.get(index_hash(key, self.num_sets), []):
            if way.key == key:
                return way.value
        return None

    def insert(self, key, value):
        self._clock += 1
        ways = self._set_for(key)
        for way in ways:
            if way.key == key:
                way.value = value
                way.last_use = self._clock
                return None
        self.insertions += 1
        evicted = None
        if len(ways) >= self.ways:
            if self.replacement == "random":
                victim = ways[self._rng.randrange(len(ways))]
            else:
                victim = min(ways, key=lambda w: w.last_use)
            ways.remove(victim)
            evicted = (victim.key, victim.value)
            self.evictions += 1
        ways.append(_RefWay(key, value, self._clock))
        return evicted

    def invalidate(self, key):
        ways = self._sets.get(index_hash(key, self.num_sets), [])
        for way in ways:
            if way.key == key:
                ways.remove(way)
                return True
        return False

    def __len__(self):
        return sum(len(ways) for ways in self._sets.values())


class ReferenceHierarchy(MemoryHierarchy):
    """The hierarchy walk that went through a ``Cache`` method per level.

    A port of the demand and prefetch paths from before the L1 hit and
    the residency probes were inlined: only ``Cache`` methods touch the
    caches, so the list-based :class:`ReferenceCache` can stand in for
    :class:`Cache` under it.
    """

    def _note_eviction(self, evicted):
        if evicted is None or evicted.prefetch is None:
            return
        record = evicted.prefetch
        self.ledger.record_eviction(record.prefetcher)
        if self.on_prefetch_evicted is not None:
            self.on_prefetch_evicted(record)

    def _note_use(self, record, timely):
        if record is None:
            return
        self.ledger.record_use(record.prefetcher, timely)
        if self.on_prefetch_used is not None:
            self.on_prefetch_used(record, timely)

    def _drain_outstanding(self, cycle):
        heap = self._outstanding_prefetches
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)

    def demand_access(self, line, cycle, is_write=False):
        if self._prefetch_queue:
            self._drain_prefetch_queue(cycle)
        hit, wait, record, timely = self.l1.demand_access(line, cycle, is_write)
        if hit:
            self._note_use(record, timely)
            return AccessResult(self.l1.latency + wait, "l1", record, timely)

        latency = self.l1.latency
        hit, wait, record, timely = self.l2.demand_access(line, cycle, is_write)
        if hit:
            latency += self.l2.latency + wait
            self._note_use(record, timely)
            self._note_eviction(
                self.l1.fill(line, cycle, ready_cycle=cycle + latency)
            )
            return AccessResult(latency, "l2", record, timely)

        hit, wait, record, timely = self.llc.demand_access(line, cycle, is_write)
        if hit:
            latency += self.llc.latency + wait
            self._note_use(record, timely)
            ready = cycle + latency
            self._note_eviction(self.l2.fill(line, cycle, ready_cycle=ready))
            self._note_eviction(self.l1.fill(line, cycle, ready_cycle=ready))
            return AccessResult(latency, "llc", record, timely)

        latency += self.llc.latency + self.dram.access(
            line, cycle, is_prefetch=False
        )
        ready = cycle + latency
        self._note_eviction(self.llc.fill(line, cycle, ready_cycle=ready))
        self._note_eviction(self.l2.fill(line, cycle, ready_cycle=ready))
        self._note_eviction(self.l1.fill(line, cycle, ready_cycle=ready))
        return AccessResult(latency, "dram")

    def _drain_prefetch_queue(self, cycle):
        queue = self._prefetch_queue
        while queue:
            self._drain_outstanding(cycle)
            if len(self._outstanding_prefetches) >= self.l1.mshrs:
                return
            self._issue_now(queue.popleft(), cycle)

    def issue_prefetch(self, candidate, cycle):
        to_next_level = candidate.to_next_level
        l2_resident = to_next_level and self.l2.probe(candidate.line)
        if l2_resident or self.l1.probe(candidate.line):
            self.ledger.record_drop(candidate.prefetcher)
            return False
        self._drain_outstanding(cycle)
        if len(self._outstanding_prefetches) >= self.l1.mshrs:
            if len(self._prefetch_queue) >= self.prefetch_queue_depth:
                self.ledger.record_drop(candidate.prefetcher)
                return False
            self._prefetch_queue.append(candidate)
            return True
        return self._issue_now(candidate, cycle, l2_known_absent=to_next_level)

    def _issue_now(self, candidate, cycle, l2_known_absent=False):
        fill_l1 = not candidate.to_next_level
        if not l2_known_absent and self.l2.probe(candidate.line):
            latency = self.l2.latency
        elif self.llc.probe(candidate.line):
            latency = self.l2.latency + self.llc.latency
        else:
            dram_latency = self.dram.access(candidate.line, cycle, is_prefetch=True)
            latency = self.l2.latency + self.llc.latency + dram_latency

        ready = cycle + latency
        record = PrefetchRecord(
            prefetcher=candidate.prefetcher,
            pc=candidate.pc,
            issue_cycle=cycle,
            ready_cycle=ready,
            core_id=candidate.core_id,
            line=candidate.line,
        )
        candidate.issue_cycle = cycle
        self.ledger.record_issue(candidate.prefetcher)
        heapq.heappush(self._outstanding_prefetches, ready)

        if fill_l1:
            self._note_eviction(
                self.l1.fill(candidate.line, cycle, ready_cycle=ready, prefetch=record)
            )
            self._note_eviction(self.l2.fill(candidate.line, cycle, ready_cycle=ready))
        else:
            self._note_eviction(
                self.l2.fill(candidate.line, cycle, ready_cycle=ready, prefetch=record)
            )
        return True


# -- randomized stream parity -------------------------------------------------


def _record(line, prefetcher="stride", ready=0):
    return PrefetchRecord(
        prefetcher=prefetcher, pc=0x400, issue_cycle=0, ready_cycle=ready,
        line=line,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_cache_matches_reference_on_random_streams(seed):
    rng = random.Random(seed)
    sets, ways = rng.choice([(2, 1), (4, 2), (4, 4), (8, 2)])
    fast = Cache("fast", num_sets=sets, ways=ways, latency=4, mshrs=16)
    ref = ReferenceCache("ref", num_sets=sets, ways=ways, latency=4, mshrs=16)
    cycle = 0
    for _ in range(3000):
        cycle += rng.randrange(0, 4)
        line = rng.randrange(0, sets * ways * 3)
        op = rng.random()
        if op < 0.45:
            is_write = rng.random() < 0.2
            got = fast.demand_access(line, cycle, is_write)
            want = ref.demand_access(line, cycle, is_write)
            assert got == want
        elif op < 0.85:
            ready = cycle + rng.randrange(0, 200)
            prefetch = (
                _record(line, ready=ready) if rng.random() < 0.4 else None
            )
            is_write = rng.random() < 0.1
            got = fast.fill(line, cycle, ready, prefetch=prefetch,
                            is_write=is_write)
            want = ref.fill(line, cycle, ready, prefetch=prefetch,
                            is_write=is_write)
            # EvictionInfo and PrefetchRecord are dataclasses: field-wise
            # equality pins the victim choice exactly.
            assert got == want
        elif op < 0.93:
            assert fast.probe(line) == ref.probe(line)
        else:
            assert fast.invalidate(line) == ref.invalidate(line)
        assert fast.occupancy() == ref.occupancy()
    assert fast.stats == ref.stats


@pytest.mark.parametrize("replacement", ["lru", "random"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_table_matches_reference_on_random_streams(replacement, seed):
    rng = random.Random(seed + 100)
    num_entries, ways = rng.choice([(8, 2), (16, 4), (12, 3)])
    fast = SetAssociativeTable(
        num_entries, ways=ways, replacement=replacement, seed=seed
    )
    ref = ReferenceTable(
        num_entries, ways=ways, replacement=replacement, seed=seed
    )
    for step in range(4000):
        key = rng.randrange(0, num_entries * 3)
        op = rng.random()
        if op < 0.4:
            update = rng.random() < 0.8
            assert fast.lookup(key, update_lru=update) == ref.lookup(
                key, update_lru=update
            )
        elif op < 0.75:
            value = f"v{step}"
            assert fast.insert(key, value) == ref.insert(key, value)
        elif op < 0.9:
            assert fast.peek(key) == ref.peek(key)
        else:
            assert fast.invalidate(key) == ref.invalidate(key)
        assert len(fast) == len(ref)
    assert (fast.stats.lookups, fast.stats.hits, fast.stats.misses,
            fast.stats.insertions, fast.stats.evictions) == (
        ref.lookups, ref.hits, ref.misses, ref.insertions, ref.evictions)
    assert sorted(fast.items()) == sorted(
        (way.key, way.value) for ways in ref._sets.values() for way in ways
    )


def test_inlined_index_hash_matches_reference():
    """The hash arithmetic inlined in tables.py must equal index_hash."""
    import repro.common.tables as tables_module

    rng = random.Random(7)
    for _ in range(5000):
        key = rng.randrange(0, 2 ** 70)
        num_sets = rng.randrange(1, 512)
        mixed = key & tables_module._MASK64
        mixed = (mixed ^ (mixed >> 33)) * tables_module._MIX
        mixed &= tables_module._MASK64
        assert (mixed ^ (mixed >> 33)) % num_sets == index_hash(key, num_sets)
    # And end-to-end: a populated table finds its own keys through every
    # separately-inlined probe method.
    table = SetAssociativeTable(64, ways=4)
    keys = [rng.randrange(0, 2 ** 48) for _ in range(40)]
    for key in keys:
        table.insert(key, key * 2)
    for key in keys:
        if key in table:  # __contains__ inline
            assert table.peek(key) == key * 2  # peek inline
            assert table.invalidate(key)  # invalidate inline
            assert key not in table


# -- hierarchy / ledger parity ------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefetch_ledger_matches_reference_on_random_streams(
    seed, monkeypatch
):
    """Randomized demand+prefetch streams: identical PrefetchLedger counts."""
    import repro.memory.hierarchy as hierarchy_module
    from repro.common.config import SystemConfig
    from repro.common.types import PrefetchCandidate

    def run(use_reference):
        if use_reference:
            monkeypatch.setattr(hierarchy_module, "Cache", ReferenceCache)
            hierarchy = ReferenceHierarchy(SystemConfig())
        else:
            monkeypatch.setattr(hierarchy_module, "Cache", Cache)
            hierarchy = MemoryHierarchy(SystemConfig())
        rng = random.Random(seed + 50)
        cycle = 0
        for _ in range(4000):
            cycle += rng.randrange(1, 30)
            line = rng.randrange(0, 4096)
            if rng.random() < 0.6:
                hierarchy.demand_access(line, cycle, rng.random() < 0.2)
            else:
                candidate = PrefetchCandidate(
                    line=line,
                    prefetcher=rng.choice(["stride", "pmp", "berti"]),
                    pc=0x400 + 8 * rng.randrange(0, 16),
                    to_next_level=rng.random() < 0.25,
                )
                hierarchy.issue_prefetch(candidate, cycle)
        return hierarchy.ledger

    fast, ref = run(False), run(True)
    assert fast.issued == ref.issued
    assert fast.used_timely == ref.used_timely
    assert fast.used_untimely == ref.used_untimely
    assert fast.evicted_unused == ref.evicted_unused
    assert fast.dropped == ref.dropped


# -- golden end-to-end parity -------------------------------------------------


def _comparable(result):
    """Everything a SimulationResult reports, minus object identities."""
    return {
        "instructions": result.core.instructions,
        "cycles": result.core.cycles,
        "loads": result.core.loads,
        "stores": result.core.stores,
        "l1_miss_stalls": result.core.l1_miss_stalls,
        "issued": result.metrics.issued,
        "covered_timely": result.metrics.covered_timely,
        "covered_untimely": result.metrics.covered_untimely,
        "uncovered": result.metrics.uncovered,
        "overpredicted": result.metrics.overpredicted,
        "table_misses": result.table_misses,
        "table_lookups": result.table_lookups,
        "training_occurrences": result.training_occurrences,
        "issued_by_prefetcher": result.issued_by_prefetcher,
        "useful_by_prefetcher": result.useful_by_prefetcher,
        "l1_hit_rate": result.l1_hit_rate,
        "dram_reads": result.dram_reads,
        "dram_prefetch_reads": result.dram_prefetch_reads,
        "ipc": result.ipc,
    }


def _simulate_profile(accesses=6000):
    from repro.registry import build_selector
    from repro.sim import simulate
    from repro.workloads import get_profile

    trace = get_profile("gcc").generate(accesses, seed=3)
    return simulate(trace, build_selector("alecto"), name="parity")


def test_golden_parity_full_simulation(monkeypatch):
    """One mid-size profile, old cache logic vs new: identical stats."""
    import repro.memory.hierarchy as hierarchy_module
    import repro.sim.simulator as simulator_module

    fast = _simulate_profile()
    monkeypatch.setattr(hierarchy_module, "Cache", ReferenceCache)
    monkeypatch.setattr(simulator_module, "MemoryHierarchy", ReferenceHierarchy)
    slow = _simulate_profile()
    assert _comparable(fast) == _comparable(slow)
