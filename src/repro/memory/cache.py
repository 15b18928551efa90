"""A set-associative, LRU, write-allocate cache model.

The model is timing-approximate rather than event-driven: each resident
line carries a ``ready_cycle`` so that a demand access arriving while a
fill (typically a prefetch) is still in flight observes the *remaining*
fill latency.  That is exactly the distinction the paper draws between
"covered, timely" and "covered, untimely" prefetches (Fig. 10).

Each set is an insertion-ordered ``dict`` mapping line address to
:class:`_Line`, kept in recency order: a hit re-inserts the entry at the
MRU end and the LRU victim is always the first key.  Lookup, LRU update
and victim selection are all O(1), where the previous list-based sets
paid an O(ways) tag scan plus an O(ways) ``min()`` per eviction.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(slots=True)
class PrefetchRecord:
    """Provenance of a prefetched line, kept until first demand use.

    Attributes:
        prefetcher: name of the prefetcher that issued the request.
        pc: PC of the triggering demand access.
        issue_cycle: cycle the prefetch was issued.
        ready_cycle: cycle the fill completes.
        core_id: issuing core.
        line: target cache-line address.
    """

    prefetcher: str
    pc: int
    issue_cycle: int
    ready_cycle: int
    core_id: int = 0
    line: int = 0


class _Line:
    """One resident line.

    A slots class with no ``__init__``: :meth:`Cache.fill` sets all three
    fields, so building a line enters no Python frame.
    """

    __slots__ = ("ready_cycle", "dirty", "prefetch")


@dataclass(slots=True)
class CacheStats:
    """Per-cache hit/miss and prefetch-outcome statistics."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    prefetch_hits_timely: int = 0
    prefetch_hits_untimely: int = 0
    prefetched_evicted_unused: int = 0

    @property
    def demand_hit_rate(self) -> float:
        if not self.demand_accesses:
            return 0.0
        return self.demand_hits / self.demand_accesses


class EvictionInfo(namedtuple("EvictionInfo", ("line", "dirty", "prefetch"))):
    """Describes a line displaced from the cache.

    Immutable and tuple-backed (built with ``tuple.__new__`` on each
    eviction); ``prefetch`` is the victim's unconsumed
    :class:`PrefetchRecord`, or None.
    """

    __slots__ = ()

    @property
    def was_unused_prefetch(self) -> bool:
        return self.prefetch is not None


class Cache:
    """One cache level.

    Args:
        name: label for statistics ("l1d", "l2", "llc").
        num_sets: number of sets.
        ways: associativity.
        latency: round-trip hit latency in cycles.
        mshrs: number of miss-status holding registers; bounds the number of
            in-flight fills the level accepts (prefetches past the bound are
            dropped by the hierarchy).
    """

    __slots__ = (
        "name", "num_sets", "ways", "latency", "mshrs", "stats",
        "_sets", "_resident",
    )

    def __init__(self, name: str, num_sets: int, ways: int, latency: int, mshrs: int):
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.latency = latency
        self.mshrs = mshrs
        self.stats = CacheStats()
        # set index -> {line address -> _Line}, each inner dict in LRU->MRU
        # recency order.
        self._sets: Dict[int, Dict[int, _Line]] = {}
        self._resident = 0

    # -- helpers -------------------------------------------------------------

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    # -- operations ----------------------------------------------------------

    def probe(self, line: int) -> bool:
        """Tag check with no side effects."""
        entries = self._sets.get(line % self.num_sets)
        return entries is not None and line in entries

    def demand_access(
        self, line: int, cycle: int, is_write: bool = False
    ) -> Tuple[bool, int, Optional[PrefetchRecord], bool]:
        """Access ``line`` on behalf of a demand request.

        Returns:
            ``(hit, extra_wait, prefetch_record, timely)`` where ``hit`` is
            the tag-check outcome, ``extra_wait`` is any residual in-flight
            fill latency beyond the nominal hit latency, and
            ``prefetch_record``/``timely`` describe the first demand use of
            a prefetched line (record is None on ordinary hits).
        """
        stats = self.stats
        stats.demand_accesses += 1
        entries = self._sets.get(line % self.num_sets)
        entry = entries.get(line) if entries is not None else None
        if entry is None:
            stats.demand_misses += 1
            return False, 0, None, False
        stats.demand_hits += 1
        # Re-insert at the MRU end of the recency order.
        del entries[line]
        entries[line] = entry
        if is_write:
            entry.dirty = True
        wait = entry.ready_cycle - cycle
        extra_wait = wait if wait > 0 else 0
        record = entry.prefetch
        timely = extra_wait == 0
        if record is not None:
            # First demand use consumes the prefetch provenance.
            entry.prefetch = None
            if timely:
                stats.prefetch_hits_timely += 1
            else:
                stats.prefetch_hits_untimely += 1
        return True, extra_wait, record, timely

    def fill(
        self,
        line: int,
        cycle: int,
        ready_cycle: int,
        prefetch: Optional[PrefetchRecord] = None,
        is_write: bool = False,
    ) -> Optional[EvictionInfo]:
        """Install ``line``, evicting the LRU way if the set is full.

        Returns:
            Information about the displaced line, or None.
        """
        index = line % self.num_sets
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = {}
        entry = entries.get(line)
        if entry is not None:
            # Refill of a resident line (e.g. prefetch raced a demand fill):
            # keep the earlier ready time, never downgrade to prefetch-only,
            # and refresh recency so the line is not a stale LRU victim.
            if ready_cycle < entry.ready_cycle:
                entry.ready_cycle = ready_cycle
            if is_write:
                entry.dirty = True
            del entries[line]
            entries[line] = entry
            return None
        if prefetch is not None:
            self.stats.prefetch_fills += 1
        if len(entries) >= self.ways:
            victim_line = next(iter(entries))
            victim = entries.pop(victim_line)
            evicted = tuple.__new__(
                EvictionInfo, (victim_line, victim.dirty, victim.prefetch)
            )
            if victim.prefetch is not None:
                self.stats.prefetched_evicted_unused += 1
            # Reuse the displaced _Line object for the incoming line; the
            # resident count is unchanged by an evict+insert pair.
            victim.ready_cycle = ready_cycle
            victim.dirty = is_write
            victim.prefetch = prefetch
            entries[line] = victim
            return evicted
        entry = _Line()
        entry.ready_cycle = ready_cycle
        entry.dirty = is_write
        entry.prefetch = prefetch
        entries[line] = entry
        self._resident += 1
        return None

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident.  Returns True when removed."""
        entries = self._sets.get(line % self.num_sets)
        if entries is not None and line in entries:
            del entries[line]
            self._resident -= 1
            return True
        return False

    def occupancy(self) -> int:
        """Resident line count, maintained as an O(1) counter."""
        return self._resident

    def __repr__(self) -> str:
        return (
            f"Cache(name={self.name!r}, sets={self.num_sets}, "
            f"ways={self.ways}, latency={self.latency})"
        )
