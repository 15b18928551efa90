"""A generic set-associative table with uniform access/miss accounting.

Every prefetcher's internal state (IP tables, pattern-history tables,
temporal metadata) is built on this structure so that "prefetcher table
misses" (paper Fig. 1) and "training occurrences" (Fig. 18) are counted
the same way for every algorithm under comparison.

Each set is an insertion-ordered ``dict`` mapping key to value.  Under LRU
replacement the dict is kept in recency order (a touch re-inserts the entry
at the MRU end) so lookup, LRU update and victim selection are all O(1).
Under random replacement the dict stays in insertion order and the victim
is drawn by position, matching the behaviour of the previous list-based
sets exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

V = TypeVar("V")

#: Sentinel distinguishing "absent" from a stored None value.
_MISS = object()

# Constants of repro.common.hashing.index_hash, whose arithmetic is inlined
# in every set-indexing method below (each train() call funnels through
# them, and a function call per probe is measurable at that rate).  The
# inlined copies must stay byte-for-byte equivalent to index_hash;
# tests/test_fastpath_parity.py asserts this over random keys.
_MASK64 = (1 << 64) - 1
_MIX = 0xFF51AFD7ED558CCD


@dataclass(slots=True)
class TableStats:
    """Access statistics for one table."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "TableStats") -> "TableStats":
        """Return a new TableStats combining self and other."""
        return TableStats(
            lookups=self.lookups + other.lookups,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            insertions=self.insertions + other.insertions,
            evictions=self.evictions + other.evictions,
        )


class SetAssociativeTable(Generic[V]):
    """LRU set-associative key/value table of bounded size.

    Args:
        num_entries: total capacity (entries across all sets).
        ways: associativity; ``num_entries`` must be divisible by ``ways``.
        name: label used in statistics reporting.
        entry_bits: storage cost of one entry, for the energy/storage models.
        replacement: ``"lru"`` (default) or ``"random"``.  Random
            replacement avoids the LRU pathology on cyclic reference
            streams (zero hits as soon as the working set exceeds
            capacity) and is what temporal metadata tables use.
        seed: RNG seed for random replacement (kept deterministic).
    """

    __slots__ = (
        "name", "num_entries", "ways", "num_sets", "entry_bits",
        "replacement", "stats", "_sets", "_count", "_is_lru", "_rng",
    )

    def __init__(
        self,
        num_entries: int,
        ways: int = 4,
        name: str = "table",
        entry_bits: int = 64,
        replacement: str = "lru",
        seed: int = 11,
    ):
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if ways <= 0 or num_entries % ways != 0:
            raise ValueError(
                f"num_entries ({num_entries}) must be a positive multiple "
                f"of ways ({ways})"
            )
        if replacement not in ("lru", "random"):
            raise ValueError(f"unknown replacement policy: {replacement!r}")
        self.name = name
        self.num_entries = num_entries
        self.ways = ways
        self.num_sets = num_entries // ways
        self.entry_bits = entry_bits
        self.replacement = replacement
        self.stats = TableStats()
        self._sets: Dict[int, Dict[int, V]] = {}
        self._count = 0
        self._is_lru = replacement == "lru"
        self._rng = random.Random(seed)

    # -- core operations ---------------------------------------------------

    def lookup(self, key: int, update_lru: bool = True) -> Optional[V]:
        """Return the value for ``key`` or None; counts a hit or miss."""
        stats = self.stats
        stats.lookups += 1
        mixed = key & _MASK64
        mixed = (mixed ^ (mixed >> 33)) * _MIX & _MASK64
        entries = self._sets.get((mixed ^ (mixed >> 33)) % self.num_sets)
        if entries is not None:
            value = entries.get(key, _MISS)
            if value is not _MISS:
                stats.hits += 1
                if update_lru and self._is_lru:
                    del entries[key]
                    entries[key] = value
                return value
        stats.misses += 1
        return None

    def peek(self, key: int) -> Optional[V]:
        """Return the value for ``key`` without touching statistics or LRU."""
        mixed = key & _MASK64
        mixed = (mixed ^ (mixed >> 33)) * _MIX & _MASK64
        entries = self._sets.get((mixed ^ (mixed >> 33)) % self.num_sets)
        if entries is None:
            return None
        return entries.get(key)

    def insert(self, key: int, value: V) -> Optional[Tuple[int, V]]:
        """Insert or overwrite ``key``.

        Returns:
            The evicted ``(key, value)`` pair when an LRU victim was
            displaced, else None.
        """
        mixed = key & _MASK64
        mixed = (mixed ^ (mixed >> 33)) * _MIX & _MASK64
        index = (mixed ^ (mixed >> 33)) % self.num_sets
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = {}
        elif key in entries:
            # Overwrite refreshes recency under LRU; under random
            # replacement the slot position is what matters and it stays.
            if self._is_lru:
                del entries[key]
            entries[key] = value
            return None
        # Admit the absent key, evicting a victim if the set is full.
        stats = self.stats
        stats.insertions += 1
        evicted = None
        if len(entries) >= self.ways:
            if self._is_lru:
                victim_key = next(iter(entries))
            else:
                keys = list(entries)
                victim_key = keys[self._rng.randrange(len(keys))]
            evicted = (victim_key, entries.pop(victim_key))
            stats.evictions += 1
        else:
            self._count += 1
        entries[key] = value
        return evicted

    def get_or_insert(self, key: int, factory: Callable[..., V], *args) -> V:
        """Lookup ``key``; on miss insert ``factory(*args)`` and return it.

        Passing the arguments, rather than a closure over them, keeps the
        common hit path free of a per-call function object.  One hash for
        both halves; statistics, recency order, random-victim
        draws and evictions are exactly those of ``lookup`` followed (on a
        miss) by ``insert``.  A stored None counts as a hit and is then
        overwritten, as that pair would do.
        """
        stats = self.stats
        stats.lookups += 1
        mixed = key & _MASK64
        mixed = (mixed ^ (mixed >> 33)) * _MIX & _MASK64
        index = (mixed ^ (mixed >> 33)) % self.num_sets
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = {}
        else:
            value = entries.get(key, _MISS)
            if value is not _MISS:
                stats.hits += 1
                if self._is_lru:
                    del entries[key]
                    entries[key] = value
                if value is not None:
                    return value
                value = entries[key] = factory(*args)
                return value
        stats.misses += 1
        value = factory(*args)
        # Admit the absent key, as insert() does.
        stats.insertions += 1
        if len(entries) >= self.ways:
            if self._is_lru:
                victim_key = next(iter(entries))
            else:
                keys = list(entries)
                victim_key = keys[self._rng.randrange(len(keys))]
            del entries[victim_key]
            stats.evictions += 1
        else:
            self._count += 1
        entries[key] = value
        return value

    def invalidate(self, key: int) -> bool:
        """Remove ``key`` if present.  Returns True when an entry was removed."""
        mixed = key & _MASK64
        mixed = (mixed ^ (mixed >> 33)) * _MIX & _MASK64
        entries = self._sets.get((mixed ^ (mixed >> 33)) % self.num_sets)
        if entries is not None and key in entries:
            del entries[key]
            self._count -= 1
            return True
        return False

    def clear(self) -> None:
        """Drop all entries (statistics are preserved)."""
        self._sets.clear()
        self._count = 0

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: int) -> bool:
        mixed = key & _MASK64
        mixed = (mixed ^ (mixed >> 33)) * _MIX & _MASK64
        entries = self._sets.get((mixed ^ (mixed >> 33)) % self.num_sets)
        return entries is not None and key in entries

    def items(self):
        """Iterate over live ``(key, value)`` pairs (test/debug helper)."""
        for entries in self._sets.values():
            yield from entries.items()

    @property
    def storage_bits(self) -> int:
        """Total storage cost of the table in bits."""
        return self.num_entries * self.entry_bits

    def __repr__(self) -> str:
        return (
            f"SetAssociativeTable(name={self.name!r}, "
            f"entries={self.num_entries}, ways={self.ways}, "
            f"occupancy={len(self)})"
        )
