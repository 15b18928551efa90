"""The yardstick ``op_cost`` is measured in.

The machine this benchmark was built on changes speed by up to 1.8x
from one minute to the next (other tenants share its cores), which
swamps any change to the toolkit in raw wall time.  An operation and
this kernel, timed back to back, slow down together, so their ratio
holds still.  The kernel is a miniature of the simulator's own work (a
set-associative cache and a stride prefetcher over a pseudo-random
access stream, built from dicts, slotted objects and method calls) so
that it reacts to the machine's state the way the simulator does.  It
lives here, apart from the toolkit, so no change to the toolkit moves
it.
"""

from __future__ import annotations

from typing import List, Optional

#: Accesses per call; about 0.1 s on a 2-vCPU cloud VM.
ACCESSES = 40_000


class _Entry:
    __slots__ = ("last", "stride", "confidence")

    def __init__(self, last: int):
        self.last = last
        self.stride = 0
        self.confidence = 0


class _Table:
    """Set-associative table with LRU replacement over insertion-ordered dicts."""

    def __init__(self, sets: int, ways: int):
        self.sets: List[dict] = [{} for _ in range(sets)]
        self.mask = sets - 1
        self.ways = ways
        self.hits = 0
        self.misses = 0

    def lookup(self, key: int) -> Optional[object]:
        ways = self.sets[key & self.mask]
        value = ways.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        ways[key] = value
        return value

    def insert(self, key: int, value: object) -> None:
        ways = self.sets[key & self.mask]
        if len(ways) >= self.ways:
            del ways[next(iter(ways))]
        ways[key] = value


def reference_kernel(accesses: int = ACCESSES) -> int:
    """Simulate ``accesses`` accesses; returns the prefetches issued."""
    cache, prefetcher = _Table(256, 8), _Table(16, 4)
    bases = [index << 16 for index in range(32)]
    state = issued = 0
    for _ in range(accesses):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        stream = (state >> 16) % 32
        bases[stream] += 64 * (1 + (stream & 3)) if state & 0x700 else 0x1000
        line = bases[stream] >> 6
        if cache.lookup(line) is None:
            cache.insert(line, True)
        entry = prefetcher.lookup(stream)
        if entry is None:
            prefetcher.insert(stream, _Entry(line))
            continue
        stride = line - entry.last
        if stride == entry.stride:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
        entry.stride, entry.last = stride, line
        if entry.confidence >= 2:
            for candidate in [line + stride * depth for depth in range(1, 4)]:
                if cache.lookup(candidate) is None:
                    cache.insert(candidate, False)
                    issued += 1
    return issued
