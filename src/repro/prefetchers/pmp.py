"""PMP-style spatial bit-pattern prefetcher (MICRO'22, SMS lineage).

Configuration per paper Table II: a 16-entry Accumulation Table collecting
the footprint bitmap of live 4 KB regions, and a 64-entry Pattern History
Table (PHT) of merged per-PC patterns.  On the trigger access of a new
region the PHT pattern (stored relative to the trigger offset) is replayed
across the region — prefetching many lines at once, which is what gives
PMP its timeliness and also its aggression (Section VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.common.hashing import fold_pc
from repro.common.tables import SetAssociativeTable
from repro.common.types import REGION_LINES, DemandAccess
from repro.prefetchers.base import Prefetcher
from repro.registry import register_prefetcher

_PATTERN_SATURATION = 3
_ISSUE_THRESHOLD = 2
_PC_HASH_BITS = 10


@dataclass
class _AccumulationEntry:
    trigger_pc: int
    trigger_offset: int
    bitmap: int = 0  # bit i set => offset i touched


@dataclass
class _PatternEntry:
    # Offset (relative to trigger) -> small saturating vote count.
    votes: Dict[int, int] = field(default_factory=dict)
    merges: int = 0

    def merge(self, relative_offsets: Sequence[int]) -> None:
        """Fold one observed region footprint into the stored pattern."""
        self.merges += 1
        touched = set(relative_offsets)
        for offset in touched:
            self.votes[offset] = min(
                _PATTERN_SATURATION, self.votes.get(offset, 0) + 1
            )
        for offset in list(self.votes):
            if offset not in touched:
                self.votes[offset] -= 1
                if self.votes[offset] <= 0:
                    del self.votes[offset]

    def predicted_offsets(self) -> List[int]:
        """Relative offsets predicted for replay, nearest-first."""
        chosen = [
            offset
            for offset, votes in self.votes.items()
            if votes >= _ISSUE_THRESHOLD and offset != 0
        ]
        return sorted(chosen, key=abs)


@register_prefetcher("pmp")
class PMPPrefetcher(Prefetcher):
    """Spatial pattern prefetcher with pattern merging."""

    name = "pmp"

    def __init__(self, at_entries: int = 16, pht_entries: int = 64):
        super().__init__()
        self._accumulation: SetAssociativeTable = SetAssociativeTable(
            at_entries, ways=at_entries, name="pmp_at", entry_bits=80
        )
        self._pht: SetAssociativeTable = SetAssociativeTable(
            pht_entries, ways=4, name="pmp_pht", entry_bits=128
        )
        self._last_confidence = 0.0

    def tables(self) -> Sequence[SetAssociativeTable]:
        return (self._accumulation, self._pht)

    def prediction_confidence(self) -> float:
        return self._last_confidence

    def _pht_key(self, pc: int) -> int:
        return fold_pc(pc, _PC_HASH_BITS)

    def would_handle(self, access: DemandAccess) -> bool:
        pattern = self._pht.peek(self._pht_key(access.pc))
        return pattern is not None and bool(pattern.predicted_offsets())

    def _retire_region(self, entry: _AccumulationEntry) -> None:
        """Merge a finished region's footprint into the PHT."""
        bitmap = entry.bitmap
        if not bitmap & (bitmap - 1):
            # A single touched line carries no spatial pattern.
            return
        # Walk the set bits, lowest offset first.
        trigger = entry.trigger_offset
        relative = []
        while bitmap:
            low = bitmap & -bitmap
            relative.append(low.bit_length() - 1 - trigger)
            bitmap ^= low
        pattern = self._pht.get_or_insert(
            self._pht_key(entry.trigger_pc), _PatternEntry
        )
        pattern.merge(relative)

    def _train(self, access: DemandAccess, degree: int) -> List[int]:
        line = access.line
        region = line // REGION_LINES
        offset = line % REGION_LINES

        live = self._accumulation.lookup(region)
        if live is not None:
            live.bitmap |= 1 << offset
            self._last_confidence = 0.0
            return []

        # Trigger access to a new region: retire the evicted region (if
        # any), start accumulating, and replay the learned pattern.
        evicted = self._accumulation.insert(
            region,
            _AccumulationEntry(
                trigger_pc=access.pc, trigger_offset=offset, bitmap=1 << offset
            ),
        )
        if evicted is not None:
            self._retire_region(evicted[1])

        pattern = self._pht.lookup(self._pht_key(access.pc))
        if pattern is None or degree <= 0:
            self._last_confidence = 0.0
            return []
        region_base = region * REGION_LINES
        lines: List[int] = []
        max_votes = _PATTERN_SATURATION
        strength = 0
        for relative in pattern.predicted_offsets():
            target_offset = offset + relative
            if 0 <= target_offset < REGION_LINES:
                lines.append(region_base + target_offset)
                strength = max(strength, pattern.votes.get(relative, 0))
            if len(lines) >= degree:
                break
        self._last_confidence = strength / max_votes if lines else 0.0
        return lines
