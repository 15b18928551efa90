"""GS-style stream prefetcher (the "global stream" class of IPCP).

Configuration follows paper Table II: a 64-entry IP table plus an 8-entry
Region Stream Table (RST).  The RST watches 2 KB regions for dense,
directional access; once a region qualifies, the PCs touching it are
classified as stream PCs and prefetch ``degree`` consecutive lines ahead
in the stream direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.tables import SetAssociativeTable
from repro.common.types import DemandAccess
from repro.prefetchers.base import Prefetcher
from repro.registry import register_prefetcher

#: 2 KB region = 32 cache lines.
_REGION_LINE_SHIFT = 5
_REGION_LINES = 1 << _REGION_LINE_SHIFT
#: Distinct lines touched before a region counts as a stream.  Streams
#: cover most of a region; strided or spatial PCs touch only a few lines
#: and must not be classified as streams.
_DENSE_THRESHOLD = 12
#: Distinct lines above which a region is mature enough to conclude the PC
#: is *not* streaming (between the two thresholds the region is still
#: young and carries no evidence either way).
_MATURE_THRESHOLD = 6


#: Saturation point of the 2-bit IP confidence counter.
_MAX_CONFIDENCE = 3


@dataclass(slots=True)
class _RegionEntry:
    last_line: int
    touched_bitmap: int = 0
    direction: int = 1  # +1 ascending, -1 descending

    @property
    def distinct_lines(self) -> int:
        return self.touched_bitmap.bit_count()


@dataclass(slots=True)
class _IPEntry:
    #: 2-bit saturating confidence in [0, _MAX_CONFIDENCE], kept as a
    #: plain int: it is updated on every training call.
    confidence: int = 0
    direction: int = 1


@register_prefetcher("stream")
class StreamPrefetcher(Prefetcher):
    """Stream prefetcher with region-based stream confirmation."""

    name = "stream"

    def __init__(self, ip_entries: int = 64, rst_entries: int = 8):
        super().__init__()
        self._ip_table: SetAssociativeTable = SetAssociativeTable(
            ip_entries, ways=4, name="stream_ip", entry_bits=16
        )
        self._rst: SetAssociativeTable = SetAssociativeTable(
            rst_entries, ways=rst_entries, name="stream_rst", entry_bits=48
        )
        self._last_confidence = 0.0

    def tables(self) -> Sequence[SetAssociativeTable]:
        return (self._ip_table, self._rst)

    def prediction_confidence(self) -> float:
        return self._last_confidence

    def would_handle(self, access: DemandAccess) -> bool:
        """DOL-style coarse claim: the stream engine owns any request that
        falls into an actively tracked, reasonably dense region — even when
        the request's PC is not a confirmed stream PC.  This is exactly the
        coarse region-level claiming the Alecto paper's Fig. 2 example
        blames for DOL misrouting spatial PCs.
        """
        ip_entry = self._ip_table.peek(access.pc)
        if ip_entry is not None and ip_entry.confidence >= 2:
            return True
        region_entry = self._rst.peek(access.line >> _REGION_LINE_SHIFT)
        return region_entry is not None and region_entry.distinct_lines >= 4

    def _train(self, access: DemandAccess, degree: int) -> List[int]:
        line = access.line
        region = line >> _REGION_LINE_SHIFT

        # A fresh region starts at this line, so the update below only
        # sets its bit.
        region_entry = self._rst.get_or_insert(region, _RegionEntry, line)
        region_entry.touched_bitmap |= 1 << (line % _REGION_LINES)
        if line != region_entry.last_line:
            region_entry.direction = 1 if line > region_entry.last_line else -1
            region_entry.last_line = line

        ip_entry = self._ip_table.get_or_insert(access.pc, _IPEntry)

        distinct = region_entry.touched_bitmap.bit_count()
        confidence = ip_entry.confidence
        if distinct >= _DENSE_THRESHOLD:
            if confidence < _MAX_CONFIDENCE:
                ip_entry.confidence = confidence = confidence + 1
            ip_entry.direction = region_entry.direction
        elif distinct >= _MATURE_THRESHOLD:
            # Mature region with a sparse footprint: not a stream.
            if confidence > 0:
                ip_entry.confidence = confidence = confidence - 1

        self._last_confidence = confidence / 3.0
        if confidence < 2 or degree <= 0:
            return []
        step = ip_entry.direction
        return list(range(line + step, line + step * (degree + 1), step))
