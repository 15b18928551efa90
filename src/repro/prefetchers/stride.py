"""CS-style constant-stride prefetcher (the "constant stride" class of IPCP).

A 64-entry IP table (paper Table II) tracks the last line and current
stride per PC with a 2-bit confidence counter.  Once confidence reaches
the issue threshold, it prefetches ``degree`` strides ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.tables import SetAssociativeTable
from repro.common.types import DemandAccess
from repro.prefetchers.base import Prefetcher
from repro.registry import register_prefetcher

_ISSUE_CONFIDENCE = 2
#: Saturation point of the 2-bit confidence counter.
_MAX_CONFIDENCE = 3


@dataclass(slots=True)
class _StrideEntry:
    last_line: int
    stride: int = 0
    #: 2-bit saturating confidence in [0, _MAX_CONFIDENCE], kept as a
    #: plain int: it is updated on every training call.
    confidence: int = 0


@register_prefetcher("stride")
class StridePrefetcher(Prefetcher):
    """Per-IP constant-stride prefetcher."""

    name = "stride"

    def __init__(self, ip_entries: int = 64):
        super().__init__()
        self._ip_table: SetAssociativeTable = SetAssociativeTable(
            ip_entries, ways=4, name="stride_ip", entry_bits=64
        )
        self._last_confidence = 0.0

    def tables(self) -> Sequence[SetAssociativeTable]:
        return (self._ip_table,)

    def prediction_confidence(self) -> float:
        return self._last_confidence

    def would_handle(self, access: DemandAccess) -> bool:
        entry = self._ip_table.peek(access.pc)
        return (
            entry is not None
            and entry.stride != 0
            and entry.confidence >= _ISSUE_CONFIDENCE
        )

    def _train(self, access: DemandAccess, degree: int) -> List[int]:
        line = access.line
        # A fresh entry starts at this line: the zero delta below returns
        # nothing at confidence 0.
        entry = self._ip_table.get_or_insert(access.pc, _StrideEntry, line)
        delta = line - entry.last_line
        entry.last_line = line
        confidence = entry.confidence
        if delta == 0:
            # Same-line access: no stride information.
            self._last_confidence = confidence / 3.0
            return []
        stride = entry.stride
        if delta == stride:
            if confidence < _MAX_CONFIDENCE:
                confidence += 1
        else:
            if confidence > 0:
                confidence -= 1
            if confidence == 0:
                entry.stride = stride = delta
        entry.confidence = confidence
        self._last_confidence = confidence / 3.0

        if stride == 0 or confidence < _ISSUE_CONFIDENCE or degree <= 0:
            return []
        return list(range(line + stride, line + stride * (degree + 1), stride))
