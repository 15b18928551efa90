"""Core value types shared across the simulator, prefetchers and selectors.

Addresses are plain integers (byte addresses).  All cache-visible logic
operates on *line addresses* (byte address >> 6 for 64-byte lines), matching
the configuration in Table I of the paper.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field

CACHE_LINE_BYTES = 64
CACHE_LINE_SHIFT = 6

#: Size of a spatial region in cache lines, used by spatial prefetchers
#: (PMP/SMS lineage) and by region-based workload generators.  4 KB region
#: = 64 lines of 64 bytes.
REGION_LINES = 64
REGION_SHIFT = CACHE_LINE_SHIFT + 6


def line_address(byte_address: int) -> int:
    """Return the cache-line address for a byte address."""
    return byte_address >> CACHE_LINE_SHIFT


def region_address(byte_address: int) -> int:
    """Return the 4 KB spatial-region address for a byte address."""
    return byte_address >> REGION_SHIFT


class AccessType(enum.Enum):
    """Kind of memory access carried by a :class:`DemandAccess`."""

    LOAD = "load"
    STORE = "store"


class DemandAccess(
    namedtuple(
        "DemandAccess",
        ("pc", "address", "access_type", "core_id", "timestamp", "line", "region"),
    )
):
    """A demand request as seen by the L1 data cache.

    This is the unit of work routed through selection algorithms: the paper's
    step 1 sends the (PC, address) pair to the Allocation Table and Sandbox
    Table simultaneously.

    Immutable and tuple-backed, because the simulator builds one per
    access: ``tuple.__new__(DemandAccess, (pc, address, access_type,
    core_id, timestamp, line, region))`` builds it without argument
    parsing when every field is known.

    Attributes:
        pc: address of the memory access instruction.
        address: byte address being accessed.
        access_type: load or store.
        core_id: issuing core (0 in single-core runs).
        timestamp: demand-access sequence number, assigned by the simulator.
        line: cache-line address, precomputed (every prefetcher reads it).
            Defaults to the Table-I 64-byte line space; callers simulating
            a non-default ``CacheConfig.line_bytes`` pass it explicitly.
        region: 4 KB spatial-region address, precomputed.
    """

    __slots__ = ()

    def __new__(
        cls,
        pc: int,
        address: int,
        access_type: AccessType = AccessType.LOAD,
        core_id: int = 0,
        timestamp: int = 0,
        line: int = -1,
        region: int = -1,
    ) -> "DemandAccess":
        if line < 0:
            line = address >> CACHE_LINE_SHIFT
        if region < 0:
            region = address >> REGION_SHIFT
        return tuple.__new__(
            cls, (pc, address, access_type, core_id, timestamp, line, region)
        )


@dataclass(slots=True)
class PrefetchCandidate:
    """A prefetch request proposed by a prefetcher before filtering.

    Attributes:
        line: target cache-line address.
        prefetcher: name of the issuing prefetcher.
        pc: PC of the demand access that triggered training.
        to_next_level: if True the fill is directed at the next cache level
            (Alecto sends the extra ``m + 1`` lines of an ``IA_m`` PC to the
            next level, Section IV-B).
        confidence: issuing prefetcher's own confidence in [0, 1]; used by
            filters such as PPF.
        core_id: issuing core.
    """

    line: int
    prefetcher: str
    pc: int
    to_next_level: bool = False
    confidence: float = 1.0
    core_id: int = 0

    # Filled in by the simulator when the request is accepted.
    issue_cycle: int = field(default=0, compare=False)
