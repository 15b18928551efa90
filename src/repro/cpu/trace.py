"""Trace record format and helpers.

A trace models the committed instruction stream projected onto its memory
accesses: every record is one memory instruction plus the count of
non-memory instructions committed since the previous one.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, List, Sequence

from repro.common.types import AccessType


class TraceRecord(
    namedtuple(
        "TraceRecord",
        ("pc", "address", "access_type", "nonmem_before", "dependent"),
        defaults=(AccessType.LOAD, 3, False),
    )
):
    """One memory instruction in a committed-instruction trace.

    Immutable and tuple-backed, as :class:`~repro.common.types.DemandAccess`
    is: the decoders and generators build one per record with
    ``tuple.__new__(TraceRecord, (pc, address, access_type, nonmem_before,
    dependent))``, which skips argument parsing, and the simulator unpacks
    it in its ``for`` statement.  Keyword construction with the defaults
    below works as for any named tuple.

    Attributes:
        pc: address of the memory instruction.
        address: byte address accessed.
        access_type: load or store (default load).
        nonmem_before: non-memory instructions committed since the previous
            memory instruction (default 3).
        dependent: True when the address depends on the previous load's
            value (pointer chasing); such a load cannot overlap with the
            previous miss (default False).
    """

    __slots__ = ()

    @property
    def instructions(self) -> int:
        """Committed instructions this record accounts for (itself included)."""
        return self.nonmem_before + 1


def interleave_traces(traces: Sequence[Sequence[TraceRecord]]) -> Iterator[tuple]:
    """Round-robin interleave per-core traces for lockstep multi-core runs.

    Yields ``(core_id, record)`` pairs.  Cores with exhausted traces drop
    out; iteration ends when every trace is consumed.
    """
    iterators: List[Iterator[TraceRecord]] = [iter(t) for t in traces]
    active = list(range(len(iterators)))
    while active:
        finished = []
        for core_id in active:
            try:
                yield core_id, next(iterators[core_id])
            except StopIteration:
                finished.append(core_id)
        for core_id in finished:
            active.remove(core_id)
