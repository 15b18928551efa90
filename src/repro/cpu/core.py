"""Abstract out-of-order core timing model.

An interval-analysis-style model: instructions issue at ``issue_width`` per
cycle; a load that misses the L1 becomes an outstanding miss that blocks
retirement once the ROB fills behind it.  Independent misses therefore
overlap (bounded by the ROB window and the L1 MSHRs), while a
``dependent`` load must wait for the previous miss to complete before it
can even issue — reproducing the MLP-vs-latency-bound split that decides
how much a prefetcher is worth on each workload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

from repro.common.config import SystemConfig


@dataclass(slots=True)
class CoreStats:
    """Retired-instruction and cycle accounting for one core."""

    instructions: int = 0
    cycles: float = 0.0
    loads: int = 0
    stores: int = 0
    l1_miss_stalls: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class CoreModel:
    """ROB/MLP-limited timing model for one core.

    Args:
        config: supplies ROB size, issue width and L1 MSHR count.
    """

    # Latency at or below which an access is considered pipeline-hidden.
    HIT_LATENCY_THRESHOLD = 8

    def __init__(self, config: SystemConfig):
        self.config = config
        self.rob_entries = config.rob_entries
        self.issue_width = config.issue_width
        self.max_outstanding = config.l1d.mshrs
        self.stats = CoreStats()
        # Outstanding misses as ``(completion_cycle, instruction_index)``
        # tuples in program order.  Instruction indices are unique and
        # increase along the deque, so tuple order breaks completion-cycle
        # ties on program order.
        self._misses: Deque[Tuple[float, int]] = deque()

    @property
    def cycle(self) -> int:
        """Current cycle, rounded down for use as a hardware timestamp."""
        return int(self.stats.cycles)

    def _stall_for_oldest(self) -> None:
        """ROB-full stall: wait for the oldest (program-order) miss."""
        completion = self._misses.popleft()[0]
        if completion > self.stats.cycles:
            self.stats.l1_miss_stalls += completion - self.stats.cycles
            self.stats.cycles = completion

    def advance(self, instructions: int) -> None:
        """Issue ``instructions`` non-memory instructions."""
        stats = self.stats
        misses = self._misses
        issue_width = self.issue_width
        if not misses:
            # Fast path: nothing outstanding, no stalls possible.  The
            # arithmetic must match the loop below exactly (one step of
            # size ``instructions``); the simulator's loop inlines it.
            if instructions > 0:
                stats.cycles += instructions / issue_width
                stats.instructions += instructions
            return
        remaining = instructions
        while remaining > 0:
            cycles = stats.cycles
            while misses and misses[0][0] <= cycles:
                misses.popleft()
            if misses:
                headroom = self.rob_entries - (
                    stats.instructions - misses[0][1]
                )
                if headroom <= 0:
                    self._stall_for_oldest()
                    continue
                step = remaining if remaining < headroom else headroom
            else:
                step = remaining
            stats.cycles += step / issue_width
            stats.instructions += step
            remaining -= step

    def memory_access(
        self, latency: int, is_load: bool = True, dependent: bool = False
    ) -> None:
        """Issue one memory instruction whose hierarchy latency is known.

        Args:
            latency: round-trip latency the hierarchy reported.
            is_load: stores never block retirement here (modelled as
                draining through the store queue).
            dependent: the access waits for the previous outstanding miss
                before issuing (pointer chase).
        """
        stats = self.stats
        misses = self._misses
        if dependent and misses:
            # Serialise behind the most recent miss.
            newest = max(misses)[0]
            if newest > stats.cycles:
                stats.l1_miss_stalls += newest - stats.cycles
                stats.cycles = newest
            misses.clear()
        if misses:
            # advance(1) inlined: retire what has completed and stall
            # while the ROB is full behind the oldest miss.
            rob_entries = self.rob_entries
            while True:
                cycles = stats.cycles
                while misses and misses[0][0] <= cycles:
                    misses.popleft()
                if not misses or rob_entries - (
                    stats.instructions - misses[0][1]
                ) > 0:
                    break
                self._stall_for_oldest()
        stats.cycles += 1 / self.issue_width
        stats.instructions += 1
        if is_load:
            stats.loads += 1
        else:
            stats.stores += 1
            return
        if latency <= self.HIT_LATENCY_THRESHOLD:
            return
        cycles = stats.cycles
        while misses and misses[0][0] <= cycles:
            misses.popleft()
        while len(misses) >= self.max_outstanding:
            # MSHR-full stall: MSHRs free in completion order, so wait only
            # for the earliest-completing miss (the oldest one on a tie).
            earliest = min(misses)
            misses.remove(earliest)
            completion = earliest[0]
            if completion > stats.cycles:
                stats.l1_miss_stalls += completion - stats.cycles
                stats.cycles = completion
        misses.append((stats.cycles + latency, stats.instructions))

    def drain(self) -> None:
        """Wait for all outstanding misses (end-of-trace cleanup)."""
        while self._misses:
            self._stall_for_oldest()
