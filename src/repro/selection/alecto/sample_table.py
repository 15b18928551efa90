"""The Sample Table: runtime metrics gathering (paper Section IV-C).

PC-indexed, 64 entries.  Per prefetcher it tracks the number of issued
prefetches ("IssuedByP_i") and the number confirmed useful by the Sandbox
Table ("ConfirmedP_i"); per PC it tracks the Demand Counter that defines
the accuracy epoch (100 demand accesses) and the saturating Dead Counter
that breaks deadlocks where an IA-state PC stops producing prefetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.counters import SaturatingCounter
from repro.common.tables import SetAssociativeTable, TableStats

_COUNTER_CAP = 255  # 8-bit issued/confirmed counters


@dataclass(slots=True)
class SampleEntry:
    """Counters for one memory access instruction."""

    issued: List[int]
    confirmed: List[int]
    demand_counter: int = 0
    dead_counter: SaturatingCounter = field(
        default_factory=lambda: SaturatingCounter(0, 0, 255)
    )

    def accuracy(self, index: int, min_issued: int) -> Optional[float]:
        """Prefetching accuracy of prefetcher ``index`` this epoch.

        Returns None when too few prefetches were issued for the ratio to
        be meaningful.
        """
        issued = self.issued[index]
        if issued < min_issued:
            return None
        return min(1.0, self.confirmed[index] / issued)

    def reset_epoch(self) -> None:
        """Clear the per-epoch counters (the Dead Counter is *not* reset,
        Section IV-C)."""
        for i in range(len(self.issued)):
            self.issued[i] = 0
            self.confirmed[i] = 0
        self.demand_counter = 0


class SampleTable:
    """PC-indexed table of issued/confirmed counters.

    Args:
        num_prefetchers: P.
        num_entries: capacity (64 in Table III).
        epoch_demands: Demand Counter threshold (100, Section IV-C).
        dead_threshold: Dead Counter threshold (150, Section IV-C).
    """

    def __init__(
        self,
        num_prefetchers: int,
        num_entries: int = 64,
        ways: int = 4,
        epoch_demands: int = 100,
        dead_threshold: int = 150,
    ):
        self.num_prefetchers = num_prefetchers
        self.epoch_demands = epoch_demands
        self.dead_threshold = dead_threshold
        self._table: SetAssociativeTable = SetAssociativeTable(
            num_entries, ways=ways, name="sample_table",
            entry_bits=1 + 9 + 16 * num_prefetchers + 7 + 8,
        )

    def _fresh_entry(self) -> SampleEntry:
        return SampleEntry(
            issued=[0] * self.num_prefetchers,
            confirmed=[0] * self.num_prefetchers,
        )

    def entry_for(self, pc: int) -> SampleEntry:
        """Return (inserting if needed) the entry for ``pc``."""
        return self._table.get_or_insert(pc, self._fresh_entry)

    def peek(self, pc: int) -> Optional[SampleEntry]:
        return self._table.peek(pc)

    # -- update rules, on an entry already in hand -------------------------------
    #
    # AlectoSelection.step probes the table once per demand access and
    # applies every update below to that one entry; the PC-keyed methods
    # further down are the same rules behind a probe.

    @staticmethod
    def add_issued(entry: SampleEntry, prefetcher_index: int, count: int = 1) -> None:
        issued = entry.issued
        issued[prefetcher_index] = min(_COUNTER_CAP, issued[prefetcher_index] + count)

    @staticmethod
    def add_confirmed(entry: SampleEntry, prefetcher_indices: List[int]) -> None:
        confirmed = entry.confirmed
        for index in prefetcher_indices:
            confirmed[index] = min(_COUNTER_CAP, confirmed[index] + 1)

    def add_demand(self, entry: SampleEntry) -> bool:
        """Count a demand access; True when the entry's epoch elapses."""
        entry.demand_counter += 1
        return entry.demand_counter >= self.epoch_demands

    #: How much one produced prefetch pays down the Dead Counter.  Burst
    #: prefetchers (PMP replays a whole region on one trigger, then issues
    #: nothing for dozens of accesses) must not look dead between triggers.
    DEAD_REWARD = 16

    def add_prediction_outcome(
        self, entry: SampleEntry, produced_prefetch: bool
    ) -> bool:
        """Update the Dead Counter; True when the deadlock threshold fired.

        The Dead Counter "increments each time Alecto fails to generate a
        prefetch request during a prediction and decreases in other
        situations" (Section IV-C).
        """
        dead = entry.dead_counter
        if produced_prefetch:
            dead.decrement(self.DEAD_REWARD)
            return False
        if dead.increment() >= self.dead_threshold:
            dead.reset(0)
            return True
        return False

    # -- update paths by PC ------------------------------------------------------

    def note_issued(self, pc: int, prefetcher_index: int, count: int = 1) -> None:
        self.add_issued(self.entry_for(pc), prefetcher_index, count)

    def note_confirmed(self, pc: int, prefetcher_index: int) -> None:
        self.add_confirmed(self.entry_for(pc), [prefetcher_index])

    def note_demand(self, pc: int) -> Optional[SampleEntry]:
        """Count a demand access; returns the entry when an epoch elapses.

        The caller (AlectoSelection) runs the Allocation Table state
        transition and then calls :meth:`SampleEntry.reset_epoch`.
        """
        entry = self.entry_for(pc)
        return entry if self.add_demand(entry) else None

    def note_prediction_outcome(self, pc: int, produced_prefetch: bool) -> bool:
        """:meth:`add_prediction_outcome` on ``pc``'s entry."""
        return self.add_prediction_outcome(self.entry_for(pc), produced_prefetch)

    @property
    def stats(self) -> TableStats:
        return self._table.stats

    @property
    def storage_bits(self) -> int:
        return self._table.storage_bits
