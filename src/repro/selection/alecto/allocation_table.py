"""The Allocation Table: fine-grained prefetcher identification (Sec. IV-A).

A 64-entry, PC-indexed table whose entries hold one
:class:`~repro.selection.alecto.states.PrefetcherState` per prefetcher.
``epoch_update`` implements the full state machine of Fig. 5, including
the temporal-prefetcher exception of event ① (Section IV-F): when several
prefetchers qualify for promotion and one of them is temporal, the
non-temporal ones are promoted and the temporal one is blocked, conserving
temporal metadata storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.common.tables import SetAssociativeTable, TableStats
from repro.selection.alecto.states import PrefetcherState, StateKind


class PrefetcherStates(list):
    """One PC's per-prefetcher states, plus what is derived from them.

    ``grants`` (the selector's degree plan, see
    ``AlectoSelection._grants``) and ``aggressive`` (any IA state) start
    as None, are filled on first use, and are cleared by every mutation
    of the list, so writes such as ``entry.states[i] = state`` keep them
    correct.  States are replaced, never changed in place.
    """

    __slots__ = ("grants", "aggressive")

    def __init__(self, states: Iterable[PrefetcherState] = ()):
        list.__init__(self, states)
        self.grants = None
        self.aggressive = None


def _clearing(method):
    def mutate(self, *args, **kwargs):
        self.grants = self.aggressive = None
        return method(self, *args, **kwargs)

    mutate.__name__ = method.__name__
    mutate.__doc__ = method.__doc__
    return mutate


for _name in (
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
    "insert", "pop", "remove", "clear", "sort", "reverse",
):
    setattr(PrefetcherStates, _name, _clearing(getattr(list, _name)))


@dataclass(slots=True)
class AllocationEntry:
    """States of all prefetchers for one memory access instruction."""

    states: PrefetcherStates = field(default_factory=PrefetcherStates)

    def reset(self) -> None:
        """Dead-counter escape hatch: return all prefetchers to UI."""
        self.states = PrefetcherStates([PrefetcherState.ui() for _ in self.states])

    def any_aggressive(self) -> bool:
        """True when some prefetcher is in an IA state (cached per states)."""
        states = self.states
        aggressive = states.aggressive
        if aggressive is None:
            aggressive = False
            for state in states:
                if state.kind is StateKind.IA:
                    aggressive = True
                    break
            states.aggressive = aggressive
        return aggressive


class AllocationTable:
    """PC-indexed state table driving demand request allocation.

    Args:
        num_prefetchers: P, the number of scheduled prefetchers.
        temporal_flags: per-prefetcher "is temporal" markers, for the
            event-① exception.
        num_entries: table capacity (64 in Table III).
        proficiency_boundary: PB; accuracy at or above promotes (0.75).
        deficiency_boundary: DB; accuracy below blocks hard (0.05).
        max_aggressive_level: M, the deepest IA sub-state (5).
        block_epochs: N; a hard block starts at IB_-N (8).
        min_issued_for_accuracy: minimum issued prefetches in an epoch for
            the accuracy estimate to be trusted.
    """

    def __init__(
        self,
        num_prefetchers: int,
        temporal_flags: Sequence[bool],
        num_entries: int = 64,
        ways: int = 4,
        proficiency_boundary: float = 0.75,
        deficiency_boundary: float = 0.05,
        max_aggressive_level: int = 5,
        block_epochs: int = 8,
        min_issued_for_accuracy: int = 4,
        deficiency_boundaries: Optional[Sequence[float]] = None,
    ):
        if len(temporal_flags) != num_prefetchers:
            raise ValueError("temporal_flags must have one flag per prefetcher")
        if not 0.0 <= deficiency_boundary <= proficiency_boundary <= 1.0:
            raise ValueError("require 0 <= DB <= PB <= 1")
        if deficiency_boundaries is not None and len(deficiency_boundaries) != (
            num_prefetchers
        ):
            raise ValueError("need one deficiency boundary per prefetcher")
        self.num_prefetchers = num_prefetchers
        self.temporal_flags = list(temporal_flags)
        self.proficiency_boundary = proficiency_boundary
        self.deficiency_boundary = deficiency_boundary
        # Per-prefetcher DB overrides: the CSR-style tuning of Section
        # VI-A ("we lowered the DB for PMP ... to fine-tune Alecto's
        # behavior on specific workloads").
        self.deficiency_boundaries = (
            list(deficiency_boundaries)
            if deficiency_boundaries is not None
            else [deficiency_boundary] * num_prefetchers
        )
        self.max_aggressive_level = max_aggressive_level
        self.block_epochs = block_epochs
        self.min_issued_for_accuracy = min_issued_for_accuracy
        self._table: SetAssociativeTable = SetAssociativeTable(
            num_entries, ways=ways, name="allocation_table",
            entry_bits=1 + 9 + 4 * num_prefetchers,
        )

    # -- access ----------------------------------------------------------------

    def _fresh_entry(self) -> AllocationEntry:
        return AllocationEntry(PrefetcherStates(
            [PrefetcherState.ui() for _ in range(self.num_prefetchers)]
        ))

    def lookup(self, pc: int) -> AllocationEntry:
        """Return the entry for ``pc``, inserting a fresh all-UI one on miss."""
        return self._table.get_or_insert(pc, self._fresh_entry)

    def peek(self, pc: int) -> Optional[AllocationEntry]:
        return self._table.peek(pc)

    def reset_states(self, pc: int) -> None:
        """Dead-counter escape hatch: return all prefetchers to UI."""
        entry = self._table.peek(pc)
        if entry is not None:
            entry.reset()

    @property
    def stats(self) -> TableStats:
        return self._table.stats

    @property
    def storage_bits(self) -> int:
        return self._table.storage_bits

    # -- the state machine -------------------------------------------------------

    def epoch_update(
        self, pc: int, accuracies: Sequence[Optional[float]]
    ) -> None:
        """Apply one epoch's accuracy observations to ``pc``'s states.

        Args:
            accuracies: per-prefetcher accuracy over the finished epoch, or
                None when the prefetcher issued too few prefetches for the
                estimate to mean anything.
        """
        entry = self._table.peek(pc)
        if entry is not None:
            self.apply_epoch(entry, accuracies)

    def apply_epoch(
        self, entry: AllocationEntry, accuracies: Sequence[Optional[float]]
    ) -> None:
        """:meth:`epoch_update` on an entry already in hand."""
        states = entry.states
        pb = self.proficiency_boundary
        # Each prefetcher takes at most one transition per epoch.
        settled = set()

        # Event 1: promotion out of UI when one or more prefetchers clear
        # PB; every other UI prefetcher is blocked at IB_0.
        promotable = [
            i
            for i, state in enumerate(states)
            if state.is_ui
            and accuracies[i] is not None
            and accuracies[i] >= pb
        ]
        if promotable:
            # Temporal exception (Section IV-F): prefer non-temporal
            # prefetchers; block the temporal one to conserve metadata.
            non_temporal = [i for i in promotable if not self.temporal_flags[i]]
            demoted_temporals = []
            if non_temporal and len(promotable) > len(non_temporal):
                demoted_temporals = [
                    i for i in promotable if self.temporal_flags[i]
                ]
                promotable = non_temporal
            for i in promotable:
                states[i] = PrefetcherState.ia(0)
                settled.add(i)
            for i in demoted_temporals:
                states[i] = PrefetcherState.ib(0)
                settled.add(i)
            for i, state in enumerate(states):
                if state.is_ui and i not in promotable:
                    states[i] = PrefetcherState.ib(0)
                    settled.add(i)
        else:
            # Event 3: hard block of clearly inaccurate UI prefetchers.
            for i, state in enumerate(states):
                if (
                    state.is_ui
                    and accuracies[i] is not None
                    and accuracies[i] < self.deficiency_boundaries[i]
                ):
                    states[i] = PrefetcherState.ib(-self.block_epochs)
                    settled.add(i)

        # Events 2 and 4: IA promotion/demotion.
        for i, state in enumerate(states):
            if i in settled or not state.is_aggressive:
                continue
            accuracy = accuracies[i]
            if accuracy is not None and accuracy >= pb:
                states[i] = PrefetcherState.ia(
                    min(state.level + 1, self.max_aggressive_level)
                )
            elif state.level > 0:
                states[i] = PrefetcherState.ia(state.level - 1)
            else:
                states[i] = PrefetcherState.ui()  # event 2

        # IB cooling: IB_n -> IB_n+1 each epoch until IB_0.
        for i, state in enumerate(states):
            if i in settled:
                continue
            if state.is_blocked and state.level < 0:
                states[i] = PrefetcherState.ib(state.level + 1)

        # Reassessment: when nothing is aggressive any more, prefetchers
        # that have cooled down to IB_0 return to UI (events 2/3 text).
        if not entry.any_aggressive():
            for i, state in enumerate(states):
                if state.is_blocked and state.level == 0:
                    states[i] = PrefetcherState.ui()
