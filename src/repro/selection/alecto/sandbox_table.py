"""The Sandbox Table: prefetch tracking and duplicate filtering (Sec. IV-C/D).

Indexed by the prefetched line address; 512 entries.  Each entry stores a
folded-PC tag (the BPU-style XOR fold of the *triggering* PC) and one
valid bit per prefetcher.  It serves three roles:

1. **usefulness confirmation** — a later demand access to a recorded line
   whose PC folds to the stored tag confirms the prefetch for every
   prefetcher whose valid bit is set (feeding the Sample Table);
2. **prefetch filter** — a candidate whose line already has a live entry
   is a duplicate and is dropped (step 6 of Fig. 4);
3. **attribution** — the valid bits tell which prefetchers issued the
   line, so one demand hit can confirm several prefetchers at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common.hashing import fold_pc
from repro.common.tables import SetAssociativeTable, TableStats
from repro.common.types import PrefetchCandidate

_PC_TAG_BITS = 6


@dataclass(slots=True)
class SandboxEntry:
    """Record of a recently issued prefetch line."""

    pc_tag: int
    valid: List[bool] = field(default_factory=list)


class SandboxTable:
    """Address-indexed recent-prefetch table doubling as a filter.

    Args:
        num_prefetchers: P.
        num_entries: capacity (512 in Table III).
    """

    def __init__(self, num_prefetchers: int, num_entries: int = 512, ways: int = 8):
        self.num_prefetchers = num_prefetchers
        self._table: SetAssociativeTable = SetAssociativeTable(
            num_entries, ways=ways, name="sandbox_table",
            entry_bits=_PC_TAG_BITS + num_prefetchers,
        )
        self.duplicates_filtered = 0

    @staticmethod
    def pc_tag(pc: int) -> int:
        return fold_pc(pc, _PC_TAG_BITS)

    # -- recording ---------------------------------------------------------------

    def record_issue(self, line: int, pc: int, prefetcher_index: int) -> None:
        """Log an issued prefetch for ``line`` triggered by ``pc``."""
        entry = self._table.get_or_insert(line, self._new_entry, pc)
        entry.valid[prefetcher_index] = True

    def _new_entry(self, pc: int) -> SandboxEntry:
        return SandboxEntry(
            pc_tag=fold_pc(pc, _PC_TAG_BITS), valid=[False] * self.num_prefetchers
        )

    # -- confirmation -------------------------------------------------------------

    def confirm(self, line: int, pc: int) -> List[int]:
        """Check a demand access against recorded prefetches.

        Returns the prefetcher indices confirmed by this access (empty on
        no match).  Confirmation is one-shot per valid bit: the bit clears
        so one prefetch is confirmed at most once.
        """
        entry = self._table.peek(line)
        if entry is None or entry.pc_tag != self.pc_tag(pc):
            return []
        confirmed = [i for i, bit in enumerate(entry.valid) if bit]
        for i in confirmed:
            entry.valid[i] = False
        return confirmed

    # -- filtering ----------------------------------------------------------------

    def drop_duplicates(
        self, candidates: List[PrefetchCandidate]
    ) -> List[PrefetchCandidate]:
        """The candidates whose line has no live entry (step 6 filter)."""
        peek = self._table.peek
        survivors = [c for c in candidates if peek(c.line) is None]
        self.duplicates_filtered += len(candidates) - len(survivors)
        return survivors

    def is_duplicate(self, line: int) -> bool:
        """True when ``line`` was recently prefetched (step 6 filter)."""
        duplicate = self._table.peek(line) is not None
        if duplicate:
            self.duplicates_filtered += 1
        return duplicate

    def __contains__(self, line: int) -> bool:
        return self._table.peek(line) is not None

    @property
    def stats(self) -> TableStats:
        return self._table.stats

    @property
    def storage_bits(self) -> int:
        return self._table.storage_bits
