"""The prefetcher interface all concrete prefetchers implement."""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.tables import SetAssociativeTable, TableStats
from repro.common.types import DemandAccess, PrefetchCandidate


class Prefetcher(abc.ABC):
    """A hardware cache prefetcher.

    Training and prediction are deliberately fused in one call — the paper
    observes that "the generation of prefetching requests is inherently
    linked to the training process" (Section I), which is exactly why
    controlling *training* (demand request allocation) controls output.

    Attributes:
        name: stable identifier used in ledgers and reports.
        is_temporal: True for temporal prefetchers; Alecto's event-①
            exception (Section IV-F) treats these specially.
        fills_next_level: True when the prefetcher resides at the next
            cache level (the L2 temporal prefetcher of Section V-C), so
            its fills land there rather than in the L1.
        max_degree: hard cap on the degree a selector may grant (the
            temporal prefetcher is limited to one prefetch per training
            occurrence in the Section V-C methodology).
    """

    name: str = "prefetcher"
    is_temporal: bool = False
    fills_next_level: bool = False
    max_degree = None  # type: int | None

    def __init__(self) -> None:
        self.training_occurrences = 0

    @abc.abstractmethod
    def _train(self, access: DemandAccess, degree: int) -> List[int]:
        """Update internal tables for ``access``; return predicted lines.

        Returns at most ``degree`` cache-line addresses, nearest first.
        """

    def train(self, access: DemandAccess, degree: int) -> List[PrefetchCandidate]:
        """Train on a demand request and emit prefetch candidates.

        The one-prefetcher form of :func:`train_grants`; selectors train
        their whole allocation in one call to that function instead.

        Args:
            access: the allocated demand request.
            degree: maximum number of prefetches to emit; a degree of zero
                still trains the tables (Bandit's "off" arms suppress
                output, not training).
        """
        return train_grants(access, ((self, degree, None),))

    def would_handle(self, access: DemandAccess) -> bool:
        """Non-destructive pattern-match probe used by DOL's coordinator.

        Default: claim everything (a greedy prefetcher).  Subclasses check
        their tables without training.
        """
        return True

    def prediction_confidence(self) -> float:
        """Confidence of the most recent prediction, in [0, 1]."""
        return 1.0

    @abc.abstractmethod
    def tables(self) -> Sequence[SetAssociativeTable]:
        """Internal tables, for uniform miss/storage accounting."""

    @property
    def table_stats(self) -> TableStats:
        """Merged statistics over all internal tables."""
        merged = TableStats()
        for table in self.tables():
            merged = merged.merge(table.stats)
        return merged

    @property
    def storage_bits(self) -> int:
        return sum(table.storage_bits for table in self.tables())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


#: One prefetcher's share of a demand request: ``(prefetcher, degree,
#: next_level_from)``.  Candidates at position >= ``next_level_from`` fill
#: the next cache level; None leaves them at the prefetcher's own level.
Grant = Tuple[Prefetcher, int, Optional[int]]


def train_grants(
    access: DemandAccess, grants: Iterable[Grant]
) -> List[PrefetchCandidate]:
    """Train every granted prefetcher on ``access``, in order; return the
    candidates they emit.

    This is the single copy of the training rule.  Each prefetcher counts
    one training occurrence and trains at its degree clamped to
    ``max_degree``; a degree of zero trains but emits nothing.  Its
    ``prediction_confidence`` is read only when lines came back, and its
    first ``degree`` lines become candidates, marked for the next level
    when the prefetcher ``fills_next_level`` or their position is at or
    past ``next_level_from``.
    """
    candidates: List[PrefetchCandidate] = []
    append = candidates.append
    pc = access.pc
    core_id = access.core_id
    for prefetcher, degree, next_level_from in grants:
        prefetcher.training_occurrences += 1
        max_degree = prefetcher.max_degree
        if max_degree is not None and degree > max_degree:
            degree = max_degree
        lines = prefetcher._train(access, degree)
        if not lines or degree <= 0:
            continue
        confidence = prefetcher.prediction_confidence()
        name = prefetcher.name
        to_next_level = prefetcher.fills_next_level
        if next_level_from is None or to_next_level:
            for line in lines[:degree]:
                append(PrefetchCandidate(
                    line, name, pc, to_next_level, confidence, core_id
                ))
        else:
            for position, line in enumerate(lines[:degree]):
                append(PrefetchCandidate(
                    line, name, pc, position >= next_level_from, confidence,
                    core_id,
                ))
    return candidates
