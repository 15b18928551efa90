"""DOL-style selection: sequential allocation with static priority.

Fig. 3(a): the coordinator passes each demand request through the
prefetchers in a fixed coverage-ranked order; the first prefetcher able to
handle the request consumes it and the walk stops.  Two inefficiencies the
paper calls out are reproduced faithfully: (1) the static order cannot
pick the most *suitable* prefetcher per PC, and (2) a request destined for
P3 still trains (pollutes) the tables of P1 and P2 on its way through.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, List, Sequence

from repro.common.types import DemandAccess, PrefetchCandidate
from repro.prefetchers.base import Prefetcher, train_grants
from repro.selection.base import AllocationDecision, SelectionAlgorithm, dedupe_by_line
from repro.selection.filters import RecentRequestFilter


class DOLSelection(SelectionAlgorithm):
    """Division-of-labor sequential demand allocation.

    Args:
        prefetchers: walk order (the paper ranks by expected coverage:
            stream, then stride, then spatial).
        degree: degree granted to the prefetcher that handles the request.
    """

    name = "dol"

    def __init__(self, prefetchers: Sequence[Prefetcher], degree: int = 3):
        super().__init__(prefetchers)
        self.degree = degree
        self._filter = RecentRequestFilter()

    def _walk(self, access: DemandAccess) -> Iterator[Prefetcher]:
        """The prefetchers that receive ``access``, in walk order."""
        for prefetcher in self.prefetchers:
            claimed = prefetcher.would_handle(access)
            yield prefetcher
            if claimed:
                # This prefetcher claims the request; the walk stops and
                # later prefetchers never see it.
                return

    def step(self, access: DemandAccess) -> List[PrefetchCandidate]:
        """The composed protocol without its allocation objects."""
        candidates = train_grants(
            access, zip(self._walk(access), repeat(self.degree), repeat(None))
        )
        return self.filter_prefetches(candidates, access)

    def allocate(self, access: DemandAccess) -> List[AllocationDecision]:
        return [
            AllocationDecision(prefetcher=prefetcher, degree=self.degree)
            for prefetcher in self._walk(access)
        ]

    def filter_prefetches(
        self, candidates: List[PrefetchCandidate], access: DemandAccess
    ) -> List[PrefetchCandidate]:
        deduped = dedupe_by_line(candidates, [p.name for p in self.prefetchers])
        return self._filter.admit(deduped)

    @property
    def storage_bits(self) -> int:
        return self._filter.storage_bits


# -- registry factories ----------------------------------------------------

from repro.registry import register_selector  # noqa: E402


@register_selector("dol", doc="sequential allocation with static priority")
def _build_dol(prefetchers, ctx, degree: int = 3):
    return DOLSelection(prefetchers, degree=degree)
