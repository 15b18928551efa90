"""IPCP-style selection: train everything, prioritize outputs statically.

Fig. 3(b): every prefetcher observes every demand request; when several
prefetchers propose requests, a MUX keeps the output of the
highest-priority one (stream > stride > spatial in the paper's
configuration).  The non-selective training is the behaviour Fig. 1
indicts: every PC leaves traces in every table.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Sequence

from repro.common.types import DemandAccess, PrefetchCandidate
from repro.prefetchers.base import Prefetcher, train_grants
from repro.selection.base import AllocationDecision, SelectionAlgorithm
from repro.selection.filters import RecentRequestFilter


class IPCPSelection(SelectionAlgorithm):
    """Static-priority output selection over train-all allocation.

    Args:
        prefetchers: composite prefetcher set, highest priority first.
        degree: prefetching degree granted to every prefetcher.
    """

    name = "ipcp"

    def __init__(self, prefetchers: Sequence[Prefetcher], degree: int = 3):
        super().__init__(prefetchers)
        self.degree = degree
        self._filter = RecentRequestFilter()
        self._priority = [p.name for p in self.prefetchers]

    def step(self, access: DemandAccess) -> List[PrefetchCandidate]:
        """The composed protocol without its allocation objects: every
        prefetcher trains at the one degree, then the output MUX picks."""
        candidates = train_grants(
            access, zip(self.prefetchers, repeat(self.degree), repeat(None))
        )
        return self.filter_prefetches(candidates, access)

    def allocate(self, access: DemandAccess) -> List[AllocationDecision]:
        return [
            AllocationDecision(prefetcher=p, degree=self.degree)
            for p in self.prefetchers
        ]

    def filter_prefetches(
        self, candidates: List[PrefetchCandidate], access: DemandAccess
    ) -> List[PrefetchCandidate]:
        # The output MUX: keep only the highest-priority prefetcher that
        # produced candidates for this request.
        if not candidates:
            return []
        for name in self._priority:
            chosen = [c for c in candidates if c.prefetcher == name]
            if chosen:
                return self._filter.admit(chosen)
        return []

    @property
    def storage_bits(self) -> int:
        return self._filter.storage_bits


# -- registry factories ----------------------------------------------------

from repro.registry import register_selector  # noqa: E402


@register_selector("ipcp", doc="train-all allocation, static output priority")
def _build_ipcp(prefetchers, ctx, degree: int = 3):
    return IPCPSelection(prefetchers, degree=degree)
