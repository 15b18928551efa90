"""Interface every selection algorithm implements, and shared plumbing.

A selector handles each demand request through a fixed protocol
mirroring the paper's Fig. 4 data flow:

1. ``observe_demand(access)`` — the request is visible to bookkeeping
   structures (Alecto's Sandbox/Sample tables) before any allocation.
2. ``allocate(access)`` — decide which prefetchers receive the request for
   training and at what degree.
3. The chosen prefetchers train and emit candidates.
4. ``filter_prefetches(candidates, access)`` — dedupe / filter / annotate
   the batch; what survives is issued to the hierarchy.
5. ``post_issue(access, issued)`` — feedback on what was actually issued.

The simulator makes one call for steps 1-4: ``step(access)`` returns the
batch to issue.  Its base implementation composes the four hooks in
order, so a selector only implements the hooks; those on the hot path
override ``step`` with a single pass that applies the same rules (Alecto
probes each table once; IPCP, DOL and Bandit skip the allocation
objects), and must return the same batch and leave the same state.  The
simulator then issues the batch and calls ``post_issue``.

Step 3 is one training pass over the whole allocation, whichever path
got there: every ``step`` hands its ``(prefetcher, degree,
next_level_from)`` grants to :func:`~repro.prefetchers.base.train_grants`,
the only copy of the training rule (occurrence counting, the
``max_degree`` clamp, candidate construction and next-level marking).
``Prefetcher.train`` is the same pass for one prefetcher.

Asynchronous events arrive via ``observe_prefetch_used`` /
``observe_prefetch_evicted`` (first demand hit on, or unused eviction of,
a prefetched line) and ``performance_sample`` (committed-instruction
reward for RL schemes).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.types import (
    CACHE_LINE_BYTES,
    CACHE_LINE_SHIFT,
    REGION_SHIFT,
    DemandAccess,
    PrefetchCandidate,
)
from repro.memory.cache import PrefetchRecord
from repro.prefetchers.base import Prefetcher, train_grants


@dataclass(slots=True)
class AllocationDecision:
    """One prefetcher's share of a demand request."""

    prefetcher: Prefetcher
    degree: int
    #: Candidates at position >= this index fill the next cache level
    #: (None means all fill the prefetcher's own level).
    next_level_from: Optional[int] = None


class SelectionAlgorithm(abc.ABC):
    """Base class for prefetcher selection algorithms."""

    name: str = "selection"

    def __init__(self, prefetchers: Sequence[Prefetcher]):
        if not prefetchers:
            raise ValueError("at least one prefetcher is required")
        self.prefetchers = list(prefetchers)
        self._by_name: Dict[str, Prefetcher] = {p.name: p for p in prefetchers}
        if len(self._by_name) != len(self.prefetchers):
            raise ValueError("prefetcher names must be unique")
        # Line geometry of the simulated system; the simulator overrides
        # it (set_line_bytes) for non-Table-I CacheConfig.line_bytes.
        self.line_bytes = CACHE_LINE_BYTES
        self.line_shift = CACHE_LINE_SHIFT

    def prefetcher(self, name: str) -> Prefetcher:
        return self._by_name[name]

    # -- line geometry ------------------------------------------------------

    def set_line_bytes(self, line_bytes: int) -> None:
        """Adopt the simulated system's cache-line size.

        Called by the simulator before the run starts, so selectors that
        convert between line and byte addresses (temporal shadow
        training, PPF's region feature) use ``CacheConfig.line_bytes``
        instead of assuming 64-byte lines.  Selectors wrapping an inner
        selector override this to forward the geometry.
        """
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError(
                f"line_bytes must be a positive power of two, got {line_bytes}"
            )
        self.line_bytes = line_bytes
        self.line_shift = line_bytes.bit_length() - 1

    @property
    def region_line_shift(self) -> int:
        """Shift turning a line address into its 4 KB-region address."""
        return max(0, REGION_SHIFT - self.line_shift)

    # -- protocol ----------------------------------------------------------

    def step(self, access: DemandAccess) -> List[PrefetchCandidate]:
        """Steps 1-4 for one demand request: the candidates to issue.

        Trains the allocated prefetchers in one :func:`train_grants` pass
        and returns what ``filter_prefetches`` keeps.
        """
        self.observe_demand(access)
        candidates = train_grants(access, [
            (decision.prefetcher, decision.degree, decision.next_level_from)
            for decision in self.allocate(access)
        ])
        return self.filter_prefetches(candidates, access)

    def observe_demand(self, access: DemandAccess) -> None:
        """Step 1: the demand request becomes visible to bookkeeping."""

    @abc.abstractmethod
    def allocate(self, access: DemandAccess) -> List[AllocationDecision]:
        """Step 2: choose the prefetchers that receive this request."""

    def filter_prefetches(
        self, candidates: List[PrefetchCandidate], access: DemandAccess
    ) -> List[PrefetchCandidate]:
        """Step 4: final filtering of the candidate batch (default: pass)."""
        return candidates

    def post_issue(
        self, access: DemandAccess, issued: List[PrefetchCandidate]
    ) -> None:
        """Step 5: observe what was actually issued."""

    # -- asynchronous feedback ----------------------------------------------

    def observe_prefetch_used(self, record: PrefetchRecord, timely: bool) -> None:
        """A prefetched line received its first demand hit."""

    def observe_prefetch_evicted(self, record: PrefetchRecord) -> None:
        """A prefetched line was evicted before any demand use."""

    def performance_sample(self, instructions: int, cycles: float) -> None:
        """Periodic committed-instruction sample (reward for RL schemes)."""

    @property
    def needs_reward(self) -> bool:
        """True when the selector wants a performance sample this cycle."""
        return False

    # -- accounting -----------------------------------------------------------

    @property
    def storage_bits(self) -> int:
        """Metadata storage of the selection mechanism itself (not the
        prefetcher tables)."""
        return 0

    @property
    def training_occurrences(self) -> Dict[str, int]:
        """Per-prefetcher training counts (Fig. 18)."""
        return {p.name: p.training_occurrences for p in self.prefetchers}

    @property
    def table_misses(self) -> int:
        """Total prefetcher-table misses across scheduled prefetchers (Fig. 1)."""
        return sum(p.table_stats.misses for p in self.prefetchers)

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.prefetchers)
        return f"{type(self).__name__}(prefetchers=[{names}])"


def dedupe_by_line(
    candidates: List[PrefetchCandidate], priority: Sequence[str]
) -> List[PrefetchCandidate]:
    """Keep one candidate per target line, preferring earlier ``priority``.

    Used by IPCP's output MUX and by the generic batch dedupe of every
    selector (two prefetchers proposing the same line must not issue two
    fills).
    """
    rank = {name: i for i, name in enumerate(priority)}
    unranked = len(rank)
    rank_get = rank.get
    best: Dict[int, PrefetchCandidate] = {}
    for candidate in candidates:
        current = best.get(candidate.line)
        if current is None or rank_get(candidate.prefetcher, unranked) < rank_get(
            current.prefetcher, unranked
        ):
            best[candidate.line] = candidate
    # Preserve original order of the survivors.
    return [c for c in candidates if best.get(c.line) is c]
