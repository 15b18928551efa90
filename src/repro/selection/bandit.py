"""Micro-Armed-Bandit selection (Gerogiannis & Torrellas, MICRO'23).

Fig. 3(c): an online multi-armed bandit picks a *degree vector* for the
whole prefetcher ensemble; the reward is the number of committed
instructions observed over a sampling epoch.  Every prefetcher still
trains on every demand request — the bandit only shapes outputs, which is
the first limitation the paper targets.

Per Section V-B, each prefetcher's degree is restricted to {0, X}; with
three prefetchers this yields 2^3 = 8 arms (Bandit3: X=3, Bandit6: X=6).
Section VI-H extends the action space to the M+3 degree values Alecto can
express, giving (M+3)^P arms and demonstrating the storage/convergence
blowup (:class:`ExtendedBanditSelection`).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence, Tuple

from repro.common.types import DemandAccess, PrefetchCandidate
from repro.prefetchers.base import Prefetcher, train_grants
from repro.selection.base import AllocationDecision, SelectionAlgorithm, dedupe_by_line
from repro.selection.filters import RecentRequestFilter

#: Storage cost per arm in bits (8 bytes per arm, Section VI-H).
ARM_STORAGE_BITS = 64

#: Bounded optimistic initial value for never-pulled arms in the greedy
#: branch.  The reward is IPC over an epoch, which the modelled 4-wide
#: commit core caps at 4.0, so 8.0 still guarantees every arm is tried
#: before the bandit settles — but unlike the unbounded ``float("inf")``
#: it is a representable saturating counter in hardware, and an arm whose
#: *measured* value exceeds the bound is (correctly) preferred over
#: exploration the epsilon schedule did not ask for.
OPTIMISTIC_INIT = 8.0


class BanditSelection(SelectionAlgorithm):
    """Epsilon-greedy multi-armed bandit over degree vectors.

    Args:
        prefetchers: composite prefetcher set.
        degree: the non-zero degree value X ({0, X} per prefetcher).
        epoch_accesses: demand accesses per decision epoch.
        epsilon: initial exploration probability (decays multiplicatively).
        optimistic_init: greedy-branch value assumed for never-pulled arms
            (:data:`OPTIMISTIC_INIT`).  Chosen above the achievable IPC
            reward range, so unexplored arms are systematically tried
            first; bounded, so a measured value can outrank optimism and
            the documented epsilon schedule governs exploration afterwards.
        seed: RNG seed for reproducible arm exploration.
        train_on_prefetches: when True, issued prefetch addresses also
            train the prefetchers (the Fig. 7(a) temporal configuration
            where the L2 temporal prefetcher observes L1 prefetch fills).
    """

    name = "bandit"

    def __init__(
        self,
        prefetchers: Sequence[Prefetcher],
        degree: int = 6,
        epoch_accesses: int = 400,
        epsilon: float = 0.10,
        epsilon_decay: float = 0.97,
        epsilon_floor: float = 0.03,
        optimistic_init: float = OPTIMISTIC_INIT,
        seed: int = 7,
        train_on_prefetches: bool = False,
        arms: Sequence[Tuple[int, ...]] = None,
    ):
        super().__init__(prefetchers)
        self.degree = degree
        self.epoch_accesses = epoch_accesses
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.epsilon_floor = epsilon_floor
        self.optimistic_init = optimistic_init
        self.train_on_prefetches = train_on_prefetches
        self._rng = random.Random(seed)
        if arms is None:
            arms = list(itertools.product((0, degree), repeat=len(self.prefetchers)))
        self.arms: List[Tuple[int, ...]] = list(arms)
        self._arm_value: Dict[Tuple[int, ...], float] = {}
        self._arm_pulls: Dict[Tuple[int, ...], int] = {}
        # Start fully on: all prefetchers at degree X.
        self._current_arm = self.arms[-1]
        self._accesses_in_epoch = 0
        self._last_instructions = 0
        self._last_cycles = 0.0
        self._pending_reward = False
        self._filter = RecentRequestFilter()
        self._priority = [p.name for p in self.prefetchers]

    # -- bandit core -----------------------------------------------------------

    def _select_arm(self) -> Tuple[int, ...]:
        if self._rng.random() < self.epsilon or not self._arm_value:
            return self._rng.choice(self.arms)
        # Never-pulled arms default to the bounded optimistic value, not
        # float("inf"): within the reward range they are still explored
        # first, but a measured value above the bound wins, keeping the
        # epsilon schedule the only open-ended exploration mechanism.
        optimistic = self.optimistic_init
        return max(
            self.arms,
            key=lambda arm: self._arm_value.get(arm, optimistic),
        )

    def _reward_arm(self, arm: Tuple[int, ...], reward: float) -> None:
        pulls = self._arm_pulls.get(arm, 0) + 1
        self._arm_pulls[arm] = pulls
        previous = self._arm_value.get(arm, 0.0)
        # Incremental mean with a mild recency bias for non-stationarity.
        step = max(1.0 / pulls, 0.1)
        self._arm_value[arm] = previous + step * (reward - previous)

    def performance_sample(self, instructions: int, cycles: float) -> None:
        """Committed-instruction feedback from the core (the reward)."""
        if not self._pending_reward:
            self._last_instructions = instructions
            self._last_cycles = cycles
            return
        delta_cycles = cycles - self._last_cycles
        if delta_cycles > 0:
            reward = (instructions - self._last_instructions) / delta_cycles
            self._reward_arm(self._current_arm, reward)
        self._last_instructions = instructions
        self._last_cycles = cycles
        self._current_arm = self._select_arm()
        self.epsilon = max(self.epsilon_floor, self.epsilon * self.epsilon_decay)
        self._pending_reward = False

    # -- selection protocol -------------------------------------------------------

    def _count_access(self) -> None:
        """One demand access of the epoch; the last one asks for a reward."""
        self._accesses_in_epoch += 1
        if self._accesses_in_epoch >= self.epoch_accesses:
            self._accesses_in_epoch = 0
            self._pending_reward = True

    def step(self, access: DemandAccess) -> List[PrefetchCandidate]:
        """The composed protocol without its allocation objects: every
        prefetcher trains at its degree in the current arm, and the
        batch is filtered as :meth:`filter_prefetches` does."""
        self._count_access()
        candidates = train_grants(
            access, zip(self.prefetchers, self._current_arm, itertools.repeat(None))
        )
        return self.filter_prefetches(candidates, access)

    def allocate(self, access: DemandAccess) -> List[AllocationDecision]:
        self._count_access()
        return [
            AllocationDecision(prefetcher=p, degree=arm_degree)
            for p, arm_degree in zip(self.prefetchers, self._current_arm)
        ]

    def filter_prefetches(
        self, candidates: List[PrefetchCandidate], access: DemandAccess
    ) -> List[PrefetchCandidate]:
        deduped = dedupe_by_line(candidates, self._priority)
        return self._filter.admit(deduped)

    def post_issue(
        self, access: DemandAccess, issued: List[PrefetchCandidate]
    ) -> None:
        if not self.train_on_prefetches or not issued:
            return
        # Fig. 7(a)/(b): temporal prefetchers at L2 observe the L2 access
        # stream, which includes L1 prefetch requests.
        line_shift = self.line_shift
        region_line_shift = self.region_line_shift
        for prefetcher in self.prefetchers:
            if not prefetcher.is_temporal:
                continue
            for candidate in issued:
                if candidate.prefetcher == prefetcher.name:
                    continue
                shadow = DemandAccess(
                    pc=candidate.pc,
                    address=candidate.line << line_shift,
                    core_id=access.core_id,
                    timestamp=access.timestamp,
                    line=candidate.line,
                    region=candidate.line >> region_line_shift,
                )
                prefetcher.train(shadow, degree=0)

    @property
    def needs_reward(self) -> bool:
        return self._pending_reward

    @property
    def storage_bits(self) -> int:
        return len(self.arms) * ARM_STORAGE_BITS + self._filter.storage_bits


def make_bandit3(prefetchers: Sequence[Prefetcher], **kwargs) -> BanditSelection:
    """Bandit with X = 3 (the paper's Bandit3)."""
    bandit = BanditSelection(prefetchers, degree=3, **kwargs)
    bandit.name = "bandit3"
    return bandit


def make_bandit6(prefetchers: Sequence[Prefetcher], **kwargs) -> BanditSelection:
    """Bandit with X = 6 (the paper's Bandit6)."""
    bandit = BanditSelection(prefetchers, degree=6, **kwargs)
    bandit.name = "bandit6"
    return bandit


class ExtendedBanditSelection(BanditSelection):
    """Bandit with Alecto's full degree alphabet: (M+3)^P arms.

    Section VI-H: degrees per prefetcher take the M+3 values
    {0, c, c+1, ..., c+M+1}; with P = 3 and M = 5 this is 512 arms / 4 KB
    of arm storage, and the bandit "struggles to converge when too many
    actions are considered".
    """

    name = "bandit_extended"

    def __init__(
        self,
        prefetchers: Sequence[Prefetcher],
        conservative_degree: int = 3,
        max_boost: int = 5,
        **kwargs,
    ):
        degrees = (0,) + tuple(
            conservative_degree + i for i in range(max_boost + 2)
        )
        arms = list(itertools.product(degrees, repeat=len(prefetchers)))
        super().__init__(prefetchers, arms=arms, **kwargs)


# -- registry factories ----------------------------------------------------

from repro.registry import register_selector  # noqa: E402


@register_selector("bandit3", doc="Micro-Armed Bandit, X = 3")
def _build_bandit3(prefetchers, ctx):
    return make_bandit3(prefetchers, train_on_prefetches=ctx.with_temporal)


@register_selector("bandit6", doc="Micro-Armed Bandit, X = 6")
def _build_bandit6(prefetchers, ctx):
    return make_bandit6(prefetchers, train_on_prefetches=ctx.with_temporal)


@register_selector("bandit_ext", doc="Bandit over Alecto's action space (Sec. VI-H)")
def _build_bandit_ext(prefetchers, ctx, conservative_degree: int = 3, max_boost: int = 5):
    return ExtendedBanditSelection(
        prefetchers,
        conservative_degree=conservative_degree,
        max_boost=max_boost,
    )
