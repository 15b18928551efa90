"""AlectoSelection: the full framework wired into the selection protocol.

Process (Fig. 4): a demand request is sent simultaneously to the
Allocation Table (step 1, producing the allocation identifier, step 2) and
to the Sandbox Table (step 4, confirming earlier prefetches, step 5).
Selected prefetchers train and emit candidates (step 3); the Sandbox Table
filters duplicates and routes survivors to the prefetch queue (step 6).

Degree policy (Section IV-B): a UI prefetcher receives the conservative
degree ``c``; an IA_m prefetcher receives ``c + m + 1``, with the first
``c`` lines filled into the prefetcher's own cache level and the remaining
``m + 1`` sent to the next level.  IB prefetchers receive nothing — no
identifier is created for them, so their tables are never touched by the
request (the mechanism behind Fig. 1's table-miss reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.common.types import DemandAccess, PrefetchCandidate
from repro.prefetchers.base import Grant, Prefetcher, train_grants
from repro.selection.alecto.allocation_table import (
    AllocationEntry,
    AllocationTable,
    PrefetcherStates,
)
from repro.selection.alecto.sample_table import SampleEntry, SampleTable
from repro.selection.alecto.sandbox_table import SandboxTable
from repro.selection.alecto.states import PrefetcherState, StateKind
from repro.selection.alecto.storage import alecto_storage_bits
from repro.selection.base import AllocationDecision, SelectionAlgorithm, dedupe_by_line


@dataclass(frozen=True)
class AlectoConfig:
    """Tunable parameters (defaults from Section V-B).

    Attributes:
        conservative_degree: c, degree granted in the UI state (3).
        max_aggressive_level: M, deepest IA sub-state (5).
        block_epochs: N, hard-block duration in epochs (8).
        proficiency_boundary: PB (0.75).
        deficiency_boundary: DB (0.05).
        epoch_demands: demand accesses per accuracy epoch (100).
        dead_threshold: Dead Counter threshold (150).
        allocation_entries / sample_entries / sandbox_entries: table sizes
            (Table III: 64 / 64 / 512).
        fixed_degree: when set, IA prefetchers always receive this degree
            instead of c + m + 1 — the "Alecto_fix" ablation of
            Section VII-A that isolates allocation from degree adjustment.
        db_overrides: per-prefetcher (name, DB) pairs — the CSR-style
            tuning of Section VI-A ("we lowered the DB for PMP").
        degree_overrides: per-prefetcher (name, degree) pairs forcing a
            fixed degree for that prefetcher whenever it is allocated
            ("fixed PMP's prefetching degree in Alecto to 6").
    """

    conservative_degree: int = 3
    max_aggressive_level: int = 5
    block_epochs: int = 8
    proficiency_boundary: float = 0.75
    deficiency_boundary: float = 0.05
    epoch_demands: int = 100
    dead_threshold: int = 150
    allocation_entries: int = 64
    sample_entries: int = 64
    sandbox_entries: int = 512
    min_issued_for_accuracy: int = 4
    fixed_degree: Optional[int] = None
    db_overrides: tuple = ()
    degree_overrides: tuple = ()


class AlectoSelection(SelectionAlgorithm):
    """The paper's prefetcher selection framework."""

    name = "alecto"

    def __init__(
        self,
        prefetchers: Sequence[Prefetcher],
        config: Optional[AlectoConfig] = None,
    ):
        super().__init__(prefetchers)
        self.config = config or AlectoConfig()
        cfg = self.config
        db_map = dict(cfg.db_overrides)
        degree_overrides = dict(cfg.degree_overrides)
        unknown = (set(db_map) | set(degree_overrides)) - {
            p.name for p in self.prefetchers
        }
        if unknown:
            raise ValueError(f"overrides for unknown prefetchers: {sorted(unknown)}")
        self.allocation_table = AllocationTable(
            num_prefetchers=len(self.prefetchers),
            temporal_flags=[p.is_temporal for p in self.prefetchers],
            num_entries=cfg.allocation_entries,
            proficiency_boundary=cfg.proficiency_boundary,
            deficiency_boundary=cfg.deficiency_boundary,
            max_aggressive_level=cfg.max_aggressive_level,
            block_epochs=cfg.block_epochs,
            min_issued_for_accuracy=cfg.min_issued_for_accuracy,
            deficiency_boundaries=[
                db_map.get(p.name, cfg.deficiency_boundary)
                for p in self.prefetchers
            ],
        )
        self.sample_table = SampleTable(
            num_prefetchers=len(self.prefetchers),
            num_entries=cfg.sample_entries,
            epoch_demands=cfg.epoch_demands,
            dead_threshold=cfg.dead_threshold,
        )
        self.sandbox_table = SandboxTable(
            num_prefetchers=len(self.prefetchers),
            num_entries=cfg.sandbox_entries,
        )
        self._index_of = {p.name: i for i, p in enumerate(self.prefetchers)}
        self._prefetcher_names = [p.name for p in self.prefetchers]
        self._degree_overrides_by_index = [
            degree_overrides.get(p.name) for p in self.prefetchers
        ]
        self.epochs_completed = 0
        self.deadlock_resets = 0
        #: (access, Allocation entry, Sample entry) of the last step().
        self._stepped: Optional[tuple] = None

    # -- protocol -----------------------------------------------------------------
    #
    # ``step`` is the simulator's per-access entry point: one pass that
    # probes the Allocation and Sample Tables once each and hands both
    # entries on to ``post_issue``.  The hooks after it apply the same
    # rules (the private helpers below) one protocol step at a time,
    # probing the tables themselves; ``SelectionAlgorithm.step`` composes
    # them, and tests drive them directly.

    def step(self, access: DemandAccess) -> List[PrefetchCandidate]:
        """Fig. 4 steps 1-6 for one demand request, tables probed once."""
        pc = access.pc
        sample_table = self.sample_table
        sample = sample_table.entry_for(pc)
        confirmed = self.sandbox_table.confirm(access.line, pc)
        if confirmed:
            sample_table.add_confirmed(sample, confirmed)
        entry = self.allocation_table.lookup(pc)
        # Degrees come from the states before this access's epoch update.
        grants = entry.states.grants
        if grants is None:
            grants = self._grants(entry.states)
        if sample_table.add_demand(sample):
            self._end_epoch(entry, sample)
        candidates = train_grants(access, grants)
        self._stepped = (access, entry, sample)
        if not candidates:
            return candidates
        return self._filter(candidates, entry.states)

    def observe_demand(self, access: DemandAccess) -> None:
        """Steps 4/5: confirm earlier prefetches hit by this demand."""
        confirmed = self.sandbox_table.confirm(access.line, access.pc)
        if confirmed:
            self.sample_table.add_confirmed(
                self.sample_table.entry_for(access.pc), confirmed
            )

    def allocate(self, access: DemandAccess) -> List[AllocationDecision]:
        """Steps 1/2: produce identifiers from the Allocation Table."""
        entry = self.allocation_table.lookup(access.pc)
        decisions = [
            AllocationDecision(prefetcher, degree, next_level_from)
            for prefetcher, degree, next_level_from in self._grants(entry.states)
        ]
        sample = self.sample_table.entry_for(access.pc)
        if self.sample_table.add_demand(sample):
            self._end_epoch(entry, sample)
        return decisions

    def filter_prefetches(
        self, candidates: List[PrefetchCandidate], access: DemandAccess
    ) -> List[PrefetchCandidate]:
        """Step 6: Sandbox filtering, plus next-level annotation."""
        entry = self.allocation_table.peek(access.pc)
        return self._filter(candidates, entry.states if entry is not None else None)

    def post_issue(
        self, access: DemandAccess, issued: List[PrefetchCandidate]
    ) -> None:
        """Step 3 feedback: update Sandbox and Sample tables."""
        pc = access.pc
        stepped = self._stepped
        if stepped is not None and stepped[0] is access:
            # The request step() just handled: reuse its two entries.
            _, entry, sample = stepped
        else:
            entry = self.allocation_table.peek(pc)
            sample = None
        if issued:
            if sample is None:
                sample = self.sample_table.entry_for(pc)
            record_issue = self.sandbox_table.record_issue
            add_issued = self.sample_table.add_issued
            index_of = self._index_of
            for candidate in issued:
                index = index_of[candidate.prefetcher]
                record_issue(candidate.line, pc, index)
                add_issued(sample, index)

        # Dead-counter deadlock breaking (Section IV-C): only meaningful
        # when the PC claims an aggressive prefetcher yet none produces.
        if entry is None:
            return
        aggressive = entry.states.aggressive
        if aggressive is None:
            aggressive = entry.any_aggressive()
        if aggressive:
            if sample is None:
                sample = self.sample_table.entry_for(pc)
            if self.sample_table.add_prediction_outcome(sample, bool(issued)):
                entry.reset()
                self.deadlock_resets += 1

    # -- rules shared by step() and the hooks -------------------------------------

    def _grants(self, states: PrefetcherStates) -> List[Grant]:
        """Degree policy: ``(prefetcher, degree, next_level_from)`` for each
        prefetcher that receives the request (IB ones get nothing).

        The plan is cached on ``states`` with its "any IA state" flag;
        both are computed again after the states change.
        """
        grants = states.grants
        if grants is not None:
            return grants
        cfg = self.config
        conservative = cfg.conservative_degree
        fixed = cfg.fixed_degree
        overrides = self._degree_overrides_by_index
        prefetchers = self.prefetchers
        grants = []
        aggressive = False
        for index, state in enumerate(states):
            kind = state.kind
            if kind is StateKind.IA:
                aggressive = True
            elif kind is StateKind.IB:
                continue
            override = overrides[index]
            if override is not None:
                grants.append((prefetchers[index], override, None))
            elif kind is StateKind.UI:
                grants.append((prefetchers[index], conservative, None))
            elif fixed is not None:
                grants.append((prefetchers[index], fixed, None))
            else:  # IA_m: c lines here, m + 1 to the next level
                grants.append(
                    (prefetchers[index], conservative + state.level + 1, conservative)
                )
        states.grants = grants
        states.aggressive = aggressive
        return grants

    def _end_epoch(self, entry: AllocationEntry, sample: SampleEntry) -> None:
        """The Demand Counter elapsed: run the Fig. 5 transitions."""
        min_issued = self.config.min_issued_for_accuracy
        self.allocation_table.apply_epoch(
            entry,
            [sample.accuracy(i, min_issued) for i in range(len(self.prefetchers))],
        )
        sample.reset_epoch()
        self.epochs_completed += 1

    def _filter(
        self,
        candidates: List[PrefetchCandidate],
        states: Optional[List[PrefetcherState]],
    ) -> List[PrefetchCandidate]:
        """Dedupe, drop Sandbox duplicates, and send an IA prefetcher's
        candidates past its first ``c`` to the next level."""
        survivors = self.sandbox_table.drop_duplicates(
            dedupe_by_line(candidates, self._prefetcher_names)
        )
        if survivors and states is not None and self.config.fixed_degree is None:
            conservative = self.config.conservative_degree
            index_of = self._index_of
            rank_of: dict = {}
            for candidate in survivors:
                name = candidate.prefetcher
                rank = rank_of.get(name, 0)
                rank_of[name] = rank + 1
                if rank >= conservative and states[index_of[name]].kind is StateKind.IA:
                    candidate.to_next_level = True
        return survivors

    # -- helpers ------------------------------------------------------------------

    def _state_of(self, pc: int, prefetcher_name: str):
        entry = self.allocation_table.peek(pc)
        if entry is None:
            return None
        return entry.states[self._index_of[prefetcher_name]]

    @property
    def storage_bits(self) -> int:
        return alecto_storage_bits(len(self.prefetchers))


# -- registry factories ----------------------------------------------------

from repro.registry import register_selector  # noqa: E402


def _configure(ctx, params, **base_overrides):
    """Merge ctx.alecto_config, registration-time and spec-string params."""
    config = ctx.alecto_config
    overrides = dict(base_overrides)
    overrides.update(params)
    if config is None:
        config = AlectoConfig(**overrides) if overrides else None
    elif params:
        config = replace(config, **params)
    return config


@register_selector("alecto", doc="the paper's selection framework (DDRA + DDA)")
def _build_alecto(prefetchers, ctx, **params):
    return AlectoSelection(prefetchers, _configure(ctx, params))


@register_selector("alecto_fix", doc="Alecto with fixed degree 6 (Sec. VII-A)")
def _build_alecto_fix(prefetchers, ctx, **params):
    selector = AlectoSelection(
        prefetchers, _configure(ctx, params, fixed_degree=6)
    )
    selector.name = "alecto_fix"
    return selector
