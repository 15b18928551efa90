"""Benchmark profiles: declarative pattern mixtures that generate traces."""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.common.hashing import stable_hash
from repro.common.types import AccessType
from repro.cpu.trace import TraceRecord
from repro.workloads.patterns import Pattern, make_pattern

#: Base of the synthetic PC space; patterns get well-separated PCs.
_PC_BASE = 0x400000
_PC_STRIDE = 0x1000
#: Base of each pattern's private address space so footprints don't alias.
_ADDRESS_STRIDE = 1 << 32


@dataclass(frozen=True)
class PatternSpec:
    """One pattern population inside a profile.

    Attributes:
        weight: relative frequency of this population's accesses.
        kind: registry name in :data:`repro.workloads.patterns.PATTERN_KINDS`.
        params: keyword arguments for the pattern constructor.
        copies: number of independent instances (each with its own PC).
    """

    weight: float
    kind: str
    params: Dict = field(default_factory=dict)
    copies: int = 1


@dataclass(frozen=True)
class BenchmarkProfile:
    """A named synthetic benchmark.

    Attributes:
        name: benchmark name (e.g. ``"mcf"``).
        suite: owning suite (``spec06`` / ``spec17`` / ``parsec`` /
            ``ligra`` / ``temporal``).
        memory_intensive: whether the paper groups it as memory intensive.
        mem_ratio: fraction of committed instructions that access memory.
        store_ratio: fraction of memory accesses that are stores.
        patterns: the mixture.
    """

    name: str
    suite: str
    memory_intensive: bool
    mem_ratio: float
    patterns: Tuple[PatternSpec, ...]
    store_ratio: float = 0.25

    def _instantiate(self, rng: random.Random) -> Tuple[List[Pattern], List[float]]:
        instances: List[Pattern] = []
        weights: List[float] = []
        pc_index = 0
        for spec in self.patterns:
            for copy in range(spec.copies):
                pc = _PC_BASE + pc_index * _PC_STRIDE
                base = (pc_index + 1) * _ADDRESS_STRIDE
                params = dict(spec.params)
                params.setdefault("base", base)
                instances.append(make_pattern(spec.kind, pc, rng, **params))
                weights.append(spec.weight / spec.copies)
                pc_index += 1
        return instances, weights

    def stream(
        self,
        num_accesses: int,
        seed: int = 0,
        mem_ratio_scale: float = 1.0,
    ) -> Iterator[TraceRecord]:
        """Yield a deterministic trace of ``num_accesses`` records lazily.

        This is the O(1)-memory producer behind :meth:`generate`: the
        record sequence for a given (profile, num_accesses, seed,
        mem_ratio_scale) tuple is identical whether streamed or
        materialized, so a stream can be fed straight to
        :func:`repro.sim.simulate` or spooled to disk with
        :class:`repro.cpu.tracefile.TraceWriter` at arbitrary access
        counts.

        The same tuple always produces an identical trace — across runs
        and across processes (the RNG seeds with the process-stable
        :func:`repro.common.hashing.stable_hash`, not the salted built-in
        ``hash``) — so experiment rows are exactly reproducible, serial
        or fanned out over a worker pool.

        Args:
            mem_ratio_scale: scales the memory intensity down (< 1 means
                more non-memory work per access).  Multi-core mixes use
                this to model realistic per-core bandwidth demand when
                eight cores share the channels (see
                :mod:`repro.workloads.mixes`).
        """
        rng = random.Random(stable_hash(self.name, bits=32) ^ seed)
        instances, weights = self._instantiate(rng)
        # Pre-compute the inter-access gap distribution from mem_ratio:
        # mean non-memory instructions per memory access.
        effective_ratio = max(1e-6, self.mem_ratio * mem_ratio_scale)
        mean_gap = max(0.0, 1.0 / effective_ratio - 1.0)
        cumulative: List[float] = []
        total = 0.0
        for weight in weights:
            total += weight
            cumulative.append(total)
        gap_carry = 0.0
        last = len(cumulative) - 1
        new_record = tuple.__new__
        for _ in range(num_accesses):
            pick = rng.random() * total
            index = min(bisect_left(cumulative, pick), last)
            pattern = instances[index]
            address, dependent = pattern.next_address()
            if mean_gap > 0:
                # Carry the fractional part forward so truncation does not
                # bias the realised memory intensity.
                gap = rng.expovariate(1.0 / mean_gap) + gap_carry
                nonmem = int(gap)
                gap_carry = gap - nonmem
            else:
                nonmem = 0
            access_type = (
                AccessType.STORE
                if rng.random() < self.store_ratio
                else AccessType.LOAD
            )
            yield new_record(TraceRecord, (
                pattern.pc, address, access_type, nonmem, dependent,
            ))

    def generate(
        self,
        num_accesses: int,
        seed: int = 0,
        mem_ratio_scale: float = 1.0,
    ) -> List[TraceRecord]:
        """Materialized form of :meth:`stream` (identical record sequence)."""
        return list(self.stream(num_accesses, seed, mem_ratio_scale))


def profile(
    name: str,
    suite: str,
    memory_intensive: bool,
    mem_ratio: float,
    patterns: List[Tuple[float, str, Dict]],
    store_ratio: float = 0.25,
) -> BenchmarkProfile:
    """Terse constructor used by the suite definition modules.

    ``patterns`` entries are ``(weight, kind, params)``; ``params`` may
    include ``copies`` to stamp out several instances.
    """
    specs = []
    for weight, kind, params in patterns:
        params = dict(params)
        copies = params.pop("copies", 1)
        specs.append(
            PatternSpec(weight=weight, kind=kind, params=params, copies=copies)
        )
    return BenchmarkProfile(
        name=name,
        suite=suite,
        memory_intensive=memory_intensive,
        mem_ratio=mem_ratio,
        patterns=tuple(specs),
        store_ratio=store_ratio,
    )
