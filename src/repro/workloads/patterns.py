"""Memory access pattern generators.

Each pattern is an infinite deterministic stream of (address, dependent)
pairs for one PC, covering the taxonomy the paper builds on
(Section I / Fig. 6): stream, stride, complex delta sequences, spatial
region footprints, temporal recurrences, pointer chasing, and
non-recurrent random noise — plus the scenario families used by
:mod:`repro.workloads.scenarios` to stress selector *adaptivity*:
phase-alternating composites, drifting strides, hash-join gathers,
producer–consumer rings, and GC bursts.
"""

from __future__ import annotations

import abc
import random
from typing import List, Tuple

LINE = 64
REGION = 4096


# Pattern set-up draws hundreds of thousands of random numbers (a
# pointer chase shuffles every node), so the two helpers below inline
# the stdlib's ``_randbelow`` rejection loop: ``getrandbits(k)`` with
# ``k = n.bit_length()``, redrawn while ``>= n``.  They consume the RNG
# exactly as ``random.Random.shuffle`` and ``randrange`` do, so traces
# stay byte-identical; ``tests/test_patterns.py`` pins the parity.


def _shuffle(rng: random.Random, items: list) -> None:
    """Shuffle ``items`` in place, exactly as ``rng.shuffle(items)``."""
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        # Swap position i draws below n = i + 1; every n in
        # [low, 2 * low) has the same bit length k.
        k = (top + 1).bit_length()
        low = 1 << (k - 1)
        for i in range(top, low - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        top = low - 2


def _draws(rng: random.Random, n: int, count: int) -> List[int]:
    """``[rng.randrange(n) for _ in range(count)]``, drawn identically."""
    if n <= 0:
        raise ValueError("empty range for randrange()")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(r)
    return out


class Pattern(abc.ABC):
    """An infinite per-PC access stream.

    Args:
        pc: program counter of the generating instruction.
        rng: private random source (already seeded by the profile).
    """

    def __init__(self, pc: int, rng: random.Random):
        self.pc = pc
        self.rng = rng

    @abc.abstractmethod
    def next_address(self) -> Tuple[int, bool]:
        """Return ``(byte_address, dependent)`` for the next access."""


class StreamPattern(Pattern):
    """Ascending (or descending) sequential element accesses.

    Walks ``element_bytes``-sized elements, so each 64-byte line receives
    several accesses before the stream advances to the next line (real
    streaming code touches every element).  Runs of ``run_length`` *lines*,
    then a jump to a fresh location in the footprint — the shape GS-style
    stream prefetchers own.
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        footprint: int = 64 << 20,
        run_length: int = 512,
        direction: int = 1,
        base: int = 0,
        element_bytes: int = 8,
    ):
        super().__init__(pc, rng)
        if element_bytes <= 0 or element_bytes > LINE:
            raise ValueError("element_bytes must be in (0, 64]")
        if footprint < LINE:
            raise ValueError(f"footprint must be >= {LINE}")
        self.footprint = footprint
        self.run_length = run_length
        self.direction = direction
        self.base = base
        self.element_bytes = element_bytes
        self._position = rng.randrange(footprint // LINE) * LINE
        self._remaining = run_length * (LINE // element_bytes)

    def next_address(self) -> Tuple[int, bool]:
        if self._remaining <= 0:
            self._position = self.rng.randrange(self.footprint // LINE) * LINE
            self._remaining = self.run_length * (LINE // self.element_bytes)
        address = self.base + self._position % self.footprint
        self._position += self.direction * self.element_bytes
        self._remaining -= 1
        return address, False


class StridePattern(Pattern):
    """Constant-stride accesses (stride may span multiple lines).

    ``dwell`` models structure-of-records code: each strided position
    receives ``dwell`` accesses at small intra-record offsets before the
    stride advances (A[i].x, A[i].y, ... then i += stride).
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        stride: int = 256,
        footprint: int = 64 << 20,
        run_length: int = 1024,
        base: int = 0,
        dwell: int = 1,
    ):
        super().__init__(pc, rng)
        if stride == 0:
            raise ValueError("stride must be non-zero")
        if dwell < 1:
            raise ValueError("dwell must be >= 1")
        # A footprint below one stride wraps every step back to the start.
        if footprint < abs(stride):
            raise ValueError(f"footprint must be >= abs(stride) = {abs(stride)}")
        self.stride = stride
        self.footprint = footprint
        self.run_length = run_length
        self.base = base
        self.dwell = dwell
        self._position = self._aligned_start()
        self._remaining = run_length
        self._dwell_index = 0

    def _aligned_start(self) -> int:
        # Records are stride-aligned (as real arrays of structs are), so
        # the dwell accesses stay within the record's first line.
        slots = max(1, self.footprint // abs(self.stride))
        return self.rng.randrange(slots) * abs(self.stride)

    def next_address(self) -> Tuple[int, bool]:
        if self._remaining <= 0:
            self._position = self._aligned_start()
            self._remaining = self.run_length
        offset = (self._dwell_index * 8) % LINE
        address = self.base + (self._position + offset) % self.footprint
        self._dwell_index += 1
        if self._dwell_index >= self.dwell:
            self._dwell_index = 0
            self._position += self.stride
            self._remaining -= 1
        return address, False


class DeltaSequencePattern(Pattern):
    """Repeating non-constant delta sequence, e.g. (+1, +1, +1, +4) lines.

    The Section II-A example that defeats a constant-stride prefetcher but
    is exactly predictable by CPLX-style delta-history prediction.
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        deltas: Tuple[int, ...] = (1, 1, 1, 4),
        footprint: int = 64 << 20,
        base: int = 0,
    ):
        super().__init__(pc, rng)
        if not deltas:
            raise ValueError("deltas must be non-empty")
        if footprint < LINE:
            raise ValueError(f"footprint must be >= {LINE}")
        self.deltas = deltas
        self.footprint = footprint
        self.base = base
        self._position = rng.randrange(footprint // LINE) * LINE
        self._index = 0

    def next_address(self) -> Tuple[int, bool]:
        address = self.base + self._position % self.footprint
        self._position += self.deltas[self._index] * LINE
        self._index = (self._index + 1) % len(self.deltas)
        return address, False


class SpatialPattern(Pattern):
    """Fixed intra-region footprint replayed across many 4 KB regions.

    Each visited region is touched at the same line offsets (relative to
    the trigger offset), in order — the structure PMP/SMS-style spatial
    prefetchers learn and replay.
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        offsets: Tuple[int, ...] = (0, 2, 3, 7, 9, 12, 13, 21),
        footprint: int = 64 << 20,
        base: int = 0,
        sequential_regions: bool = False,
        dwell: int = 4,
    ):
        super().__init__(pc, rng)
        if not offsets:
            raise ValueError("offsets must be non-empty")
        if dwell < 1:
            raise ValueError("dwell must be >= 1")
        # Offsets address lines of whole regions; less than one region
        # cannot hold them.
        if footprint < REGION:
            raise ValueError(f"footprint must be >= {REGION}")
        self.offsets = offsets
        self.footprint = footprint
        self.base = base
        self.sequential_regions = sequential_regions
        self.dwell = dwell
        self._num_regions = footprint // REGION
        self._region = rng.randrange(self._num_regions)
        self._index = 0
        self._dwell_index = 0

    def next_address(self) -> Tuple[int, bool]:
        if self._index >= len(self.offsets):
            self._index = 0
            if self.sequential_regions:
                self._region = (self._region + 1) % self._num_regions
            else:
                self._region = self.rng.randrange(self._num_regions)
        offset = self.offsets[self._index]
        element = (self._dwell_index * 8) % LINE
        self._dwell_index += 1
        if self._dwell_index >= self.dwell:
            self._dwell_index = 0
            self._index += 1
        address = (
            self.base
            + self._region * REGION
            + (offset % (REGION // LINE)) * LINE
            + element
        )
        return address, False


class TemporalPattern(Pattern):
    """A fixed irregular address sequence replayed cyclically.

    The recurrence structure temporal prefetchers exist for: deltas are
    irregular (no stream/stride/spatial structure) but the *sequence*
    repeats, so a Markov metadata table predicts it once trained.
    ``sequence_length`` controls the reuse distance — long sequences
    stress metadata capacity (the Fig. 14 story).
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        sequence_length: int = 4096,
        footprint: int = 64 << 20,
        base: int = 0,
        noise: float = 0.0,
        dwell: int = 2,
    ):
        super().__init__(pc, rng)
        if sequence_length <= 0:
            raise ValueError("sequence_length must be positive")
        if dwell < 1:
            raise ValueError("dwell must be >= 1")
        if footprint < LINE:
            raise ValueError(f"footprint must be >= {LINE}")
        lines = footprint // LINE
        self.base = base
        self.noise = noise
        self.footprint = footprint
        self.dwell = dwell
        self._sequence: List[int] = [
            r * LINE for r in _draws(rng, lines, sequence_length)
        ]
        self._index = rng.randrange(sequence_length)
        self._dwell_index = 0

    def next_address(self) -> Tuple[int, bool]:
        if self.noise and self.rng.random() < self.noise:
            return self.base + self.rng.randrange(self.footprint // LINE) * LINE, False
        element = (self._dwell_index * 8) % LINE
        self._dwell_index += 1
        address = self.base + self._sequence[self._index] + element
        if self._dwell_index >= self.dwell:
            self._dwell_index = 0
            self._index = (self._index + 1) % len(self._sequence)
        return address, False


class PointerChasePattern(Pattern):
    """Walk of a random permutation cycle; every access is dependent.

    Serialised misses (no MLP) with a repeating visit order: the
    latency-bound shape of mcf/astar that only temporal prefetching can
    cover.
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        nodes: int = 1 << 15,
        base: int = 0,
        node_bytes: int = 64,
    ):
        super().__init__(pc, rng)
        if nodes < 2:
            raise ValueError("need at least two nodes")
        # The walk visits the cycle order[0] -> order[1] -> ... -> order[0].
        self._order = list(range(nodes))
        _shuffle(rng, self._order)
        self.base = base
        self.node_bytes = node_bytes
        self._index = 0

    def next_address(self) -> Tuple[int, bool]:
        address = self.base + self._order[self._index] * self.node_bytes
        self._index += 1
        if self._index == len(self._order):
            self._index = 0
        return address, True


class RandomPattern(Pattern):
    """Uniform random accesses over the footprint: unprefetchable noise.

    ``pc_count`` rotates the generating PC so the noise also pressures
    PC-indexed tables — the conflict traffic behind Fig. 1.
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        footprint: int = 64 << 20,
        base: int = 0,
        pc_count: int = 1,
    ):
        super().__init__(pc, rng)
        if footprint < LINE:
            raise ValueError(f"footprint must be >= {LINE}")
        self.footprint = footprint
        self.base = base
        self.pc_count = max(1, pc_count)
        self._pc_base = pc

    def next_address(self) -> Tuple[int, bool]:
        if self.pc_count > 1:
            self.pc = self._pc_base + self.rng.randrange(self.pc_count) * 4
        return self.base + self.rng.randrange(self.footprint // LINE) * LINE, False


class PhasedPattern(Pattern):
    """Phase-alternating composite: switches sub-pattern every ``period``.

    Models program phase behaviour — a loop nest that streams, then a
    graph traversal, then back — the regime where a static selector
    locked to one prefetcher loses and per-request selection can
    re-adapt at every boundary.  Each phase is a ``(kind, params)``
    child pattern; phases rotate in order, each owning a private PC and
    a private address window inside the parent's, so the phase change
    is visible both in the access pattern and in the PC stream.
    """

    #: Address-window stride separating child phases (per parent base).
    CHILD_WINDOW = 1 << 28

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        phases: Tuple[Tuple[str, dict], ...] = (
            ("stream", {"footprint": 8 << 20, "run_length": 400}),
            ("pointer_chase", {"nodes": 1 << 12}),
        ),
        period: int = 2000,
        base: int = 0,
    ):
        super().__init__(pc, rng)
        if len(phases) < 2:
            raise ValueError("phased pattern needs at least two phases")
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.base = base
        self._children: List[Pattern] = []
        for index, (kind, params) in enumerate(phases):
            params = dict(params)
            params.setdefault("base", base + index * self.CHILD_WINDOW)
            child_pc = pc + index * 0x100
            self._children.append(make_pattern(kind, child_pc, rng, **params))
        self._phase = 0
        self._remaining = period

    @property
    def phase(self) -> int:
        """Index of the currently active phase (for tests/diagnostics)."""
        return self._phase

    def next_address(self) -> Tuple[int, bool]:
        if self._remaining <= 0:
            self._phase = (self._phase + 1) % len(self._children)
            self._remaining = self.period
        self._remaining -= 1
        child = self._children[self._phase]
        address, dependent = child.next_address()
        self.pc = child.pc
        return address, dependent


class DriftingStridePattern(Pattern):
    """Constant-stride accesses whose stride slowly drifts over time.

    Models loop tiling and column sweeps over resizing matrices: the
    stride is locally constant (a stride predictor trains and covers),
    then shifts by ``drift`` every ``drift_period`` accesses, reflecting
    between ``min_stride`` and ``max_stride`` — continuous concept
    drift rather than a sharp phase boundary.
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        stride: int = 256,
        drift: int = 64,
        drift_period: int = 512,
        min_stride: int = 64,
        max_stride: int = 2048,
        footprint: int = 64 << 20,
        base: int = 0,
    ):
        super().__init__(pc, rng)
        if drift_period <= 0:
            raise ValueError("drift_period must be positive")
        if not (0 < min_stride <= stride <= max_stride):
            raise ValueError("need 0 < min_stride <= stride <= max_stride")
        if footprint < LINE:
            raise ValueError(f"footprint must be >= {LINE}")
        self.stride = stride
        self.drift = drift
        self.drift_period = drift_period
        self.min_stride = min_stride
        self.max_stride = max_stride
        self.footprint = footprint
        self.base = base
        self._position = rng.randrange(footprint // LINE) * LINE
        self._until_drift = drift_period

    def next_address(self) -> Tuple[int, bool]:
        if self._until_drift <= 0:
            self._until_drift = self.drift_period
            stride = self.stride + self.drift
            if stride > self.max_stride or stride < self.min_stride:
                self.drift = -self.drift  # reflect at the bounds
                stride = self.stride + self.drift
            # A |drift| wider than the band overshoots even after
            # reflecting; clamp so the invariant always holds.
            self.stride = min(max(stride, self.min_stride), self.max_stride)
        self._until_drift -= 1
        address = self.base + self._position % self.footprint
        self._position += self.stride
        return address, False


class HashJoinPattern(Pattern):
    """Database hash-join probe: sequential scan + dependent bucket gathers.

    Each probe row is read sequentially from the probe relation (a
    streaming component prefetchers cover), then hashed into a bucket
    array — a data-dependent gather whose address cannot be predicted
    from the probe stream (the classic database-operator shape).
    ``matches`` payload accesses follow each gather within the bucket's
    line, modelling tuple materialization.
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        probe_footprint: int = 32 << 20,
        buckets: int = 1 << 15,
        row_bytes: int = 32,
        matches: int = 1,
        base: int = 0,
    ):
        super().__init__(pc, rng)
        if buckets < 2:
            raise ValueError("need at least two buckets")
        if matches < 1:
            raise ValueError("matches must be >= 1")
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        if probe_footprint < LINE:
            raise ValueError(f"probe_footprint must be >= {LINE}")
        self.probe_footprint = probe_footprint
        self.buckets = buckets
        self.row_bytes = row_bytes
        self.matches = matches
        self.base = base
        #: Bucket array lives in its own window above the probe relation.
        self._bucket_base = base + (1 << 30)
        self._probe_position = rng.randrange(probe_footprint // LINE) * LINE
        self._probe_pc = pc
        self._gather_pc = pc + 4
        self._pending_gathers = 0
        self._bucket = 0
        self._match_index = 0

    def next_address(self) -> Tuple[int, bool]:
        if self._pending_gathers:
            self._pending_gathers -= 1
            offset = (self._match_index * 8) % LINE
            self._match_index += 1
            self.pc = self._gather_pc
            address = self._bucket_base + self._bucket * LINE + offset
            return address, True  # address came from the probed key
        # Sequential probe-side scan: one row per step.
        self.pc = self._probe_pc
        address = self.base + self._probe_position % self.probe_footprint
        self._probe_position += self.row_bytes
        self._bucket = self.rng.randrange(self.buckets)
        self._pending_gathers = self.matches
        self._match_index = 0
        return address, False


class ProducerConsumerPattern(Pattern):
    """Two cursors over a shared ring buffer with a fixed lag.

    The producer writes lines at the head in bursts; the consumer reads
    the same lines back ``lag`` lines behind the head — a pipeline/queue
    shape with a fixed reuse lag.  Small lags stay cache-resident; large
    lags make the consumer a second stream over lines the producer
    already evicted, which temporal and stream prefetchers handle very
    differently.
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        ring_bytes: int = 4 << 20,
        lag: int = 2048,
        burst: int = 8,
        base: int = 0,
    ):
        super().__init__(pc, rng)
        lines = ring_bytes // LINE
        if lines < 2:
            raise ValueError("ring must hold at least two lines")
        if not (0 < lag < lines):
            raise ValueError("lag must be in (0, ring lines)")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.ring_lines = lines
        self.lag = lag
        self.burst = burst
        self.base = base
        self._producer_pc = pc
        self._consumer_pc = pc + 4
        self._head = rng.randrange(lines)
        self._producing = True
        self._step = 0

    def next_address(self) -> Tuple[int, bool]:
        if self._producing:
            self.pc = self._producer_pc
            line = self._head % self.ring_lines
            self._head += 1
        else:
            self.pc = self._consumer_pc
            line = (self._head - self.lag + self._step) % self.ring_lines
        self._step += 1
        if self._step >= self.burst:
            self._step = 0
            self._producing = not self._producing
        return self.base + line * LINE, False


class GCBurstPattern(Pattern):
    """Bump-pointer allocation punctuated by mark-phase GC bursts.

    The mutator allocates sequentially through the heap (a stream any
    prefetcher covers); every ``gc_every`` accesses a collection runs
    for ``gc_length`` accesses, walking randomly over everything
    allocated so far — dependent, unpredictable traffic that abruptly
    changes the profitable prefetcher and then vanishes again (the
    managed-runtime shape).
    """

    def __init__(
        self,
        pc: int,
        rng: random.Random,
        heap_bytes: int = 32 << 20,
        gc_every: int = 4096,
        gc_length: int = 1024,
        base: int = 0,
    ):
        super().__init__(pc, rng)
        if gc_every <= 0 or gc_length <= 0:
            raise ValueError("gc_every and gc_length must be positive")
        self.heap_lines = max(2, heap_bytes // LINE)
        self.gc_every = gc_every
        self.gc_length = gc_length
        self.base = base
        self._alloc_pc = pc
        self._mark_pc = pc + 4
        self._alloc_line = 0
        self._until_gc = gc_every
        self._gc_remaining = 0

    @property
    def in_gc(self) -> bool:
        """Whether the pattern is currently inside a GC burst."""
        return self._gc_remaining > 0

    def next_address(self) -> Tuple[int, bool]:
        if self._gc_remaining > 0:
            self._gc_remaining -= 1
            self.pc = self._mark_pc
            # Mark phase: chase references across the allocated prefix.
            allocated = max(1, min(self._alloc_line, self.heap_lines))
            line = self.rng.randrange(allocated)
            return self.base + line * LINE, True
        if self._until_gc <= 0:
            self._until_gc = self.gc_every
            self._gc_remaining = self.gc_length
            return self.next_address()
        self._until_gc -= 1
        self.pc = self._alloc_pc
        line = self._alloc_line % self.heap_lines
        self._alloc_line += 1
        return self.base + line * LINE, False


#: Registry used by the declarative profile specs.
PATTERN_KINDS = {
    "stream": StreamPattern,
    "stride": StridePattern,
    "delta_sequence": DeltaSequencePattern,
    "spatial": SpatialPattern,
    "temporal": TemporalPattern,
    "pointer_chase": PointerChasePattern,
    "random": RandomPattern,
    "phased": PhasedPattern,
    "drifting_stride": DriftingStridePattern,
    "hash_join": HashJoinPattern,
    "producer_consumer": ProducerConsumerPattern,
    "gc_burst": GCBurstPattern,
}


def make_pattern(kind: str, pc: int, rng: random.Random, **kwargs) -> Pattern:
    """Instantiate a pattern by registry name."""
    try:
        cls = PATTERN_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown pattern kind: {kind!r}") from None
    return cls(pc, rng, **kwargs)
