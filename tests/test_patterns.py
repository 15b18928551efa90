"""Tests for the workload pattern generators."""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.patterns import (
    LINE,
    REGION,
    DeltaSequencePattern,
    DriftingStridePattern,
    HashJoinPattern,
    PATTERN_KINDS,
    PointerChasePattern,
    RandomPattern,
    SpatialPattern,
    StreamPattern,
    StridePattern,
    TemporalPattern,
    _draws,
    _shuffle,
    make_pattern,
)


def addresses(pattern, n):
    return [pattern.next_address()[0] for _ in range(n)]


class TestStream:
    def test_lines_ascend_within_run(self):
        pattern = StreamPattern(0x400, random.Random(1), run_length=1000)
        lines = [a // LINE for a in addresses(pattern, 64)]
        assert all(b - a in (0, 1) for a, b in zip(lines, lines[1:]))

    def test_element_granularity(self):
        pattern = StreamPattern(0x400, random.Random(1), element_bytes=8)
        addrs = addresses(pattern, 16)
        deltas = [b - a for a, b in zip(addrs, addrs[1:])]
        assert all(d == 8 for d in deltas[:7])

    def test_eight_accesses_per_line(self):
        pattern = StreamPattern(0x400, random.Random(1), element_bytes=8)
        lines = [a // LINE for a in addresses(pattern, 80)]
        # Each line appears 8 times consecutively.
        assert lines.count(lines[0]) >= 8 or lines.count(lines[8]) == 8

    def test_invalid_element_bytes(self):
        with pytest.raises(ValueError):
            StreamPattern(0x400, random.Random(1), element_bytes=0)

    def test_not_dependent(self):
        pattern = StreamPattern(0x400, random.Random(1))
        assert pattern.next_address()[1] is False


class TestStride:
    def test_stride_between_records(self):
        pattern = StridePattern(
            0x400, random.Random(1), stride=448, dwell=1, footprint=1 << 24
        )
        addrs = addresses(pattern, 16)
        deltas = {b - a for a, b in zip(addrs, addrs[1:])}
        assert 448 in deltas

    def test_dwell_stays_in_line(self):
        pattern = StridePattern(
            0x400, random.Random(1), stride=448, dwell=4, footprint=1 << 24
        )
        lines = [a // LINE for a in addresses(pattern, 64)]
        # Each record's 4 dwell accesses share a line (strides are
        # line-multiples and positions are stride-aligned).
        for i in range(0, 32, 4):
            assert len(set(lines[i : i + 4])) == 1

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError):
            StridePattern(0x400, random.Random(1), stride=0)

    def test_invalid_dwell_rejected(self):
        with pytest.raises(ValueError):
            StridePattern(0x400, random.Random(1), dwell=0)


class TestDeltaSequence:
    def test_repeating_deltas(self):
        pattern = DeltaSequencePattern(
            0x400, random.Random(1), deltas=(1, 1, 1, 4), footprint=1 << 30
        )
        lines = [a // LINE for a in addresses(pattern, 17)]
        deltas = [b - a for a, b in zip(lines, lines[1:])]
        assert deltas[:8] == [1, 1, 1, 4, 1, 1, 1, 4]

    def test_empty_deltas_rejected(self):
        with pytest.raises(ValueError):
            DeltaSequencePattern(0x400, random.Random(1), deltas=())


class TestSpatial:
    def test_offsets_replayed_per_region(self):
        offsets = (0, 3, 7)
        pattern = SpatialPattern(
            0x400, random.Random(1), offsets=offsets, dwell=1, footprint=1 << 24
        )
        addrs = addresses(pattern, 9)
        for chunk_start in range(0, 9, 3):
            chunk = addrs[chunk_start : chunk_start + 3]
            base = chunk[0] - (chunk[0] % REGION)
            relative = tuple((a - base) // LINE for a in chunk)
            assert relative == offsets

    def test_sequential_regions(self):
        pattern = SpatialPattern(
            0x400,
            random.Random(1),
            offsets=(0,),
            dwell=1,
            sequential_regions=True,
            footprint=1 << 24,
        )
        regions = [a // REGION for a in addresses(pattern, 5)]
        deltas = [b - a for a, b in zip(regions, regions[1:])]
        assert all(d == 1 for d in deltas)

    def test_dwell_within_offset_line(self):
        pattern = SpatialPattern(
            0x400, random.Random(1), offsets=(0, 5), dwell=4, footprint=1 << 24
        )
        lines = [a // LINE for a in addresses(pattern, 8)]
        assert len(set(lines[:4])) == 1
        assert len(set(lines[4:8])) == 1


class TestTemporal:
    def test_sequence_recurs_exactly(self):
        pattern = TemporalPattern(
            0x400, random.Random(1), sequence_length=50, dwell=1
        )
        first_lap = addresses(pattern, 50)
        second_lap = addresses(pattern, 50)
        assert first_lap == second_lap

    def test_noise_breaks_recurrence(self):
        pattern = TemporalPattern(
            0x400, random.Random(1), sequence_length=50, dwell=1, noise=1.0
        )
        first = addresses(pattern, 50)
        second = addresses(pattern, 50)
        assert first != second

    def test_invalid_sequence_length(self):
        with pytest.raises(ValueError):
            TemporalPattern(0x400, random.Random(1), sequence_length=0)


class TestPointerChase:
    def test_walk_is_dependent(self):
        pattern = PointerChasePattern(0x400, random.Random(1), nodes=16)
        assert pattern.next_address()[1] is True

    def test_walk_visits_all_nodes(self):
        pattern = PointerChasePattern(0x400, random.Random(1), nodes=32)
        visited = {a for a in addresses(pattern, 32)}
        assert len(visited) == 32

    def test_walk_is_a_cycle(self):
        pattern = PointerChasePattern(0x400, random.Random(1), nodes=16)
        lap1 = addresses(pattern, 16)
        lap2 = addresses(pattern, 16)
        assert lap1 == lap2

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            PointerChasePattern(0x400, random.Random(1), nodes=1)

    @pytest.mark.parametrize("nodes", [2, 3, 16, 1000])
    def test_walk_matches_successor_array_reference(self, nodes):
        # The pattern walks its shuffled order by index; the reference
        # builds the successor array the walk encodes and follows it.
        rng = random.Random(7)
        order = list(range(nodes))
        rng.shuffle(order)
        successor = [0] * nodes
        for i in range(nodes):
            successor[order[i]] = order[(i + 1) % nodes]
        node, reference = order[0], []
        for _ in range(2 * nodes):
            reference.append(0x1000 + node * 64)
            node = successor[node]
        pattern = PointerChasePattern(
            0x400, random.Random(7), nodes=nodes, base=0x1000
        )
        assert addresses(pattern, 2 * nodes) == reference


class TestRandom:
    def test_addresses_line_aligned(self):
        pattern = RandomPattern(0x400, random.Random(1), footprint=1 << 20)
        assert all(a % LINE == 0 for a in addresses(pattern, 50))

    def test_pc_rotation_stays_in_reserved_range(self):
        pattern = RandomPattern(0x400000, random.Random(1), pc_count=16)
        pcs = set()
        for _ in range(200):
            pattern.next_address()
            pcs.add(pattern.pc)
        assert all(0x400000 <= pc < 0x400000 + 16 * 4 for pc in pcs)
        assert len(pcs) > 4


#: Every pattern kind that draws a start line from ``footprint // LINE``,
#: with the parameter that names that footprint.
_LINE_FOOTPRINTS = [
    (StreamPattern, "footprint"),
    (DeltaSequencePattern, "footprint"),
    (TemporalPattern, "footprint"),
    (RandomPattern, "footprint"),
    (DriftingStridePattern, "footprint"),
    (HashJoinPattern, "probe_footprint"),
]


@pytest.mark.parametrize(
    "cls, param", _LINE_FOOTPRINTS, ids=[c.__name__ for c, _ in _LINE_FOOTPRINTS]
)
def test_footprint_below_one_line_rejected_at_construction(cls, param):
    for footprint in (0, LINE - 1):
        with pytest.raises(ValueError, match=f"^{param} must be >= {LINE}"):
            cls(0x400, random.Random(1), **{param: footprint})
    pattern = cls(0x400, random.Random(1), **{param: LINE})
    assert pattern.next_address()[0] >= 0


@pytest.mark.parametrize("stride", [256, -256, 64, 4096])
def test_stride_footprint_below_one_stride_rejected_at_construction(stride):
    for footprint in (0, LINE, abs(stride) - 1):
        if footprint >= abs(stride):
            continue
        with pytest.raises(ValueError, match=r"^footprint must be >= abs\(stride\)"):
            StridePattern(0x400, random.Random(1), stride=stride, footprint=footprint)
    pattern = StridePattern(
        0x400, random.Random(1), stride=stride, footprint=2 * abs(stride)
    )
    # Two stride slots: the walk alternates between them, not pinned to 0.
    assert len(set(addresses(pattern, 8))) == 2


def test_spatial_footprint_below_one_region_rejected_at_construction():
    for footprint in (0, LINE, REGION - 1):
        with pytest.raises(ValueError, match=f"^footprint must be >= {REGION}"):
            SpatialPattern(0x400, random.Random(1), footprint=footprint)
    pattern = SpatialPattern(0x400, random.Random(1), footprint=REGION, dwell=1)
    assert all(0 <= address < REGION for address in addresses(pattern, 64))


#: Sizes around every bit-length boundary the rejection loop switches
#: at, up to the largest pointer chase (2**17 nodes) plus one.
_RNG_SIZES = sorted(
    {1, 2, 3}
    | {(1 << k) + d for k in range(2, 18) for d in (-1, 0, 1)}
)


class TestRngParity:
    """The inlined set-up helpers consume the RNG exactly as the stdlib."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(_RNG_SIZES))
    def test_shuffle_matches_stdlib(self, seed, n):
        expected, ours = list(range(n)), list(range(n))
        reference, rng = random.Random(seed), random.Random(seed)
        reference.shuffle(expected)
        _shuffle(rng, ours)
        assert ours == expected
        assert rng.getstate() == reference.getstate()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(_RNG_SIZES),
        count=st.integers(0, 64),
    )
    def test_draws_match_randrange(self, seed, n, count):
        reference, rng = random.Random(seed), random.Random(seed)
        expected = [reference.randrange(n) for _ in range(count)]
        assert _draws(rng, n, count) == expected
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", [0, -1, -64])
    def test_draws_reject_empty_range_promptly(self, n):
        # getrandbits(0) returns 0, so an unchecked loop never ends on
        # n == 0; run in a daemon thread so a hang fails instead.
        outcome = []

        def draw():
            try:
                _draws(random.Random(1), n, 3)
            except ValueError as exc:
                outcome.append(exc)

        worker = threading.Thread(target=draw, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "_draws did not return"
        assert len(outcome) == 1
        with pytest.raises(ValueError):
            random.Random(1).randrange(n)


class TestRegistry:
    def test_all_kinds_constructible(self):
        for kind in PATTERN_KINDS:
            pattern = make_pattern(kind, 0x400, random.Random(1))
            address, dependent = pattern.next_address()
            assert address >= 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_pattern("zigzag", 0x400, random.Random(1))


@settings(max_examples=25)
@given(seed=st.integers(0, 1000), kind=st.sampled_from(sorted(PATTERN_KINDS)))
def test_patterns_deterministic_per_seed(seed, kind):
    a = make_pattern(kind, 0x400, random.Random(seed))
    b = make_pattern(kind, 0x400, random.Random(seed))
    assert [a.next_address() for _ in range(30)] == [
        b.next_address() for _ in range(30)
    ]
