"""Tests for the core value types."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.types import (
    CACHE_LINE_BYTES,
    REGION_LINES,
    AccessType,
    DemandAccess,
    PrefetchCandidate,
    line_address,
    region_address,
)
from repro.memory.cache import EvictionInfo, PrefetchRecord
from repro.memory.hierarchy import AccessResult


class TestAddressHelpers:
    def test_line_address(self):
        assert line_address(0) == 0
        assert line_address(63) == 0
        assert line_address(64) == 1
        assert line_address(130) == 2

    def test_region_address(self):
        assert region_address(0) == 0
        assert region_address(4095) == 0
        assert region_address(4096) == 1

    def test_region_line_relationship(self):
        assert REGION_LINES * CACHE_LINE_BYTES == 4096


class TestDemandAccess:
    def test_line_property(self):
        access = DemandAccess(pc=0x400, address=129)
        assert access.line == 2

    def test_region_property(self):
        access = DemandAccess(pc=0x400, address=8192)
        assert access.region == 2

    def test_frozen(self):
        access = DemandAccess(pc=1, address=2)
        try:
            access.pc = 3
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_defaults(self):
        access = DemandAccess(pc=1, address=2)
        assert access.access_type is AccessType.LOAD
        assert access.core_id == 0

    def test_positional_build_matches_keywords(self):
        # The simulator's loop builds accesses with tuple.__new__.
        fields = (0x400, 8320, AccessType.STORE, 1, 9, 130, 2)
        built = tuple.__new__(DemandAccess, fields)
        assert type(built) is DemandAccess
        assert built == DemandAccess(
            pc=0x400, address=8320, access_type=AccessType.STORE, core_id=1,
            timestamp=9,
        )
        assert (built.line, built.region, built.timestamp) == (130, 2, 9)


class TestPrefetchCandidate:
    def test_defaults(self):
        candidate = PrefetchCandidate(line=10, prefetcher="stride", pc=0x400)
        assert not candidate.to_next_level
        assert candidate.confidence == 1.0

    def test_mutable_annotation(self):
        candidate = PrefetchCandidate(line=10, prefetcher="stride", pc=0x400)
        candidate.to_next_level = True
        assert candidate.to_next_level


class TestSlottedPickling:
    def test_demand_access_roundtrip(self):
        import pickle

        access = DemandAccess(pc=0x400, address=8192, core_id=2, timestamp=7)
        clone = pickle.loads(pickle.dumps(access))
        assert clone == access
        assert clone.line == access.line and clone.region == access.region

    def test_trace_record_roundtrip(self):
        import pickle

        from repro.cpu.trace import TraceRecord

        rec = TraceRecord(pc=1, address=256, nonmem_before=5, dependent=True)
        clone = pickle.loads(pickle.dumps(rec))
        assert clone == rec

    def test_no_instance_dict(self):
        access = DemandAccess(pc=1, address=2)
        assert not hasattr(access, "__dict__")


class TestMemorySideResults:
    """AccessResult and EvictionInfo are tuple-backed; their properties
    still read the named fields."""

    RECORD = PrefetchRecord(
        prefetcher="stride", pc=0x400, issue_cycle=3, ready_cycle=90, line=7
    )

    def test_access_result_defaults_and_coverage(self):
        plain = AccessResult(latency=4, hit_level="l1")
        assert plain.prefetch_record is None and plain.prefetch_timely is False
        assert not plain.was_covered_by_prefetch
        covered = tuple.__new__(AccessResult, (19, "l2", self.RECORD, True))
        assert covered.was_covered_by_prefetch
        assert covered == AccessResult(19, "l2", self.RECORD, True)
        latency, hit_level, record, timely = covered
        assert (latency, hit_level, record, timely) == (
            19, "l2", self.RECORD, True)

    def test_eviction_info_unused_prefetch(self):
        clean = EvictionInfo(line=7, dirty=True, prefetch=None)
        assert not clean.was_unused_prefetch
        unused = tuple.__new__(EvictionInfo, (7, False, self.RECORD))
        assert unused.was_unused_prefetch
        assert unused.prefetch is self.RECORD

    def test_results_are_immutable(self):
        result = AccessResult(4, "l1")
        evicted = EvictionInfo(7, False, None)
        for value, field in ((result, "latency"), (evicted, "dirty")):
            try:
                setattr(value, field, 0)
                raised = False
            except AttributeError:
                raised = True
            assert raised


@given(address=st.integers(0, 2**50))
def test_line_and_region_consistent(address):
    line = line_address(address)
    region = region_address(address)
    assert line * CACHE_LINE_BYTES <= address < (line + 1) * CACHE_LINE_BYTES
    assert region == line // REGION_LINES
