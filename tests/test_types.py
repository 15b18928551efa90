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


@given(address=st.integers(0, 2**50))
def test_line_and_region_consistent(address):
    line = line_address(address)
    region = region_address(address)
    assert line * CACHE_LINE_BYTES <= address < (line + 1) * CACHE_LINE_BYTES
    assert region == line // REGION_LINES
