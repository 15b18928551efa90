"""Tests for trace records and interleaving."""

import pickle

import pytest

from repro.common.types import AccessType
from repro.cpu.blocktrace import write_trace_v2
from repro.cpu.trace import TraceRecord, interleave_traces
from repro.cpu.tracefile import open_trace, write_trace
from repro.workloads import get_profile


class TestTraceRecord:
    def test_instructions_counts_self(self):
        record = TraceRecord(pc=1, address=2, nonmem_before=5)
        assert record.instructions == 6

    def test_defaults(self):
        record = TraceRecord(pc=1, address=2)
        assert record.access_type is AccessType.LOAD
        assert record.nonmem_before == 3
        assert not record.dependent
        assert record.instructions == 4

    def test_keyword_construction(self):
        record = TraceRecord(
            pc=0x400, address=8192, access_type=AccessType.STORE,
            nonmem_before=0, dependent=True,
        )
        assert (record.pc, record.address, record.access_type,
                record.nonmem_before, record.dependent) == (
            0x400, 8192, AccessType.STORE, 0, True)

    def test_positional_build_matches_keywords(self):
        # Decoders and generators build records with tuple.__new__.
        built = tuple.__new__(
            TraceRecord, (0x400, 8192, AccessType.STORE, 7, False)
        )
        assert type(built) is TraceRecord
        assert built == TraceRecord(
            pc=0x400, address=8192, access_type=AccessType.STORE,
            nonmem_before=7,
        )
        assert built.instructions == 8

    @pytest.mark.parametrize(
        "field", ["pc", "address", "access_type", "nonmem_before", "dependent"]
    )
    def test_fields_cannot_be_assigned(self, field):
        record = TraceRecord(pc=1, address=2)
        with pytest.raises(AttributeError):
            setattr(record, field, 5)

    def test_pickle_roundtrip(self):
        record = TraceRecord(
            pc=1, address=256, access_type=AccessType.STORE,
            nonmem_before=5, dependent=True,
        )
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is TraceRecord
        assert clone == record
        assert clone.instructions == 6

    def test_decoded_and_generated_records_compare_equal(self, tmp_path):
        generated = get_profile("mcf").generate(600, seed=4)
        v1 = str(tmp_path / "mcf.trace.gz")
        v2 = str(tmp_path / "mcf.trace.v2")
        write_trace(v1, generated)
        write_trace_v2(v2, generated, block_records=128)
        for path in (v1, v2):
            decoded = list(open_trace(path))
            assert decoded == generated
            assert all(type(record) is TraceRecord for record in decoded)


class TestInterleave:
    def test_round_robin_order(self):
        a = [TraceRecord(pc=0, address=i) for i in range(2)]
        b = [TraceRecord(pc=1, address=i) for i in range(2)]
        order = [(core, r.pc) for core, r in interleave_traces([a, b])]
        assert order == [(0, 0), (1, 1), (0, 0), (1, 1)]

    def test_uneven_lengths(self):
        a = [TraceRecord(pc=0, address=i) for i in range(3)]
        b = [TraceRecord(pc=1, address=0)]
        cores = [core for core, _ in interleave_traces([a, b])]
        assert cores == [0, 1, 0, 0]

    def test_empty_traces(self):
        assert list(interleave_traces([[], []])) == []

    def test_single_core(self):
        a = [TraceRecord(pc=0, address=i) for i in range(3)]
        assert len(list(interleave_traces([a]))) == 3
