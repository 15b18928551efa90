"""Parity pins for sharded parallel replay (``SuiteRunner.replay_shards``).

The acceptance bar for the v2 subsystem: replaying disjoint shards of
one trace across a process pool must produce rows byte-identical to the
same shards replayed serially in-process — and a single ``shards=1``
cursor must be byte-identical to a plain whole-file replay.  Parallelism
changes wall-clock only, never results.
"""

import json
import os

import pytest

from repro.cpu.blocktrace import write_trace_v2
from repro.cpu.tracefile import write_trace
from repro.experiments.runner import (
    SuiteRunner,
    _aggregate_shard_rows,
    replay_experiment,
)
from repro.workloads import get_profile

ACCESSES = 1200


@pytest.fixture(scope="module")
def v2_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("shards") / "mcf.trace.v2")
    records = get_profile("mcf").generate(ACCESSES, seed=5)
    write_trace_v2(
        path, records,
        meta={"benchmark": "mcf", "accesses": ACCESSES, "seed": 5},
        codec="gzip", block_records=128,
    )
    return path


def canonical(rows):
    return json.dumps(rows, sort_keys=True, default=float)


class TestShardParity:
    def test_parallel_matches_serial_byte_identical(self, v2_trace):
        serial = SuiteRunner(jobs=1).replay_shards(
            v2_trace, selector_spec="alecto", shards=4
        )
        parallel = SuiteRunner(jobs=2).replay_shards(
            v2_trace, selector_spec="alecto", shards=4
        )
        assert canonical(parallel) == canonical(serial)
        assert set(serial) == {"shard0", "shard1", "shard2", "shard3",
                               "overall"}

    def test_single_shard_equals_whole_file_replay(self, v2_trace):
        from repro.cpu.tracefile import open_trace

        sharded = SuiteRunner(jobs=1).replay_shards(
            v2_trace, selector_spec="alecto", shards=1
        )
        whole = replay_experiment(
            open_trace(v2_trace), selector_spec="alecto", name="shard0"
        )
        assert canonical(sharded["shard0"]) == canonical(whole.rows)
        assert "overall" not in sharded

    def test_baseline_only_shards(self, v2_trace):
        rows = SuiteRunner(jobs=1).replay_shards(
            v2_trace, selector_spec=None, shards=3
        )
        for index in range(3):
            assert rows[f"shard{index}"]["selector"] == "none"
        assert rows["overall"]["instructions"] == sum(
            rows[f"shard{i}"]["instructions"] for i in range(3)
        )

    def test_overall_totals_sum_counters(self, v2_trace):
        rows = SuiteRunner(jobs=1).replay_shards(
            v2_trace, selector_spec="alecto", shards=4
        )
        overall = rows["overall"]
        shard_rows = [rows[f"shard{i}"] for i in range(4)]
        for counter in ("instructions", "cycles", "dram_reads", "issued"):
            assert overall[counter] == sum(r[counter] for r in shard_rows)
        assert overall["shards"] == 4
        assert overall["ipc"] == pytest.approx(
            overall["instructions"] / overall["cycles"]
        )

    def test_v1_trace_rejected_with_convert_hint(self, tmp_path):
        path = str(tmp_path / "t.trace.gz")
        write_trace(path, get_profile("mcf").generate(100, seed=1))
        with pytest.raises(ValueError, match="convert"):
            SuiteRunner(jobs=1).replay_shards(path, shards=2)

    def test_bad_shard_count_rejected(self, v2_trace):
        with pytest.raises(ValueError, match="shards"):
            SuiteRunner(jobs=1).replay_shards(v2_trace, shards=0)


class TestAggregate:
    def test_empty(self):
        totals = _aggregate_shard_rows([])
        assert totals["shards"] == 0
        assert totals["ipc"] == 0.0

    def test_partial_counters_are_omitted(self):
        # "issued" missing from one shard (baseline rows): don't invent it.
        rows = [
            {"selector": "x", "instructions": 10, "cycles": 20, "issued": 1},
            {"selector": "x", "instructions": 30, "cycles": 40},
        ]
        totals = _aggregate_shard_rows(rows)
        assert totals["instructions"] == 40
        assert totals["cycles"] == 60
        assert "issued" not in totals
        assert totals["ipc"] == pytest.approx(40 / 60)


class TestShardErrorNaming:
    def test_corrupt_block_names_shard_and_file(self, tmp_path):
        """A decode failure mid-replay names the shard, not just the byte.

        Under a pool the parent sees errors from many concurrent shards;
        ``shard I/N of PATH`` is what makes the report actionable.
        """
        from repro.cpu.blocktrace import BlockTraceReader
        from repro.cpu.tracefile import TraceFormatError

        path = str(tmp_path / "corrupt.trace.v2")
        records = get_profile("mcf").generate(ACCESSES, seed=5)
        write_trace_v2(
            path, records,
            meta={"benchmark": "mcf"}, codec="gzip", block_records=128,
        )
        # Flip payload bytes of the LAST block: its records live only in
        # shard 1 of 2, so shard 0 must replay clean and only shard 1
        # must report the corruption.
        last = BlockTraceReader(path).blocks[-1]
        with open(path, "r+b") as fh:
            fh.seek(last.offset + 4 + 5)  # past the u32 size prefix
            fh.write(b"\xff\xff\xff")
        with pytest.raises(TraceFormatError, match=r"shard 1/2 of .*corrupt"):
            SuiteRunner(jobs=1).replay_shards(path, shards=2)

    def test_clean_shard_of_corrupt_file_still_replays(self, tmp_path):
        from repro.cpu.blocktrace import BlockTraceReader
        from repro.experiments.runner import _shard_replay_worker

        path = str(tmp_path / "tail-corrupt.trace.v2")
        write_trace_v2(
            path, get_profile("mcf").generate(ACCESSES, seed=5),
            meta={"benchmark": "mcf"}, codec="gzip", block_records=128,
        )
        last = BlockTraceReader(path).blocks[-1]
        with open(path, "r+b") as fh:
            fh.seek(last.offset + 4 + 5)
            fh.write(b"\xff\xff\xff")
        rows = _shard_replay_worker(path, 0, 2, None, None)
        assert rows["instructions"] > 0


class TestSpool:
    def test_suite_spool_writes_v2(self, tmp_path):
        # The runner's spool-once-replay-everywhere path now spools v2.
        from repro.cpu.tracefile import open_trace, sniff_trace_version
        from repro.experiments.runner import _spool_streams

        spooled = _spool_streams(
            {"mcf": get_profile("mcf")}, accesses=200, seed=1,
            spool_dir=str(tmp_path),
        )
        for bench, path in spooled.items():
            assert path.endswith(".trace.v2")
            assert os.path.exists(path)
            assert sniff_trace_version(path) == "v2"
            reader = open_trace(path)
            assert reader.count == 200
            assert reader.meta["benchmark"] == bench
