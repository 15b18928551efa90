"""ChampSim trace ingestion: external traces as first-class workloads.

ChampSim (the ML-DPC / DPC-3 simulator infrastructure most prefetching
papers evaluate on) distributes traces as streams of fixed 64-byte
``input_instr`` records.  This module ingests them — streaming, O(1)
memory — so a real SPEC/GAP trace can be run through every selector and
experiment exactly like a synthetic profile:

- :func:`iter_champsim` / :class:`ChampSimReader` — decode a ChampSim
  trace (``.champsim.xz`` / ``.gz`` / raw) lazily into
  :class:`~repro.cpu.trace.TraceRecord` objects;
- :func:`write_champsim` — the encoding inverse (tests, demo traces);
- :func:`import_trace` — convert a ChampSim or repro-trace (either
  version) file into the imports directory as a provenance-stamped
  trace — a seekable block-compressed ``repro.trace.v2`` file by
  default (the ``repro trace import`` command); previously imported
  ``repro.trace.v1`` files stay registered and readable forever;
- :class:`TraceWorkload` — wraps an imported trace in the
  ``BenchmarkProfile`` stream/generate API so registries, experiments,
  the result store, and the CLI treat it as just another benchmark;
- :func:`register_imported_traces` — scans the imports directory at
  workload-registry load time, so previously imported traces reappear
  in ``repro list`` in every later process.

ChampSim ``input_instr`` layout (64 bytes, little-endian, no padding)::

    u64 ip
    u8  is_branch, u8 branch_taken
    u8  destination_registers[2]
    u8  source_registers[4]
    u64 destination_memory[2]    # store addresses (0 = unused slot)
    u64 source_memory[4]         # load addresses  (0 = unused slot)

Each instruction with at least one non-zero memory slot becomes one
:class:`TraceRecord` per slot (loads first, then stores — ChampSim's own
execute order); instructions with no memory slots accumulate into the
next record's ``nonmem_before``.
"""

from __future__ import annotations

import gzip
import hashlib
import lzma
import os
import struct
import sys
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.common.types import AccessType
from repro.cpu.blocktrace import BlockTraceWriter
from repro.cpu.trace import TraceRecord
from repro.cpu.tracefile import (
    TraceFormatError,
    TraceWriter,
    open_trace,
    sniff_trace_version,
)

#: ChampSim input_instr: ip, is_branch, branch_taken, 2 dest regs,
#: 4 src regs, 2 store addresses, 4 load addresses.
CHAMPSIM_RECORD = struct.Struct("<QBB2B4B2Q4Q")
assert CHAMPSIM_RECORD.size == 64

#: Default imports directory (overridable with $REPRO_IMPORTS or the
#: ``--dir`` option of ``repro trace import``).
DEFAULT_IMPORTS_DIR = ".repro-imports"

#: Suite name every imported trace registers under.
IMPORTED_SUITE = "imported"

#: Live mapping of imported workloads (the ``imported`` suite's dict in
#: the SUITES registry once the first trace registers).
IMPORTED_PROFILES: Dict[str, "TraceWorkload"] = {}

__all__ = [
    "CHAMPSIM_RECORD",
    "ChampSimReader",
    "DEFAULT_IMPORTS_DIR",
    "IMPORTED_PROFILES",
    "IMPORTED_SUITE",
    "TraceWorkload",
    "import_trace",
    "imports_dir",
    "iter_champsim",
    "register_imported_traces",
    "register_trace_workload",
    "write_champsim",
]


def imports_dir(directory: Optional[str] = None) -> str:
    """Resolve the imports directory: argument > $REPRO_IMPORTS > default."""
    return directory or os.environ.get("REPRO_IMPORTS") or DEFAULT_IMPORTS_DIR


def _open_compressed(path: str, mode: str):
    """Open a ChampSim trace for reading/writing by extension."""
    if path.endswith((".xz", ".lzma")):
        return lzma.open(path, mode)
    if path.endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def iter_champsim(path: str) -> Iterator[TraceRecord]:
    """Decode a ChampSim trace lazily into :class:`TraceRecord` objects.

    Loads come from ``source_memory`` slots, stores from
    ``destination_memory`` slots; non-memory instructions accumulate
    into the next record's ``nonmem_before``.  A file whose length is
    not a whole number of 64-byte records raises
    :class:`~repro.cpu.tracefile.TraceFormatError` (truncated download).
    """
    record_size = CHAMPSIM_RECORD.size
    unpack = CHAMPSIM_RECORD.unpack
    load = AccessType.LOAD
    store = AccessType.STORE
    new_record = tuple.__new__
    nonmem = 0
    with _open_compressed(path, "rb") as fh:
        while True:
            chunk = fh.read(record_size)
            if not chunk:
                break
            if len(chunk) != record_size:
                raise TraceFormatError(
                    f"truncated ChampSim trace: trailing {len(chunk)} bytes "
                    f"(records are {record_size} bytes)"
                )
            fields = unpack(chunk)
            # (ip, is_branch, branch_taken, dreg0..1, sreg0..3,
            #  dmem0..1, smem0..3)
            ip = fields[0]
            dest_mem = fields[9:11]
            src_mem = fields[11:15]
            emitted = False
            for address in src_mem:
                if address:
                    yield new_record(TraceRecord, (
                        ip, address, load, 0 if emitted else nonmem, False,
                    ))
                    emitted = True
            for address in dest_mem:
                if address:
                    yield new_record(TraceRecord, (
                        ip, address, store, 0 if emitted else nonmem, False,
                    ))
                    emitted = True
            if emitted:
                nonmem = 0
            else:
                nonmem += 1


class ChampSimReader:
    """Re-iterable lazy reader over a ChampSim-format trace file.

    The ChampSim twin of :class:`~repro.cpu.tracefile.TraceReader`:
    every ``iter()`` opens a fresh cursor, so one reader can feed a
    baseline run and a selector run the identical stream.
    """

    def __init__(self, path: str):
        if not os.path.exists(path):
            raise OSError(f"no such trace file: {path!r}")
        self.path = path

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter_champsim(self.path)

    def __repr__(self) -> str:
        return f"ChampSimReader(path={self.path!r})"


def write_champsim(path: str, records: Iterable[TraceRecord]) -> int:
    """Encode trace records as a ChampSim-format file; returns instr count.

    The inverse of :func:`iter_champsim` (round-trip pinned by tests):
    each record's ``nonmem_before`` becomes that many memory-less filler
    instructions, then one instruction carrying the access in its first
    load/store slot.
    """
    pack = CHAMPSIM_RECORD.pack
    empty = (0, 0, 0, 0, 0, 0, 0, 0)  # branch bytes + reg bytes
    instructions = 0
    with _open_compressed(path, "wb") as fh:
        for record in records:
            for _ in range(record.nonmem_before):
                # Filler non-memory instruction preceding the access.
                fh.write(pack(record.pc, *empty, 0, 0, 0, 0, 0, 0))
                instructions += 1
            if record.access_type is AccessType.STORE:
                mem = (record.address, 0, 0, 0, 0, 0)
            else:
                mem = (0, 0, record.address, 0, 0, 0)
            fh.write(pack(record.pc, *empty, *mem))
            instructions += 1
    return instructions


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _repro_trace_schema(path: str) -> Optional[str]:
    """The repro-trace schema of ``path``, or ``None`` for foreign files.

    v2 is recognized by its raw magic, v1 by the magic inside the gzip
    container; anything else (e.g. a ChampSim trace) returns ``None``.
    """
    from repro.cpu.blocktrace import TRACE_V2_SCHEMA
    from repro.cpu.tracefile import TRACE_MAGIC, TRACE_SCHEMA

    try:
        if sniff_trace_version(path) == "v2":
            return TRACE_V2_SCHEMA
    except (OSError, TraceFormatError):
        return None
    try:
        with gzip.open(path, "rb") as fh:
            if fh.read(len(TRACE_MAGIC)) == TRACE_MAGIC:
                return TRACE_SCHEMA
    except OSError:
        pass
    return None


def _default_name(path: str) -> str:
    name = os.path.basename(path)
    for suffix in (".xz", ".lzma", ".gz", ".v2", ".champsim", ".trace"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return name or "imported"


#: Import-file extension per container format.
_IMPORT_EXTENSIONS = {"v1": ".trace.gz", "v2": ".trace.v2"}


def _make_writer(path: str, meta: Dict[str, Any], format: str, **v2_options):
    """A trace writer for ``format`` (v2 options rejected for v1)."""
    if format == "v2":
        return BlockTraceWriter(path, meta=meta, **v2_options)
    if format == "v1":
        if any(value is not None for value in v2_options.values()):
            raise ValueError(
                "codec/block_records/align are v2 options; the v1 container "
                "is a single gzip stream"
            )
        return TraceWriter(path, meta=meta)
    raise ValueError(f"unknown trace format {format!r} (known: v1, v2)")


def import_trace(
    source: str,
    name: Optional[str] = None,
    directory: Optional[str] = None,
    limit: Optional[int] = None,
    register: bool = True,
    format: str = "v2",
    codec: Optional[str] = None,
    block_records: Optional[int] = None,
    align: Optional[int] = None,
) -> "TraceWorkload":
    """Convert an external trace into the imports directory and register it.

    Args:
        source: a ChampSim-format file (``.champsim.xz`` / ``.gz`` /
            raw) or an existing repro trace of either version.
        name: workload name (default: the source's base name).  The
            output lands at ``<imports dir>/<name>.trace.v2`` (or
            ``.trace.gz`` with ``format="v1"``).
        directory: imports directory (default: ``$REPRO_IMPORTS`` or
            ``.repro-imports``).
        limit: keep only the first ``limit`` records (trimming a
            multi-GB trace to an experiment-sized window).
        register: also register the workload in this process's
            registries (``False`` for throwaway conversions, e.g. the
            self-contained ``scenario_external`` experiment).
        format: output container — ``"v2"`` (default: seekable block
            compression, shardable across pool workers) or ``"v1"``.
        codec: v2 block codec (default: zstd when available, else gzip).
        block_records: v2 records per block.
        align: force v2 block boundaries at every multiple of ``align``
            records, so phase-grained replay (``simulate_phases``
            windows of ``align`` accesses) never splits a block.

    Returns:
        The registered :class:`TraceWorkload` — immediately runnable
        (``repro run <name>``) and visible in ``repro list``; later
        processes re-discover it from the imports directory.

    The written file's meta records full provenance (source file name,
    SHA-256, format, record count) plus the derived ``mem_ratio``, so
    result-store keys of imported-trace cells are content-addressed:
    re-importing a *different* trace under the same name changes every
    affected key.  Container choices (v1/v2, codec, block size) are
    deliberately **not** part of the meta: the records are the workload,
    so re-encoding a trace never moves a store key.
    """
    if name is None:
        name = _default_name(source)
    if format not in _IMPORT_EXTENSIONS:
        raise ValueError(f"unknown trace format {format!r} (known: v1, v2)")
    source_format = _repro_trace_schema(source)
    if source_format is not None:
        reader: Iterable[TraceRecord] = open_trace(source)
    else:
        source_format = "champsim"
        reader = ChampSimReader(source)

    out_dir = imports_dir(directory)
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{name}{_IMPORT_EXTENSIONS[format]}")
    v2_options = {
        "codec": codec,
        "block_records": block_records,
        "align": align,
    }
    if format == "v2":
        from repro.cpu.blocktrace import BLOCK_RECORDS

        v2_options["block_records"] = block_records or BLOCK_RECORDS

    count = 0
    instructions = 0
    meta = {
        "benchmark": name,
        "suite": IMPORTED_SUITE,
        "imported": True,
        "source_format": source_format,
        "source_file": os.path.basename(source),
        "source_sha256": _sha256(source),
        "seed": 0,
    }
    if limit is not None:
        meta["limit"] = limit
    with _make_writer(out_path, meta, format, **v2_options) as writer:
        for record in reader:
            writer.write(record)
            count += 1
            instructions += record.instructions
            if limit is not None and count >= limit:
                break
    if count == 0:
        os.unlink(out_path)
        raise TraceFormatError(
            f"{source!r} contains no memory accesses; nothing to import"
        )
    # Re-write the header with the final counts: the writer streams, so
    # counts are only known after the pass.  Imported traces are bounded
    # by `limit` anyway; a second pass keeps the writers append-only.
    meta["accesses"] = count
    meta["mem_ratio"] = round(count / instructions, 6)
    final_reader = open_trace(out_path)
    tmp_path = out_path + ".tmp"
    with _make_writer(tmp_path, meta, format, **v2_options) as writer:
        writer.write_all(final_reader)
    os.replace(tmp_path, out_path)
    # Drop a stale other-container import of the same name: the sorted
    # registry scan would otherwise resurrect whichever sorts last.
    for extension in _IMPORT_EXTENSIONS.values():
        stale = os.path.join(out_dir, f"{name}{extension}")
        if stale != out_path and os.path.exists(stale):
            os.unlink(stale)
    if register:
        return register_trace_workload(out_path)
    return TraceWorkload(out_path)


class TraceWorkload:
    """An imported repro trace (either version) with the profile stream API.

    Quacks like a :class:`~repro.workloads.profiles.BenchmarkProfile`
    where the rest of the library cares — ``name`` / ``suite`` /
    ``memory_intensive`` / ``mem_ratio`` attributes and
    ``stream()`` / ``generate()`` — so registered imported traces run
    through ``simulate``, ``speedup_suite``, trace spooling, and the
    result store unchanged.

    Differences from synthetic profiles, by design:

    - ``seed`` and ``mem_ratio_scale`` are ignored: the trace *is* the
      workload; there is no generator to perturb.
    - A request for more accesses than the trace holds wraps around and
      replays from the start (the SimPoint-style looping real trace
      studies use), so experiment defaults need no per-trace tuning.

    ``repr`` is content-addressed (the provenance meta, including the
    source SHA-256 — never the local path or the container version),
    which is exactly what :func:`repro.store.keys.trace_identity` folds
    into store keys: converting an import between v1 and v2 containers
    leaves every cell key byte-stable.
    """

    memory_intensive = True

    def __init__(self, path: str):
        reader = open_trace(path)  # validates magic/header/index eagerly
        self.path = path
        self.meta: Dict[str, Any] = dict(reader.meta)
        self.name: str = str(self.meta.get("benchmark") or _default_name(path))
        self.suite: str = IMPORTED_SUITE
        self.mem_ratio: float = float(self.meta.get("mem_ratio", 0.3))
        self.accesses: Optional[int] = self.meta.get("accesses")
        self._reader = reader

    def stream(
        self,
        num_accesses: int,
        seed: int = 0,
        mem_ratio_scale: float = 1.0,
    ) -> Iterator[TraceRecord]:
        """Yield ``num_accesses`` records, wrapping at end-of-trace."""
        remaining = num_accesses
        while remaining > 0:
            yielded = 0
            for record in self._reader:
                yield record
                yielded += 1
                remaining -= 1
                if remaining <= 0:
                    return
            if yielded == 0:
                raise TraceFormatError(f"imported trace {self.path!r} is empty")

    def generate(
        self,
        num_accesses: int,
        seed: int = 0,
        mem_ratio_scale: float = 1.0,
    ) -> List[TraceRecord]:
        """Materialized form of :meth:`stream`."""
        return list(self.stream(num_accesses, seed, mem_ratio_scale))

    def __repr__(self) -> str:
        meta = ", ".join(f"{k}={self.meta[k]!r}" for k in sorted(self.meta))
        return f"TraceWorkload({meta})"


def register_trace_workload(path: str) -> TraceWorkload:
    """Register one imported trace file as a workload (and suite member).

    Flat names never shadow built-in benchmarks: a trace imported as
    ``mcf`` is reachable as ``imported/mcf`` while spec06 keeps the
    flat ``mcf`` (matching :data:`repro.workloads.SUITE_PRECEDENCE`).
    """
    from repro.registry import SUITES, WORKLOADS

    workload = TraceWorkload(path)
    if not IMPORTED_PROFILES and IMPORTED_SUITE not in SUITES:
        SUITES.add(IMPORTED_SUITE, IMPORTED_PROFILES)
    IMPORTED_PROFILES[workload.name] = workload
    WORKLOADS.add(
        f"{IMPORTED_SUITE}/{workload.name}", workload, suite=IMPORTED_SUITE
    )
    # Claim the flat name when it is free — or refresh it when a
    # previous *import* owns it (re-importing different content under
    # the same name must not leave the flat name serving the stale
    # TraceWorkload, whose meta/repr would poison store keys).
    if (
        workload.name not in WORKLOADS
        or WORKLOADS.metadata(workload.name).get("suite") == IMPORTED_SUITE
    ):
        WORKLOADS.add(workload.name, workload, suite=IMPORTED_SUITE)
    return workload


def register_imported_traces(
    directory: Optional[str] = None,
) -> List[TraceWorkload]:
    """Scan the imports directory and register every trace found.

    Called at workload-registry load time (idempotent: re-registration
    overwrites with an equal workload).  Unreadable files are skipped
    with a warning instead of breaking every registry lookup.
    """
    root = imports_dir(directory)
    if not os.path.isdir(root):
        return []
    registered = []
    for entry in sorted(os.listdir(root)):
        if not entry.endswith((".trace.gz", ".trace.v2")):
            continue
        path = os.path.join(root, entry)
        try:
            registered.append(register_trace_workload(path))
        except (OSError, TraceFormatError) as exc:
            print(
                f"repro: skipping unreadable imported trace {path!r}: {exc}",
                file=sys.stderr,
            )
    return registered
