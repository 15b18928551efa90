"""Streaming trace file I/O: the ``repro.trace.v1`` on-disk format.

The paper's comparisons only hold when every selection algorithm is judged
on the *identical* access stream, and the ROADMAP's scale goals need
streams longer than RAM.  This module provides a record-once /
replay-everywhere pipeline:

- :class:`TraceWriter` streams :class:`~repro.cpu.trace.TraceRecord`
  objects to a versioned, gzip-compressed binary file in O(1) memory;
- :class:`TraceReader` replays them lazily — it is re-iterable (every
  ``iter()`` opens a fresh cursor), so one reader can feed a baseline run
  and a selector run the same stream;
- :func:`read_info` inspects a file (header metadata + record count)
  without materializing records.

This module is also the **version dispatch point** for the whole trace
subsystem: :func:`open_trace` sniffs a file and returns the right reader
for its container — the v1 :class:`TraceReader` here, or the seekable
block-compressed v2 :class:`~repro.cpu.blocktrace.BlockTraceReader`
(:mod:`repro.cpu.blocktrace`) — and :func:`read_info` and
:func:`convert_trace` dispatch the same way.  v1 stays fully readable
forever (pinned by the committed fixture in ``tests/data/``); v2 is the
format new recordings and imports default to.

Layout of a ``repro.trace.v1`` file (all inside one gzip stream)::

    MAGIC (8 bytes: b"REPROTRC")
    header line: JSON {"schema": "repro.trace.v1", "meta": {...}} + "\\n"
    frames: [u32 record count n][n fixed-width records], n >= 1
    terminator frame: u32 zero
    footer line: JSON {"count": total_records} + "\\n"

Each record is 21 bytes, little-endian: ``pc`` (u64), ``address`` (u64),
``nonmem_before`` (u32), and a flags byte (bit 0 = store, bit 1 =
dependent).  Frames bound the writer's buffering and let readers stream
without knowing the total length; the mandatory footer is the integrity
cross-check on the payload, so truncated, interrupted, or doctored files
fail loudly instead of replaying short.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
from typing import Any, Dict, Iterable, Iterator, Optional

from repro.common.types import AccessType
from repro.cpu.trace import TraceRecord

#: Schema identifier embedded in (and required of) every trace file.
TRACE_SCHEMA = "repro.trace.v1"

#: File magic preceding the JSON header.
TRACE_MAGIC = b"REPROTRC"

#: Records per frame: bounds writer buffering (~84 KB of packed records).
FRAME_RECORDS = 4096

_RECORD = struct.Struct("<QQIB")
_FRAME_HEADER = struct.Struct("<I")
_FLAG_STORE = 1
_FLAG_DEPENDENT = 2

__all__ = [
    "FRAME_RECORDS",
    "TRACE_MAGIC",
    "TRACE_SCHEMA",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "convert_trace",
    "open_trace",
    "read_info",
    "sniff_trace_version",
    "write_trace",
]


class TraceFormatError(ValueError):
    """The file is not a well-formed ``repro.trace.v1`` trace."""


class TraceWriter:
    """Streams trace records into a ``repro.trace.v1`` file.

    Usable as a context manager; :meth:`close` finalises the terminator
    frame and count footer, without which a reader treats the file as
    truncated.

    Args:
        path: output file path (conventionally ``*.trace.gz``).
        meta: JSON-serializable provenance stored in the header —
            typically the generating benchmark, access count, and seed.
        compresslevel: gzip level (6 balances size against record speed).
    """

    def __init__(
        self,
        path: str,
        meta: Optional[Dict[str, Any]] = None,
        compresslevel: int = 6,
    ):
        self.path = path
        self.meta = dict(meta or {})
        self.count = 0
        self._buffer = bytearray()
        self._buffered = 0
        self._closed = False
        self._fh = gzip.open(path, "wb", compresslevel=compresslevel)
        try:
            header = {"schema": TRACE_SCHEMA, "meta": self.meta}
            self._fh.write(TRACE_MAGIC)
            self._fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            self._fh.write(b"\n")
        except BaseException:
            self._fh.close()
            raise

    def write(self, record: TraceRecord) -> None:
        """Append one record (buffered; flushed a frame at a time)."""
        if self._closed:
            raise ValueError("write() on a closed TraceWriter")
        flags = 0
        if record.access_type is AccessType.STORE:
            flags |= _FLAG_STORE
        if record.dependent:
            flags |= _FLAG_DEPENDENT
        try:
            self._buffer += _RECORD.pack(
                record.pc, record.address, record.nonmem_before, flags
            )
        except struct.error as exc:
            raise ValueError(
                f"record {self.count} does not fit the v1 encoding "
                f"(pc/address must be u64, nonmem_before u32): {record!r}"
            ) from exc
        self._buffered += 1
        self.count += 1
        if self._buffered >= FRAME_RECORDS:
            self._flush_frame()

    def write_all(self, records: Iterable[TraceRecord]) -> int:
        """Append every record of an iterable; returns how many."""
        before = self.count
        for record in records:
            self.write(record)
        return self.count - before

    def _flush_frame(self) -> None:
        if not self._buffered:
            return
        self._fh.write(_FRAME_HEADER.pack(self._buffered))
        self._fh.write(bytes(self._buffer))
        self._buffer.clear()
        self._buffered = 0

    def close(self, abort: bool = False) -> None:
        """Flush, write the terminator frame and count footer, close.

        Args:
            abort: close *without* finalizing.  The file is left without
                its terminator/footer, so readers reject it as truncated
                instead of silently accepting a short but well-formed
                stream.  Used when the record source raised mid-write.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if not abort:
                self._flush_frame()
                self._fh.write(_FRAME_HEADER.pack(0))
                self._fh.write(json.dumps({"count": self.count}).encode("utf-8"))
                self._fh.write(b"\n")
        finally:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, *exc_info: Any) -> None:
        # An exception inside the with-body (interrupted generation,
        # Ctrl-C) must not finalize: a complete-looking file whose count
        # silently disagrees with its recorded provenance is worse than a
        # loudly truncated one.
        self.close(abort=exc_type is not None)


def _read_exact(fh, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise TraceFormatError(
            f"truncated trace file: expected {size} bytes of {what}, "
            f"got {len(data)}"
        )
    return data


def _check_footer_line(line: bytes, total: int) -> None:
    """Validate the count footer against the records actually read.

    The footer is required: it is the integrity cross-check on the
    record payload, so a file with it stripped is treated as doctored,
    not tolerated.
    """
    if not line:
        raise TraceFormatError(
            "truncated trace file: missing count footer"
        )
    try:
        footer = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"malformed trace footer: {exc}") from exc
    declared = footer.get("count")
    if declared != total:
        raise TraceFormatError(
            f"trace footer declares {declared} records, read {total}"
        )


def _read_header(fh) -> Dict[str, Any]:
    magic = fh.read(len(TRACE_MAGIC))
    if magic != TRACE_MAGIC:
        raise TraceFormatError(
            f"bad magic {magic!r}: not a {TRACE_SCHEMA} trace file"
        )
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise TraceFormatError("truncated trace file: unterminated header")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"malformed trace header: {exc}") from exc
    schema = header.get("schema")
    if schema != TRACE_SCHEMA:
        raise TraceFormatError(
            f"unsupported trace schema {schema!r} (supported: {TRACE_SCHEMA})"
        )
    if not isinstance(header.get("meta"), dict):
        raise TraceFormatError("trace header carries no meta object")
    return header


class TraceReader:
    """Lazy, re-iterable reader for a ``repro.trace.v1`` file.

    The header is validated eagerly at construction; records stream on
    demand.  Every ``iter()`` call opens an independent cursor over the
    file, so the reader can be handed directly to
    :func:`repro.sim.simulate` — including twice, for a baseline and a
    selector run over the identical stream.

    Attributes:
        path: the trace file.
        meta: provenance dict recorded by the writer.
        count: record count from the footer (``None`` until known; filled
            in by :func:`read_info` or after one full iteration).
    """

    def __init__(self, path: str):
        self.path = path
        with gzip.open(path, "rb") as fh:
            header = _read_header(fh)
        self.schema: str = header["schema"]
        self.meta: Dict[str, Any] = header["meta"]
        self.count: Optional[int] = None

    def __iter__(self) -> Iterator[TraceRecord]:
        load = AccessType.LOAD
        store = AccessType.STORE
        record_size = _RECORD.size
        new_record = tuple.__new__
        total = 0
        with gzip.open(self.path, "rb") as fh:
            _read_header(fh)
            while True:
                (n,) = _FRAME_HEADER.unpack(
                    _read_exact(fh, _FRAME_HEADER.size, "frame header")
                )
                if n == 0:
                    break
                frame = _read_exact(fh, n * record_size, "frame records")
                for pc, address, nonmem, flags in _RECORD.iter_unpack(frame):
                    yield new_record(TraceRecord, (
                        pc, address, store if flags & _FLAG_STORE else load,
                        nonmem, bool(flags & _FLAG_DEPENDENT),
                    ))
                total += n
            self._check_footer(fh, total)
        self.count = total

    def _check_footer(self, fh, total: int) -> None:
        _check_footer_line(fh.readline(), total)

    def __repr__(self) -> str:
        return f"TraceReader(path={self.path!r}, meta={self.meta!r})"


def _read_info_v1(path: str) -> Dict[str, Any]:
    """v1 info: frames are skipped wholesale (payload read, not unpacked)."""
    with gzip.open(path, "rb") as fh:
        header = _read_header(fh)
        total = 0
        record_size = _RECORD.size
        while True:
            (n,) = _FRAME_HEADER.unpack(
                _read_exact(fh, _FRAME_HEADER.size, "frame header")
            )
            if n == 0:
                break
            _read_exact(fh, n * record_size, "frame records")
            total += n
        _check_footer_line(fh.readline(), total)
    return {
        "schema": header["schema"],
        "meta": header["meta"],
        "count": total,
        "record_bytes": record_size,
    }


def write_trace(
    path: str,
    records: Iterable[TraceRecord],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write an entire record stream to a v1 ``path``; returns the count."""
    with TraceWriter(path, meta=meta) as writer:
        writer.write_all(records)
    return writer.count


# -- version dispatch --------------------------------------------------------


def sniff_trace_version(path: str) -> str:
    """``"v1"`` or ``"v2"`` from the file's leading bytes.

    v2 files open with the raw ``REPROTR2`` magic; v1 files are gzip
    streams (the v1 magic sits inside the compression).  Anything else
    raises :class:`TraceFormatError`; a missing file raises ``OSError``.
    """
    from repro.cpu.blocktrace import TRACE_V2_MAGIC

    with open(path, "rb") as fh:
        head = fh.read(len(TRACE_V2_MAGIC))
    if head == TRACE_V2_MAGIC:
        return "v2"
    if head[:2] == b"\x1f\x8b":  # gzip magic: a candidate v1 container
        return "v1"
    raise TraceFormatError(
        f"{path!r} is not a repro trace file (neither the v2 magic nor a "
        f"gzip-wrapped v1 container)"
    )


def open_trace(path: str):
    """Open a trace file of either version with the right reader.

    Returns a :class:`TraceReader` for ``repro.trace.v1`` files or a
    :class:`~repro.cpu.blocktrace.BlockTraceReader` for
    ``repro.trace.v2`` files.  Both are lazy and re-iterable and carry
    ``.meta``; only the v2 reader has ``.seek`` / ``.slice`` /
    ``.shard`` (and a ``.count`` known before iteration).

    Carries the ``trace_read_io`` fault-injection site (the chaos
    harness's stand-in for a flaky network filesystem): the token is the
    file's basename, so decisions are stable across the randomly named
    spool directories each suite run creates.
    """
    from repro import faults

    faults.fire("trace_read_io", os.path.basename(path))
    if sniff_trace_version(path) == "v2":
        from repro.cpu.blocktrace import BlockTraceReader

        return BlockTraceReader(path)
    return TraceReader(path)


def read_info(path: str) -> Dict[str, Any]:
    """Header metadata plus record count, for either trace version.

    For v1 this scans frame headers (payloads read, never unpacked); for
    v2 it is O(index) — the count and block geometry come straight from
    the footer index, so inspecting a multi-GB trace is instant.
    """
    if sniff_trace_version(path) == "v2":
        from repro.cpu.blocktrace import read_info_v2

        return read_info_v2(path)
    return _read_info_v1(path)


def convert_trace(
    source: str,
    out: str,
    format: str = "v2",
    codec: Optional[str] = None,
    block_records: Optional[int] = None,
    align: Optional[int] = None,
) -> Dict[str, Any]:
    """Re-encode a trace between containers; returns the output's info.

    The record stream and the header ``meta`` are copied verbatim —
    conversion changes the container, never the workload — so a
    converted trace keeps the exact trace identity
    (:func:`repro.store.keys.trace_identity`) of its source and every
    result-store cell key stays byte-stable across container upgrades.

    Args:
        source: a trace file of either version.
        out: output path (conventionally ``*.trace.v2`` / ``*.trace.gz``).
        format: target container (``"v2"`` or ``"v1"``).
        codec: v2 block codec (default :func:`~repro.cpu.blocktrace.
            default_codec`); rejected for v1.
        block_records: v2 records per block; rejected for v1.
        align: v2 phase-edge alignment; rejected for v1.
    """
    reader = open_trace(source)
    if format == "v2":
        from repro.cpu.blocktrace import BLOCK_RECORDS, write_trace_v2

        write_trace_v2(
            out,
            reader,
            meta=dict(reader.meta),
            codec=codec,
            block_records=block_records or BLOCK_RECORDS,
            align=align,
        )
    elif format == "v1":
        if codec is not None or block_records is not None or align is not None:
            raise ValueError(
                "codec/block_records/align are v2 options; the v1 container "
                "is a single gzip stream"
            )
        write_trace(out, reader, meta=dict(reader.meta))
    else:
        raise ValueError(f"unknown trace format {format!r} (known: v1, v2)")
    return read_info(out)
