"""Seekable block-compressed trace I/O: the ``repro.trace.v2`` format.

Traces are this library's textbook write-once / read-many asymmetry:
recorded once, replayed by every selector x config cell of every suite.
The ``repro.trace.v1`` format (:mod:`repro.cpu.tracefile`) is one
monolithic gzip stream, so a reader that needs accesses ``[N, M)`` must
decode from byte 0 and a multi-GB import cannot be split across pool
workers at all.  ``repro.trace.v2`` spends a little encode-time effort to
make decode-side access patterns cheap forever after:

- records are packed into **independently compressed blocks** (zstd when
  the ``zstandard`` module is available, gzip otherwise — recorded
  per-file, so files travel between machines with different codecs
  installed, failing loudly rather than misdecoding);
- a **footer index** maps record offsets to byte offsets, so
  :meth:`BlockTraceReader.seek` reaches any record by decoding at most
  one block, :meth:`BlockTraceReader.slice` yields re-iterable
  ``[start, stop)`` cursors, and :meth:`BlockTraceReader.shard` splits
  one trace into ``k`` disjoint, contiguous cursors whose concatenation
  is exactly the full stream — the unit of parallel replay;
- block boundaries can be **aligned to phase edges** (``align=N`` forces
  a boundary at every multiple of ``N`` records), so phase-grained
  replay (:func:`repro.sim.simulate_phases` windows) never splits a
  block.

Layout of a ``repro.trace.v2`` file (a plain binary file — *not* wrapped
in an outer compression stream; only block payloads are compressed)::

    MAGIC (8 bytes: b"REPROTR2")
    header line: JSON {"schema": "repro.trace.v2", "codec": ...,
                       "block_records": ..., "meta": {...}} + "\\n"
    blocks: each [u32 compressed size][compressed records]
    index line: JSON {"count": total, "blocks": [[start_record,
                      byte_offset, records, compressed_bytes, crc32],
                      ...]} + "\\n"
    trailer (16 bytes): u64 index byte offset + b"REPROIX2"

Records use the same 21-byte packed encoding as v1 (``pc`` u64,
``address`` u64, ``nonmem_before`` u32, flags byte), so converting
between containers is lossless by construction.

Integrity rules mirror the v1 tracefile discipline — failures raise
:class:`~repro.cpu.tracefile.TraceFormatError`, never a short read:

- a file without its trailer/index (interrupted writer, clipped
  download) is **truncated**;
- the index is validated eagerly at open: block byte offsets must chain
  contiguously from the header to the index, record offsets must chain
  contiguously from 0 to ``count`` — a doctored index is rejected in
  O(index) without touching block payloads;
- each block is checked on decode: the on-disk size prefix must match
  the index entry, the CRC-32 of the compressed payload must match, and
  the decompressed size must be exactly ``records x 21`` bytes.
"""

from __future__ import annotations

import gzip
import json
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.common.types import AccessType
from repro.cpu.trace import TraceRecord
from repro.cpu.tracefile import (
    _FLAG_DEPENDENT,
    _FLAG_STORE,
    _RECORD,
    TraceFormatError,
    _read_exact,
)

#: Schema identifier embedded in (and required of) every v2 trace file.
TRACE_V2_SCHEMA = "repro.trace.v2"

#: File magic preceding the JSON header.
TRACE_V2_MAGIC = b"REPROTR2"

#: Magic closing the 16-byte trailer (follows the u64 index offset).
INDEX_MAGIC = b"REPROIX2"

#: Default records per block.  ~86 KB packed per block: large enough to
#: compress well, small enough that a seek decodes little excess.
BLOCK_RECORDS = 4096

_BLOCK_HEADER = struct.Struct("<I")
_TRAILER = struct.Struct("<Q8s")

__all__ = [
    "BLOCK_RECORDS",
    "BlockEntry",
    "BlockTraceReader",
    "BlockTraceWriter",
    "INDEX_MAGIC",
    "TRACE_V2_MAGIC",
    "TRACE_V2_SCHEMA",
    "TraceSlice",
    "available_codecs",
    "default_codec",
    "read_info_v2",
    "write_trace_v2",
]


# -- codecs ------------------------------------------------------------------


def _zstd_module():
    """The ``zstandard`` module, or ``None`` when not installed."""
    try:
        import zstandard
    except ImportError:
        return None
    return zstandard


def available_codecs() -> List[str]:
    """Block codecs usable in this interpreter (zstd only if installed)."""
    codecs = ["gzip", "none"]
    if _zstd_module() is not None:
        codecs.insert(0, "zstd")
    return codecs


def default_codec() -> str:
    """The preferred codec: zstd when available, gzip otherwise."""
    return "zstd" if _zstd_module() is not None else "gzip"


#: Codec names any conforming file may carry (independent of what this
#: interpreter can decode — availability is checked at decode time).
KNOWN_CODECS = ("zstd", "gzip", "none")


def _compress(codec: str, data: bytes, level: Optional[int]) -> bytes:
    if codec == "gzip":
        # mtime=0 keeps output deterministic (equal records -> equal bytes).
        return gzip.compress(
            data, compresslevel=6 if level is None else level, mtime=0
        )
    if codec == "none":
        return data
    if codec == "zstd":
        zstd = _zstd_module()
        if zstd is None:
            raise ValueError(
                "codec 'zstd' needs the zstandard module (not installed); "
                f"available: {', '.join(available_codecs())}"
            )
        return zstd.ZstdCompressor(
            level=3 if level is None else level
        ).compress(data)
    raise ValueError(
        f"unknown trace codec {codec!r} (known: {', '.join(KNOWN_CODECS)})"
    )


def _decompress(codec: str, data: bytes, expected: int) -> bytes:
    try:
        if codec == "gzip":
            return gzip.decompress(data)
        if codec == "none":
            return data
        if codec == "zstd":
            zstd = _zstd_module()
            if zstd is None:
                raise TraceFormatError(
                    "trace uses codec 'zstd' but the zstandard module is "
                    "not installed; convert it on a machine that has it "
                    "(repro trace convert --codec gzip) or install zstandard"
                )
            return zstd.ZstdDecompressor().decompress(
                data, max_output_size=expected
            )
    except (OSError, zlib.error, ValueError) as exc:
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(f"undecodable {codec} block: {exc}") from exc
    raise TraceFormatError(
        f"unknown trace codec {codec!r} (known: {', '.join(KNOWN_CODECS)})"
    )


# -- writer ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockEntry:
    """One block's row in the footer index.

    Attributes:
        start: record offset of the block's first record.
        offset: byte offset of the block's u32 size prefix.
        records: records packed in the block.
        compressed_bytes: size of the compressed payload.
        crc32: CRC-32 of the compressed payload (doctored-block check).
    """

    start: int
    offset: int
    records: int
    compressed_bytes: int
    crc32: int


class BlockTraceWriter:
    """Streams trace records into a ``repro.trace.v2`` file.

    Usable as a context manager; :meth:`close` finalizes the index and
    trailer, without which a reader treats the file as truncated (the
    same interrupted-write discipline as the v1 :class:`TraceWriter`).

    Args:
        path: output file path (conventionally ``*.trace.v2``).
        meta: JSON-serializable provenance stored in the header.
        codec: block codec (``zstd``/``gzip``/``none``; default
            :func:`default_codec`).  Recorded in the header, so readers
            never guess.
        block_records: records per block (the seek granularity /
            compression-ratio trade-off).
        align: force a block boundary at every multiple of ``align``
            records, so a phase-grained replay window of ``align``
            records never spans a block.  Blocks still split at
            ``block_records`` in between.
        level: codec compression level (codec-specific default when
            ``None``).
    """

    def __init__(
        self,
        path: str,
        meta: Optional[Dict[str, Any]] = None,
        codec: Optional[str] = None,
        block_records: int = BLOCK_RECORDS,
        align: Optional[int] = None,
        level: Optional[int] = None,
    ):
        if block_records < 1:
            raise ValueError("block_records must be >= 1")
        if align is not None and align < 1:
            raise ValueError("align must be >= 1")
        self.path = path
        self.meta = dict(meta or {})
        self.codec = codec or default_codec()
        if self.codec not in available_codecs():
            raise ValueError(
                f"codec {self.codec!r} is not available here "
                f"(available: {', '.join(available_codecs())})"
            )
        self.block_records = block_records
        self.align = align
        self.level = level
        self.count = 0
        self._entries: List[BlockEntry] = []
        self._buffer = bytearray()
        self._buffered = 0
        self._closed = False
        header = {
            "schema": TRACE_V2_SCHEMA,
            "codec": self.codec,
            "block_records": block_records,
            "meta": self.meta,
        }
        header_line = json.dumps(header, sort_keys=True).encode("utf-8")
        self._fh = open(path, "wb")
        try:
            self._fh.write(TRACE_V2_MAGIC)
            self._fh.write(header_line)
            self._fh.write(b"\n")
        except BaseException:
            self._fh.close()
            raise

    def write(self, record: TraceRecord) -> None:
        """Append one record (buffered; compressed a block at a time)."""
        if self._closed:
            raise ValueError("write() on a closed BlockTraceWriter")
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
                f"record {self.count} does not fit the v2 encoding "
                f"(pc/address must be u64, nonmem_before u32): {record!r}"
            ) from exc
        self._buffered += 1
        self.count += 1
        if self.align is not None and self.count % self.align == 0:
            # A phase edge: end the block here so a phase-grained slice
            # never decodes records of a neighbouring phase.
            self.end_block()
        elif self._buffered >= self.block_records:
            self.end_block()

    def write_all(self, records: Iterable[TraceRecord]) -> int:
        """Append every record of an iterable; returns how many."""
        before = self.count
        for record in records:
            self.write(record)
        return self.count - before

    def end_block(self) -> None:
        """Compress and flush the buffered records as one block.

        Public so callers with structural knowledge (phase edges the
        ``align`` heuristic cannot express) can force a boundary; a
        no-op when nothing is buffered.
        """
        if not self._buffered:
            return
        payload = _compress(self.codec, bytes(self._buffer), self.level)
        self._entries.append(
            BlockEntry(
                start=self.count - self._buffered,
                offset=self._fh.tell(),
                records=self._buffered,
                compressed_bytes=len(payload),
                crc32=zlib.crc32(payload),
            )
        )
        self._fh.write(_BLOCK_HEADER.pack(len(payload)))
        self._fh.write(payload)
        self._buffer.clear()
        self._buffered = 0

    def close(self, abort: bool = False) -> None:
        """Flush, write the footer index and trailer, close.

        Args:
            abort: close *without* finalizing, leaving the file without
                its index/trailer so readers reject it as truncated
                (used when the record source raised mid-write).
        """
        if self._closed:
            return
        self._closed = True
        try:
            if not abort:
                self.end_block()
                index_offset = self._fh.tell()
                index = {
                    "count": self.count,
                    "blocks": [
                        [
                            entry.start,
                            entry.offset,
                            entry.records,
                            entry.compressed_bytes,
                            entry.crc32,
                        ]
                        for entry in self._entries
                    ],
                }
                self._fh.write(json.dumps(index).encode("utf-8"))
                self._fh.write(b"\n")
                self._fh.write(_TRAILER.pack(index_offset, INDEX_MAGIC))
        finally:
            self._fh.close()

    def __enter__(self) -> "BlockTraceWriter":
        return self

    def __exit__(self, exc_type, *exc_info: Any) -> None:
        # Same discipline as the v1 writer: an exception inside the
        # with-body must not finalize — a complete-looking file whose
        # count disagrees with its provenance is worse than a loudly
        # truncated one.
        self.close(abort=exc_type is not None)


# -- reader ------------------------------------------------------------------


def _parse_header(fh) -> Dict[str, Any]:
    magic = fh.read(len(TRACE_V2_MAGIC))
    if magic != TRACE_V2_MAGIC:
        raise TraceFormatError(
            f"bad magic {magic!r}: not a {TRACE_V2_SCHEMA} trace file"
        )
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise TraceFormatError("truncated trace file: unterminated header")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"malformed trace header: {exc}") from exc
    schema = header.get("schema")
    if schema != TRACE_V2_SCHEMA:
        raise TraceFormatError(
            f"unsupported trace schema {schema!r} "
            f"(supported: {TRACE_V2_SCHEMA})"
        )
    if not isinstance(header.get("meta"), dict):
        raise TraceFormatError("trace header carries no meta object")
    codec = header.get("codec")
    if codec not in KNOWN_CODECS:
        raise TraceFormatError(
            f"unknown trace codec {codec!r} "
            f"(known: {', '.join(KNOWN_CODECS)})"
        )
    if not isinstance(header.get("block_records"), int):
        raise TraceFormatError("trace header carries no block_records")
    return header


def _parse_index(
    line: bytes, header_end: int, index_offset: int
) -> tuple:
    """Validate the footer index; returns ``(count, [BlockEntry, ...])``.

    The whole geometry is cross-checked eagerly — record offsets must
    chain contiguously from 0 to ``count`` and byte offsets must chain
    contiguously from the header to the index — so a doctored index is
    rejected here, in O(index), before any payload is decoded.
    """
    if not line.endswith(b"\n"):
        raise TraceFormatError("truncated trace file: unterminated index")
    try:
        index = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"malformed trace index: {exc}") from exc
    count = index.get("count")
    blocks = index.get("blocks")
    if not isinstance(count, int) or not isinstance(blocks, list):
        raise TraceFormatError("trace index carries no count/blocks")
    entries: List[BlockEntry] = []
    expected_start = 0
    expected_offset = header_end
    for position, raw in enumerate(blocks):
        if not (
            isinstance(raw, list)
            and len(raw) == 5
            and all(isinstance(field, int) for field in raw)
        ):
            raise TraceFormatError(
                f"trace index block {position} is malformed: {raw!r}"
            )
        entry = BlockEntry(*raw)
        if entry.records < 1 or entry.compressed_bytes < 0:
            raise TraceFormatError(
                f"trace index block {position} has impossible geometry"
            )
        if entry.start != expected_start:
            raise TraceFormatError(
                f"trace index block {position} starts at record "
                f"{entry.start}, expected {expected_start} (doctored index)"
            )
        if entry.offset != expected_offset:
            raise TraceFormatError(
                f"trace index block {position} claims byte offset "
                f"{entry.offset}, expected {expected_offset} (doctored index)"
            )
        expected_start += entry.records
        expected_offset += _BLOCK_HEADER.size + entry.compressed_bytes
        entries.append(entry)
    if expected_start != count:
        raise TraceFormatError(
            f"trace index declares {count} records but its blocks sum to "
            f"{expected_start}"
        )
    if expected_offset != index_offset:
        raise TraceFormatError(
            "trace index geometry does not reach the index offset "
            f"({expected_offset} != {index_offset}): truncated or doctored"
        )
    return count, entries


class TraceSlice:
    """A re-iterable cursor over records ``[start, stop)`` of a v2 trace.

    Quacks like a trace for the rest of the library: every ``iter()``
    opens a fresh cursor (so one slice can feed a baseline run and a
    selector run the identical sub-stream), and ``count`` is known
    up front.  Produced by :meth:`BlockTraceReader.slice` /
    :meth:`BlockTraceReader.shard`.
    """

    def __init__(self, reader: "BlockTraceReader", start: int, stop: int):
        self.reader = reader
        self.start = start
        self.stop = stop
        self.meta = reader.meta

    @property
    def count(self) -> int:
        """Records in the slice."""
        return self.stop - self.start

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.reader._iter_records(self.start, self.stop)

    def __repr__(self) -> str:
        return (
            f"TraceSlice(path={self.reader.path!r}, "
            f"start={self.start}, stop={self.stop})"
        )


class BlockTraceReader:
    """Indexed, seekable reader for a ``repro.trace.v2`` file.

    The header **and the footer index** are read eagerly at
    construction — O(index), never O(file) — so ``count`` and the block
    geometry are known before any record is decoded.  Every cursor
    (``iter()``, :meth:`seek`, :meth:`slice`, :meth:`shard`) opens an
    independent file handle, so readers and their slices can be
    iterated concurrently and repeatedly.

    Attributes:
        path: the trace file.
        meta: provenance dict recorded by the writer.
        codec: per-file block codec (``zstd``/``gzip``/``none``).
        block_records: the writer's block-size setting.
        count: total records (from the validated index).
        blocks: the index — a list of :class:`BlockEntry`.
        blocks_decoded: blocks decompressed through this reader (and its
            slices) so far; tests pin ``seek`` to "at most one block
            decoded before the first record yields" with it.
    """

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as fh:
            header = _parse_header(fh)
            header_end = fh.tell()
            fh.seek(0, 2)
            size = fh.tell()
            if size < header_end + _TRAILER.size:
                raise TraceFormatError(
                    "truncated trace file: missing index trailer"
                )
            fh.seek(size - _TRAILER.size)
            index_offset, trailer_magic = _TRAILER.unpack(
                fh.read(_TRAILER.size)
            )
            if trailer_magic != INDEX_MAGIC:
                raise TraceFormatError(
                    "truncated trace file: missing index trailer "
                    "(writer interrupted, or file clipped)"
                )
            if not header_end <= index_offset <= size - _TRAILER.size:
                raise TraceFormatError(
                    f"trace index offset {index_offset} is outside the file"
                )
            fh.seek(index_offset)
            line = fh.read(size - _TRAILER.size - index_offset)
            count, entries = _parse_index(line, header_end, index_offset)
        self.schema: str = header["schema"]
        self.meta: Dict[str, Any] = header["meta"]
        self.codec: str = header["codec"]
        self.block_records: int = header["block_records"]
        self.count: int = count
        self.blocks: List[BlockEntry] = entries
        self.blocks_decoded = 0
        self._starts = [entry.start for entry in entries]

    # -- block decoding ------------------------------------------------------

    def _decode_block(self, fh, position: int) -> bytes:
        """Read + verify + decompress one block; returns packed records."""
        entry = self.blocks[position]
        fh.seek(entry.offset)
        (size,) = _BLOCK_HEADER.unpack(
            _read_exact(fh, _BLOCK_HEADER.size, "block header")
        )
        if size != entry.compressed_bytes:
            raise TraceFormatError(
                f"block {position} size prefix {size} disagrees with the "
                f"index ({entry.compressed_bytes}): corrupt or doctored"
            )
        payload = _read_exact(fh, size, "block payload")
        if zlib.crc32(payload) != entry.crc32:
            raise TraceFormatError(
                f"block {position} checksum mismatch: corrupt or doctored"
            )
        data = _decompress(
            self.codec, payload, entry.records * _RECORD.size
        )
        if len(data) != entry.records * _RECORD.size:
            raise TraceFormatError(
                f"block {position} decompressed to {len(data)} bytes, "
                f"expected {entry.records * _RECORD.size}"
            )
        self.blocks_decoded += 1
        return data

    def _iter_records(self, start: int, stop: int) -> Iterator[TraceRecord]:
        """Yield records ``[start, stop)``, decoding only covering blocks.

        Records before ``start`` inside the first covering block are
        skipped as packed bytes (sliced away), never materialized — a
        seek costs exactly one block decode before the first yield.
        """
        if start >= stop:
            return
        load = AccessType.LOAD
        store = AccessType.STORE
        record_size = _RECORD.size
        new_record = tuple.__new__
        position = bisect_right(self._starts, start) - 1
        with open(self.path, "rb") as fh:
            while position < len(self.blocks):
                entry = self.blocks[position]
                if entry.start >= stop:
                    break
                data = self._decode_block(fh, position)
                lo = max(0, start - entry.start)
                hi = min(entry.records, stop - entry.start)
                window = data[lo * record_size : hi * record_size]
                for pc, address, nonmem, flags in _RECORD.iter_unpack(window):
                    yield new_record(TraceRecord, (
                        pc, address, store if flags & _FLAG_STORE else load,
                        nonmem, bool(flags & _FLAG_DEPENDENT),
                    ))
                position += 1

    # -- cursors -------------------------------------------------------------

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._iter_records(0, self.count)

    def seek(self, n: int) -> Iterator[TraceRecord]:
        """A one-shot cursor positioned at record ``n``.

        O(log blocks) to locate; decodes at most one block before the
        first record yields.  ``seek(count)`` is an empty iterator.
        """
        if not 0 <= n <= self.count:
            raise IndexError(
                f"seek({n}) outside trace of {self.count} records"
            )
        return self._iter_records(n, self.count)

    def slice(self, start: int, stop: Optional[int] = None) -> TraceSlice:
        """A re-iterable cursor over records ``[start, stop)``."""
        if stop is None:
            stop = self.count
        if not 0 <= start <= self.count:
            raise IndexError(
                f"slice start {start} outside trace of {self.count} records"
            )
        if not start <= stop <= self.count:
            raise IndexError(
                f"slice stop {stop} outside [{start}, {self.count}]"
            )
        return TraceSlice(self, start, stop)

    def shard(self, index: int, of: int) -> TraceSlice:
        """Shard ``index`` of ``of``: a contiguous, balanced partition.

        The concatenation of ``shard(0, k) ... shard(k-1, k)`` is
        exactly the full stream (pinned by tests), so disjoint shards of
        one trace can replay on different pool workers with nothing
        read twice and nothing skipped.
        """
        if of < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= index < of:
            raise ValueError(f"shard index {index} outside [0, {of})")
        start = index * self.count // of
        stop = (index + 1) * self.count // of
        return TraceSlice(self, start, stop)

    def __repr__(self) -> str:
        return (
            f"BlockTraceReader(path={self.path!r}, codec={self.codec!r}, "
            f"count={self.count}, blocks={len(self.blocks)})"
        )


# -- info / convenience ------------------------------------------------------


def read_info_v2(path: str) -> Dict[str, Any]:
    """Header meta, count, and block geometry — O(index), never O(file)."""
    reader = BlockTraceReader(path)
    compressed = sum(entry.compressed_bytes for entry in reader.blocks)
    geometry: Dict[str, Any] = {
        "blocks": len(reader.blocks),
        "compressed_bytes": compressed,
        "packed_bytes": reader.count * _RECORD.size,
    }
    if reader.blocks:
        sizes = [entry.records for entry in reader.blocks]
        geometry["min_records"] = min(sizes)
        geometry["max_records"] = max(sizes)
    return {
        "schema": reader.schema,
        "meta": reader.meta,
        "count": reader.count,
        "record_bytes": _RECORD.size,
        "codec": reader.codec,
        "block_records": reader.block_records,
        "blocks": len(reader.blocks),
        "block_geometry": geometry,
    }


def write_trace_v2(
    path: str,
    records: Iterable[TraceRecord],
    meta: Optional[Dict[str, Any]] = None,
    codec: Optional[str] = None,
    block_records: int = BLOCK_RECORDS,
    align: Optional[int] = None,
    level: Optional[int] = None,
) -> int:
    """Write an entire record stream to ``path``; returns the count."""
    with BlockTraceWriter(
        path,
        meta=meta,
        codec=codec,
        block_records=block_records,
        align=align,
        level=level,
    ) as writer:
        writer.write_all(records)
    return writer.count
