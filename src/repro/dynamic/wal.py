"""The write-ahead log: CRC32-framed mutation records on disk.

The dynamic graph's :attr:`~repro.dynamic.delta.DynamicGraph.history` is
the in-memory source of truth for epoch replay — and evaporates with the
process.  :class:`WriteAheadLog` is its durable twin: every *applied*
mutation batch (and every compaction) is framed, checksummed and appended
to a segment file before the caller is acknowledged, so a fresh process
can reconstruct the exact epoch by replaying the log suffix over the
newest checkpoint (:mod:`repro.runtime.durability`).

Format
------
A log is a directory of numbered segment files (``wal-00000001.seg`` …);
the highest-numbered segment is the append tail and a new segment starts
at every checkpoint so whole segments can be pruned once a checkpoint
covers them.  Each record is one frame::

    <u32 magic> <u32 payload_len> <u32 crc32(payload)> <payload>

with a payload of::

    <i64 epoch> <u8 flags> <u32 n_inserts> <u32 n_deletes>
    <n_inserts x (i64 u, i64 v)> <n_deletes x (i64 u, i64 v)>

(little-endian throughout; flags bit 0 marks a compaction record).  The
frame CRC is the same zlib CRC-32 the message-integrity layer uses
(:func:`~repro.runtime.fault.batch_checksum`).

Torn tails
----------
A crash can land mid-``write(2)``, so opening a log *scans* it: records
are validated in order (magic, length bound, CRC, strictly increasing
epochs) and the first invalid frame marks the torn tail — the segment is
truncated to the last valid record and any later segments (unreachable
without the torn one) are deleted.  The result is always the longest
valid record prefix: never an unhandled exception, never a phantom
record (the property the hypothesis suite tears logs at every byte
offset to pin).

Fsync policy
------------
``always`` fsyncs per append (strongest, slowest); ``batch`` fsyncs once
per :meth:`sync` — the group-commit barrier the service's arrival-queued
mutation lane calls once per drained group; ``none`` never fsyncs (the OS
page cache decides — survives process crashes, not power loss).
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.dynamic.delta import MutationRecord
from repro.errors import CorruptLog

__all__ = [
    "WriteAheadLog",
    "WAL_MAGIC",
    "FSYNC_POLICIES",
    "encode_record",
    "fsync_dir",
]

#: Per-record frame magic ("WAL1" little-endian).
WAL_MAGIC = 0x314C4157

#: The configurable durability/latency trade-offs, strongest first.
FSYNC_POLICIES = ("always", "batch", "none")

_FRAME = struct.Struct("<III")  # magic, payload_len, crc32(payload)
_HEADER = struct.Struct("<qBII")  # epoch, flags, n_inserts, n_deletes

_FLAG_COMPACTION = 0x01

#: Sanity bound on one record's payload (a mutation batch of ~4M edges);
#: a corrupt length field past this is rejected without a giant read.
_MAX_PAYLOAD = 128 * 1024 * 1024


def fsync_dir(path) -> None:
    """fsync a directory so a rename/create inside it is itself durable."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _pairs_bytes(pairs: np.ndarray) -> bytes:
    return np.ascontiguousarray(pairs, dtype=np.int64).tobytes()


def encode_record(record: MutationRecord) -> bytes:
    """One framed, CRC'd wire record for ``record``."""
    ins = np.asarray(record.inserts, dtype=np.int64).reshape(-1, 2)
    dels = np.asarray(record.deletes, dtype=np.int64).reshape(-1, 2)
    flags = _FLAG_COMPACTION if record.compaction else 0
    payload = (
        _HEADER.pack(int(record.epoch), flags, ins.shape[0], dels.shape[0])
        + _pairs_bytes(ins)
        + _pairs_bytes(dels)
    )
    return _FRAME.pack(WAL_MAGIC, len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> MutationRecord:
    epoch, flags, n_ins, n_del = _HEADER.unpack_from(payload)
    expect = _HEADER.size + 16 * (n_ins + n_del)
    if len(payload) != expect:
        raise ValueError("payload length disagrees with its header counts")
    ins = np.frombuffer(
        payload, dtype=np.int64, count=2 * n_ins, offset=_HEADER.size
    ).reshape(n_ins, 2).copy()
    dels = np.frombuffer(
        payload, dtype=np.int64, count=2 * n_del,
        offset=_HEADER.size + 16 * n_ins,
    ).reshape(n_del, 2).copy()
    return MutationRecord(
        int(epoch), ins, dels, compaction=bool(flags & _FLAG_COMPACTION)
    )


def _scan_segment(data: bytes) -> tuple[list[MutationRecord], int]:
    """Valid record prefix of one segment's bytes + its end offset.

    Stops at the first frame that fails any check — a torn or corrupted
    tail; everything before it is intact (CRC-verified)."""
    records: list[MutationRecord] = []
    offset = 0
    size = len(data)
    while offset + _FRAME.size <= size:
        magic, length, crc = _FRAME.unpack_from(data, offset)
        if magic != WAL_MAGIC or length > _MAX_PAYLOAD:
            break
        end = offset + _FRAME.size + length
        if end > size:
            break  # torn mid-payload
        payload = data[offset + _FRAME.size:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(_decode_payload(payload))
        except (ValueError, struct.error):
            break
        offset = end
    return records, offset


class WriteAheadLog:
    """An append-only, segmented, CRC-framed mutation log.

    Opening scans and repairs (torn-tail truncation) the directory;
    :meth:`append` frames one :class:`~repro.dynamic.delta.MutationRecord`
    onto the tail segment under the configured fsync policy;
    :meth:`records` re-reads the validated log for recovery replay;
    :meth:`rotate`/:meth:`prune` implement the checkpoint-coupled
    retention policy.  Counters (`appends`/`fsyncs`/`bytes_written`) feed
    the ``cgraph_wal_*`` telemetry through the injected instrumentation.
    """

    def __init__(self, directory, fsync: str = "batch", instrumentation=None):
        from repro.telemetry.instrument import NULL_INSTRUMENTATION

        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.instr = instrumentation or NULL_INSTRUMENTATION
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.truncated_bytes = 0  # dropped by torn-tail repair on open
        self._handle = None
        self._dirty = False
        #: segment path -> epoch of its last valid record (None if empty).
        self._last_epochs: dict[Path, int | None] = {}
        self.last_epoch: int | None = None
        self._open_and_repair()

    # -- open / repair ------------------------------------------------------- #

    def _segments(self) -> list[Path]:
        return sorted(self.dir.glob("wal-*.seg"))

    def _open_and_repair(self) -> None:
        """Validate every segment in order; truncate at the first invalid
        frame and drop the (unreachable) segments after it."""
        segments = self._segments()
        last_epoch: int | None = None
        torn_at: int | None = None
        for i, seg in enumerate(segments):
            data = seg.read_bytes()
            records, valid_end = _scan_segment(data)
            # A record that parses but steps backwards in epoch is as
            # invalid as a bad CRC: treat the log as torn there.
            keep = 0
            for rec in records:
                if last_epoch is not None and rec.epoch <= last_epoch:
                    break
                last_epoch = rec.epoch
                keep += 1
            if keep < len(records):
                valid_end = sum(
                    len(encode_record(r)) for r in records[:keep]
                )
                records = records[:keep]
            self._last_epochs[seg] = records[-1].epoch if records else None
            if valid_end < len(data):
                self.truncated_bytes += len(data) - valid_end
                with open(seg, "r+b") as fh:
                    fh.truncate(valid_end)
                    fh.flush()
                    os.fsync(fh.fileno())
                torn_at = i
                break
        if torn_at is not None:
            for seg in segments[torn_at + 1:]:
                self.truncated_bytes += seg.stat().st_size
                seg.unlink()
                self._last_epochs.pop(seg, None)
            fsync_dir(self.dir)
        self.last_epoch = last_epoch

    # -- appending ----------------------------------------------------------- #

    @property
    def tail(self) -> Path:
        """The segment new records append to (created on first append)."""
        segments = self._segments()
        if segments:
            return segments[-1]
        return self.dir / "wal-00000001.seg"

    def _tail_handle(self):
        if self._handle is None:
            path = self.tail
            self._handle = open(path, "ab", buffering=0)
            self._last_epochs.setdefault(path, self._last_epochs.get(path))
        return self._handle

    def append(self, record: MutationRecord) -> int:
        """Frame and append one record; returns the bytes written.

        Epochs must be strictly increasing — the same contract as the
        in-memory log, enforced here too so a buggy caller can never
        write a log that open() would truncate as torn."""
        if self.last_epoch is not None and record.epoch <= self.last_epoch:
            raise CorruptLog(
                f"WAL epochs must increase: {record.epoch} after "
                f"{self.last_epoch}"
            )
        frame = encode_record(record)
        handle = self._tail_handle()
        handle.write(frame)
        self._dirty = True
        self.appends += 1
        self.bytes_written += len(frame)
        self.last_epoch = record.epoch
        self._last_epochs[self.tail] = record.epoch
        if self.instr.enabled:
            self.instr.on_wal_append(len(frame))
        if self.fsync_policy == "always":
            self.sync(force=True)
        return len(frame)

    def sync(self, force: bool = False) -> None:
        """The group-commit barrier: fsync the tail if anything is unsynced.

        A no-op under policy ``none`` unless ``force`` (an injected crash
        about to fire makes its own appends durable first)."""
        if not self._dirty or self._handle is None:
            return
        if self.fsync_policy == "none" and not force:
            return
        os.fsync(self._handle.fileno())
        self._dirty = False
        self.fsyncs += 1
        if self.instr.enabled:
            self.instr.on_wal_fsync()

    # -- reading ------------------------------------------------------------- #

    def records(self, after_epoch: int | None = None):
        """Iterate the validated log (epochs > ``after_epoch``), from disk.

        The log was repaired on open and appends are self-checked, so a
        scan failure here means the files changed underneath us."""
        for seg in self._segments():
            data = seg.read_bytes()
            records, valid_end = _scan_segment(data)
            if valid_end < len(data):
                raise CorruptLog(
                    f"{seg.name} corrupted after open "
                    f"(valid to byte {valid_end} of {len(data)})"
                )
            for rec in records:
                if after_epoch is None or rec.epoch > after_epoch:
                    yield rec

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    # -- retention ----------------------------------------------------------- #

    def rotate(self) -> Path:
        """Close the tail and start a fresh segment (checkpoint boundary)."""
        self.sync()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        segments = self._segments()
        seq = 1
        if segments:
            seq = int(segments[-1].stem.split("-")[1]) + 1
        path = self.dir / f"wal-{seq:08d}.seg"
        path.touch()
        self._last_epochs[path] = None
        fsync_dir(self.dir)
        return path

    def prune(self, through_epoch: int) -> int:
        """Delete closed segments whose every record is ``<= through_epoch``
        (i.e. fully covered by a retained checkpoint); returns the count."""
        removed = 0
        segments = self._segments()
        for seg in segments[:-1]:  # never the tail
            last = self._last_epochs.get(seg)
            if last is not None and last > through_epoch:
                break  # epochs increase across segments; nothing later fits
            seg.unlink()
            self._last_epochs.pop(seg, None)
            removed += 1
        if removed:
            fsync_dir(self.dir)
        return removed

    def close(self) -> None:
        self.sync()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog({str(self.dir)!r}, fsync={self.fsync_policy!r}, "
            f"segments={len(self._segments())}, last_epoch={self.last_epoch})"
        )
