"""An append-only, checksummed, crash-consistent journal of cache entries.

The disk tier's durability format. One record per line::

    J2 <blake2b-8 hex of payload> <canonical-JSON payload>\\n

The first record of a valid journal is a header (``{"format":...,
"version":...}``); every subsequent record is a put (``{"k": digest,
"e": entry}``). Appends are single ``write`` calls on an ``O_APPEND``
descriptor, so concurrent writers interleave at record granularity, and
compaction rewrites the live set through a uniquely named temp file and
one atomic ``os.replace``.

Recovery invariants (what the kill-at-every-byte-offset test pins down):

* every record is **independently verifiable** — the line must end in a
  newline and its payload must match its checksum, so a record is either
  replayed exactly as written or dropped whole;
* a torn or corrupt line (a crash mid-append, a short write, a flipped
  byte) is **dropped and counted**, never partially applied, and never
  hides the verifiable records around it;
* a file whose first valid record is not this journal's header is
  **rejected whole** — a foreign or pre-journal file contributes
  nothing rather than something surprising;
* a **repeated header** — racing openers of an empty journal each write
  one — is skipped, not counted: it is not damage, and an opener that
  finds damage compacts the file, cutting off the appends of every
  other writer that still holds it open.

Dropping records is always safe here because the journal persists pure,
content-keyed cache entries: a lost record costs a recompute, a wrong
record could cost a wrong answer, so the format is designed to make the
second impossible rather than the first rare. Last-put-wins replay keeps
the newest value for a key without needing sequence numbers.

All disk syscalls route through :mod:`repro.serve.faultfs`, so chaos
campaigns can make this module's write path fail like a real disk.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.serve.faultfs import DiskOps
from repro.serve.protocol import canonical

FORMAT = "repro.serve-vsafe-cache"
VERSION = 2

#: Line tag: bumps with any framing change so recovery never misparses.
_TAG = b"J2"

#: Compaction triggers when the journal holds this many times more
#: records than the live set (and at least this many absolute records),
#: bounding file growth to a constant factor of the working set.
COMPACT_FACTOR = 4
COMPACT_MIN_RECORDS = 1024

#: Temp-file sequence counter (per process) for atomic replace writes.
_tmp_seq = 0


def _payload_checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).hexdigest().encode(
        "ascii")


def encode_record(obj: dict) -> bytes:
    """One framed, checksummed journal line for ``obj``."""
    payload = canonical(obj).encode("utf-8")
    return b" ".join((_TAG, _payload_checksum(payload), payload)) + b"\n"


def header_record() -> dict:
    return {"format": FORMAT, "version": VERSION}


def decode_record(line: bytes) -> dict:
    """Parse one journal line; raises ``ValueError`` on any defect.

    The defect taxonomy (torn tail, bad tag, bad checksum, bad JSON) is
    collapsed deliberately: recovery treats every invalid line the same
    way — drop it whole.
    """
    if not line.endswith(b"\n"):
        raise ValueError("torn record (no trailing newline)")
    parts = line.rstrip(b"\n").split(b" ", 2)
    if len(parts) != 3 or parts[0] != _TAG:
        raise ValueError("bad record framing")
    checksum, payload = parts[1], parts[2]
    if _payload_checksum(payload) != checksum:
        raise ValueError("record checksum mismatch")
    obj = json.loads(payload.decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("record payload is not an object")
    return obj


@dataclass
class Recovery:
    """What a journal read yielded, and what it had to drop."""

    #: ``no-file`` | ``loaded`` | ``recovered`` | ``rejected:bad-format``
    #: | ``rejected:unreadable``
    status: str
    entries: "OrderedDict[str, dict]" = field(default_factory=OrderedDict)
    records: int = 0            # valid put records replayed
    dropped_records: int = 0    # invalid lines dropped whole
    dropped_bytes: int = 0

    @property
    def rejected(self) -> bool:
        return self.status.startswith("rejected:")


def read_journal(path: os.PathLike) -> Recovery:
    """Replay a journal from disk, keeping exactly the verifiable records.

    Never raises on file *content* — any byte sequence yields a Recovery
    whose entries are a subset of what some writer durably appended.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return Recovery(status="no-file")
    except OSError:
        return Recovery(status="rejected:unreadable")
    if not raw:
        return Recovery(status="no-file")

    recovery = Recovery(status="loaded")
    saw_header = False
    for line in raw.splitlines(keepends=True):
        try:
            obj = decode_record(line)
        except ValueError:
            recovery.dropped_records += 1
            recovery.dropped_bytes += len(line)
            continue
        if not saw_header:
            # The first *valid* record must be this journal's header;
            # anything else is a foreign file and contributes nothing.
            if obj != header_record():
                return Recovery(status="rejected:bad-format")
            saw_header = True
            continue
        if obj == header_record():
            continue
        digest = obj.get("k")
        entry = obj.get("e")
        if not isinstance(digest, str) or not isinstance(entry, dict):
            recovery.dropped_records += 1
            recovery.dropped_bytes += len(line)
            continue
        recovery.entries[digest] = entry           # last put wins
        recovery.entries.move_to_end(digest)
        recovery.records += 1
    if not saw_header:
        return Recovery(status="rejected:bad-format")
    if recovery.dropped_records:
        recovery.status = "recovered"
    return recovery


class JournalWriter:
    """The write half: open-for-append, framed puts, atomic compaction.

    Raises ``OSError`` out of every method — the owning cache translates
    the first failure into its degraded mode. A short write (the
    syscall persisting fewer bytes than the record) also raises: the
    torn line it left behind is recovery's problem (dropped whole), and
    this writer must not append after it.
    """

    def __init__(self, path: os.PathLike, disk: Optional[DiskOps] = None)\
            -> None:
        self.path = Path(path)
        self.disk = disk if disk is not None else DiskOps()
        self._fd: Optional[int] = None
        self.records = 0          # puts appended since open/compaction
        self.compactions = 0

    def open(self, *, write_header: bool) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = self.disk.open_append(str(self.path))
        if write_header:
            self._append_line(encode_record(header_record()))

    def _append_line(self, line: bytes) -> None:
        written = self.disk.write(self._fd, line)
        if written != len(line):
            raise OSError(
                f"short journal append: {written}/{len(line)} bytes")

    def append(self, digest: str, entry: dict) -> None:
        self._append_line(encode_record({"k": digest, "e": entry}))
        self.records += 1

    def sync(self) -> None:
        if self._fd is not None:
            self.disk.fsync(self._fd)

    def should_compact(self, live_entries: int) -> bool:
        return (self.records >= COMPACT_MIN_RECORDS
                and self.records > COMPACT_FACTOR * max(1, live_entries))

    def compact(self, entries: Dict[str, dict]) -> None:
        """Atomically rewrite the journal to exactly ``entries``.

        Temp file in the same directory, fully written and fsynced, then
        one ``os.replace``: a crash at any instant leaves either the old
        complete journal or the new complete journal on disk.
        """
        global _tmp_seq
        _tmp_seq += 1
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.{_tmp_seq}.tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            try:
                self._write_all(fd, encode_record(header_record()))
                for digest, entry in entries.items():
                    self._write_all(fd, encode_record(
                        {"k": digest, "e": entry}))
                self.disk.fsync(fd)
            finally:
                os.close(fd)
            self.disk.replace(str(tmp), str(self.path))
        except OSError:
            try:
                os.unlink(tmp)                     # no litter on failure
            except OSError:
                pass
            raise
        # Re-point the append descriptor at the new file; the old fd
        # addresses the unlinked inode and must not receive more puts.
        self.close()
        self._fd = self.disk.open_append(str(self.path))
        self.records = 0
        self.compactions += 1

    def _write_all(self, fd: int, line: bytes) -> None:
        written = self.disk.write(fd, line)
        if written != len(line):
            raise OSError(
                f"short compaction write: {written}/{len(line)} bytes")

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None


__all__ = [
    "COMPACT_FACTOR",
    "COMPACT_MIN_RECORDS",
    "FORMAT",
    "VERSION",
    "JournalWriter",
    "Recovery",
    "decode_record",
    "encode_record",
    "header_record",
    "read_journal",
]
