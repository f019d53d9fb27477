"""The journal's recovery invariants, pinned down byte by byte.

The headline test is *kill-at-every-byte-offset*: for a journal of N
records, truncate the file at every possible byte offset — simulating a
crash whose last append persisted only a prefix — and assert that
recovery always yields exactly the records fully contained in that
prefix, exact-valued, and never raises. The companion byte-flip sweep
does the same for silent corruption. Together they are the proof behind
the cache tier's claim that a damaged journal costs recomputes, never
wrong answers.
"""

import os
import signal
import subprocess
import sys
import time
from collections import OrderedDict

import pytest

from repro.serve.cache import PersistentVsafeCache
from repro.serve.faultfs import FaultyDiskOps
from repro.serve.journal import (
    JournalWriter,
    decode_record,
    encode_record,
    header_record,
    read_journal,
)


def _build_journal(path, entries):
    """A clean journal holding ``entries`` (an OrderedDict), via the
    real writer."""
    writer = JournalWriter(path)
    writer.open(write_header=True)
    for digest, entry in entries.items():
        writer.append(digest, entry)
    writer.sync()
    writer.close()


def _entries(n):
    return OrderedDict(
        (f"digest-{i:02d}",
         {"kind": "sim", "v_end": 2.0 + i * 0.125, "seq": i})
        for i in range(n))


class TestRecordFraming:
    def test_roundtrip(self):
        obj = {"k": "abc", "e": {"v": 1.5}}
        assert decode_record(encode_record(obj)) == obj

    @pytest.mark.parametrize("damage", [
        lambda line: line[:-1],                      # torn: no newline
        lambda line: b"X" + line[1:],                # bad tag
        lambda line: line.replace(b"1.5", b"9.5"),   # checksum mismatch
        lambda line: line[:3] + b" notjson\n",       # bad framing
    ])
    def test_damaged_lines_raise(self, damage):
        line = encode_record({"k": "abc", "e": {"v": 1.5}})
        with pytest.raises(ValueError):
            decode_record(damage(line))

    def test_non_object_payload_rejected(self):
        import hashlib
        payload = b"[1,2,3]"
        checksum = hashlib.blake2b(payload, digest_size=8).hexdigest()
        line = b"J2 " + checksum.encode() + b" " + payload + b"\n"
        with pytest.raises(ValueError):
            decode_record(line)


class TestKillAtEveryByteOffset:
    def test_every_truncation_recovers_the_exact_prefix(self, tmp_path):
        """The acceptance test: crash after persisting any byte prefix
        of the journal, and recovery replays exactly the fully-persisted
        records — an exact-valued subset, never an exception, never a
        partial or altered record."""
        path = tmp_path / "journal"
        entries = _entries(6)
        _build_journal(path, entries)
        raw = path.read_bytes()

        # Record boundaries, independently derived from the encoder.
        lines = [encode_record(header_record())]
        lines += [encode_record({"k": k, "e": e})
                  for k, e in entries.items()]
        assert b"".join(lines) == raw
        boundaries = []
        total = 0
        for line in lines:
            total += len(line)
            boundaries.append(total)

        keys = list(entries)
        for cut in range(len(raw) + 1):
            path.write_bytes(raw[:cut])
            recovery = read_journal(path)        # must never raise
            complete = sum(1 for b in boundaries if b <= cut)
            if cut == 0:
                assert recovery.status == "no-file"
                continue
            if complete == 0:
                # Not even the header persisted whole: the file can
                # contribute nothing.
                assert recovery.status == "rejected:bad-format"
                continue
            expected = OrderedDict(
                (k, entries[k]) for k in keys[:complete - 1])
            assert recovery.entries == expected, f"cut at byte {cut}"
            torn = cut not in boundaries
            assert recovery.status == (
                "recovered" if torn else "loaded")
            assert recovery.dropped_records == (1 if torn else 0)

    def test_truncated_journal_loads_into_a_working_cache(self, tmp_path):
        # End to end: the cache built on a torn journal serves the
        # surviving records exactly and rewrites the file clean.
        path = tmp_path / "journal"
        entries = _entries(4)
        _build_journal(path, entries)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])    # tear the last record

        cache = PersistentVsafeCache(path)
        assert cache.load_status == "recovered"
        assert cache.loaded_entries == 3
        cache.close()
        assert read_journal(path).status == "loaded"   # compacted clean


class TestByteFlipSweep:
    def test_flips_drop_records_never_alter_them(self, tmp_path):
        path = tmp_path / "journal"
        entries = _entries(5)
        _build_journal(path, entries)
        raw = path.read_bytes()

        for offset in range(0, len(raw), 7):     # sampled sweep
            flipped = bytearray(raw)
            flipped[offset] ^= 0x40
            path.write_bytes(bytes(flipped))
            recovery = read_journal(path)        # must never raise
            assert recovery.status in (
                "loaded", "recovered", "rejected:bad-format")
            # Whatever survives is byte-exactly a subset of what was
            # written; a flip may merge/damage records, never mutate
            # one into a different valid value.
            for digest, entry in recovery.entries.items():
                assert entries[digest] == entry, f"flip at byte {offset}"


class TestCompaction:
    def test_compact_rewrites_to_exactly_the_live_set(self, tmp_path):
        path = tmp_path / "journal"
        writer = JournalWriter(path)
        writer.open(write_header=True)
        for i in range(50):
            writer.append("hot", {"v": float(i)})   # 49 dead versions
        writer.append("cold", {"v": -1.0})
        writer.compact({"hot": {"v": 49.0}, "cold": {"v": -1.0}})
        writer.sync()
        # The writer keeps appending to the *new* file.
        writer.append("post", {"v": 7.0})
        writer.close()
        recovery = read_journal(path)
        assert recovery.status == "loaded"
        assert recovery.entries == {"hot": {"v": 49.0},
                                    "cold": {"v": -1.0},
                                    "post": {"v": 7.0}}
        assert writer.compactions == 1

    def test_should_compact_thresholds(self, tmp_path):
        writer = JournalWriter(tmp_path / "journal")
        writer.records = 100
        assert not writer.should_compact(10)       # below absolute floor
        writer.records = 2000
        assert writer.should_compact(10)
        assert not writer.should_compact(1000)     # live set comparable

    def test_failed_replace_leaves_old_journal_and_no_litter(
            self, tmp_path):
        path = tmp_path / "journal"
        entries = _entries(3)
        _build_journal(path, entries)
        before = path.read_bytes()
        writer = JournalWriter(path, FaultyDiskOps(replace_fail=True))
        writer.open(write_header=False)
        with pytest.raises(OSError):
            writer.compact({"only": {"v": 1.0}})
        writer.close()
        assert path.read_bytes() == before       # old file untouched
        assert not list(tmp_path.glob("*.tmp"))  # temp cleaned up


class TestRacingOpeners:
    def test_repeated_header_does_not_cut_off_open_writers(self, tmp_path):
        # Two openers that both found the journal empty each wrote a
        # header. A third opener must load the file as clean — a
        # compaction here would strand the first two writers' later
        # appends on the replaced inode.
        path = tmp_path / "journal"
        first = JournalWriter(path)
        first.open(write_header=True)
        second = JournalWriter(path)
        second.open(write_header=True)
        first.append("a", {"v": 1.0})
        third = PersistentVsafeCache(path)
        assert third.load_status == "loaded"
        first.append("b", {"v": 2.0})
        second.append("c", {"v": 3.0})
        for writer in (first, second):
            writer.close()
        third.close()
        recovery = read_journal(path)
        assert recovery.dropped_records == 0
        assert recovery.entries == {"a": {"v": 1.0}, "b": {"v": 2.0},
                                    "c": {"v": 3.0}}


_CRASH_WRITER = r"""
import sys
from repro.serve.cache import PersistentVsafeCache
cache = PersistentVsafeCache(sys.argv[1])
print("ready", flush=True)
i = 0
while True:
    cache.put(("child", i), {"kind": "sim", "v_end": float(i)})
    cache.flush()
    i += 1
"""


class TestConcurrentWriterCrash:
    def test_sigkill_mid_write_costs_at_most_a_torn_tail(self, tmp_path):
        """A second writer process is SIGKILLed at an arbitrary point in
        its append loop while the survivor keeps writing; the survivor
        and a cold restart both see every surviving record exact-valued
        and at most one torn tail dropped."""
        path = tmp_path / "journal"
        survivor = PersistentVsafeCache(path)
        survivor.put(("parent", 0), {"kind": "sim", "v_end": 100.0})
        survivor.flush()

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"),
                        os.path.join(os.getcwd(), "src")) if p)
        child = subprocess.Popen(
            [sys.executable, "-c", _CRASH_WRITER, str(path)],
            stdout=subprocess.PIPE, env=env)
        try:
            assert child.stdout.readline().strip() == b"ready"
            time.sleep(0.2)                      # let it write a while
            child.send_signal(signal.SIGKILL)    # crash mid-loop
            child.wait(timeout=10)
        finally:
            if child.poll() is None:             # pragma: no cover
                child.kill()
                child.wait()

        # The survivor is unaffected and keeps appending.
        survivor.put(("parent", 1), {"kind": "sim", "v_end": 101.0})
        survivor.flush()
        survivor.close()

        recovery = read_journal(path)
        assert recovery.status in ("loaded", "recovered")
        assert recovery.dropped_records <= 1     # at most the torn tail
        child_records = 0
        for digest, entry in recovery.entries.items():
            assert entry["kind"] == "sim"
            if entry["v_end"] >= 100.0:
                continue
            child_records += 1
        cold = PersistentVsafeCache(path)
        assert cold.get(("parent", 0))["v_end"] == 100.0
        assert cold.get(("parent", 1))["v_end"] == 101.0
        for i in range(child_records):
            assert cold.get(("child", i))["v_end"] == float(i)
        cold.close()
