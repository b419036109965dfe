"""The content-addressed result store.

Completed diagnoses are persisted as JSONL, one record per line, keyed
by the crash-signature digest.  A re-submitted report whose signature is
already present returns the cached causality chain without re-running
LIFS or Causality Analysis — the property that lets the triage service
absorb repeat traffic.

The file is append-only (crash-safe: a torn final line is skipped on
load and overwritten by the next append); on re-put of an existing
digest the *last* record wins, so refreshing a diagnosis is just another
append.  With ``path=None`` the store is memory-only, for tests and
one-shot runs.

File-backed stores do **not** hold records in memory.  Opening the
store scans the file exactly once and builds a digest → (byte offset,
length) index; a ``get`` seeks straight to its line and parses only
that record, and an append extends the index without re-reading
anything.  This is what makes one store file usable as the *cold
tier* of the daemon's two-tier cache (:mod:`repro.daemon.tiers`,
``store/results.jsonl``): the hot LRU tier absorbs repeats, and a cold
lookup costs one seek + one line, not a file scan, however many
records the file holds.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, Optional, Tuple


class ResultStore:
    """Persistent digest → diagnosis-record cache (offset-indexed)."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        #: Memory-only records (``path=None`` stores nothing on disk).
        self._records: Dict[str, dict] = {}
        #: File-backed index: digest -> (byte offset, byte length) of the
        #: latest record's line.  Built once at open, updated on append.
        self._index: Dict[str, Tuple[int, int]] = {}
        self._reader = None
        #: Lines that failed to parse on load (torn writes, corruption).
        self.skipped_lines = 0
        if path is not None and os.path.exists(path):
            self._build_index(path)

    # -- the offset index ----------------------------------------------
    def _build_index(self, path: str) -> None:
        """One sequential scan recording where every record lives."""
        offset = 0
        with open(path, "rb") as fh:
            for raw in fh:
                length = len(raw)
                line = raw.strip()
                if line:
                    try:
                        entry = json.loads(line.decode("utf-8"))
                        digest = entry["digest"]
                        entry["record"]
                    except (ValueError, KeyError, TypeError,
                            UnicodeDecodeError):
                        self.skipped_lines += 1
                    else:
                        self._index[digest] = (offset, length)
                offset += length

    def _read_at(self, offset: int, length: int) -> dict:
        if self._reader is None:
            self._reader = open(self.path, "rb")
        self._reader.seek(offset)
        raw = self._reader.read(length)
        return json.loads(raw.decode("utf-8"))["record"]

    def _drop_reader(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[dict]:
        if self.path is None:
            return self._records.get(digest)
        where = self._index.get(digest)
        if where is None:
            return None
        return self._read_at(*where)

    def put(self, digest: str, record: dict) -> None:
        if self.path is None:
            self._records[digest] = record
            return
        line = json.dumps({"digest": digest, "record": record},
                          sort_keys=True)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        data = line.encode("utf-8") + b"\n"
        with open(self.path, "ab+") as fh:
            # A torn final line (crash mid-append) must not bleed
            # into this record: start a fresh line if the file
            # doesn't end with one.
            fh.seek(0, os.SEEK_END)
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            offset = fh.tell()
            fh.write(data)
        self._index[digest] = (offset, len(data))

    def __contains__(self, digest: str) -> bool:
        if self.path is None:
            return digest in self._records
        return digest in self._index

    def __len__(self) -> int:
        if self.path is None:
            return len(self._records)
        return len(self._index)

    def digests(self) -> Iterator[str]:
        if self.path is None:
            return iter(self._records)
        return iter(self._index)

    def records(self) -> Iterator[Tuple[str, dict]]:
        """Iterate ``(digest, record)`` pairs, latest record per digest.

        File-backed stores reuse the offset index — one seek + one line
        parse per record, never a full-file rescan — so bulk consumers
        (the experience-index loader, reporting) pay the same per-record
        cost as :meth:`get`.  Records are yielded in index order
        (insertion order of first appearance); mutating the store while
        iterating is undefined."""
        if self.path is None:
            for digest, record in self._records.items():
                yield digest, record
            return
        for digest, where in self._index.items():
            yield digest, self._read_at(*where)

    def compact(self) -> None:
        """Rewrite the file with one line per digest (drops superseded
        records left behind by append-on-update) and rebuild the index."""
        if self.path is None:
            return
        tmp = self.path + ".tmp"
        new_index: Dict[str, Tuple[int, int]] = {}
        offset = 0
        with open(tmp, "wb") as fh:
            for digest in list(self._index):
                record = self.get(digest)
                data = json.dumps({"digest": digest, "record": record},
                                  sort_keys=True).encode("utf-8") + b"\n"
                fh.write(data)
                new_index[digest] = (offset, len(data))
                offset += len(data)
        self._drop_reader()
        os.replace(tmp, self.path)
        self._index = new_index

    def close(self) -> None:
        """Release the read handle (the store stays usable; the next
        ``get`` reopens it)."""
        self._drop_reader()

    def __repr__(self) -> str:
        where = self.path or "<memory>"
        return f"<ResultStore {where}: {len(self)} record(s)>"
