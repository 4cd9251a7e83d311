"""Spill-to-disk backing for the log collector (scale kernel).

A 100x heavy-traffic run emits 10^5–10^6 :class:`LogRecord` objects; the
seed collector holds every one alive twice (global stream + per-node
stream) for the whole run.  :class:`SpillingRecordStream` keeps a bounded
in-memory window and spills the oldest half as chunked JSONL files the
moment the window fills, replaying chunks transparently on iteration —
oracles and analytics iterate ``collector.records`` exactly as before and
see equal records (:meth:`LogRecord.to_dict` round-trips the identity
tuple; the lazily-rendered message re-renders deterministically).

Fork safety (a forked child may inherit a live stream, spill files and
all):

* chunk file names embed the writing pid, so a child that keeps logging
  after the fork never clobbers its siblings' — or its parent's — chunks;
* the spill directory is removed by a finalizer that only acts in the
  process that created it, so a child's exit never deletes chunks its
  parent still replays.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import weakref
from bisect import bisect_right
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.mtlog.records import LogRecord


def _cleanup_dir(path: str, owner_pid: int) -> None:
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


class SpillingRecordStream:
    """Append-only record sequence with a bounded in-memory window."""

    def __init__(self, threshold: int, spill_dir: Optional[str] = None):
        if threshold < 2:
            raise ValueError(f"spill threshold must be >= 2, got {threshold}")
        self._threshold = threshold
        self._chunk_size = threshold // 2
        self._window: List[LogRecord] = []
        #: (path, count) per spilled chunk, in stream order
        self._chunks: List[Tuple[Path, int]] = []
        #: cumulative record count at the end of each chunk (bisect index)
        self._offsets: List[int] = []
        self._spilled = 0
        self._next_chunk = 0
        self._cached: Optional[Tuple[Path, List[LogRecord]]] = None
        self._dir: Optional[Path] = Path(spill_dir) if spill_dir else None
        self._owns_dir = spill_dir is None

    # ------------------------------------------------------------------
    # spill machinery
    # ------------------------------------------------------------------
    def _ensure_dir(self) -> Path:
        if self._dir is None:
            path = tempfile.mkdtemp(prefix="crashtuner-log-spill-")
            self._dir = Path(path)
            weakref.finalize(self, _cleanup_dir, path, os.getpid())
        elif not self._dir.exists():
            self._dir.mkdir(parents=True, exist_ok=True)
        return self._dir

    def _spill_oldest(self) -> None:
        k = self._chunk_size
        chunk = self._window[:k]
        directory = self._ensure_dir()
        path = directory / f"chunk-{os.getpid()}-{self._next_chunk:08d}.jsonl"
        self._next_chunk += 1
        with open(path, "w", encoding="utf-8") as fh:
            for record in chunk:
                fh.write(json.dumps(record.to_dict(), separators=(",", ":")))
                fh.write("\n")
        del self._window[:k]
        self._spilled += k
        self._chunks.append((path, k))
        self._offsets.append(self._spilled)

    @staticmethod
    def _load(path: Path) -> List[LogRecord]:
        with open(path, "r", encoding="utf-8") as fh:
            return [LogRecord.from_dict(json.loads(line)) for line in fh]

    def _chunk_records(self, index: int) -> List[LogRecord]:
        path, _count = self._chunks[index]
        if self._cached is not None and self._cached[0] == path:
            return self._cached[1]
        records = self._load(path)
        self._cached = (path, records)
        return records

    # ------------------------------------------------------------------
    # sequence surface
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> None:
        self._window.append(record)
        if len(self._window) >= self._threshold:
            self._spill_oldest()

    def __len__(self) -> int:
        return self._spilled + len(self._window)

    def __iter__(self) -> Iterator[LogRecord]:
        for index in range(len(self._chunks)):
            yield from self._chunk_records(index)
        yield from list(self._window)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        if index >= self._spilled:
            return self._window[index - self._spilled]
        chunk_no = bisect_right(self._offsets, index)
        base = self._offsets[chunk_no - 1] if chunk_no else 0
        return self._chunk_records(chunk_no)[index - base]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def spilled(self) -> int:
        """Records currently living on disk rather than in memory."""
        return self._spilled

    def stats(self) -> dict:
        return {
            "total": len(self),
            "spilled": self._spilled,
            "window": len(self._window),
            "chunks": len(self._chunks),
            "threshold": self._threshold,
        }

    def __repr__(self) -> str:
        return (f"<SpillingRecordStream total={len(self)} "
                f"spilled={self._spilled} chunks={len(self._chunks)}>")
