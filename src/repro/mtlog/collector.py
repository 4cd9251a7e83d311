"""Per-cluster log collection.

:class:`LogCollector` plays the role of the per-node log files plus the
Logstash agents of the paper's deployment: every record is appended to the
emitting node's stream and to a global stream, and live subscribers (the
online log analysis of the injection phase) are notified in FIFO order.

Scale kernel (DESIGN.md "Scale kernel"): pass ``spill_threshold`` to put
the global stream on a :class:`~repro.mtlog.spill.SpillingRecordStream` —
a bounded in-memory window with chunked JSONL spill and transparent
replay, so a million-record run does not hold every record alive.  In
spill mode the per-node view keeps counts instead of record references
(materializing a node's records scans the stream — it is a debugging
surface, not a hot path).  Without the flag, behaviour and memory layout
are byte-identical to the pre-spill collector.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.mtlog.records import LogRecord
from repro.mtlog.spill import SpillingRecordStream

Subscriber = Callable[[LogRecord], None]


class SpillingNodeIndex:
    """Per-node view of a spilling stream: counts held, records scanned."""

    def __init__(self, stream: SpillingRecordStream):
        self._stream = stream
        self._counts: Dict[str, int] = {}

    def note(self, node: str) -> None:
        self._counts[node] = self._counts.get(node, 0) + 1

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def __getitem__(self, node: str) -> List[LogRecord]:
        if node not in self._counts:
            raise KeyError(node)
        return [r for r in self._stream if r.node == node]

    def __contains__(self, node: object) -> bool:
        return node in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


class LogCollector:
    """Accumulates log records for one cluster run."""

    def __init__(self, spill_threshold: Optional[int] = None,
                 spill_dir: Optional[str] = None) -> None:
        self._spilling = bool(spill_threshold)
        if self._spilling:
            self.records = SpillingRecordStream(spill_threshold, spill_dir)
            self.by_node = SpillingNodeIndex(self.records)
        else:
            self.records: List[LogRecord] = []
            self.by_node: Dict[str, List[LogRecord]] = defaultdict(list)
        self._subscribers: List[Subscriber] = []
        #: (subscriber, record, exception) for every isolated failure
        self.subscriber_errors: List[Tuple[Subscriber, LogRecord, BaseException]] = []

    def collect(self, record: LogRecord) -> None:
        self.records.append(record)
        if self._spilling:
            self.by_node.note(record.node)
        else:
            self.by_node[record.node].append(record)
        # A subscriber is a live tail, not part of the system under test:
        # one raising must neither abort the remaining subscribers nor
        # leak into the logging node's handler (where the node's exception
        # policy would misattribute it as a system failure).
        for subscriber in list(self._subscribers):
            try:
                subscriber(record)
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.subscriber_errors.append((subscriber, record, exc))

    def subscribe(self, subscriber: Subscriber) -> None:
        """Attach a live tail (e.g. the online log analysis agent)."""
        self._subscribers.append(subscriber)

    # ------------------------------------------------------------------
    # query helpers used by oracles and tests.  Records render their
    # message lazily (see LogRecord): these text-side helpers are the
    # places that force rendering, which is fine off the hot path —
    # the per-record cache means each record formats at most once.
    # ------------------------------------------------------------------
    def errors(self) -> List[LogRecord]:
        """All records at level error or fatal."""
        return [r for r in self.records if r.is_error]

    def messages(self) -> List[str]:
        return [r.message for r in self.records]

    def grep(self, needle: str) -> List[LogRecord]:
        return [r for r in self.records if needle in r.message]

    def __len__(self) -> int:
        return len(self.records)
