"""The upstream-backup send log of UNC and CIC (DESIGN.md section 19).

Every data message the uncoordinated family sends is appended to a
durable per-channel log, so a recovery can replay the in-flight messages
of its line.  The log is the one structure of a run that grows with every
message, and it is only ever read at recovery (replay), by checkpoint
reclamation (truncation) and by offline analysis.  So it is kept
*columnar*: each channel owns one :class:`ChannelLog` whose columns grow
by a few scalars per message, instead of one ``Message`` (plus its
``RecordBatch`` and four column lists) per logged message.  A run's
logged messages then cost the cyclic garbage collector nothing to scan,
and ``Message`` views are built only for the messages a recovery replays.

Two properties of the message-list log this replaces carry over exactly:

* **append order** — a channel's rows stay in send order, including the
  *stale* rows of a rollback: a restored sender re-uses sequence numbers
  above its checkpoint's cursor, and both copies stay logged until
  truncation removes them;
* **replay order** — :meth:`SendLog.replay` selects the rows inside the
  window and stable-sorts them by seq, so of two rows with one seq the
  older one replays first.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from typing import Any

from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import DATA, ChannelId, Message

__all__ = ["ChannelLog", "SendLog"]


class ChannelLog:
    """The logged data messages of one channel, one row per message.

    Message columns (one entry per message): ``seqs``, ``starts`` (offset
    of the message's first record in the record columns), payload and
    protocol bytes, piggybacks and send times.  Record columns (one entry
    per record): rids, payloads, source timestamps and sizes, concatenated
    in message order.
    """

    __slots__ = ("seqs", "starts", "payload_bytes", "protocol_bytes",
                 "sent_at", "piggybacks", "rids", "payloads", "source_ts",
                 "sizes")

    def __init__(self) -> None:
        self.seqs = array("q")
        self.starts = array("q")
        self.payload_bytes = array("q")
        self.protocol_bytes = array("q")
        self.sent_at = array("d")
        self.piggybacks: list[Any] = []
        self.rids: list[int] = []
        self.payloads: list[Any] = []
        self.source_ts: list[float] = []
        self.sizes: list[int] = []

    def __len__(self) -> int:
        """Number of logged messages."""
        return len(self.seqs)

    def append(self, msg: Message) -> None:
        """Copy one message's fields and records into the columns."""
        self.seqs.append(msg.seq)
        self.starts.append(len(self.rids))
        self.payload_bytes.append(msg.payload_bytes)
        self.protocol_bytes.append(msg.protocol_bytes)
        self.sent_at.append(msg.sent_at)
        self.piggybacks.append(msg.piggyback)
        records = msg.records
        if type(records) is RecordBatch:
            self.rids.extend(records.rids)
            self.payloads.extend(records.payloads)
            self.source_ts.extend(records.source_ts)
            self.sizes.extend(records.sizes)
        elif records:
            for record in records:
                self.rids.append(record.rid)
                self.payloads.append(record.payload)
                self.source_ts.append(record.source_ts)
                self.sizes.append(record.size_bytes)

    def _end(self, row: int) -> int:
        """Offset one past the last record of ``row``."""
        return self.starts[row + 1] if row + 1 < len(self.starts) else len(self.rids)

    def message(self, channel: ChannelId, row: int) -> Message:
        """A ``Message`` view of one row (its records as a fresh batch)."""
        start, end = self.starts[row], self._end(row)
        return Message(
            channel=channel,
            seq=self.seqs[row],
            kind=DATA,
            records=RecordBatch(
                rids=self.rids[start:end],
                payloads=self.payloads[start:end],
                source_ts=self.source_ts[start:end],
                sizes=self.sizes[start:end],
            ),
            payload_bytes=self.payload_bytes[row],
            protocol_bytes=self.protocol_bytes[row],
            piggyback=self.piggybacks[row],
            sent_at=self.sent_at[row],
        )

    def keep(self, rows: list[int]) -> None:
        """Keep only ``rows`` (ascending), dropping every other message."""
        spans = [(self.starts[row], self._end(row)) for row in rows]
        starts = array("q")
        offset = 0
        for start, end in spans:
            starts.append(offset)
            offset += end - start
        self.starts = starts
        self.seqs = array("q", [self.seqs[row] for row in rows])
        self.payload_bytes = array("q", [self.payload_bytes[row] for row in rows])
        self.protocol_bytes = array("q", [self.protocol_bytes[row] for row in rows])
        self.sent_at = array("d", [self.sent_at[row] for row in rows])
        self.piggybacks = [self.piggybacks[row] for row in rows]
        self.rids = _gather(self.rids, spans)
        self.payloads = _gather(self.payloads, spans)
        self.source_ts = _gather(self.source_ts, spans)
        self.sizes = _gather(self.sizes, spans)


def _gather(column: list[Any], spans: list[tuple[int, int]]) -> list[Any]:
    """Concatenate the ``[start, end)`` slices of a record column."""
    out: list[Any] = []
    for start, end in spans:
        out.extend(column[start:end])
    return out


class SendLog:
    """Per-channel columnar send logs of one job, in first-append order."""

    def __init__(self) -> None:
        self._channels: dict[ChannelId, ChannelLog] = {}

    def __len__(self) -> int:
        """Logged messages over every channel."""
        return sum(len(log) for log in self._channels.values())

    def channels(self) -> list[ChannelId]:
        """Every channel that ever logged a message, in first-append order."""
        return list(self._channels)

    def append(self, channel: ChannelId, msg: Message) -> None:
        """Log one data message sent on ``channel``."""
        log = self._channels.get(channel)
        if log is None:
            log = self._channels[channel] = ChannelLog()
        log.append(msg)

    def replay(self, channel: ChannelId, after: int, upto: int) -> list[Message]:
        """Messages with ``after < seq <= upto``, stable-sorted by seq."""
        log = self._channels.get(channel)
        if log is None:
            return []
        seqs = log.seqs
        rows = [row for row, seq in enumerate(seqs) if after < seq <= upto]
        rows.sort(key=lambda row: seqs[row])
        return [log.message(channel, row) for row in rows]

    def messages(self, channel: ChannelId) -> list[Message]:
        """Every logged message of ``channel`` in append order."""
        log = self._channels.get(channel)
        if log is None:
            return []
        return [log.message(channel, row) for row in range(len(log))]

    def entries(self) -> Iterator[tuple[ChannelId, int]]:
        """``(channel, seq)`` of every logged message, channel by channel."""
        for channel, log in self._channels.items():
            for seq in log.seqs:
                yield channel, seq

    def truncate(self, channel: ChannelId, cursor: int) -> tuple[int, int]:
        """Drop the messages with ``seq <= cursor``; returns (count, bytes)."""
        log = self._channels[channel]
        seqs = log.seqs
        kept = [row for row, seq in enumerate(seqs) if seq > cursor]
        dropped = len(seqs) - len(kept)
        if not dropped:
            return 0, 0
        nbytes = sum(log.payload_bytes[row] + log.protocol_bytes[row]
                     for row, seq in enumerate(seqs) if seq <= cursor)
        log.keep(kept)
        return dropped, nbytes

    def clear(self) -> None:
        """Forget every channel (a rescaled redeploy starts a new epoch)."""
        self._channels.clear()
