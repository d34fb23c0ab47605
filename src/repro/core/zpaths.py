"""Offline Z-path / Z-cycle analysis (Netzer–Xu theory, paper Section III-C).

A checkpoint is *useless* (can belong to no consistent global snapshot) iff
it lies on a **Z-cycle**: a zigzag path of messages from the checkpoint back
to itself.  Zigzag paths generalise causal paths: consecutive messages must
only satisfy "m2 sent by the receiver of m1 in the same or a later
checkpoint interval" — m2 may have been sent *before* m1 was received.

This module reconstructs checkpoint intervals from the per-channel cursors
stored in checkpoint metadata plus the durable send log, and answers
Z-cycle queries at interval granularity (zigzag reachability only depends
on interval indices, so messages collapse into interval-level edges).

It is used by the test suite to verify:

* CIC's forced checkpoints leave **no useless checkpoints** (the
  domino-effect-prevention claim);
* UNC on the cyclic query does **not** exhibit a domino effect in practice
  (the paper's headline surprise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.base import CheckpointMeta, InstanceKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.runtime import Job
from repro.dataflow.channels import ChannelId

Interval = tuple[InstanceKey, int]


@dataclass
class ExecutionHistory:
    """Everything the analysis needs about one finished run."""

    #: per instance: checkpoints oldest-first INCLUDING the initial one
    checkpoints: dict[InstanceKey, list[CheckpointMeta]]
    #: (channel, seq) for every data message that was sent
    messages: list[tuple[ChannelId, int]]
    #: channel -> (sender instance, receiver instance)
    endpoints: dict[ChannelId, tuple[InstanceKey, InstanceKey]]

    _edges: dict[Interval, set[Interval]] = field(default_factory=dict)
    _built: bool = False

    @classmethod
    def from_job(cls, job: "Job") -> "ExecutionHistory":
        """Collect history from a finished :class:`~repro.dataflow.runtime.Job`."""
        edges_by_id = {edge.edge_id: edge for edge in job.graph.edges}
        endpoints = {
            channel: ((edges_by_id[channel[0]].src, channel[1]), dst.key)
            for channel, dst in job.channel_dst.items()
        }
        messages = list(job.send_log.entries())
        checkpoints = {
            key: job.registry.with_initial(key) for key in job.instance_keys()
        }
        return cls(checkpoints=checkpoints, messages=messages, endpoints=endpoints)

    # ------------------------------------------------------------------ #
    # Interval reconstruction
    # ------------------------------------------------------------------ #

    def _interval_of(self, metas: list[CheckpointMeta], channel: ChannelId,
                     seq: int, sent: bool) -> int:
        """Largest checkpoint id whose cursor is still below ``seq``.

        Interval ``x`` is the execution span after checkpoint ``x`` and
        before checkpoint ``x+1``; cursors are non-decreasing in id.
        """
        interval = 0
        for meta in metas:
            cursor = meta.sent_cursor(channel) if sent else meta.received_cursor(channel)
            if cursor < seq:
                interval = meta.checkpoint_id
            else:
                break
        return interval

    def interval_edges(self) -> dict[Interval, set[Interval]]:
        """Message edges between (instance, interval) nodes."""
        if not self._built:
            for channel, seq in self.messages:
                sender, receiver = self.endpoints[channel]
                send_iv = self._interval_of(self.checkpoints[sender], channel, seq, True)
                recv_iv = self._interval_of(self.checkpoints[receiver], channel, seq, False)
                self._edges.setdefault((sender, send_iv), set()).add((receiver, recv_iv))
            self._built = True
        return self._edges

    # ------------------------------------------------------------------ #
    # Z-cycle queries
    # ------------------------------------------------------------------ #

    def has_zcycle(self, instance: InstanceKey, checkpoint_id: int) -> bool:
        """Is there a zigzag path from checkpoint ``(instance, id)`` to itself?

        Start: any message sent by ``instance`` in interval >= id.
        Step: from a message received by ``q`` in interval ``b``, continue
        with any message sent by ``q`` in interval >= ``b`` (zigzag).
        Goal: a message received by ``instance`` in interval <= id - 1.
        """
        if checkpoint_id <= 0:
            return False  # the initial checkpoint cannot be on a Z-cycle
        edges = self.interval_edges()
        #: per process: sorted send-intervals that have outgoing edges
        sends_by_process: dict[InstanceKey, list[int]] = {}
        for (proc, interval) in edges:
            sends_by_process.setdefault(proc, []).append(interval)
        for intervals in sends_by_process.values():
            intervals.sort()

        start_targets: list[Interval] = []
        for interval in sends_by_process.get(instance, []):
            if interval >= checkpoint_id:
                start_targets.extend(edges[(instance, interval)])
        #: states are (process, interval the last message arrived in)
        seen: set[Interval] = set()
        frontier = list(start_targets)
        while frontier:
            proc, arrived = frontier.pop()
            if proc == instance and arrived <= checkpoint_id - 1:
                return True
            if (proc, arrived) in seen:
                continue
            seen.add((proc, arrived))
            for send_iv in sends_by_process.get(proc, []):
                if send_iv >= arrived:
                    frontier.extend(edges[(proc, send_iv)])
        return False

    def useless_checkpoints(self) -> list[tuple[InstanceKey, int]]:
        """All real (non-initial) checkpoints lying on a Z-cycle."""
        useless = []
        for instance, metas in self.checkpoints.items():
            for meta in metas:
                if meta.checkpoint_id > 0 and self.has_zcycle(instance, meta.checkpoint_id):
                    useless.append((instance, meta.checkpoint_id))
        return useless

    def domino_depth(self) -> int:
        """Longest run of consecutive useless checkpoints on one instance.

        A depth near the checkpoint count of an instance indicates the
        unbounded domino effect; the paper's experiments (and ours) find
        depths of 0–1 in practice.
        """
        useless = set(self.useless_checkpoints())
        worst = 0
        for instance, metas in self.checkpoints.items():
            run = 0
            for meta in metas:
                if (instance, meta.checkpoint_id) in useless:
                    run += 1
                    worst = max(worst, run)
                else:
                    run = 0
        return worst
