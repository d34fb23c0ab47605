"""The columnar send log (core.sendlog) against a message-list reference.

The reference below is the log the columnar one replaced: one ``Message``
object per logged message, held by reference.  Each scenario runs twice,
once per log, and everything read from the log must agree field for
field: the replay set of every recovery, the truncation counts and bytes
of every GC pass, and the offline analysis's message list.

Holding messages by reference also pins the CIC ordering: the columnar
log copies a message at append time, so a piggyback set after the append
would be missing from its replay while the reference still saw it.
"""

import gc as pygc
import weakref

import pytest

from repro.core import gc
from repro.core.sendlog import SendLog
from repro.core.zpaths import ExecutionHistory
from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import DATA, Message
from repro.dataflow.runtime import Job
from repro.dataflow.records import StreamRecord
from repro.sim.costs import RuntimeConfig

from tests.conftest import build_count_graph, make_event_log


class ReferenceLog:
    """Message-list send log: ``channel -> [Message, ...]`` in send order."""

    def __init__(self):
        self.by_channel = {}

    def __len__(self):
        return sum(len(v) for v in self.by_channel.values())

    def channels(self):
        return list(self.by_channel)

    def append(self, channel, msg):
        self.by_channel.setdefault(channel, []).append(msg)

    def replay(self, channel, after, upto):
        selected = [m for m in self.by_channel.get(channel, [])
                    if after < m.seq <= upto]
        selected.sort(key=lambda m: m.seq)
        return selected

    def messages(self, channel):
        return list(self.by_channel.get(channel, []))

    def entries(self):
        for channel, messages in self.by_channel.items():
            for m in messages:
                yield channel, m.seq

    def truncate(self, channel, cursor):
        messages = self.by_channel[channel]
        dropped = [m for m in messages if m.seq <= cursor]
        self.by_channel[channel] = [m for m in messages if m.seq > cursor]
        return len(dropped), sum(m.total_bytes for m in dropped)

    def clear(self):
        self.by_channel.clear()


def message_fields(m):
    """Every field of a message, records flattened to tuples."""
    records = tuple((r.rid, r.payload, r.source_ts, r.size_bytes)
                    for r in (m.records or ()))
    return (m.channel, m.seq, m.kind, records, m.payload_bytes,
            m.protocol_bytes, m.piggyback, m.meta, m.sent_at)


SCENARIOS = {
    "no-failure": dict(),
    "one-failure": dict(failure_at=7.0),
    # the second kill rolls back past messages re-sent after the first,
    # so the log holds stale copies of re-used seqs
    "two-failures": dict(failure_scenario="trace:3@0;7@1"),
    "rescale": dict(failure_at=7.0, rescale_to=2),
}


def run_with_log(protocol, backend, scenario, log):
    config = RuntimeConfig(
        checkpoint_interval=2.0, duration=14.0, warmup=2.0, seed=5,
        state_backend=backend, changelog_max_chain=3, **SCENARIOS[scenario],
    )
    events = make_event_log(300.0, 14.0, 3, seed=5)
    job = Job(build_count_graph(), protocol, 3, {"events": events}, config)
    job.send_log = log
    replays = []
    build_plan = job.protocol.build_recovery_plan

    def recording(now):
        plan = build_plan(now)
        replays.append({channel: [message_fields(m) for m in messages]
                        for channel, messages in plan.replay.items()})
        return plan

    job.protocol.build_recovery_plan = recording
    gc_stats = []
    for at in (6.0, 12.0):
        job.sim.schedule_at(at, lambda: gc_stats.append(gc.collect(job)))
    result = job.run(rate=300.0, query_name="count")
    logged = {channel: [message_fields(m) for m in log.messages(channel)]
              for channel in log.channels()}
    history = ExecutionHistory.from_job(job).messages
    gc_stats.append(gc.collect(job))
    return dict(replays=replays, gc=gc_stats, history=history, logged=logged,
                sink=result.metrics.records_sent,
                parallelism=result.final_parallelism)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ["full", "changelog"])
@pytest.mark.parametrize("protocol", ["unc", "cic"])
def test_columnar_log_matches_message_list_reference(protocol, backend, scenario):
    columnar = run_with_log(protocol, backend, scenario, SendLog())
    reference = run_with_log(protocol, backend, scenario, ReferenceLog())
    assert columnar["replays"] == reference["replays"]
    assert columnar["gc"] == reference["gc"]
    assert columnar["history"] == reference["history"]
    assert columnar["logged"] == reference["logged"]
    assert columnar["sink"] == reference["sink"]
    recoveries = {"no-failure": 0, "one-failure": 1, "two-failures": 2,
                  "rescale": 1}[scenario]
    assert len(columnar["replays"]) == recoveries
    assert columnar["parallelism"] == (2 if scenario == "rescale" else 3)
    if recoveries:
        assert any(columnar["replays"]), "a recovery must replay messages"
    assert sum(s.log_messages_truncated for s in columnar["gc"]) > 0
    if protocol == "cic":
        assert all(fields[6] is not None
                   for replay in columnar["replays"]
                   for messages in replay.values() for fields in messages)


def test_two_failures_leave_stale_seqs_in_the_log():
    """The stale-seq scenario is not vacuous: some channel logs a seq twice."""
    run = run_with_log("unc", "full", "two-failures", SendLog())
    stale = [channel for channel, rows in run["logged"].items()
             if len({fields[1] for fields in rows}) < len(rows)]
    assert stale


def _msg(seq, rids, sent_at=0.0, piggyback=None):
    batch = RecordBatch(rids=list(rids), payloads=[f"p{r}" for r in rids],
                        source_ts=[r / 10 for r in rids], sizes=[r + 1 for r in rids])
    return Message(channel=CH, seq=seq, kind=DATA, records=batch,
                   payload_bytes=sum(batch.sizes), protocol_bytes=3 * seq,
                   piggyback=piggyback, sent_at=sent_at)


CH = (0, 1, 2)


def test_replay_is_stable_sorted_and_field_exact():
    log = SendLog()
    sent = [_msg(1, [1]), _msg(2, [2, 3]), _msg(3, [4]), _msg(2, [5, 6, 7]),
            _msg(3, [8], piggyback=("snap",))]
    for m in sent:
        log.append(CH, m)
    replay = log.replay(CH, 1, 3)
    expected = [sent[1], sent[3], sent[2], sent[4]]
    assert [message_fields(m) for m in replay] == [message_fields(m) for m in expected]


def test_truncate_drops_by_seq_and_keeps_record_spans():
    log = SendLog()
    sent = [_msg(1, [1, 2]), _msg(4, [3]), _msg(2, [4, 5, 6]), _msg(5, [7])]
    for m in sent:
        log.append(CH, m)
    count, nbytes = log.truncate(CH, 2)
    assert (count, nbytes) == (2, sent[0].total_bytes + sent[2].total_bytes)
    assert ([message_fields(m) for m in log.messages(CH)]
            == [message_fields(sent[1]), message_fields(sent[3])])
    assert log.truncate(CH, 2) == (0, 0)


def test_per_record_lists_are_logged_as_columns():
    records = [StreamRecord(rid=9, payload="x", source_ts=1.5, size_bytes=4)]
    msg = Message(channel=CH, seq=1, kind=DATA, records=records, payload_bytes=4)
    log = SendLog()
    log.append(CH, msg)
    assert message_fields(log.messages(CH)[0]) == message_fields(msg)


def test_no_job_bulk_outlives_run_with_spec(monkeypatch):
    """A finished job's bulk is freed by reference counting alone: the
    send log, the blob store and every operator (with its state)."""
    from repro.experiments.parallel import RunRequest, run_with_spec
    from repro.workloads.nexmark import QUERIES

    bulk = []
    run = Job.run

    def tracking_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        assert len(self.send_log) > 0 and len(self.coordinator.blobstore) > 0
        bulk.append(weakref.ref(self.send_log))
        bulk.append(weakref.ref(self.coordinator.blobstore))
        bulk.extend(weakref.ref(instance.operator) for instance in self.instances())
        return result

    monkeypatch.setattr(Job, "run", tracking_run)
    request = RunRequest(query="q12", protocol="unc", parallelism=2,
                         rate=500.0, duration=4.0, warmup=1.0)
    enabled = pygc.isenabled()
    pygc.disable()  # no collection may run between the return and the check
    try:
        run_with_spec(QUERIES["q12"], request)
        assert bulk and all(ref() is None for ref in bulk)
    finally:
        if enabled:
            pygc.enable()
