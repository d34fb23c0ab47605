"""Tests for checkpoint space reclamation (core.gc)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import gc
from repro.core.base import CheckpointMeta, initial_checkpoint
from repro.core.checkpoint_graph import CheckpointGraph, maximal_consistent_line

from tests.conftest import run_count_job

A, B = ("a", 0), ("b", 0)
CH = (0, 0, 0)


def meta(instance, cid, sent=None, received=None):
    return CheckpointMeta(
        instance=instance, checkpoint_id=cid, kind="local", round_id=None,
        started_at=0.0, durable_at=0.0, state_bytes=0, blob_key=f"{instance}/{cid}",
        last_sent=sent or {}, last_received=received or {}, source_offsets=None,
    )


def test_reclaimable_is_everything_below_the_line():
    graph = CheckpointGraph(
        checkpoints={
            A: [initial_checkpoint(A), meta(A, 1, sent={CH: 5}),
                meta(A, 2, sent={CH: 9})],
            B: [initial_checkpoint(B), meta(B, 1, received={CH: 4}),
                meta(B, 2, received={CH: 9})],
        },
        channels=[(CH, A, B)],
    )
    # line = (A2, B2): everything older is reclaimable
    reclaimable = set(gc.reclaimable_checkpoints(graph))
    assert reclaimable == {(A, 1), (B, 1)}


def test_initial_checkpoints_never_reported():
    graph = CheckpointGraph(
        checkpoints={A: [initial_checkpoint(A)], B: [initial_checkpoint(B)]},
        channels=[(CH, A, B)],
    )
    assert gc.reclaimable_checkpoints(graph) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_line_never_regresses_when_execution_extends(seed):
    """Safety of reclamation: adding newer checkpoints cannot move the
    recovery line below the previously consistent one."""
    rng = random.Random(seed)
    channels = [(CH, A, B)]

    def extend(sent, recv, prefix_a, prefix_b, start_id, steps):
        a, b = list(prefix_a), list(prefix_b)
        for k in range(start_id, start_id + steps):
            sent[CH] = sent.get(CH, 0) + rng.randint(0, 4)
            recv[CH] = min(sent[CH], recv.get(CH, 0) + rng.randint(0, 4))
            a.append(meta(A, k, sent=dict(sent)))
            b.append(meta(B, k, received=dict(recv)))
        return a, b

    sent, recv = {}, {}
    a1, b1 = extend(sent, recv, [initial_checkpoint(A)], [initial_checkpoint(B)], 1, 3)
    graph1 = CheckpointGraph(checkpoints={A: a1, B: b1}, channels=channels)
    line1 = maximal_consistent_line(graph1).line

    a2, b2 = extend(sent, recv, a1, b1, 4, 3)
    graph2 = CheckpointGraph(checkpoints={A: a2, B: b2}, channels=channels)
    line2 = maximal_consistent_line(graph2).line

    assert line2[A].checkpoint_id >= line1[A].checkpoint_id
    assert line2[B].checkpoint_id >= line1[B].checkpoint_id


@pytest.mark.parametrize("protocol", ["unc", "cic", "coor"])
def test_collect_frees_blobs_and_keeps_recovery_working(protocol):
    job, result = run_count_job(protocol, failure_at=None, duration=16.0)
    store = job.coordinator.blobstore
    blobs_before = len(store)
    stats = gc.collect(job)
    assert stats.checkpoints_deleted > 0
    assert len(store) == blobs_before - stats.checkpoints_deleted
    assert stats.checkpoint_bytes_freed >= 0
    # a recovery plan built after GC only references surviving blobs
    plan = job.protocol.build_recovery_plan(job.sim.now)
    for meta_ in plan.line.values():
        if meta_.kind != "initial":
            assert meta_.blob_key in store


def _replay_rows(plan):
    return sorted(
        (channel, m.seq, tuple(m.records.rids))
        for channel, messages in plan.replay.items() for m in messages
    )


def test_collect_truncates_send_logs():
    # input runs to the end of the window, so the final line has messages
    # in flight on most channels
    job, _ = run_count_job("unc", failure_at=None, duration=16.0,
                           input_until=18.0)
    before = _replay_rows(job.protocol.build_recovery_plan(job.sim.now))
    assert before, "the line must have in-flight messages to replay"
    logged_before = len(job.send_log)
    stats = gc.collect(job)
    logged_after = len(job.send_log)
    assert stats.log_messages_truncated == logged_before - logged_after
    assert stats.log_messages_truncated > 0
    # replay sets for the current line are unaffected by truncation
    after = _replay_rows(job.protocol.build_recovery_plan(job.sim.now))
    assert after == before


def test_collect_is_idempotent():
    job, _ = run_count_job("unc", failure_at=None, duration=16.0)
    gc.collect(job)
    second = gc.collect(job)
    assert second.checkpoints_deleted == 0
    assert second.log_messages_truncated == 0


def test_gc_then_failure_still_exactly_once():
    """Reclamation must never break a later recovery."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(checkpoint_interval=3.0, duration=18.0, warmup=2.0,
                           failure_at=9.0, seed=3)
    log = make_event_log(300.0, 16.0, 3, seed=3)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    # run a GC pass mid-run, before the failure hits
    job.sim.schedule_at(8.0, lambda: gc.collect(job))
    job.run()
    expected: dict[int, int] = {}
    for partition in log.partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured: dict[int, int] = {}
    for idx in range(3):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    assert measured == expected


# --------------------------------------------------------------------- #
# Changelog chains: GC pinning and compaction safety (DESIGN.md §10)
# --------------------------------------------------------------------- #

def _delta_blob_key(store: "BlobStore", prefix: str, cid: int,
                    base_of: str | None) -> str:
    key = f"{prefix}/{cid}"
    store.put(key, {"delta": base_of is not None}, 10, now=float(cid),
              base_key=base_of,
              chain_length=0 if base_of is None else
              store.meta(base_of).chain_length + 1)
    return key


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pinning_never_reclaims_a_reachable_chain_link(data):
    """Property: deleting everything outside ``pinned_blob_keys`` of a
    random retained set leaves every retained chain fully restorable."""
    from repro.storage.blobstore import BlobStore

    store = BlobStore()
    keys: list[str] = []
    parent: str | None = None
    n = data.draw(st.integers(min_value=1, max_value=20))
    for cid in range(n):
        # random mix of fresh bases and deltas chained on the predecessor
        if parent is None or data.draw(st.booleans()):
            parent = _delta_blob_key(store, "op/0", cid, None)
        else:
            parent = _delta_blob_key(store, "op/0", cid, parent)
        keys.append(parent)
    retained = [k for k in keys if data.draw(st.booleans())]
    pinned = gc.pinned_blob_keys(store, retained)
    for key in keys:
        if key not in pinned:
            store.delete(key)
    # every retained checkpoint's full chain must still be fetchable
    for key in retained:
        for link in store.chain_keys(key):  # KeyError => pinning bug
            store.get(link)


@pytest.mark.parametrize("max_chain", [1, 3])
def test_changelog_gc_keeps_registered_chains_intact(max_chain):
    job, _ = run_count_job("unc", failure_at=None, duration=16.0,
                           state_backend="changelog",
                           changelog_max_chain=max_chain)
    store = job.coordinator.blobstore
    stats = gc.collect(job)
    assert stats.checkpoints_deleted > 0
    assert stats.blobs_deleted <= stats.checkpoints_deleted
    # everything still registered restores through an intact chain whose
    # length respects the compaction bound
    for instance in job.instance_keys():
        for meta_ in job.registry.for_instance(instance):
            chain = store.chain_keys(meta_.blob_key)
            assert len(chain) <= max_chain + 1
            for link in chain:
                assert link in store
    # and bytes_deleted observed what reclamation freed
    assert store.bytes_deleted == stats.checkpoint_bytes_freed


def test_gc_eventually_reclaims_retired_chain_bases():
    """A base pinned at prune time is parked, not leaked: once the last
    delta depending on it is pruned, a later pass deletes it."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(checkpoint_interval=2.0, duration=16.0, warmup=2.0,
                           failure_at=None, seed=3, state_backend="changelog",
                           changelog_max_chain=2)
    log = make_event_log(300.0, 12.0, 3, seed=3)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    for at in (6.0, 9.0, 12.0, 15.0):
        job.sim.schedule_at(at, lambda: gc.collect(job))
    job.run()
    gc.collect(job)
    store = job.coordinator.blobstore
    registered = {
        meta_.blob_key
        for instance in job.instance_keys()
        for meta_ in job.registry.for_instance(instance)
    }
    pinned = gc.pinned_blob_keys(store, registered)
    # whatever is still deferred must be pinned by a live chain
    assert job.gc_deferred_blobs <= pinned
    # no orphan blobs survive except uploads whose metadata is still on
    # the wire at the horizon (registration lags durability by ~a ms)
    horizon = job.sim.now
    for key in store.keys():
        if key not in pinned:
            assert store.meta(key).stored_at >= horizon - 1.0, key
    assert store.bytes_deleted > 0


def test_changelog_gc_then_failure_still_exactly_once():
    """GC passes between changelog checkpoints must not break recovery."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(checkpoint_interval=3.0, duration=18.0, warmup=2.0,
                           failure_at=9.0, seed=3, state_backend="changelog",
                           changelog_max_chain=2)
    log = make_event_log(300.0, 16.0, 3, seed=3)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    for at in (5.0, 8.0, 14.0):
        job.sim.schedule_at(at, lambda: gc.collect(job))
    job.run()
    expected: dict[int, int] = {}
    for partition in log.partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured: dict[int, int] = {}
    for idx in range(3):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    assert measured == expected


def test_compaction_never_moves_the_line_backwards():
    """Observed recovery lines are monotone while chains compact."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(checkpoint_interval=2.0, duration=16.0, warmup=2.0,
                           failure_at=None, seed=3, state_backend="changelog",
                           changelog_max_chain=1)
    log = make_event_log(300.0, 12.0, 3, seed=3)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    observed: list[dict] = []

    def probe() -> None:
        gc.collect(job)
        plan = job.protocol.build_recovery_plan(job.sim.now)
        observed.append({k: m.checkpoint_id for k, m in plan.line.items()})

    for at in (5.0, 8.0, 11.0, 14.0):
        job.sim.schedule_at(at, probe)
    job.run()
    assert len(observed) == 4
    for earlier, later in zip(observed, observed[1:]):
        for key, cid in earlier.items():
            assert later[key] >= cid
