"""Checkpoint space reclamation (Wang et al. [47], extension per DESIGN.md §8).

The paper's invalid-checkpoint metric (Table III) observes that
uncoordinated checkpoints accumulate state "that will never be used".
This module implements the classic reclamation result: once a consistent
recovery line ``L`` exists, rollback propagation can never move below it
(rolling an instance back to its ``L`` checkpoint leaves no orphans against
any combination of newer checkpoints, because sent-cursors are monotone),
so

* every checkpoint strictly older than ``L`` is **reclaimable**, and
* every logged message with ``seq <= L.receiver_cursor(channel)`` can be
  truncated from the send log (no future replay window reaches it).

Incremental (changelog) checkpoints add one more invariant (DESIGN.md
section 10): a reclaimable checkpoint's **blob** may still be the base (or
an intermediate delta) of a chain some retained checkpoint restores
through.  Reclamation therefore deletes metadata eagerly but keeps every
blob that is *pinned* — reachable over ``base_key`` links from any
checkpoint still registered.  Chain compaction (a fresh base every
``changelog_max_chain`` deltas) bounds how long a pinned tail survives.

The property tests in ``tests/test_gc.py`` check both safety arguments
directly: extending a random execution never moves the recovery line below
the old one, and no reachable chain link is ever deleted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.base import InstanceKey
from repro.core.checkpoint_graph import CheckpointGraph, maximal_consistent_line

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable

    from repro.dataflow.runtime import Job
    from repro.storage.blobstore import BlobStore


@dataclass(frozen=True)
class GcStats:
    """What one collection pass reclaimed."""

    checkpoints_deleted: int
    checkpoint_bytes_freed: int
    log_messages_truncated: int
    log_bytes_truncated: int
    #: blobs actually deleted this pass; under changelog this can lag
    #: checkpoints_deleted (a pruned checkpoint's blob survives while a
    #: retained chain pins it) or exceed it (a later pass reclaims blobs
    #: deferred by earlier passes once their pinning chain retires)
    blobs_deleted: int = 0
    #: blobs kept alive by a retained checkpoint's chain despite their
    #: checkpoint metadata being pruned
    blobs_pinned: int = 0


def pinned_blob_keys(store: BlobStore, retained_blob_keys: Iterable[str]) -> set[str]:
    """Blobs that must survive reclamation: every chain link (base and
    intermediate deltas) reachable from a retained checkpoint's blob."""
    pinned: set[str] = set()
    for key in retained_blob_keys:
        if key in store:
            pinned.update(store.chain_keys(key))
    return pinned


def reclaimable_checkpoints(graph: CheckpointGraph) -> list[tuple[InstanceKey, int]]:
    """Checkpoints strictly older than the current maximal consistent line.

    The implicit initial checkpoints are never reported (there is nothing
    stored for them).
    """
    line = maximal_consistent_line(graph).line
    reclaimable = []
    for instance, metas in graph.checkpoints.items():
        keep_from = line[instance].checkpoint_id
        for meta in metas:
            if 0 < meta.checkpoint_id < keep_from:
                reclaimable.append((instance, meta.checkpoint_id))
    return reclaimable


def collect(job: "Job") -> GcStats:
    """Run one reclamation pass against a job's registry, store and logs.

    Works for any protocol: for the coordinated family the maximal
    consistent line is simply the newest completed round, so everything
    before it is reclaimed.
    """
    from repro.core.uncoordinated import UncoordinatedProtocol

    if isinstance(job.protocol, UncoordinatedProtocol):
        graph = job.protocol.build_checkpoint_graph()
    else:
        graph = _graph_from_registry(job)
    line = maximal_consistent_line(graph).line

    deleted = 0
    bytes_freed = 0
    blobs_deleted = 0
    blobs_pinned = 0
    registry = job.registry
    store = job.coordinator.blobstore
    pruned: list = []
    for instance in job.instance_keys():
        keep_from = line[instance].checkpoint_id
        for meta in registry.prune_older_than(instance, keep_from):
            pruned.append(meta)
            deleted += 1
    # chain pinning: every blob reachable over base_key links from a
    # checkpoint still registered must survive, even if its own metadata
    # was just pruned — a retained delta restores through it.  Pinned
    # blobs are parked on the job's deferred set and re-examined by every
    # later pass, so a chain's base is reclaimed once the last delta
    # depending on it is pruned (no cross-pass leak).
    deferred: set[str] = set()
    candidates = [meta.blob_key for meta in pruned]
    candidates.extend(sorted(job.gc_deferred_blobs))
    pinned_keys = pinned_blob_keys(store, (
        meta.blob_key
        for instance in job.instance_keys()
        for meta in registry.for_instance(instance)
    )) if candidates else set()
    for blob_key in candidates:
        if blob_key not in store:
            continue
        if blob_key in pinned_keys:
            blobs_pinned += 1
            deferred.add(blob_key)
            continue
        bytes_freed += store.meta(blob_key).size_bytes
        store.delete(blob_key)
        blobs_deleted += 1
    job.gc_deferred_blobs = deferred

    truncated = 0
    log_bytes = 0
    endpoints = _channel_endpoints(job)
    for channel in job.send_log.channels():
        _, receiver = endpoints[channel]
        count, nbytes = job.send_log.truncate(
            channel, line[receiver].received_cursor(channel))
        truncated += count
        log_bytes += nbytes
    return GcStats(deleted, bytes_freed, truncated, log_bytes,
                   blobs_deleted, blobs_pinned)


def _graph_from_registry(job: "Job") -> CheckpointGraph:
    endpoints = _channel_endpoints(job)
    checkpoints = {key: job.registry.with_initial(key) for key in job.instance_keys()}
    channels = [(ch, s, r) for ch, (s, r) in endpoints.items()]
    return CheckpointGraph(checkpoints=checkpoints, channels=channels)


def _channel_endpoints(job: "Job") -> dict:
    edges_by_id = {edge.edge_id: edge for edge in job.graph.edges}
    return {
        channel: ((edges_by_id[channel[0]].src, channel[1]), dst.key)
        for channel, dst in job.channel_dst.items()
    }
