"""Upstream-backup send log: tracked containers per logged message.

UNC and CIC append every data message to a per-channel send log
(DESIGN.md section 19).  A log that keeps one ``Message`` per logged
message holds six containers the cyclic garbage collector tracks per
message (the ``Message``, its ``RecordBatch`` and the batch's four
column lists), and every full collection rescans all of them although a
run creates no cyclic garbage.  The columnar log keeps one fixed set of
columns per channel instead.

Measurements:

* ``containers_per_extra_message`` — log-owned tracked containers per
  extra logged message between a 3 s and a 6 s UNC run of NexMark Q12 at
  p=30 (0.4x analytic capacity, 1 s warmup).  Log-owned means reachable
  from the job's send log through log structure: logs, messages, batches
  and their lists, never the payload objects a record column points at
  (they belong to the workload).  The difference of two runs cancels the
  per-channel constant, so only the per-message growth remains.  The
  count is exact and machine-independent.  **Guard: <= 0.05** (a
  per-message ``Message`` log measures 6.0).
* ``collector`` — seconds spent in the cyclic garbage collector, and the
  number of collections per generation, during one UNC run at a 15 s
  window (informational; host time).

Results land in ``results/BENCH_send_log.json``.
"""

import gc
import json
import platform
import time

from repro.dataflow.runtime import Job
from repro.metrics.mst import estimate_capacity
from repro.sim.costs import RuntimeConfig
from repro.workloads.nexmark import QUERIES

from benchmarks._common import RESULTS_DIR, emit

QUERY = "q12"
PARALLELISM = 30
RATE_FRACTION = 0.4
WARMUP = 1.0
SEED = 7

#: enforced ceiling on log-owned tracked containers per extra logged
#: message (exact count; the columnar log measures about 0.002)
MAX_CONTAINERS_PER_MESSAGE = 0.05

#: container types the walk counts and descends through; anything else a
#: log column points at (payload objects, piggyback snapshots) is not
#: owned by the log
_LOG_TYPES = ("SendLog", "ChannelLog", "Message", "RecordBatch", "dict", "list")


def log_containers(send_log) -> int:
    """Tracked containers owned by ``send_log``.

    The payload column of a batch or a channel log is counted as one list,
    but the walk does not enter its elements: payloads are the workload's
    objects, shared with the input logs and the operators.
    """
    seen: set[int] = set()
    stack = [send_log]
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or type(obj).__name__ not in _LOG_TYPES:
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            count += 1
        payloads = getattr(obj, "payloads", None)
        if payloads is not None and id(payloads) not in seen:
            seen.add(id(payloads))
            count += 1
        stack.extend(gc.get_referents(obj))
    return count


def _run_unc(duration: float, inputs, rate: float) -> Job:
    spec = QUERIES[QUERY]
    config = RuntimeConfig(warmup=WARMUP, duration=duration, seed=SEED)
    job = Job(spec.build_graph(PARALLELISM), "unc", PARALLELISM, inputs, config)
    job.run(rate=rate, query_name=QUERY)
    return job


def _inputs(duration: float, rate: float):
    spec = QUERIES[QUERY]
    return spec.build_inputs(rate, WARMUP + duration + 1.0, PARALLELISM,
                             0.0, SEED, None)


def _count(duration: float, rate: float) -> tuple[int, int]:
    """(log-owned tracked containers, logged messages) after one run."""
    job = _run_unc(duration, _inputs(duration, rate), rate)
    counted = log_containers(job.send_log), len(job.send_log)
    job.close()
    return counted


def _collector_seconds(duration: float, rate: float) -> dict:
    """Time spent in the cyclic collector during one UNC run."""
    inputs = _inputs(duration, rate)
    spent = [0.0]
    collections = [0, 0, 0]
    started = [0.0]

    def callback(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - started[0]
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(callback)
    try:
        start = time.perf_counter()
        job = _run_unc(duration, inputs, rate)
        wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(callback)
    job.close()
    return {
        "window_s": duration,
        "run_wall_s": wall,
        "collector_s": spent[0],
        "collector_share": spent[0] / wall,
        "collections_per_generation": collections,
    }


def test_send_log_tracked_containers_per_message():
    rate = RATE_FRACTION * estimate_capacity(QUERIES[QUERY], PARALLELISM)
    short_containers, short_messages = _count(3.0, rate)
    long_containers, long_messages = _count(6.0, rate)
    extra = long_messages - short_messages
    assert extra > 0
    per_message = (long_containers - short_containers) / extra
    collector = _collector_seconds(15.0, rate)
    payload = {
        "workload": f"{QUERY} unc p={PARALLELISM} at {RATE_FRACTION}x "
                    f"capacity, {WARMUP:g} s warmup, seed {SEED}",
        "containers_per_extra_message": per_message,
        "max_containers_per_extra_message": MAX_CONTAINERS_PER_MESSAGE,
        "runs": {
            "3s": {"log_containers": short_containers,
                   "logged_messages": short_messages},
            "6s": {"log_containers": long_containers,
                   "logged_messages": long_messages},
        },
        "collector_informational": collector,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    emit("bench_send_log",
         "Send log: tracked containers per logged message (exact)\n"
         f"  3 s run  {short_containers:8d} containers, "
         f"{short_messages:8d} messages\n"
         f"  6 s run  {long_containers:8d} containers, "
         f"{long_messages:8d} messages\n"
         f"  per extra message {per_message:.4f} "
         f"(guard <= {MAX_CONTAINERS_PER_MESSAGE})\n"
         f"  collector at a {collector['window_s']:g} s window: "
         f"{collector['collector_s']:.3f} s of {collector['run_wall_s']:.2f} s "
         f"(collections per generation {collector['collections_per_generation']}, "
         "informational)")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_send_log.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert per_message <= MAX_CONTAINERS_PER_MESSAGE
