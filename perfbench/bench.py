"""Workloads, output checks and metrics of the repo benchmark.

A *cycle* produces a workload's full result set once: every simulated
run of a single-run workload, or every figure of the sweep.  A cycle is
timed in *parts*: one per input log, one per simulated run, one for the
sweep.  An untraced measurement repeats cycles until its time is spent
and reports host time (end-to-end metrics) built from each part's
fastest repeat; a traced measurement runs one untraced and one
cProfile-traced cycle and reports exact counts and per-layer self time.
Every cycle of one measurement must give the same digests: the
simulated results are deterministic, so they are output checks, never
metrics.  Workload rationale and predictions: ``perfbench/README.md``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (sweep cache directories)
WORKDIR = ROOT / ".perfbench-run"
PROTOCOLS = ("coor", "unc", "cic")
IMPORT_PROBES = 8
IMPORTED = ("repro.experiments.figures", "repro.dataflow.runtime",
            "repro.workloads.nexmark", "repro.metrics.mst")


@dataclass(frozen=True)
class Group:
    """Runs sharing one input log: one query at one rate, under each protocol."""

    query: str
    parallelism: int
    #: offered rate as a fraction of the query's analytic capacity
    rate_frac: float
    warmup: float
    duration: float
    hot_ratio: float = 0.0
    #: kill worker 0 in the middle of the measured window
    failure: bool = False
    channel_capacity_bytes: int = 0
    state_backend: str = "full"


#: Fig. 8 shape and Figs. 12-13 shape; open loop at a fixed virtual rate.
#: Short windows keep each part well under a host second, so a run
#: repeats every part often enough for its fastest repeat to settle.
SINGLE_RUN = {
    "steady-p30": (Group("q12", 30, 0.4, 1.0, 3.0),),
    "failure-skew-p8": (
        Group("q3", 8, 0.6, 2.0, 10.0, hot_ratio=0.3, failure=True),
        Group("q12", 8, 0.6, 2.0, 10.0, hot_ratio=0.3, failure=True,
              channel_capacity_bytes=1024, state_backend="changelog"),
    ),
}
#: figure sweep at a reduced quick scale (``sweep_scale``), cold cache each cycle
SWEEP = {"sweep-fig8": ("fig8",)}
WORKLOADS = (*SINGLE_RUN, *SWEEP)

#: name -> unit, in the order they are printed
END_TO_END = {
    "records_per_s": "records/s",
    "sweep_wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
_SELF = {f"{layer}.{kind}": unit for layer in layers.LAYERS
         for kind, unit in (("self_s", "s"), ("self_share", "ratio"))}
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "transport.messages": "count",
    "transport.records_per_message": "records/msg",
    "transport.protocol_bytes_frac": "ratio",
    "transport.sends_parked": "count",
    "transport.blocked_s": "s",
    "state.bytes_uploaded": "B",
    "state.uploaded_frac": "ratio",
    "core.checkpoints": "count",
    "core.forced_checkpoints": "count",
    "core.replayed_frac": "ratio",
    **{f"core.{protocol}.run_s": "s" for protocol in PROTOCOLS},
    "lifecycle.recoveries": "count",
    "metrics.mst_probes": "count",
    "workloads.gen_s": "s",
    "workloads.records_generated": "count",
    "experiments.cache_hit_ratio": "ratio",
    "experiments.runs_simulated": "count",
    "experiments.cache_bytes": "B",
    **_SELF,
    "trace_overhead": "ratio",
}

#: exact counts summed over a cycle's runs
COUNTS = ("events", "messages", "records_sent", "data_bytes", "protocol_bytes",
          "sends_parked", "checkpoints", "forced_checkpoints",
          "replayed_records", "ingested", "recoveries", "bytes_uploaded",
          "bytes_materialized", "records_generated", "mst_probes")


@dataclass(frozen=True)
class Part:
    """Host seconds of one timed part of a cycle."""

    setup_s: float = 0.0
    run_s: float = 0.0
    #: CPU seconds of the process
    cpu_s: float = 0.0


@dataclass
class Cycle:
    """One pass over a workload's full result set."""

    #: timed parts by name; names repeat from cycle to cycle
    parts: dict[str, Part] = field(default_factory=dict)
    wall_s: float = 0.0
    #: host seconds inside ``Job.run``, per protocol
    run_s: dict[str, float] = field(default_factory=dict)
    gen_s: float = 0.0
    digests: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    #: virtual channel-seconds senders spent parked (not an exact count)
    blocked_s: float = 0.0
    pool: dict[str, float] = field(default_factory=dict)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fail(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _add_result_counts(cycle: Cycle, metrics) -> None:
    """Fold one finished run's MetricsCollector into the cycle's counts."""
    counts = cycle.counts
    counts["messages"] += metrics.messages_sent
    counts["records_sent"] += metrics.records_sent
    counts["data_bytes"] += metrics.data_bytes
    counts["protocol_bytes"] += metrics.protocol_bytes
    counts["sends_parked"] += metrics.sends_parked
    counts["checkpoints"] += sum(1 for e in metrics.checkpoints if e.kind != "round")
    counts["forced_checkpoints"] += metrics.forced_checkpoints
    counts["replayed_records"] += metrics.replayed_records
    counts["ingested"] += sum(metrics.ingest_counts.values())
    counts["recoveries"] += metrics.n_recoveries
    counts["bytes_uploaded"] += metrics.checkpoint_bytes_uploaded
    counts["bytes_materialized"] += metrics.checkpoint_bytes_materialized
    cycle.blocked_s += metrics.blocked_time_total


def run_digest(result) -> str:
    """Digest of what a run reports (compacts ``result`` in place)."""
    metrics = result.compact().metrics
    checkpoints = [(e.instance, e.kind, e.started_at, e.durable_at,
                    e.state_bytes, e.round_id, e.upload_bytes)
                   for e in metrics.checkpoints]
    return _sha(repr((
        sorted(metrics.sink_counts.items()),
        sorted(metrics.ingest_counts.items()),
        sorted(metrics.latency_digests.items()),
        checkpoints,
        metrics.recovery_lines,
        metrics.messages_sent, metrics.records_sent,
        metrics.data_bytes, metrics.protocol_bytes,
    )))


def check_run(group: Group, result, rate: float) -> bool:
    """Output check of one run: sustained when steady, recovered when killed."""
    if not group.failure:
        return result.sustainable(rate)
    metrics = result.metrics
    return (metrics.n_recoveries >= 1
            and all(end >= 0 for _start, end in metrics.outages)
            and result.restart_time() >= 0)


def single_run_cycle(groups: tuple[Group, ...], seed: int) -> Cycle:
    """Generate each group's inputs, then deploy and run it per protocol."""
    from repro.dataflow.runtime import Job
    from repro.metrics.mst import estimate_capacity
    from repro.sim.costs import RuntimeConfig
    from repro.workloads.nexmark import QUERIES

    cycle = Cycle()
    start = time.perf_counter()
    for index, group in enumerate(groups):
        spec = QUERIES[group.query]
        rate = group.rate_frac * estimate_capacity(spec, group.parallelism)
        # build_inputs directly, not make_job_inputs: its process memo
        # would serve every cycle after the first without generating
        c0, t0 = time.process_time(), time.perf_counter()
        inputs = spec.build_inputs(rate, group.warmup + group.duration + 1.0,
                                   group.parallelism, group.hot_ratio, seed, None)
        gen_s = time.perf_counter() - t0
        cycle.parts[f"{index}.{group.query}/inputs"] = Part(
            setup_s=gen_s, cpu_s=time.process_time() - c0)
        cycle.gen_s += gen_s
        cycle.counts["records_generated"] += sum(
            len(partition) for log in inputs.values() for partition in log.partitions)
        config = RuntimeConfig(
            warmup=group.warmup, duration=group.duration, seed=seed,
            failure_at=(group.warmup + group.duration / 2) if group.failure else None,
            failure_worker=0,
            channel_capacity_bytes=group.channel_capacity_bytes,
            state_backend=group.state_backend,
        )
        for protocol in PROTOCOLS:
            cycle.attempted += 1
            try:
                c0, t0 = time.process_time(), time.perf_counter()
                job = Job(spec.build_graph(group.parallelism), protocol,
                          group.parallelism, inputs, config)
                t1 = time.perf_counter()
                result = job.run(rate=rate, query_name=group.query)
                t2 = time.perf_counter()
                cycle.parts[f"{index}.{group.query}/{protocol}"] = Part(
                    setup_s=t1 - t0, run_s=t2 - t1, cpu_s=time.process_time() - c0)
            except Exception:
                _fail(f"{group.query}/{protocol}")
                cycle.failed += 1
                cycle.digests.append("error")
                continue
            cycle.run_s[protocol] = cycle.run_s.get(protocol, 0.0) + (t2 - t1)
            cycle.counts["events"] += job.sim.events_executed
            _add_result_counts(cycle, result.metrics)
            if not check_run(group, result, rate):
                print(f"FAILED check {group.query}/{protocol}", file=sys.stderr)
                cycle.failed += 1
            cycle.digests.append(run_digest(result))
    cycle.wall_s = time.perf_counter() - start
    return cycle


def sweep_scale(seed: int, tiny: bool):
    """The quick experiment scale at ``seed`` with shorter windows.

    A cycle takes about 4 host seconds, so a run repeats it often enough
    for its fastest repeat to settle.  Below a 10 s window some seeds
    complete no COOR checkpoint of q8 and fail the figure's shape check.
    """
    from repro.experiments.config import scale_by_name

    scale = replace(scale_by_name("quick"), seed=seed, duration=10.0, warmup=2.0,
                    failure_at=4.0, probe_duration=2.0, probe_warmup=1.0,
                    mst_iterations=1)
    if tiny:
        scale = replace(scale, duration=4.0, warmup=1.0, failure_at=2.0)
    return scale


def sweep_cycle(names: tuple[str, ...], scale) -> Cycle:
    """Run the figures in order through a fresh serial runner and empty cache.

    Serial (``jobs=1``) so that the sweep, like the single runs, is timed
    on one core at a time: a pool needs every core to be fast at once.
    """
    from repro.experiments import figures
    from repro.experiments.parallel import ParallelRunner

    cycle = Cycle()
    WORKDIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        runner = ParallelRunner(jobs=1, cache_dir=cache_dir)
        start = time.perf_counter()
        figures.clear_cache()
        figures.set_runner(runner)
        try:
            for name in names:
                cycle.attempted += 1
                try:
                    out = figures.ALL_EXPERIMENTS[name](scale)
                except Exception:
                    _fail(name)
                    cycle.failed += 1
                    cycle.digests.append("error")
                    continue
                if not all(ok for _, ok in out["checks"]):
                    print(f"FAILED shape check {name}:\n{out['text']}", file=sys.stderr)
                    cycle.failed += 1
                cycle.digests.append(_sha(out["text"]))
            cycle.wall_s = time.perf_counter() - start
        finally:
            figures.set_runner(None)
            runner.close()
        cycle.parts["sweep"] = Part(setup_s=start - t0, run_s=cycle.wall_s,
                                    cpu_s=time.process_time() - cpu0)
        cycle.pool = {
            "hit_ratio": runner.hit_ratio,
            "simulated": runner.misses,
            "cache_bytes": runner.cache.stats()["total_bytes"],
        }
        _add_cache_counts(cycle, runner.cache)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another cache directory is still in use
    return cycle


def _add_cache_counts(cycle: Cycle, cache) -> None:
    """Counts of the sweep's cached runs; simulator events stay in the workers."""
    for path in sorted(cache.directory.glob("*.pkl")):
        found, value = cache.get(path.stem)
        if not found:
            continue
        if hasattr(value, "probes"):
            cycle.counts["mst_probes"] += len(value.probes)
        else:
            _add_result_counts(cycle, value.metrics)


def import_seconds() -> float:
    """Import time of the program's entry points, in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(IMPORTED) + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _cycle(workload: str, seed: int, tiny: bool) -> Cycle:
    if workload in SINGLE_RUN:
        groups = SINGLE_RUN[workload]
        if tiny:
            groups = tuple(replace(g, parallelism=2, warmup=1.0, duration=4.0)
                           for g in groups)
        return single_run_cycle(groups, seed)
    return sweep_cycle(SWEEP[workload], sweep_scale(seed, tiny))


@dataclass
class Measurement:
    """What one benchmark invocation prints."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    digest: str
    counts: dict[str, float]


def _finish(cycles: list[Cycle], metrics: dict[str, float]) -> Measurement:
    digests = [tuple(c.digests) for c in cycles]
    failed = sum(c.failed for c in cycles)
    stable = all(d == digests[0] for d in digests)
    if not stable:
        print(f"FAILED digests differ between cycles: {digests}", file=sys.stderr)
    return Measurement(
        correct=stable and failed == 0,
        attempted=sum(c.attempted for c in cycles),
        failed=failed,
        metrics=metrics,
        digest=_sha(" ".join(digests[0])),
        counts=dict(cycles[0].counts),
    )


def fastest(cycles: list[Cycle]) -> dict[str, Part]:
    """Each part's fastest repeat, field by field, over the cycles that ran it.

    The program is deterministic, so a part does the same work in every
    cycle, and the host can only slow it down: the fastest repeat is the
    estimate of its cost least disturbed by other load on the host.
    """
    names = dict.fromkeys(name for c in cycles for name in c.parts)
    best = {}
    for name in names:
        repeats = [c.parts[name] for c in cycles if name in c.parts]
        best[name] = Part(setup_s=min(p.setup_s for p in repeats),
                          run_s=min(p.run_s for p in repeats),
                          cpu_s=min(p.cpu_s for p in repeats))
    return best


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> Measurement:
    """Untraced: repeat cycles for ``seconds`` and report host time."""
    imports: list[float] = []
    cycles: list[Cycle] = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while not cycles or (time.perf_counter() - start
                             + statistics.mean(c.wall_s for c in cycles) <= seconds):
            # a lone busy process stays on one core; a core of a shared
            # host can run slow for minutes, so every part is timed on each
            os.sched_setaffinity(0, {cpus[len(cycles) % len(cpus)]})
            gc.collect()
            cycles.append(_cycle(workload, seed, tiny))
            if len(imports) < IMPORT_PROBES:
                # between cycles, so the probes meet the host as the parts do
                imports.append(import_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    best = fastest(cycles)
    setup = sum(p.setup_s for p in best.values())
    busy = sum(p.run_s for p in best.values())
    return _finish(cycles, {
        "records_per_s": cycles[0].counts["ingested"] / busy,
        "sweep_wall_s": setup + busy,
        "setup_s": min(imports) + setup,
        "cpu_s": sum(p.cpu_s for p in best.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })


def measure_traced(workload: str, seed: int, tiny: bool = False) -> Measurement:
    """One untraced cycle for counts, one cProfile cycle for self time."""
    gc.collect()
    plain = _cycle(workload, seed, tiny)
    profiler = cProfile.Profile()
    # sweep workers fork from the traced parent; only the parent is traced
    os.register_at_fork(after_in_child=profiler.disable)
    gc.collect()
    profiler.enable()
    try:
        traced = _cycle(workload, seed, tiny)
    finally:
        profiler.disable()
    self_s = layers.self_time_by_layer(pstats.Stats(profiler), SRC)
    total_self = sum(self_s.values())

    counts = plain.counts
    run_s = sum(plain.run_s.values())
    messages = counts["messages"]
    sent = counts["data_bytes"] + counts["protocol_bytes"]
    metrics = {
        "sim.events": counts["events"],
        "sim.events_per_s": counts["events"] / run_s if run_s else 0.0,
        "transport.messages": messages,
        "transport.records_per_message": counts["records_sent"] / messages if messages else 0.0,
        "transport.protocol_bytes_frac": counts["protocol_bytes"] / sent if sent else 0.0,
        "transport.sends_parked": counts["sends_parked"],
        "transport.blocked_s": plain.blocked_s,
        "state.bytes_uploaded": counts["bytes_uploaded"],
        "state.uploaded_frac": (counts["bytes_uploaded"] / counts["bytes_materialized"]
                                if counts["bytes_materialized"] else 0.0),
        "core.checkpoints": counts["checkpoints"],
        "core.forced_checkpoints": counts["forced_checkpoints"],
        "core.replayed_frac": (counts["replayed_records"] / counts["ingested"]
                               if counts["ingested"] else 0.0),
        **{f"core.{p}.run_s": plain.run_s.get(p, 0.0) for p in PROTOCOLS},
        "lifecycle.recoveries": counts["recoveries"],
        "metrics.mst_probes": counts["mst_probes"],
        "workloads.gen_s": plain.gen_s,
        "workloads.records_generated": counts["records_generated"],
        "experiments.cache_hit_ratio": plain.pool.get("hit_ratio", 0.0),
        "experiments.runs_simulated": plain.pool.get("simulated", 0),
        "experiments.cache_bytes": plain.pool.get("cache_bytes", 0),
        "trace_overhead": traced.wall_s / plain.wall_s,
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.self_share"] = seconds / total_self if total_self else 0.0
    return _finish([plain, traced], {name: metrics[name] for name in PER_LAYER})


def report(result: Measurement, traced: bool) -> dict:
    """The JSON object printed as the last line of a run."""
    units = PER_LAYER if traced else END_TO_END
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
