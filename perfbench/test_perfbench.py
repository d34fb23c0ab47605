"""The benchmark's own tests: layer-table coverage and a smoke run.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import math

import pytest

import bench
import layers

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_every_repro_module_is_in_a_layer():
    assert layers.repro_modules(bench.SRC), "no modules found under src/repro"
    assert layers.unmapped_modules(bench.SRC) == []


def test_table_names_only_known_layers():
    table = {**layers.PACKAGES, **layers.MODULES}
    assert set(table.values()) <= set(layers.LAYERS) - {"other"}


def test_layer_lookup():
    assert layers.layer_of_module("repro.sim.events") == "sim"
    assert layers.layer_of_module("repro.dataflow.channels") == "transport"
    assert layers.layer_of_module("repro.dataflow.new_module") is None
    assert layers.layer_of_module("repro.new_package.module") is None


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for key, metrics in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == metrics


def test_fastest_takes_each_fields_fastest_repeat():
    a = bench.Cycle(parts={"x": bench.Part(1.0, 5.0, 3.0)})
    b = bench.Cycle(parts={"x": bench.Part(2.0, 4.0, 3.5), "y": bench.Part(0.5, 0.5, 0.5)})
    assert bench.fastest([a, b]) == {"x": bench.Part(1.0, 4.0, 3.0),
                                     "y": bench.Part(0.5, 0.5, 0.5)}


def _emitted(result: bench.Measurement, traced: bool) -> None:
    line = json.loads(json.dumps(bench.report(result, traced)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    expected = bench.PER_LAYER if traced else bench.END_TO_END
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke(workload):
    first = bench.measure(workload, seed=7, seconds=0, tiny=True)
    _emitted(first, traced=False)
    again = bench.measure(workload, seed=7, seconds=0, tiny=True)
    assert again.digest == first.digest
    assert again.counts == first.counts
    other_seed = bench.measure(workload, seed=8, seconds=0, tiny=True)
    assert other_seed.digest != first.digest
    traced = bench.measure_traced(workload, seed=7, tiny=True)
    _emitted(traced, traced=True)
    assert traced.digest == first.digest
    shares = [v for k, v in traced.metrics.items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0)
