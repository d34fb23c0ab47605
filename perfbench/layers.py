"""Module -> layer table and cProfile self-time grouping.

Each layer is named after the modules it holds.  ``PACKAGES`` maps a
whole package (every module below it) to one layer; ``MODULES`` maps
single modules, for packages whose modules belong to different layers
(``repro.dataflow``).  A module under ``src/repro`` that neither table
names is *unmapped*: :func:`unmapped_modules` lists it, and the
benchmark's own tests fail on it, so a new module cannot quietly fall
into ``other``.  ``other`` holds what is not ``repro`` code: the
standard library, builtins and the benchmark itself.
"""

from __future__ import annotations

import pstats
from pathlib import Path

LAYERS = ("sim", "transport", "worker", "operators", "core", "lifecycle",
          "storage", "metrics", "workloads", "experiments", "other")

PACKAGES = {
    "repro.sim": "sim",
    "repro.core": "core",
    "repro.storage": "storage",
    "repro.metrics": "metrics",
    "repro.workloads": "workloads",
    "repro.experiments": "experiments",
}

MODULES = {
    "repro": "experiments",
    "repro.__main__": "experiments",
    "repro.cli": "experiments",
    "repro.dataflow": "worker",
    "repro.dataflow.transport": "transport",
    "repro.dataflow.channels": "transport",
    "repro.dataflow.worker": "worker",
    "repro.dataflow.runtime": "worker",
    "repro.dataflow.coordinator": "worker",
    "repro.dataflow.operators": "operators",
    "repro.dataflow.state": "operators",
    "repro.dataflow.batch": "operators",
    "repro.dataflow.records": "operators",
    "repro.dataflow.keygroups": "operators",
    "repro.dataflow.graph": "operators",
    "repro.dataflow.lifecycle": "lifecycle",
    # RunResult's derived-metric accessors: read after a run, like metrics/*
    "repro.dataflow.results": "metrics",
}


def layer_of_module(module: str) -> str | None:
    """The layer of a dotted ``repro`` module name, ``None`` if unmapped."""
    if module in MODULES:
        return MODULES[module]
    parts = module.split(".")
    for end in range(len(parts) - 1, 0, -1):
        layer = PACKAGES.get(".".join(parts[:end + 1]))
        if layer is not None:
            return layer
    return None


def module_name(path: Path, src: Path) -> str | None:
    """Dotted module name of ``path`` if it lies under ``src``, else None."""
    try:
        rel = path.relative_to(src)
    except ValueError:
        return None
    if rel.suffix != ".py":
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src: Path) -> list[str]:
    """Every module under ``src/repro``, sorted."""
    return sorted(module_name(p, src) for p in (src / "repro").rglob("*.py"))


def unmapped_modules(src: Path) -> list[str]:
    """Modules under ``src/repro`` that the table does not place in a layer."""
    return [m for m in repro_modules(src) if layer_of_module(m) is None]


def self_time_by_layer(stats: pstats.Stats, src: Path) -> dict[str, float]:
    """Sum cProfile ``tottime`` per layer; unmapped code counts as ``other``.

    Builtins (``~`` file entries) stay in ``other``: cProfile charges a
    builtin call to the builtin, not to the layer that made it.
    """
    src = src.resolve()
    by_file: dict[str, str] = {}
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _func), entry in stats.stats.items():  # type: ignore[attr-defined]
        layer = by_file.get(filename)
        if layer is None:
            module = None
            if filename.endswith(".py"):
                module = module_name(Path(filename).resolve(), src)
            layer = (layer_of_module(module) if module else None) or "other"
            by_file[filename] = layer
        totals[layer] += entry[2]
    return totals
