"""Run one workload of the repo benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload steady-p30 --seed 7 --seconds 40 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` and prints the
end-to-end metrics (host time, tracing off); ``--trace 1`` runs it once
untraced and once under cProfile and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
run from source (``src/``) of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench.WORKLOADS)}")
    if args.trace:
        result = bench.measure_traced(args.workload, args.seed)
    else:
        result = bench.measure(args.workload, args.seed, args.seconds)
    print(f"digest {args.workload} seed={args.seed} {result.digest}")
    print("counts " + json.dumps(result.counts, sort_keys=True))
    print(json.dumps(bench.report(result, traced=bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
