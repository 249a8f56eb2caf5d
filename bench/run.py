"""Benchmark of smmsolve: time to a certified SMM solution, end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload readme --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's ``src/``, with BLAS and OpenMP
pinned to one thread before numpy loads.  The next-to-last line of
standard output is a JSON object with the environment and the operation
log; the last line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
declared in BENCHMARK.json, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    src = ROOT / "src"
    if not (src / "smmsolve" / "__init__.py").is_file():
        print(f"error: no smmsolve package under {src}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    outcome, details = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), str(ROOT))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = outcome.pop("metrics")
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", file=sys.stderr)
        return 2
    outcome["metrics"] = {k: {"value": float(values[k]), "unit": declared[k]} for k in declared}
    print(json.dumps(details))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
