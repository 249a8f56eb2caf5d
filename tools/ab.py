"""Interleaved A/B comparison of two smmsolve source trees in one process.

    python3 tools/ab.py --a ../parent/src --b src --workload tall --seeds 0 1 2 3

Both trees are imported side by side, under the package names ``ab_a``
and ``ab_b``, with BLAS and OpenMP pinned to one thread before numpy
loads.  Each instance is generated once (by tree A, as ``smmsolve gen``
would with the instance's seed) and handed to both trees.  On every
instance each tree runs the tasks in order, and the tree that runs first
alternates from one instance to the next, so that drift of the host
falls on both sides alike.  The default tasks are the benchmark's timed
ones: ALM to KKT 1e-6 and to 1e-8, and ISPADMM to Relobj 1e-6 against
the tree's own 1e-8 objective.  ``sgs``, ``path_warm`` and ``path_as``
(the benchmark's 10-point C path at raw residual 1e-6) can be added.

For each task the tool prints one time ratio B/A per instance (best of
``--repeats`` runs per side), their median, the number of instances on
which B was faster, and whether every result came out byte-identical:
the bytes of W, v, U, lam and Lam, b, the objective, ``eta_kkt``,
``n_outer``, the flags and each history row's Newton, CG, direct and
exact-b step counts.  The last line is the same summary as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# n samples, p x q features: the benchmark's workloads (bench/harness.py),
# and ``wide``, whose pq = 4000 exceeds its 2000 training rows.
WORKLOADS = {"readme": (2500, 20, 20), "tall": (6250, 20, 20), "wide": (2500, 50, 80)}
RANK = 5
C, TAU = 1.0, 10.0
RELOBJ_TOL = 1e-6
PATH_EPS = 1e-6
HISTORY_COUNTS = ("newton_iters", "cg_iters", "direct_steps", "exact_b_steps")
TASKS = ("solve_1e-6", "solve_1e-8", "ispadmm", "sgs", "path_warm", "path_as")
DEFAULT_TASKS = TASKS[:3]


def load_tree(src: Path, name: str):
    """The ``smmsolve`` package under ``src``, imported as ``name``."""
    init = src / "smmsolve" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("admm", "alm", "data", "problem", "sieving"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def run_task(pkg, task: str, train, done: dict, grid: tuple):
    """The solutions of ``task`` on ``train``; ``done`` holds this tree's
    earlier results on the instance (ISPADMM and sGS need the 1e-8
    objective), ``grid`` is the C grid of the paths."""
    hyper = pkg.problem.Hyperparams(C=C, tau=TAU)
    if task.startswith("solve_"):
        cfg = pkg.alm.AlmConfig(kkt_tol=float(task[len("solve_"):]))
        return [pkg.alm.solve(train, hyper, cfg)]
    if task in ("ispadmm", "sgs"):
        ref = done["solve_1e-8"][0].report.objective
        cfg = pkg.admm.AdmmConfig(kkt_tol=None, relobj_tol=RELOBJ_TOL, track_history=False)
        run = pkg.admm.solve_ispadmm if task == "ispadmm" else pkg.admm.solve_sgs_ispadmm
        return [run(train, hyper, cfg, reference_obj=ref)]
    cfg = pkg.sieving.PathConfig(grid=grid, tau=TAU, eps=PATH_EPS)
    run = pkg.sieving.warm_path if task == "path_warm" else pkg.sieving.solve_path
    return [pt.solution for pt in run(train, cfg)]


def fingerprint(sol) -> tuple:
    """What must agree to the bit between the two trees."""
    rep = sol.report
    arrays = (sol.primal.W, sol.primal.v, sol.primal.U, sol.dual.lam, sol.dual.Lam)
    rows = tuple(tuple(row.get(k) for k in HISTORY_COUNTS) for row in rep.history)
    scalars = (sol.primal.b, rep.objective, rep.eta_kkt)
    return (
        tuple(a.tobytes() for a in arrays),
        tuple(float(x).hex() for x in scalars),
        rep.n_outer,
        tuple(rep.flags),
        rows,
    )


def timed(pkg, task, train, done, grid, repeats):
    best, sols = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        sols = run_task(pkg, task, train, done, grid)
        best = min(best, time.perf_counter() - t0)
    done[task] = sols
    return best, sols


def compare(trees, tasks, instances, grid, repeats, out=sys.stdout):
    """Run every task on every instance in both trees; returns the summary."""
    times = {t: [] for t in tasks}
    identical = {t: True for t in tasks}
    for k, (seed, features, labels) in enumerate(instances):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        got = [None, None]
        for side in order:
            pkg = trees[side]
            train = pkg.problem.Dataset(features.copy(), labels.copy())
            done, row = {}, {}
            for task in tasks:
                row[task] = timed(pkg, task, train, done, grid, repeats)
            got[side] = row
        for task in tasks:
            (ta, sa), (tb, sb) = got[0][task], got[1][task]
            same = [fingerprint(x) for x in sa] == [fingerprint(x) for x in sb]
            identical[task] &= same
            times[task].append((ta, tb))
            print(
                f"seed {seed} {task:<11} A {ta * 1e3:8.1f} ms  B {tb * 1e3:8.1f} ms  "
                f"B/A {tb / ta:6.3f}  {'identical' if same else 'DIFFERENT'}",
                file=out,
            )
    summary = {}
    for task in tasks:
        ratios = [tb / ta for ta, tb in times[task]]
        summary[task] = {
            "ratios": [round(r, 4) for r in ratios],
            "median": statistics.median(ratios),
            "b_wins": sum(r < 1.0 for r in ratios),
            "pairs": len(ratios),
            "identical": identical[task],
        }
        s = summary[task]
        print(
            f"{task:<11} median B/A {s['median']:.3f}  B faster on {s['b_wins']}/{s['pairs']}  "
            f"identical: {'yes' if s['identical'] else 'NO'}",
            file=out,
        )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="src/ directory of tree A")
    parser.add_argument("--b", type=Path, required=True, help="src/ directory of tree B")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="readme")
    parser.add_argument("--n", type=int, default=None, help="samples, overriding the workload's")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="instance seeds")
    parser.add_argument("--tasks", nargs="+", choices=TASKS, default=list(DEFAULT_TASKS))
    parser.add_argument("--repeats", type=int, default=1, help="runs per side, best taken")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if any(t in ("ispadmm", "sgs") for t in args.tasks) and "solve_1e-8" not in args.tasks:
        parser.error("ispadmm and sgs need the solve_1e-8 task for their reference")
    tasks = [t for t in TASKS if t in args.tasks]
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    import numpy as np  # only now, with the threads pinned

    trees = (load_tree(args.a.resolve(), "ab_a"), load_tree(args.b.resolve(), "ab_b"))
    grid = tuple(float(c) for c in np.logspace(-1.0, 1.0, 10))  # the benchmark's
    n, p, q = WORKLOADS[args.workload]
    if args.n is not None:
        n = args.n
    data = trees[0].data
    instances = []
    for seed in args.seeds:
        train, _test, _W = data.gen_synthetic(data.SynthSpec(n=n, p=p, q=q, r=RANK, seed=seed))
        instances.append((seed, train.features, train.labels))
    summary = compare(trees, tasks, instances, grid, args.repeats)
    print(json.dumps({"a": str(args.a), "b": str(args.b), "n": n, "tasks": summary}))
    return 0 if all(s["identical"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
