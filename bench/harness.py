"""Workloads, timed operations and correctness checks of the smmsolve
benchmark.

One run repeats whole rounds, one operation at a time (closed loop),
until one more round of average length would overrun the measuring time.
Round r writes a fresh instance with ``smmsolve gen`` (seed
``seed + r * INSTANCE_STRIDE``, so round 0 uses the run's seed itself),
reads it back, and runs the workload's operations on it.  Timings are medians over rounds, which
averages over both instances and the machine's slow and fast spells.
Every operation is checked from its returned tuple, outside the timed
region; an exception or a failed check counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from smmsolve import admm, alm, cli, data, sieving
from smmsolve.problem import Hyperparams, kkt_residual, primal_objective

import kernels
from spans import Tracer, layer_metrics

HYPER = Hyperparams(C=1.0, tau=10.0)
RANK = 5
RELOBJ_TOL = 1e-6
PATH_GRID = tuple(float(c) for c in np.logspace(-1.0, 1.0, 10))
PATH_EPS = 1e-6
# Acceptance 07 allows the sieved path a raw residual of eps + 10 eps.
PATH_AS_RAW_CAP = 11 * PATH_EPS
# Set-ups of round 0's instance before the loop, so that setup_s is a
# median of several samples even when only one round fits.
SETUP_REPEATS = 3
INSTANCE_STRIDE = 100003
# A baseline that has not met its Relobj target by then counts as failed.
ADMM_TIME_LIMIT = 60.0

# Timed in every round of every workload; these give the end-to-end metrics.
TASKS = ("solve_1e-6", "solve_1e-8", "ispadmm")
# Added to the traced rounds of the readme workload only: a single run of
# either path takes 10-20 s and swings by a third between seeds and
# between runs, too slow and unsteady for an end-to-end metric.
TRACED_EXTRA = ("sgs", "path_warm", "path_as")
ALL_TASKS = TASKS + TRACED_EXTRA


@dataclass(frozen=True)
class Workload:
    n: int
    p: int
    q: int
    traced_extra: tuple
    # Lowest test accuracy of the 1e-6 model that passes.  Measured minima:
    # 0.979 over 88 tall instances, 0.968 over 140 readme instances.
    accuracy_floor: float


WORKLOADS = {
    "tall": Workload(6250, 20, 20, (), 0.95),
    "readme": Workload(2500, 20, 20, TRACED_EXTRA, 0.95),
}

# Per-layer metrics of the set-up phase, reported per set-up repeat.
SETUP_LAYER_METRICS = (
    "data.gen_synthetic.s", "data.save_dataset.s", "data.load_dataset.s",
    "data.bytes", "cli.gen.s", "data.self_s", "cli.self_s",
)


def relobj(obj: float, ref: float) -> float:
    return abs(obj - ref) / (1.0 + abs(ref))


class CheckFailed(Exception):
    """An operation returned a result that fails its correctness check."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class Run:
    """State of one benchmark run: the data, the results each check needs
    from earlier operations, and the operation log."""

    def __init__(self, name: str, workdir: str, tracer: Tracer | None):
        self.name = name
        self.wl = WORKLOADS[name]
        self.workdir = workdir
        self.tracer = tracer
        self.train = self.test = None
        self.log = []  # one dict per operation
        self.results = {}  # task -> last result, for the checks that need it
        self.instance_seed = None

    # --- operation bookkeeping -------------------------------------------

    def op(self, task: str, timed, check, traced: bool = True):
        """Time ``timed()``, then run ``check(result)`` untimed."""
        tracer = self.tracer if traced else None
        op_id = len(self.log)
        entry = {"task": task, "op": op_id, "traced": tracer is not None}
        self.log.append(entry)
        ctx = contextlib.nullcontext()
        if tracer is not None:
            tracer.op = op_id
            ctx = tracer.span(f"bench.{task}")
        try:
            with ctx:
                t0 = time.perf_counter()
                result = timed()
                entry["s"] = time.perf_counter() - t0
            report = getattr(result, "report", None)
            if report is not None:  # work done, to tell noise from work
                entry["iters"] = report.n_outer
                entry["cg"] = sum(h.get("cg_iters", 0) for h in report.history)
        except Exception as exc:  # an operation that raises is a failure
            entry["error"] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            if tracer is not None:
                tracer.op = -1
        try:
            check(result)
        except CheckFailed as exc:
            entry["error"] = str(exc)
        return result

    # --- set-up ------------------------------------------------------------

    def setup(self, instance_seed: int) -> bool:
        """Write an instance with ``smmsolve gen`` and read both splits back."""
        wl = self.wl
        prefix = os.path.join(self.workdir, f"{self.name}-{len(self.log)}")
        argv = [
            "gen", "--n", str(wl.n), "--p", str(wl.p), "--q", str(wl.q),
            "--r", str(RANK), "--seed", str(instance_seed), "--out", prefix,
        ]
        previous = self.train if instance_seed == self.instance_seed else None

        def timed():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise CheckFailed(f"smmsolve gen exited {code}")
            return (
                data.load_dataset(f"{prefix}_train.bin"),
                data.load_dataset(f"{prefix}_test.bin"),
            )

        def check(result):
            train, test = result
            n_train = round(0.8 * wl.n)
            _require(
                (train.n_samples, train.p, train.q) == (n_train, wl.p, wl.q)
                and test.n_samples == wl.n - n_train,
                f"loaded shapes {train} / {test}",
            )
            _require(
                previous is None
                or (
                    np.array_equal(train.features, previous.features)
                    and np.array_equal(train.labels, previous.labels)
                ),
                "set-up repeat produced different data",
            )

        result = self.op("setup", timed, check)
        for suffix in ("_train.bin", "_test.bin"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(prefix + suffix)
        if result is None or "error" in self.log[-1]:
            return False
        self.train, self.test = result
        self.instance_seed = instance_seed
        self.results = {}
        return True

    # --- timed operations --------------------------------------------------

    def check_fit(self, sol, tol):
        rep = sol.report
        res = kkt_residual(self.train, HYPER, sol.primal, sol.dual)
        _require(rep.converged, f"not converged, flags {rep.flags}")
        _require(res.eta <= tol, f"recomputed eta_kkt {res.eta:.3e} > {tol:g}")
        _require(
            math.isclose(res.eta, rep.eta_kkt, rel_tol=1e-9, abs_tol=1e-15),
            f"recomputed eta_kkt {res.eta!r} != reported {rep.eta_kkt!r}",
        )

    def solve(self, task, tol):
        def check(sol):
            obj = primal_objective(self.train, HYPER, sol.primal.W, sol.primal.b)
            self.results[task] = (sol, obj)
            self.check_fit(sol, tol)
            if tol == 1e-6:
                acc = data.accuracy(data.Model(sol.primal.W, sol.primal.b), self.test)
                self.log[-1]["accuracy"] = acc
                _require(
                    acc >= self.wl.accuracy_floor,
                    f"test accuracy {acc:.4f} < floor {self.wl.accuracy_floor}",
                )
            else:
                obj6 = self.results.get("solve_1e-6", (None, None))[1]
                _require(obj6 is not None, "no 1e-6 objective to compare")
                gap = relobj(obj6, obj)
                _require(gap <= RELOBJ_TOL, f"1e-6 objective Relobj {gap:.2e} vs 1e-8")

        return self.op(task, lambda: alm.solve(self.train, HYPER, alm.AlmConfig(kkt_tol=tol)), check)

    def baseline(self, task, solver):
        ref = self.results.get("solve_1e-8", (None, None))[1]
        cfg = admm.AdmmConfig(
            kkt_tol=None,
            relobj_tol=RELOBJ_TOL,
            time_limit=ADMM_TIME_LIMIT,
            track_history=False,
        )

        def timed():
            if ref is None:
                raise CheckFailed("no 1e-8 reference objective")
            return solver(self.train, HYPER, cfg, reference_obj=ref)

        def check(sol):
            obj = primal_objective(self.train, HYPER, sol.primal.W, sol.primal.b)
            gap = relobj(obj, ref)
            _require(gap <= RELOBJ_TOL, f"Relobj {gap:.2e} after {sol.report.n_outer} iterations")

        self.op(task, timed, check)

    def path_warm(self):
        def timed():
            warm, sols = None, []
            for C in PATH_GRID:
                cfg = alm.AlmConfig(kkt_tol=PATH_EPS, stop_mode="raw")
                sol = alm.solve(self.train, Hyperparams(C=C, tau=HYPER.tau), cfg, init=warm)
                warm = alm.StartPoint(W=sol.primal.W, b=sol.primal.b, lam=sol.dual.lam, Lam=sol.dual.Lam)
                sols.append(sol)
            return sols

        def check(sols):
            hypers = [Hyperparams(C=C, tau=HYPER.tau) for C in PATH_GRID]
            self.results["path_warm"] = [
                primal_objective(self.train, h, sol.primal.W, sol.primal.b)
                for h, sol in zip(hypers, sols)
            ]
            for h, sol in zip(hypers, sols):
                raw = kkt_residual(self.train, h, sol.primal, sol.dual).raw_max
                _require(
                    sol.report.converged and raw <= PATH_EPS,
                    f"C={h.C:.3g}: raw residual {raw:.2e}",
                )

        self.op("path_warm", timed, check)

    def path_as(self):
        cfg = sieving.PathConfig(grid=PATH_GRID, tau=HYPER.tau, eps=PATH_EPS)

        def check(points):
            warm_objs = self.results.get("path_warm")
            _require(warm_objs is not None, "no warm-started path to compare")
            _require(len(points) == len(PATH_GRID), f"{len(points)} path points")
            for pt, ref in zip(points, warm_objs):
                hyper = Hyperparams(C=pt.C, tau=HYPER.tau)
                sol = pt.solution
                raw = kkt_residual(self.train, hyper, sol.primal, sol.dual).raw_max
                _require(raw <= PATH_AS_RAW_CAP, f"C={pt.C:.3g}: raw residual {raw:.2e}")
                gap = relobj(primal_objective(self.train, hyper, sol.primal.W, sol.primal.b), ref)
                _require(gap <= RELOBJ_TOL, f"C={pt.C:.3g}: Relobj {gap:.2e} vs warm start")

        self.op("path_as", lambda: sieving.solve_path(self.train, cfg), check)

    def run_task(self, task):
        if task == "solve_1e-6":
            self.solve(task, 1e-6)
        elif task == "solve_1e-8":
            self.solve(task, 1e-8)
        elif task == "ispadmm":
            self.baseline(task, admm.solve_ispadmm)
        elif task == "sgs":
            self.baseline(task, admm.solve_sgs_ispadmm)
        elif task == "path_warm":
            self.path_warm()
        elif task == "path_as":
            self.path_as()
        else:
            raise ValueError(f"unknown task {task!r}")

    def untraced_twin(self):
        """Untraced 1e-6 solve, which must repeat the traced one bit for bit."""
        traced = self.results.get("solve_1e-6", (None, None))[0]

        def check(sol):
            _require(traced is not None, "no traced 1e-6 solve to compare")
            a, b = traced.report, sol.report
            same = (
                a.objective == b.objective
                and a.eta_kkt == b.eta_kkt
                and a.n_outer == b.n_outer
                and [h["cg_iters"] for h in a.history] == [h["cg_iters"] for h in b.history]
                and np.array_equal(traced.primal.W, sol.primal.W)
            )
            _require(same, "traced and untraced 1e-6 solves differ")

        self.op(
            "untraced_1e-6",
            lambda: alm.solve(self.train, HYPER, alm.AlmConfig(kkt_tol=1e-6)),
            check,
            traced=False,
        )


def warm_up(train):
    """One short solve, so that first-call costs stay out of the timings."""
    alm.solve(train, HYPER, alm.AlmConfig(kkt_tol=1e-6, max_outer_iter=3))


def times(log, task):
    return [e["s"] for e in log if e["task"] == task and "s" in e]


def env_metadata(seed, train) -> dict:
    meta = cli._env_metadata(seed)
    meta["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 prints instead
        meta["blas"] = None
    meta["thread_vars"] = {
        k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    meta["feature_block_bytes"] = int(train.features.nbytes) if train is not None else None
    meta["llc_bytes"] = _llc_bytes()
    return meta


def _llc_bytes():
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _installed(tracer):
    return tracer.installed() if tracer else contextlib.nullcontext()


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> tuple[dict, dict]:
    """Run one workload; return the outcome (metric values by name) and
    the details (environment and operation log)."""
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    tracer = Tracer() if trace else None
    state = Run(name, workdir, tracer)
    tasks = TASKS + (state.wl.traced_extra if trace else ())
    rounds = 0
    try:
        with _installed(tracer):
            for _ in range(SETUP_REPEATS):
                if not state.setup(seed):
                    raise SystemExit(f"set-up failed: {state.log[-1]['error']}")
        warm_up(state.train)

        t_start = time.perf_counter()
        while True:
            with _installed(tracer):
                ok = rounds == 0 or state.setup(seed + rounds * INSTANCE_STRIDE)
                for task in tasks if ok else ():
                    state.run_task(task)
            if not ok:
                break
            if trace:
                state.untraced_twin()
            rounds += 1
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / rounds > seconds:  # the next round would overrun
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    log = state.log
    failed = sum("error" in e for e in log)
    if trace:
        n_full = state.train.n_samples
        setup_ops = {e["op"] for e in log if e["task"] == "setup"}
        task_ops = {e["op"] for e in log if e["traced"]} - setup_ops
        metrics = layer_metrics(tracer.spans, task_ops, rounds, n_full)
        setup = layer_metrics(tracer.spans, setup_ops, len(setup_ops), n_full)
        metrics.update({k: setup[k] for k in SETUP_LAYER_METRICS})
        for task in ALL_TASKS:
            metrics[f"task.{task}_s"] = _median_or_zero(times(log, task))
        metrics["trace.overhead_s"] = metrics["task.solve_1e-6_s"] - _median_or_zero(
            times(log, "untraced_1e-6")
        )
        metrics["trace.spans_per_round"] = sum(s.op in task_ops for s in tracer.spans) / rounds
        sol = state.results.get("solve_1e-6", (None, None))[0]
        if sol is None:
            raise SystemExit("no 1e-6 solution to time the kernels at")
        metrics.update(kernels.kernel_metrics(state.train, sol, HYPER, seed))
    else:
        metrics = {
            "setup_s": statistics.median(times(log, "setup")),
            "solve_1e-6_s": _median_or_zero(times(log, "solve_1e-6")),
            "solve_1e-8_s": _median_or_zero(times(log, "solve_1e-8")),
            "ispadmm_s": _median_or_zero(times(log, "ispadmm")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    outcome = {"correct": failed == 0, "attempted": len(log), "failed": failed, "metrics": metrics}
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "env": env_metadata(seed, state.train),
        "ops": [{k: v for k, v in e.items() if k != "traced"} for e in log],
    }
    return outcome, details


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0
