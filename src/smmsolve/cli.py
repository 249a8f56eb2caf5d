"""Batch command line: data generation, training, path computation,
prediction, and solver benchmarking with JSON reports.

Exit codes: 0 success, 1 usage error, 2 non-convergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import admm, alm, data, sieving
from .problem import (
    DataError,
    Dataset,
    DualPoint,
    Hyperparams,
    PrimalPoint,
    classify_samples,
    kkt_residual,
    primal_objective,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGED = 2
EXIT_IO = 3

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _env_metadata(seed=None):
    meta = {
        "cpu_count": os.cpu_count(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


def _write_report(path, payload):
    payload = {"schema": SCHEMA_VERSION, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_jsonable)
    return payload


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _report_from_solution(sol, extra=None):
    rep = sol.report
    payload = {
        "solver": rep.solver,
        "converged": rep.converged,
        "iterations": rep.n_outer,
        "eta_kkt": rep.eta_kkt,
        "eta_components": rep.eta_components,
        "raw_components": rep.raw_components,
        "objective": rep.objective,
        "dual_objective": rep.dual_obj,
        "sm_count": rep.sm_count,
        "asm_count": rep.asm_count,
        "j1_size": rep.j1_size,
        "alpha_size": rep.alpha_size,
        "wall_time": rep.wall_time,
        "relobj": rep.relobj,
        "flags": rep.flags,
        "config": rep.config,
        "trace": rep.history,
    }
    if extra:
        payload.update(extra)
    return payload


def cmd_gen(args) -> int:
    try:
        spec = data.SynthSpec(
            n=args.n,
            p=args.p,
            q=args.q,
            r=args.r,
            noise_delta=args.noise,
            seed=args.seed,
            train_fraction=args.train_frac,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    train, test, _W = data.gen_synthetic(spec)
    ext = "bin" if args.format == "binary" else "csv"
    train_path = f"{args.out}_train.{ext}"
    test_path = f"{args.out}_test.{ext}"
    try:
        data.save_dataset(train, train_path, fmt=args.format)
        data.save_dataset(test, test_path, fmt=args.format)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"wrote {train_path} ({train.n_samples} samples) and "
        f"{test_path} ({test.n_samples} samples), p={train.p} q={train.q} "
        f"r={args.r} seed={args.seed}"
    )
    return EXIT_OK


def _load_or_fail(path, shape=None):
    try:
        return data.load_dataset(path, shape=shape)
    except (OSError, DataError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _parse_reference(text):
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        pass
    try:
        with open(text) as fh:
            return float(json.load(fh)["objective"])
    except (OSError, KeyError, ValueError) as exc:
        print(f"I/O error: cannot read reference objective from {text}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def cmd_train(args) -> int:
    ds = _load_or_fail(args.data, shape=args.shape)
    hyper = Hyperparams(C=args.C, tau=args.tau)
    reference = _parse_reference(args.reference)
    t0 = time.perf_counter()

    if args.solver == "alm":
        cfg = alm.AlmConfig(kkt_tol=args.tol)
        if args.max_iter:
            cfg.max_outer_iter = args.max_iter
        init = None
        if args.warm_start_iters > 0:
            du, pr = admm.warm_start(ds, hyper, args.warm_start_iters)
            init = alm.StartPoint(W=pr.W, b=pr.b, lam=du.lam, Lam=du.Lam)
        sol = alm.solve(ds, hyper, cfg, init=init)
    elif args.solver in ("ispadmm", "sgs"):
        cfg = admm.AdmmConfig(kkt_tol=args.tol)
        if args.max_iter:
            cfg.max_iter = args.max_iter
        if reference is not None:
            cfg.relobj_tol = args.tol
        run = admm.solve_ispadmm if args.solver == "ispadmm" else admm.solve_sgs_ispadmm
        sol = run(ds, hyper, cfg, reference_obj=reference)
    else:
        print(f"error: unknown solver {args.solver!r}", file=sys.stderr)
        return EXIT_USAGE

    if reference is not None and sol.report.relobj is None:
        obj = sol.report.objective
        sol.report.relobj = abs(obj - reference) / (1.0 + abs(reference))

    if args.model:
        try:
            data.save_model(
                args.model,
                data.Model(sol.primal.W, sol.primal.b),
                aux={
                    "v": sol.primal.v,
                    "U": sol.primal.U,
                    "lam": sol.dual.lam,
                    "Lam": sol.dual.Lam,
                    "C": np.float64(hyper.C),
                    "tau": np.float64(hyper.tau),
                },
            )
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    if args.report:
        payload = _report_from_solution(
            sol, extra={"data": args.data, "env": _env_metadata(), "total_time": time.perf_counter() - t0}
        )
        try:
            _write_report(args.report, payload)
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO

    print(
        f"{sol.report.solver}: eta_kkt={sol.report.eta_kkt:.3e} "
        f"objective={sol.report.objective:.9e} iters={sol.report.n_outer} "
        f"time={sol.report.wall_time:.2f}s converged={sol.report.converged}"
    )
    return EXIT_OK if sol.report.converged else EXIT_NONCONVERGED


def cmd_path(args) -> int:
    ds = _load_or_fail(args.data, shape=args.shape)
    if args.grid_points < 1:
        print("error: --grid-points must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.log_scale:
        grid = np.logspace(np.log10(args.c_min), np.log10(args.c_max), args.grid_points)
    else:
        grid = np.linspace(args.c_min, args.c_max, args.grid_points)
    grid = np.unique(grid)

    rows = []
    failed = False
    t0 = time.perf_counter()
    if args.strategy == "as":
        cfg = sieving.PathConfig(
            grid=tuple(grid),
            tau=args.tau,
            eps=args.eps,
            eps_hat=args.eps_hat,
            d_max=args.dmax,
        )
        try:
            points = sieving.solve_path(ds, cfg)
        except sieving.SievingError as exc:
            print(f"non-convergence: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGED
        for pt in points:
            cls = classify_samples(pt.solution.dual.lam, pt.C)
            rows.append(
                {
                    "C": pt.C,
                    "eta_kkt": pt.eta_kkt,
                    "raw_max": max(pt.raw_errors.values()),
                    "objective": pt.solution.report.objective,
                    "sm_count": cls.sm_count,
                    "asm_count": cls.asm_count,
                    "rounds": pt.rounds,
                    "active_sizes": pt.active_sizes,
                    "time": pt.wall_time,
                }
            )
            _maybe_save_point_model(args, pt.C, pt.solution)
    else:
        warm = None
        for C in grid:
            hyper = Hyperparams(C=float(C), tau=args.tau)
            cfg = alm.AlmConfig(kkt_tol=args.eps, stop_mode="raw")
            t1 = time.perf_counter()
            sol = alm.solve(ds, hyper, cfg, init=warm)
            if not sol.report.converged:
                failed = True
            cls = classify_samples(sol.dual.lam, hyper.C)
            rows.append(
                {
                    "C": float(C),
                    "eta_kkt": sol.report.eta_kkt,
                    "raw_max": max(sol.report.raw_components.values()),
                    "objective": sol.report.objective,
                    "sm_count": cls.sm_count,
                    "asm_count": cls.asm_count,
                    "rounds": 0,
                    "time": time.perf_counter() - t1,
                }
            )
            warm = alm.StartPoint(
                W=sol.primal.W, b=sol.primal.b, lam=sol.dual.lam, Lam=sol.dual.Lam
            )
            _maybe_save_point_model(args, float(C), sol)

    if args.report:
        payload = {
            "command": "path",
            "strategy": args.strategy,
            "tau": args.tau,
            "eps": args.eps,
            "eps_hat": args.eps_hat,
            "d_max": args.dmax,
            "grid": [float(c) for c in grid],
            "points": rows,
            "total_time": time.perf_counter() - t0,
            "env": _env_metadata(),
        }
        try:
            _write_report(args.report, payload)
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    for row in rows:
        print(
            f"C={row['C']:<12.6g} eta={row['eta_kkt']:.2e} obj={row['objective']:.6e} "
            f"|SM|={row['sm_count']} |ASM|={row['asm_count']} rounds={row['rounds']} "
            f"t={row['time']:.2f}s"
        )
    return EXIT_NONCONVERGED if failed else EXIT_OK


def _maybe_save_point_model(args, C, sol):
    if getattr(args, "models_out", None):
        os.makedirs(args.models_out, exist_ok=True)
        path = os.path.join(args.models_out, f"model_C{C:.6g}.npz")
        data.save_model(path, data.Model(sol.primal.W, sol.primal.b))


def cmd_predict(args) -> int:
    ds = _load_or_fail(args.data, shape=args.shape)
    try:
        model, _aux = data.load_model(args.model)
    except (OSError, DataError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        acc = data.accuracy(model, ds)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    counts = data.confusion_counts(model, ds)
    print(
        f"accuracy={acc:.6f} tp={counts['tp']} tn={counts['tn']} "
        f"fp={counts['fp']} fn={counts['fn']}"
    )
    if args.report:
        _write_report(args.report, {"command": "predict", "accuracy": acc, **counts})
    return EXIT_OK


def cmd_bench(args) -> int:
    ds = _load_or_fail(args.data, shape=args.shape)
    scenarios = [(C, tau) for tau in args.tau_values for C in args.c_values]
    table = []
    any_failed = False
    for C, tau in scenarios:
        hyper = Hyperparams(C=C, tau=tau)
        ref_cfg = alm.AlmConfig(kkt_tol=1e-8, time_limit=args.time_limit)
        ref = alm.solve(ds, hyper, ref_cfg)
        ref_obj = ref.report.objective
        row = {"C": C, "tau": tau, "reference_objective": ref_obj, "solvers": {}}
        for name in ("alm", "ispadmm", "sgs"):
            t0 = time.perf_counter()
            timed_out = False
            if name == "alm":
                cfg = alm.AlmConfig(
                    kkt_tol=1e-12,
                    reference_obj=ref_obj,
                    relobj_tol=args.eps,
                    time_limit=args.time_limit,
                )
                sol = alm.solve(ds, hyper, cfg)
            else:
                cfg = admm.AdmmConfig(
                    kkt_tol=None,
                    relobj_tol=args.eps,
                    time_limit=args.time_limit,
                    track_history=False,
                )
                run = admm.solve_ispadmm if name == "ispadmm" else admm.solve_sgs_ispadmm
                sol = run(ds, hyper, cfg, reference_obj=ref_obj)
            elapsed = time.perf_counter() - t0
            timed_out = "time-limit" in sol.report.flags
            relobj = abs(sol.report.objective - ref_obj) / (1.0 + abs(ref_obj))
            iters = max(sol.report.n_outer, 1)
            row["solvers"][name] = {
                "relobj": relobj,
                "iterations": sol.report.n_outer,
                "time": elapsed,
                "time_per_iteration": elapsed / iters,
                "timeout": timed_out,
                "met_tolerance": relobj <= args.eps,
            }
            if not (relobj <= args.eps or timed_out):
                any_failed = True
        table.append(row)

    print(f"{'C':>10} {'tau':>8} {'solver':>9} {'Relobj':>10} {'iters':>7} {'time(s)':>9} {'t/iter':>10}")
    for row in table:
        for name, cell in row["solvers"].items():
            mark = " TIMEOUT" if cell["timeout"] else ""
            print(
                f"{row['C']:>10.4g} {row['tau']:>8.4g} {name:>9} "
                f"{cell['relobj']:>10.2e} {cell['iterations']:>7} "
                f"{cell['time']:>9.2f} {cell['time_per_iteration']:>10.4f}{mark}"
            )
    if args.report:
        try:
            _write_report(
                args.report,
                {"command": "bench", "eps": args.eps, "scenarios": table, "env": _env_metadata()},
            )
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_NONCONVERGED if any_failed else EXIT_OK


def _shape_arg(text):
    p, q = text.split("x")
    return (int(p), int(q))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smmsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--r", type=int, default=5)
    g.add_argument("--noise", type=float, default=2e-4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--train-frac", type=float, default=0.8)
    g.add_argument("--out", required=True)
    g.add_argument("--format", choices=("binary", "csv"), default="binary")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="fit one model at fixed (C, tau)")
    t.add_argument("--data", required=True)
    t.add_argument("--shape", type=_shape_arg, default=None, help="pxq for CSV files")
    t.add_argument("--C", type=float, required=True)
    t.add_argument("--tau", type=float, required=True)
    t.add_argument("--solver", choices=("alm", "ispadmm", "sgs"), default="alm")
    t.add_argument("--tol", type=float, default=1e-6)
    t.add_argument("--warm-start-iters", type=int, default=0)
    t.add_argument("--max-iter", type=int, default=0)
    t.add_argument("--reference", default=None, help="objective value or report JSON")
    t.add_argument("--report", default=None)
    t.add_argument("--model", default=None)
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("path", help="solution path over a C grid")
    p.add_argument("--data", required=True)
    p.add_argument("--shape", type=_shape_arg, default=None)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--c-min", type=float, required=True)
    p.add_argument("--c-max", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=50)
    p.add_argument("--log-scale", action="store_true")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--eps-hat", type=float, default=0.05)
    p.add_argument("--dmax", type=int, default=500)
    p.add_argument("--strategy", choices=("as", "warm"), default="as")
    p.add_argument("--report", default=None)
    p.add_argument("--models-out", default=None)
    p.set_defaults(func=cmd_path)

    r = sub.add_parser("predict", help="evaluate a saved model")
    r.add_argument("--model", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--shape", type=_shape_arg, default=None)
    r.add_argument("--report", default=None)
    r.set_defaults(func=cmd_predict)

    b = sub.add_parser("bench", help="compare solvers against an ALM reference")
    b.add_argument("--data", required=True)
    b.add_argument("--shape", type=_shape_arg, default=None)
    b.add_argument("--c-values", type=float, nargs="+", required=True)
    b.add_argument("--tau-values", type=float, nargs="+", required=True)
    b.add_argument("--eps", type=float, default=1e-4)
    b.add_argument("--time-limit", type=float, default=None)
    b.add_argument("--report", default=None)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
