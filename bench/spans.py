"""In-memory span tracer for the smmsolve layers, and the per-layer metrics
derived from its spans.

The tracer wraps the public functions of each package module (its
``__all__`` plus the CLI entry points) and a few methods that mark a layer
boundary.  Several modules import functions by name (``sncg``, ``admm`` and
``sieving`` hold their own ``apply_A``; ``alm`` holds ``kkt_residual``), so
every wrapper is installed in every module namespace that holds the
original, not only in the defining module.

A span is ``(name, start, end, parent, op, info)``: ``parent`` is the index
of the enclosing span (-1 for none), ``op`` the operation id current when
it opened, and ``info`` a few numbers read from the call's arguments or
result (rows touched, CG iterations, ...).  Nothing is written until the
caller asks for metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

PACKAGE = "smmsolve"
LAYERS = ("problem", "prox", "sncg", "alm", "admm", "sieving", "data", "cli")

# Layer entry points outside the modules' __all__.
_EXTRA_FUNCTIONS = {"cli": ("main", "cmd_gen")}
_METHODS = (
    ("problem", "Dataset", "subset"),
    ("sncg", "NewtonWorkspace", "__init__"),
    ("sncg", "NewtonWorkspace", "apply"),
)


def _rows_bytes(args, kwargs, out):
    ds = args[0] if args else kwargs["dataset"]
    return ds.n_samples, ds.n_samples * ds.p * ds.q * 8


def _flag_counts(flags):
    retries = sum(f.startswith("subproblem-retry") for f in flags)
    return retries, flags.count("subproblem-nonconvergence")


# Span name -> function of (args, kwargs, result) giving the span's info.
# Only small numbers are kept, never the arrays themselves.
_PROBES = {
    "problem.apply_A": _rows_bytes,
    "problem.apply_A_adjoint": _rows_bytes,
    "problem.Dataset.subset": lambda a, k, out: (out.n_samples,),
    "sncg.NewtonWorkspace.__init__": lambda a, k, out: (a[0].j1.size,),
    "prox.build_spectral_jacobian": lambda a, k, out: (out.k1,),
    "sncg.solve_subproblem": lambda a, k, out: (out.converged, out.stats.total_cg),
    "sncg.newton_direction": lambda a, k, out: (out[2],),
    "sncg.line_search": lambda a, k, out: (out[1],),
    "sncg.cg": lambda a, k, out: (out[1],),
    "alm.solve": lambda a, k, out: (out.report.n_outer, *_flag_counts(out.report.flags)),
    "admm.solve_ispadmm": lambda a, k, out: (out.report.n_outer,),
    "admm.solve_sgs_ispadmm": lambda a, k, out: (out.report.n_outer,),
    "sieving.solve_path": lambda a, k, out: (sum(pt.rounds for pt in out),),
    "sieving.solve_reduced": lambda a, k, out: (len(a[1]) / a[0].n_samples,),
    "data.load_dataset": lambda a, k, out: (out.features.nbytes + out.labels.nbytes,),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    info: tuple | None


class Tracer:
    """Collects spans from wrapped smmsolve functions while installed.

    ``op`` is the id of the operation in progress; the benchmark sets it
    before each timed task and opens a root span around the public call
    with :meth:`span`.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        probe = _PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.op, None)
            if probe is not None:
                spans[idx] = spans[idx]._replace(info=probe(args, kwargs, out))
            return out

        return traced

    @contextmanager
    def span(self, name):
        """Root span opened by the benchmark around one public call."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, t0, t1, parent, self.op, None)

    def install(self):
        """Wrap every public function and the listed methods."""
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        wrappers = {}
        for layer, mod in modules.items():
            names = tuple(getattr(mod, "__all__", ())) + _EXTRA_FUNCTIONS.get(layer, ())
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(ns, attr, wrappers[val])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[meth]
            self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are nested on one thread, so the children of a span never
    overlap and their summed duration is the part of the span they cover.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ratio(num, den):
    return num / den if den else 0.0


def _has_ancestor(spans, idx, name):
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], ops: set[int], per: int, n_full: int) -> dict:
    """Per-layer counts and seconds over the spans of operations ``ops``.

    Totals are divided by ``per`` (the number of rounds, or of set-ups),
    so a run that fits more rounds reports the same per-round figures.
    ``n_full`` is the row count of the full training set: an ``A``/``A*``
    call over that many rows is a full-data pass.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    secs = defaultdict(float)
    layer_self = defaultdict(float)
    info = defaultdict(list)
    keep = [i for i, s in enumerate(spans) if s.op in ops]
    for i in keep:
        s = spans[i]
        calls[s.name] += 1
        secs[s.name] += s.end - s.start
        layer_self[s.name.split(".")[0]] += own[i]
        if s.info is not None:
            info[s.name].append(s.info)

    passes = info["problem.apply_A"] + info["problem.apply_A_adjoint"]
    full_passes = sum(rows == n_full for rows, _ in passes)
    subproblems = info["sncg.solve_subproblem"]
    cg_total = sum(cg for _, cg in subproblems)
    cg_wasted = sum(cg for ok, cg in subproblems if not ok)
    newton_dirs = calls["sncg.newton_direction"]
    op_calls = calls["sncg.NewtonWorkspace.apply"]
    alm_info = info["alm.solve"]
    m = {
        "problem.apply_A.calls": calls["problem.apply_A"],
        "problem.apply_A.s": secs["problem.apply_A"],
        "problem.apply_A_adjoint.calls": calls["problem.apply_A_adjoint"],
        "problem.apply_A_adjoint.s": secs["problem.apply_A_adjoint"],
        "problem.full_passes": full_passes,
        "problem.bytes_computed": sum(b for _, b in passes),
        "problem.kkt_residual.calls": calls["problem.kkt_residual"],
        "problem.kkt_residual.s": secs["problem.kkt_residual"],
        "problem.primal_objective.calls": calls["problem.primal_objective"],
        "problem.primal_objective.s": secs["problem.primal_objective"],
        "problem.subset.calls": calls["problem.Dataset.subset"],
        "problem.subset.s": secs["problem.Dataset.subset"],
        "problem.subset.rows": sum(r for (r,) in info["problem.Dataset.subset"]),
        "prox.full_svd.calls": calls["prox.full_svd"],
        "prox.full_svd.s": secs["prox.full_svd"],
        "prox.apply_spectral_jacobian.calls": calls["prox.apply_spectral_jacobian"],
        "prox.apply_spectral_jacobian.s": secs["prox.apply_spectral_jacobian"],
        "prox.build_spectral_jacobian.calls": calls["prox.build_spectral_jacobian"],
        "prox.build_spectral_jacobian.s": secs["prox.build_spectral_jacobian"],
        "sncg.subproblems": len(subproblems),
        "sncg.subproblems_failed": sum(not ok for ok, _ in subproblems),
        "sncg.newton_dirs": newton_dirs,
        "sncg.cg_iters": sum(it for (it,) in info["sncg.newton_direction"]),
        "sncg.op_apply.calls": op_calls,
        "sncg.op_apply.s": secs["sncg.NewtonWorkspace.apply"],
        "sncg.line_search.calls": calls["sncg.line_search"],
        "sncg.line_search.s": secs["sncg.line_search"],
        "sncg.ls_trials": sum(t for (t,) in info["sncg.line_search"]),
        "sncg.compute_state.calls": calls["sncg.compute_state"],
        "sncg.compute_state.s": secs["sncg.compute_state"],
        "alm.solve.calls": calls["alm.solve"],
        "alm.solve.s": secs["alm.solve"],
        "alm.outer_iters": sum(x[0] for x in alm_info),
        "alm.retries": sum(x[1] for x in alm_info),
        "alm.nonconverged_subproblems": sum(x[2] for x in alm_info),
        "admm.ispadmm.s": secs["admm.solve_ispadmm"],
        "admm.ispadmm.iters": sum(x[0] for x in info["admm.solve_ispadmm"]),
        "admm.sgs.s": secs["admm.solve_sgs_ispadmm"],
        "admm.sgs.iters": sum(x[0] for x in info["admm.solve_sgs_ispadmm"]),
        "sieving.reduced_solves": calls["sieving.solve_reduced"],
        "sieving.rounds": sum(x[0] for x in info["sieving.solve_path"]),
        "sieving.solve_reduced.s": secs["sieving.solve_reduced"],
        "sieving.violation_set.s": secs["sieving.violation_set"],
        "data.gen_synthetic.s": secs["data.gen_synthetic"],
        "data.save_dataset.s": secs["data.save_dataset"],
        "data.load_dataset.s": secs["data.load_dataset"],
        "data.bytes": sum(x[0] for x in info["data.load_dataset"]),
        "cli.gen.s": secs["cli.cmd_gen"],
    }
    m["admm.ispadmm.subproblems"] = sum(
        _has_ancestor(spans, i, "admm.solve_ispadmm")
        for i in keep
        if spans[i].name == "sncg.solve_subproblem"
    )
    m["admm.sgs.cg_iters"] = sum(
        spans[i].info[0]
        for i in keep
        if spans[i].name == "sncg.cg" and _has_ancestor(spans, i, "admm.solve_sgs_ispadmm")
    )
    m["sieving.initial_solve.s"] = sum(
        spans[i].end - spans[i].start
        for i in keep
        if spans[i].name == "alm.solve"
        and spans[i].parent >= 0
        and spans[spans[i].parent].name == "sieving.solve_path"
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m = {k: v / per for k, v in m.items()}
    # Ratios and means are not divided by the round count.
    m["problem.full_passes_per_newton"] = _ratio(full_passes, newton_dirs)
    m["sncg.subproblem_ok_ratio"] = _ratio(sum(ok for ok, _ in subproblems), len(subproblems))
    m["sncg.cg_iters_wasted_share"] = _ratio(cg_wasted, cg_total)
    m["sncg.op_apply.us_per_call"] = _ratio(1e6 * secs["sncg.NewtonWorkspace.apply"], op_calls)
    for name, span in (
        ("sncg.j1_mean", "sncg.NewtonWorkspace.__init__"),
        ("prox.k1_mean", "prox.build_spectral_jacobian"),
        ("sieving.rows_share", "sieving.solve_reduced"),
    ):
        values = [v for (v,) in info[span]]
        m[name] = _ratio(sum(values), len(values))
    return m
