"""Self-test of the benchmark harness on tiny instances.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_harness.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import smmsolve  # noqa: E402
from smmsolve import admm, alm, data, sieving  # noqa: E402
from smmsolve.problem import Hyperparams  # noqa: E402

import harness  # noqa: E402
from spans import LAYERS, Tracer, self_times  # noqa: E402

HYPER = Hyperparams(C=1.0, tau=1.0)
GRID = (0.3, 1.0, 3.0)


@pytest.fixture(scope="module")
def tiny():
    train, test, _ = data.gen_synthetic(data.SynthSpec(n=250, p=6, q=8, r=2, seed=3))
    return train, test


def _solve_all(train):
    """Every solver entry point the benchmark times, on one dataset."""
    cfg = admm.AdmmConfig(kkt_tol=1e-6, track_history=False)
    return {
        "alm": alm.solve(train, HYPER, alm.AlmConfig(kkt_tol=1e-8)),
        "ispadmm": admm.solve_ispadmm(train, HYPER, cfg),
        "sgs": admm.solve_sgs_ispadmm(train, HYPER, cfg),
        "path": [
            pt.solution
            for pt in sieving.solve_path(train, sieving.PathConfig(grid=GRID, tau=HYPER.tau))
        ],
    }


def _modules():
    return [smmsolve] + [sys.modules[f"smmsolve.{layer}"] for layer in LAYERS]


def test_every_namespace_holds_the_wrapper(tiny):
    tracer = Tracer()
    with tracer.installed():
        originals = {orig for _, _, orig in tracer._patches}
        for mod in _modules():
            stale = [k for k, v in vars(mod).items() if callable(v) and v in originals]
            assert not stale, (mod.__name__, stale)
        _solve_all(tiny[0])
    spans = tracer.spans
    callers = {}
    for s in spans:
        if s.parent >= 0:
            callers.setdefault(s.name, set()).add(spans[s.parent].name.split(".")[0])
    # Names imported into other modules are reached through each module
    # that calls them (admm imports apply_A but never calls it).
    assert {"sncg", "sieving", "problem"} <= callers["problem.apply_A"]
    assert {"sncg", "problem"} <= callers["problem.apply_A_adjoint"]
    assert {"alm", "admm", "sieving"} <= callers["problem.kkt_residual"]
    assert {"alm", "admm"} <= callers["problem.primal_objective"]
    assert {"sncg"} <= callers["prox.full_svd"] | callers["prox.prox_nuclear"]
    # Uninstalling restores every original.
    for mod in _modules():
        assert not any(getattr(v, "__wrapped__", None) for v in vars(mod).values() if callable(v))


def test_traced_run_reproduces_untraced_bit_for_bit(tiny):
    plain = _solve_all(tiny[0])
    with Tracer().installed():
        traced = _solve_all(tiny[0])
    for key in ("alm", "ispadmm", "sgs"):
        a, b = plain[key], traced[key]
        assert a.report.objective == b.report.objective, key
        assert a.report.n_outer == b.report.n_outer, key
        assert np.array_equal(a.primal.W, b.primal.W), key
    assert [h["cg_iters"] for h in plain["alm"].report.history] == [
        h["cg_iters"] for h in traced["alm"].report.history
    ]
    assert [s.report.objective for s in plain["path"]] == [s.report.objective for s in traced["path"]]


def test_self_times_sum_to_root_span(tiny):
    tracer = Tracer()
    with tracer.installed():
        tracer.op = 0
        with tracer.span("bench.all"):
            _solve_all(tiny[0])
    spans = tracer.spans
    own = self_times(spans)
    root = spans[0]
    assert root.parent == -1 and all(s.parent >= 0 for s in spans[1:])
    assert min(own) > -1e-9
    assert sum(own) == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_the_declared_metrics(tmp_path, monkeypatch, trace):
    monkeypatch.setitem(
        harness.WORKLOADS, "tiny", harness.Workload(250, 6, 8, harness.TRACED_EXTRA, 0.5)
    )
    outcome, details = harness.run("tiny", 3, 0.01, trace, str(tmp_path))
    assert outcome["correct"] and outcome["failed"] == 0, details["ops"]
    assert outcome["attempted"] == harness.SETUP_REPEATS + len(harness.TASKS) + trace * (len(harness.TRACED_EXTRA) + 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(outcome["metrics"]) == declared
    assert not (tmp_path / ".bench_work").exists()
