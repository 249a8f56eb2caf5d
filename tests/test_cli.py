import json
import os

import numpy as np
import pytest

from smmsolve import alm, cli, sncg
from smmsolve import data as sdata
from smmsolve.problem import DualPoint, Hyperparams, PrimalPoint, kkt_residual


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a small generated dataset on disk."""
    root = tmp_path_factory.mktemp("cliws")
    out = str(root / "ds")
    rc = cli.main(
        ["gen", "--n", "240", "--p", "4", "--q", "4", "--r", "2", "--seed", "3",
         "--out", out]
    )
    assert rc == cli.EXIT_OK
    return root, f"{out}_train.bin", f"{out}_test.bin"


class TestGen:
    def test_writes_files_and_summary(self, ws, capsys):
        root, train, test = ws
        assert os.path.exists(train) and os.path.exists(test)

    def test_same_seed_identical_files(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        args = ["gen", "--n", "50", "--p", "3", "--q", "3", "--r", "1", "--seed", "8"]
        assert cli.main(args + ["--out", a]) == cli.EXIT_OK
        assert cli.main(args + ["--out", b]) == cli.EXIT_OK
        assert open(f"{a}_train.bin", "rb").read() == open(f"{b}_train.bin", "rb").read()

    def test_invalid_rank_usage_error(self, tmp_path):
        rc = cli.main(
            ["gen", "--n", "10", "--p", "2", "--q", "2", "--r", "5",
             "--out", str(tmp_path / "x")]
        )
        assert rc == cli.EXIT_USAGE


class TestTrain:
    def test_alm_meets_tolerance(self, ws):
        root, train, _ = ws
        report = str(root / "r.json")
        model = str(root / "m.npz")
        rc = cli.main(
            ["train", "--data", train, "--C", "1", "--tau", "1", "--solver", "alm",
             "--tol", "1e-6", "--report", report, "--model", model]
        )
        assert rc == cli.EXIT_OK
        rep = json.load(open(report))
        assert rep["schema"] == 1
        assert rep["eta_kkt"] <= 1e-6
        assert rep["converged"] is True

    def test_report_self_contained(self, ws):
        # recompute the KKT residual from the serialized artifacts
        root, train, _ = ws
        report = str(root / "r2.json")
        model = str(root / "m2.npz")
        rc = cli.main(
            ["train", "--data", train, "--C", "0.5", "--tau", "2", "--solver", "alm",
             "--tol", "1e-7", "--report", report, "--model", model]
        )
        assert rc == cli.EXIT_OK
        rep = json.load(open(report))
        ds = sdata.load_dataset(train)
        m, aux = sdata.load_model(model)
        res = kkt_residual(
            ds,
            Hyperparams(C=float(aux["C"]), tau=float(aux["tau"])),
            PrimalPoint(m.W, m.b, aux["v"], aux["U"]),
            DualPoint(aux["lam"], aux["Lam"]),
        )
        assert abs(res.eta - rep["eta_kkt"]) <= 1e-12 * max(1.0, rep["eta_kkt"])

    def test_ispadmm_with_reference_reports_relobj(self, ws):
        root, train, _ = ws
        ref_report = str(root / "ref.json")
        rc = cli.main(
            ["train", "--data", train, "--C", "1", "--tau", "1", "--solver", "alm",
             "--tol", "1e-8", "--report", ref_report]
        )
        assert rc == cli.EXIT_OK
        report = str(root / "isp.json")
        rc = cli.main(
            ["train", "--data", train, "--C", "1", "--tau", "1", "--solver", "ispadmm",
             "--tol", "1e-6", "--reference", ref_report, "--report", report]
        )
        assert rc == cli.EXIT_OK
        rep = json.load(open(report))
        assert rep["relobj"] is not None and rep["relobj"] <= 1e-6

    def test_unknown_solver_usage_error(self, ws):
        root, train, _ = ws
        rc = cli.main(["train", "--data", train, "--C", "1", "--tau", "1",
                       "--solver", "quantum"])
        assert rc == cli.EXIT_USAGE

    def test_missing_data_io_error(self, tmp_path):
        rc = cli.main(["train", "--data", str(tmp_path / "nope.bin"),
                       "--C", "1", "--tau", "1"])
        assert rc == cli.EXIT_IO

    def test_failed_subproblem_exits_nonconverged(self, ws, monkeypatch):
        # a two-step Newton budget with no retries forces an accepted
        # subproblem failure; the solve may meet --tol but is not converged
        root, train, _ = ws
        plain = alm.AlmConfig
        monkeypatch.setattr(
            alm,
            "AlmConfig",
            lambda **kw: plain(retry_limit=0, sncg=sncg.SncgConfig(max_newton_iter=2), **kw),
        )
        report = str(root / "failed_sub.json")
        rc = cli.main(["train", "--data", train, "--C", "1", "--tau", "1",
                       "--tol", "1e-3", "--report", report])
        assert rc == cli.EXIT_NONCONVERGED
        rep = json.load(open(report))
        assert rep["converged"] is False
        assert "subproblem-nonconvergence" in rep["flags"]
        assert len(rep["trace"]) == rep["iterations"]

    def test_nonconvergence_exit_code_with_report(self, ws):
        root, train, _ = ws
        report = str(root / "nc.json")
        rc = cli.main(
            ["train", "--data", train, "--C", "1", "--tau", "1", "--solver", "sgs",
             "--tol", "1e-10", "--max-iter", "3", "--report", report]
        )
        assert rc == cli.EXIT_NONCONVERGED
        assert os.path.exists(report)  # report still written


class TestPath:
    def test_single_point_grid_matches_train(self, ws):
        root, train, _ = ws
        report = str(root / "p1.json")
        rc = cli.main(
            ["path", "--data", train, "--tau", "1", "--c-min", "1", "--c-max", "1",
             "--grid-points", "1", "--eps", "1e-6", "--report", report]
        )
        assert rc == cli.EXIT_OK
        rep = json.load(open(report))
        assert len(rep["points"]) == 1
        train_report = str(root / "p1t.json")
        cli.main(
            ["train", "--data", train, "--C", "1", "--tau", "1", "--tol", "1e-8",
             "--report", train_report]
        )
        tr = json.load(open(train_report))
        rel = abs(rep["points"][0]["objective"] - tr["objective"]) / (
            1 + abs(tr["objective"])
        )
        assert rel <= 1e-6

    def test_strategies_agree(self, ws):
        root, train, _ = ws
        out_as = str(root / "pas.json")
        out_warm = str(root / "pwarm.json")
        base = ["path", "--data", train, "--tau", "1", "--c-min", "0.2",
                "--c-max", "2", "--grid-points", "4", "--log-scale",
                "--eps", "1e-6"]
        assert cli.main(base + ["--strategy", "as", "--report", out_as]) == cli.EXIT_OK
        assert cli.main(base + ["--strategy", "warm", "--report", out_warm]) == cli.EXIT_OK
        ras = json.load(open(out_as))["points"]
        rwa = json.load(open(out_warm))["points"]
        for a, w in zip(ras, rwa):
            rel = abs(a["objective"] - w["objective"]) / (1 + abs(w["objective"]))
            assert rel <= 1e-6


class TestPredict:
    def test_round_tripped_model_same_accuracy(self, ws, capsys):
        root, train, test = ws
        model = str(root / "pm.npz")
        cli.main(["train", "--data", train, "--C", "1", "--tau", "1",
                  "--tol", "1e-6", "--model", model])
        rc = cli.main(["predict", "--model", model, "--data", test])
        assert rc == cli.EXIT_OK
        line1 = capsys.readouterr().out.strip().splitlines()[-1]
        rc = cli.main(["predict", "--model", model, "--data", test])
        line2 = capsys.readouterr().out.strip().splitlines()[-1]
        assert line1 == line2 and line1.startswith("accuracy=")

    def test_trivial_positive_model(self, ws, tmp_path):
        root, train, test = ws
        model = str(tmp_path / "one.npz")
        ds = sdata.load_dataset(test)
        sdata.save_model(model, sdata.Model(W=np.zeros((ds.p, ds.q)), b=1.0))
        rc = cli.main(["predict", "--model", model, "--data", test,
                       "--report", str(tmp_path / "acc.json")])
        assert rc == cli.EXIT_OK
        rep = json.load(open(str(tmp_path / "acc.json")))
        assert rep["accuracy"] == pytest.approx(float(np.mean(ds.labels == 1.0)))

    def test_model_shape_mismatch_is_a_data_error(self, ws, tmp_path, capsys):
        root, train, test = ws
        ds = sdata.load_dataset(test)
        model = str(tmp_path / "wide.npz")
        shape = (ds.p + 1, ds.q + 2)
        sdata.save_model(model, sdata.Model(W=np.ones(shape), b=0.0))
        rc = cli.main(["predict", "--model", model, "--data", test])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert str(shape) in err and str((ds.p, ds.q)) in err


class TestBench:
    def test_contract_all_met_or_timeout(self, ws):
        root, train, _ = ws
        report = str(root / "bench.json")
        rc = cli.main(
            ["bench", "--data", train, "--c-values", "1", "--tau-values", "1",
             "--eps", "1e-4", "--report", report]
        )
        assert rc == cli.EXIT_OK
        rep = json.load(open(report))
        for row in rep["scenarios"]:
            for cell in row["solvers"].values():
                assert cell["met_tolerance"] or cell["timeout"]
                assert cell["time_per_iteration"] == pytest.approx(
                    cell["time"] / max(cell["iterations"], 1)
                )

    def test_usage_error_without_values(self, ws):
        root, train, _ = ws
        rc = cli.main(["bench", "--data", train])
        assert rc == cli.EXIT_USAGE
