import json

import numpy as np
import pytest

from dmjoint import io as dio
from dmjoint.cli import main
from dmjoint.model import Dataset, Hyperparams, PartitionSpec, sbp_pivot
from dmjoint.predict import predict_y
from dmjoint.prep import preprocess
from dmjoint.sampler import SamplerConfig, run_chain
from dmjoint.simulate import SimConfig, gen_replicate, replicate_rng


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


def test_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-8, 8, size=(7, 3))
    path = tmp_path / "m.csv"
    dio.write_matrix(path, arr, "c")
    back = dio.read_matrix(path)
    assert np.array_equal(back, arr)  # %.17g round-trips doubles exactly

    ints = rng.integers(0, 10_000, size=(4, 5))
    dio.write_matrix(tmp_path / "i.csv", ints, "c", integer=True)
    backi = dio.read_matrix(tmp_path / "i.csv", integer=True)
    assert np.array_equal(backi, ints)
    assert np.issubdtype(backi.dtype, np.integer)


def test_replicate_round_trip(tmp_path):
    cfg = SimConfig(N=8, P=3, J=5, n_true_cov=2, n_true_bal=1,
                    zdot_low=50, zdot_high=100)
    train, test, truth = gen_replicate(cfg, replicate_rng(0, 0))
    rep = tmp_path / "rep000"
    dio.write_replicate(rep, train, test, truth)

    bt = dio.read_train(rep)
    assert np.array_equal(bt.Z, train.Z)
    assert np.array_equal(bt.Y, train.Y)
    assert np.array_equal(bt.X, train.X)

    be = dio.read_test(rep)
    assert np.array_equal(be.Z_test, test.Z_test)
    assert np.array_equal(be.Y_test, test.Y_test)

    btr = dio.read_truth(rep)
    assert np.array_equal(btr.zeta_true, truth.zeta_true)
    assert np.array_equal(btr.phi_true, truth.phi_true)
    assert np.array_equal(btr.xi_true, truth.xi_true)
    assert np.array_equal(btr.beta_true, truth.beta_true)
    assert np.array_equal(btr.psi_star, truth.psi_star)


def test_chain_round_trip(tmp_path):
    cfg = SimConfig(N=10, P=3, J=5, n_true_cov=1, n_true_bal=1,
                    zdot_low=50, zdot_high=100)
    train, _, _ = gen_replicate(cfg, replicate_rng(1, 0))
    train, _, _ = preprocess(train)
    chain = run_chain(train, Hyperparams(), sbp_pivot(5),
                      SamplerConfig(iterations=40, burn_in=20, thin=2, seed=1))
    rundir = tmp_path / "run"
    dio.write_chain(rundir, chain, Hyperparams(), extra={"note": "test"})
    back, hyper, summary = dio.read_chain(rundir)
    assert_chains_equal(back, chain)
    assert back.zeta.dtype == back.xi.dtype == np.uint8
    assert hyper == Hyperparams()
    assert summary["note"] == "test"

    # an xi-only (stage-2) chain writes no count blocks and reads back empty ones
    lm_only = run_chain(
        train, Hyperparams(), sbp_pivot(5),
        SamplerConfig(iterations=40, burn_in=20, thin=2, seed=2, mode="lm_only"),
        balances=np.random.default_rng(2).normal(size=(10, 4)))
    dio.write_chain(tmp_path / "lm", lm_only, Hyperparams())
    assert not (tmp_path / "lm" / "alpha.npy").exists()
    assert_chains_equal(dio.read_chain(tmp_path / "lm")[0], lm_only)


def assert_chains_equal(back, chain):
    for name in ("alpha", "phi", "zeta", "xi", "psi", "u", "log_posterior",
                 "mppi_zeta", "mppi_xi"):
        a, b = getattr(back, name), getattr(chain, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert back.accept == chain.accept
    assert back.config == chain.config


def test_manifest_round_trip(tmp_path):
    dio.write_manifest(tmp_path, "simulate", {"x": 1}, 7, ["a", "b"], 0.0)
    m = dio.read_manifest(tmp_path)
    assert m["command"] == "simulate"
    assert m["config"] == {"x": 1}
    assert m["seed"] == 7


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


FAST_FIT = ["--iterations", "200", "--burn-in", "100", "--thin", "10",
            "--between-moves-per-iter", "5"]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--out", str(out), "--replicates", "2",
                 "--seed", "3", "--n", "12", "--p", "3", "--j", "5",
                 "--n-true-cov", "2", "--n-true-bal", "1"])
    assert code == 0
    return out


def test_cli_simulate_outputs(sim_dir):
    for r in range(2):
        rep = sim_dir / f"rep{r:03d}"
        for name in ("train_y", "train_z", "train_x", "test_y", "test_z",
                     "test_x", "truth_zeta", "truth_xi"):
            assert (rep / f"{name}.csv").exists()
    assert (sim_dir / "manifest.json").exists()
    truth = dio.read_truth(sim_dir / "rep000")
    assert int(truth.zeta_true.sum()) == 2


def test_cli_simulate_null(tmp_path):
    out = tmp_path / "null"
    assert main(["simulate", "--out", str(out), "--replicates", "1",
                 "--seed", "4", "--n", "8", "--p", "2", "--j", "4",
                 "--null"]) == 0
    truth = dio.read_truth(out / "rep000")
    assert truth.zeta_true.sum() == 0
    assert truth.xi_true.sum() == 0


def test_cli_fit_predict_evaluate_joint(sim_dir, tmp_path):
    fit_dir = tmp_path / "fits"
    assert main(["fit", str(sim_dir), "--out", str(fit_dir),
                 "--seed", "5", *FAST_FIT]) == 0
    for r in range(2):
        run = fit_dir / f"rep{r:03d}"
        for name in ("alpha", "phi", "zeta", "xi", "psi"):
            assert (run / f"{name}.npy").exists()
        for name in ("selected_zeta", "selected_xi", "fitted_y"):
            assert (run / f"{name}.csv").exists()
        assert (run / "summary.json").exists()
        assert (run / "manifest.json").exists()

    run0 = fit_dir / "rep000"
    assert main(["predict", str(run0),
                 "--test-dir", str(sim_dir / "rep000")]) == 0
    pred = run0 / "predictions"
    assert (pred / "predictions.csv").exists()
    assert (pred / "loglik.csv").exists()
    yhat = dio.read_matrix(pred / "predictions.csv")
    assert yhat.shape[0] == 12
    assert np.all(np.isfinite(yhat))

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", str(run0), str(fit_dir / "rep001"),
                 "--out", str(eval_dir)]) == 0
    assert (eval_dir / "report.csv").exists()
    assert (eval_dir / "aggregate.csv").exists()
    with open(eval_dir / "report.csv") as f:
        lines = f.read().strip().splitlines()
    assert len(lines) == 3  # header + 2 runs
    assert "cov_mcc" in lines[0]


def test_cli_fit_two_step(sim_dir, tmp_path):
    fit_dir = tmp_path / "two"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(fit_dir),
                 "--model", "dmlm-bayes", "--seed", "6", *FAST_FIT]) == 0
    assert (fit_dir / "stage1" / "alpha.npy").exists()
    assert (fit_dir / "stage2" / "xi.npy").exists()
    assert not (fit_dir / "stage2" / "alpha.npy").exists()
    assert (fit_dir / "psi_bar.csv").exists()
    assert main(["predict", str(fit_dir),
                 "--test-dir", str(sim_dir / "rep000")]) == 0
    assert (fit_dir / "predictions" / "predictions.csv").exists()
    assert not (fit_dir / "predictions" / "loglik.csv").exists()

    eval_dir = tmp_path / "eval2"
    assert main(["evaluate", str(fit_dir), "--out", str(eval_dir)]) == 0
    with open(eval_dir / "report.csv") as f:
        assert "dmlm-bayes" in f.read()


def test_cli_fit_deterministic(sim_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["fit", str(sim_dir / "rep000"), "--seed", "9", *FAST_FIT]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("alpha.npy", "zeta.npy", "xi.npy", "selected_zeta.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_exit_codes(tmp_path):
    # usage errors from argparse exit with 2
    with pytest.raises(SystemExit) as e:
        main(["fit"])  # missing dataset and --out
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["bogus-command"])
    assert e.value.code == 2

    # runtime failures return 1
    assert main(["fit", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "o")]) == 1
    assert main(["evaluate", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "o")]) == 1


def test_cli_fit_keeping_no_samples_exits_before_sampling(sim_dir, tmp_path, capsys,
                                                         monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr("dmjoint.cli.run_chain", no_sampling)
    monkeypatch.setattr("dmjoint.cli.run_two_step", no_sampling)
    for model in ("joint", "dmlm-bayes"):
        assert main(["fit", str(sim_dir / "rep000"), "--out", str(tmp_path / model),
                     "--model", model, "--iterations", "300", "--burn-in", "295",
                     "--thin", "10"]) == 1
        err = capsys.readouterr().err
        assert "iterations=300, burn_in=295 and thin=10 keep no samples" in err
        assert not (tmp_path / model).exists()


def test_cli_fit_has_no_mode_flag(sim_dir, tmp_path):
    # --model decides the sampler modes; --mode is a usage error
    for mode in ("dm_only", "lm_only", "joint"):
        with pytest.raises(SystemExit) as e:
            main(["fit", str(sim_dir / "rep000"), "--out", str(tmp_path / "o"),
                  "--mode", mode, *FAST_FIT])
        assert e.value.code == 2
    # the mode a fit ran in is still recorded
    out = tmp_path / "ok"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(out), *FAST_FIT]) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["mode"] == "joint"
    assert dio.read_manifest(out)["config"]["sampler"]["mode"] == "joint"


def test_cli_predict_rejects_train_dir_of_other_size(sim_dir, tmp_path, capsys):
    other = tmp_path / "j6"
    assert main(["simulate", "--out", str(other), "--seed", "3", "--n", "12",
                 "--p", "3", "--j", "6", "--n-true-cov", "2", "--n-true-bal", "1"]) == 0
    for model in ("joint", "dmlm-bayes"):
        run = tmp_path / model
        assert main(["fit", str(sim_dir / "rep000"), "--out", str(run),
                     "--model", model, *FAST_FIT]) == 0
        capsys.readouterr()
        assert main(["predict", str(run), "--train-dir", str(other / "rep000")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "J=5" in err and "J=6" in err
        assert str(run) in err and str(other / "rep000") in err

    # a test set with another covariate count is caught before preprocessing
    wide = tmp_path / "p4"
    assert main(["simulate", "--out", str(wide), "--seed", "3", "--n", "12",
                 "--p", "4", "--j", "5", "--n-true-cov", "2", "--n-true-bal", "1"]) == 0
    assert main(["predict", str(tmp_path / "joint"), "--test-dir", str(wide / "rep000")]) == 1
    assert "test dimensions (J=5, P=4)" in capsys.readouterr().err


def test_cli_invalid_hyperparameter_is_runtime_error(sim_dir, tmp_path):
    code = main(["fit", str(sim_dir / "rep000"), "--out", str(tmp_path / "o"),
                 "--b0", "-1.0", *FAST_FIT])
    assert code == 1


def test_cli_fit_respects_partition_file(sim_dir, tmp_path):
    spec = sbp_pivot(5)
    pfile = tmp_path / "sbp.txt"
    spec.to_file(pfile)
    out = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(out),
                 "--partition-file", str(pfile), "--seed", "5",
                 *FAST_FIT]) == 0
    ref = tmp_path / "ref"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(ref),
                 "--seed", "5", *FAST_FIT]) == 0
    # pivot file reproduces the default partition bitwise
    assert (out / "xi.npy").read_bytes() == (ref / "xi.npy").read_bytes()


def test_cli_predict_uses_fitted_partition(sim_dir, tmp_path):
    # a balanced partition of 5 taxa, unlike the default pivot one
    spec = PartitionSpec([((0, 1, 2), (3, 4)), ((0,), (1, 2)), ((1,), (2,)),
                          ((3,), (4,))])
    pfile = tmp_path / "sbp.txt"
    spec.to_file(pfile)
    run, rep = tmp_path / "o", sim_dir / "rep000"
    assert main(["fit", str(rep), "--out", str(run), "--partition-file", str(pfile),
                 "--seed", "5", "--init-xi-frac", "0.5", *FAST_FIT]) == 0
    assert main(["predict", str(run)]) == 0
    got = dio.read_matrix(run / "predictions" / "predictions.csv").ravel()

    chain, hyper, _ = dio.read_chain(run)
    train, test, stats = preprocess(dio.read_train(rep), dio.read_test(rep))
    want = predict_y(chain, train, test, spec, hyper) + stats["y_mean"]
    pivot = predict_y(chain, train, test, sbp_pivot(5), hyper) + stats["y_mean"]
    assert np.array_equal(got, want)
    assert not np.allclose(got, pivot)


def test_cli_overflow_exits_1(sim_dir, tmp_path, monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise FloatingPointError("gamma overflow at subject 0, taxon 0")

    monkeypatch.setattr("dmjoint.cli.run_chain", overflow)
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(tmp_path / "o"),
                 *FAST_FIT]) == 1
    assert "error: gamma overflow" in capsys.readouterr().err


def test_cli_predict_old_csv_chain_exits_1(sim_dir, tmp_path, capsys):
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
    chain, _, _ = dio.read_chain(run)
    for block in run.glob("*.npy"):
        block.unlink()
    dio.write_matrix(run / "xi.csv", chain.xi, "xi", integer=True)
    assert main(["predict", str(run)]) == 1
    err = capsys.readouterr().err
    assert str(run) in err and "re-run fit" in err
