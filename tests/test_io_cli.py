import ast
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dmjoint
from dmjoint import cli
from dmjoint import io as dio
from dmjoint.baselines import run_two_step, two_step_predict_y
from dmjoint.cli import HYPER_FLAGS, SAMPLER_FLAGS, main
from dmjoint.metrics import squared_error
from dmjoint.model import Dataset, Hyperparams, PartitionSpec, sbp_pivot
from dmjoint.predict import TestSet, predict_y
from dmjoint.prep import preprocess, preprocess_test
from dmjoint.sampler import SamplerConfig, run_chain
from dmjoint.simulate import SimConfig, gen_replicate, replicate_rng
from test_acceptance import _blas_threads


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


def test_preprocess_test_applies_the_recorded_statistics():
    # the statistics as fit records them in manifest.json transform a test set
    # bitwise as the statistics preprocess returns do, and the training rows
    # bitwise as preprocess itself does
    cfg = SimConfig(N=8, P=3, J=5, n_true_cov=2, n_true_bal=1,
                    zdot_low=50, zdot_high=100)
    train, test, _ = gen_replicate(cfg, replicate_rng(0, 0))
    train_p, stats = preprocess(train)
    recorded = json.loads(json.dumps(stats))
    rows = TestSet(Z_test=train.Z, X_test=train.X, Y_test=train.Y)
    rows_p = TestSet(Z_test=train_p.Z, X_test=train_p.X, Y_test=train_p.Y)
    pairs = [(test, preprocess_test(test, stats)), (rows, rows_p)]
    pairs += [(replace(a, Y_test=None), replace(b, Y_test=None)) for a, b in pairs]
    for given, expect in pairs:
        got = preprocess_test(given, recorded)
        for name in ("Z_test", "X_test", "Y_test"):
            a, b = getattr(got, name), getattr(expect, name)
            assert (a is None and b is None) or (
                a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()), name


CHAIN_BLOCKS = {"alpha_mean.npy", "zeta_changes.npy", "phi_mean.npy", "predictor.npy",
                "fits.npy", "y.npy", "xi_changes.npy", "log_posterior.npy"}
# a chain's own facts; the fit's are in the run root's manifest.json
SUMMARY_KEYS = {"schema_version", "config", "acceptance", "phi_shape", "xi_shape"}
MANIFEST_KEYS = {"command", "config", "output", "duration_s", "version", "schema_version"}


def small_chains():
    """A joint, a dm_only and an xi-only (stage-2) chain on one small replicate."""
    cfg = SimConfig(N=10, P=3, J=5, n_true_cov=1, n_true_bal=1,
                    zdot_low=50, zdot_high=100)
    train, _, _ = gen_replicate(cfg, replicate_rng(1, 0))
    train, _ = preprocess(train)
    fit = SamplerConfig(iterations=40, burn_in=20, thin=2, seed=1)
    return {
        "joint": run_chain(train, Hyperparams(), sbp_pivot(5), fit),
        "dm_only": run_chain(train, Hyperparams(), sbp_pivot(5),
                             replace(fit, mode="dm_only")),
        "lm_only": run_chain(
            train, Hyperparams(), sbp_pivot(5),
            SamplerConfig(iterations=40, burn_in=20, thin=2, seed=2, mode="lm_only"),
            balances=np.random.default_rng(2).normal(size=(10, 4))),
    }


def test_chain_round_trip(tmp_path):
    # every chain, the xi-only one included, is the same eight blocks
    for mode, chain in small_chains().items():
        rundir = tmp_path / mode
        dio.write_chain(rundir, chain)
        assert {p.name for p in rundir.glob("*.npy")} == CHAIN_BLOCKS
        back, summary = dio.read_chain(rundir)
        assert_chains_equal(back, chain)
        assert back.zeta.dtype == back.xi.dtype == np.uint8
        assert back.zeta_changes.dtype == back.xi_changes.dtype == np.int64
        assert back.phi_mean.dtype == np.float64
        assert set(summary) == SUMMARY_KEYS


def test_read_chain_ignores_derived_blocks_of_older_writers(tmp_path):
    # older versions also wrote zeta and the MPPIs, which are derived on load
    # now, before manifest schema 5 the u block and before schema 9 an empty
    # psi block, which nothing reads
    chain = small_chains()["joint"]
    dio.write_chain(tmp_path, chain)
    np.save(tmp_path / "zeta.npy", np.zeros_like(chain.zeta))
    np.save(tmp_path / "mppi_zeta.npy", np.ones_like(chain.mppi_zeta))
    np.save(tmp_path / "mppi_xi.npy", np.ones_like(chain.mppi_xi))
    np.save(tmp_path / "u.npy", np.ones((chain.n_samples, 10)))
    np.save(tmp_path / "psi.npy", np.ones((chain.n_samples, 10, 5)))
    back = dio.read_chain(tmp_path)[0]
    assert_chains_equal(back, chain)
    assert not hasattr(back, "u")
    assert back.psi.shape == (chain.n_samples, 0, 0)


def test_chains_hold_no_dense_phi(tmp_path):
    # phi is kept as its inclusions' changes and mean, and xi as its changes:
    # no S x J x P or S x M block is held, in memory or read back
    for mode, chain in small_chains().items():
        dio.write_chain(tmp_path / mode, chain)
        for held in (chain, dio.read_chain(tmp_path / mode)[0]):
            assert held.phi_shape[1:] != held.xi_shape[1:]  # the fixture tells them apart
            dense = [name for name, v in vars(held).items()
                     if isinstance(v, np.ndarray) and v.size
                     and v.shape in (held.phi_shape, held.xi_shape)]
            assert not dense, (mode, dense)


def assert_chains_equal(back, chain):
    for name in ("alpha_mean", "zeta_changes", "phi_mean", "xi_changes", "zeta", "xi", "psi",
                 "predictor", "fits", "y", "log_posterior", "mppi_zeta", "mppi_xi"):
        a, b = getattr(back, name), getattr(chain, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert back.phi_shape == chain.phi_shape and back.xi_shape == chain.xi_shape
    assert back.accept == chain.accept
    assert back.config == chain.config


def test_manifest_round_trip(tmp_path):
    dio.write_manifest(tmp_path, "simulate", {"x": 1, "seed": 7}, 0.0)
    m = dio.read_manifest(tmp_path)
    assert m["command"] == "simulate"
    assert m["config"] == {"x": 1, "seed": 7}
    # the seed and the inputs are in config, and nowhere else
    assert set(m) == MANIFEST_KEYS


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


FAST_FIT = ["--iterations", "200", "--burn-in", "100", "--thin", "10",
            "--between-moves-per-iter", "5"]
# a balance prior of odds 1e-12 that starts empty: no sample selects a balance
NO_BALANCES = ["--init-xi-frac", "0", "--b-m", "1e12"]


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
    argv = ["simulate", "--out", str(out), "--replicates", "1",
            "--seed", "4", "--n", "8", "--p", "2", "--j", "4"]
    assert main([*argv, "--n-true-cov", "0", "--n-true-bal", "0"]) == 0
    truth = dio.read_truth(out / "rep000")
    assert truth.zeta_true.sum() == 0
    assert truth.xi_true.sum() == 0
    config = dio.read_manifest(out)["config"]
    assert (config["n_true_cov"], config["n_true_bal"]) == (0, 0)
    # null data is made with the two counts; there is no --null shortcut
    with pytest.raises(SystemExit) as e:
        main([*argv, "--null"])
    assert e.value.code == 2


def test_cli_fit_predict_evaluate_joint(sim_dir, tmp_path):
    fit_dir = tmp_path / "fits"
    assert main(["fit", str(sim_dir), "--out", str(fit_dir),
                 "--seed", "5", *FAST_FIT]) == 0
    for r in range(2):
        run = fit_dir / f"rep{r:03d}"
        assert {p.name for p in run.glob("*.npy")} == CHAIN_BLOCKS
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
    for stage in ("stage1", "stage2"):
        assert {p.name for p in (fit_dir / stage).glob("*.npy")} == CHAIN_BLOCKS
    # stage 2 keeps no count samples: its count blocks are empty
    assert np.load(fit_dir / "stage2" / "alpha_mean.npy").size == 0
    # stage 1 keeps no balance or composition samples, and stage 2 keeps its
    # samples' fitted values and linear predictor in place of the mean
    # composition it ran on
    assert dio.read_chain(fit_dir / "stage1")[0].xi.shape == (10, 0)
    assert np.load(fit_dir / "stage1" / "predictor.npy").shape == (0,)
    assert not (fit_dir / "psi_bar.csv").exists()
    assert np.load(fit_dir / "stage2" / "predictor.npy").shape == (5,)
    assert np.load(fit_dir / "stage2" / "fits.npy").shape == (10, 12)
    # the fit's facts are in the run root's manifest; each stage's summary
    # holds only its own chain's
    assert not (fit_dir / "summary.json").exists()
    assert main(["predict", str(fit_dir),
                 "--test-dir", str(sim_dir / "rep000")]) == 0
    assert not (fit_dir / "predictions" / "loglik.csv").exists()
    got = dio.read_matrix(fit_dir / "predictions" / "predictions.csv").ravel()

    # the predictions of the same two-step run held in memory
    rep = sim_dir / "rep000"
    train, stats = preprocess(dio.read_train(rep))
    test = preprocess_test(dio.read_test(rep), stats)
    config = SamplerConfig(iterations=200, burn_in=100, thin=10, seed=6,
                           between_moves_per_iter=5)
    two = run_two_step(train, Hyperparams(), sbp_pivot(5), config)
    want = two_step_predict_y(two, test, sbp_pivot(5), Hyperparams())
    assert np.array_equal(got, want + stats["y_mean"])

    eval_dir = tmp_path / "eval2"
    assert main(["evaluate", str(fit_dir), "--out", str(eval_dir)]) == 0
    with open(eval_dir / "report.csv") as f:
        assert "dmlm-bayes" in f.read()


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_cli_evaluate_scores_the_test_set_predict_read(sim_dir, tmp_path):
    # a fit to rep000 predicts rep001's test set: pmse is scored against
    # rep001's responses, not those of the dataset the fit read
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
    assert main(["predict", str(run), "--test-dir", str(sim_dir / "rep001")]) == 0
    assert main(["evaluate", str(run), "--out", str(tmp_path / "eval")]) == 0
    pmse = float(_csv_rows(tmp_path / "eval" / "report.csv")[0]["pmse_sum"])
    yhat = dio.read_matrix(run / "predictions" / "predictions.csv").ravel()
    scores = {rep: squared_error(dio.read_matrix(sim_dir / rep / "test_y.csv").ravel(), yhat)
              for rep in ("rep000", "rep001")}
    assert scores["rep000"] != scores["rep001"]
    assert pmse == scores["rep001"]


def test_cli_evaluate_aggregates_one_row_per_b0(sim_dir, tmp_path):
    runs = []
    for b0 in ("1.0", "4.0"):
        runs.append(tmp_path / f"b0_{b0}")
        assert main(["fit", str(sim_dir / "rep000"), "--out", str(runs[-1]),
                     "--b0", b0, "--seed", "5", *FAST_FIT]) == 0
    assert main(["evaluate", *map(str, runs), "--out", str(tmp_path / "eval")]) == 0
    report = _csv_rows(tmp_path / "eval" / "report.csv")
    aggregate = _csv_rows(tmp_path / "eval" / "aggregate.csv")
    assert [row["b0"] for row in aggregate] == ["1.0", "4.0"]
    assert [row["b0"] for row in report] == ["1.0", "4.0"]
    for agg, run in zip(aggregate, report):
        assert agg["n_replicates"] == "1"
        for col in (c.removesuffix("_mean") for c in agg if c.endswith("_mean")):
            # one replicate per group: its mean is its value, blank stays blank
            assert agg[col + "_mean"] == run[col] == "" or \
                float(agg[col + "_mean"]) == float(run[col])
    with pytest.raises(SystemExit) as e:
        main(["evaluate", *map(str, runs), "--out", str(tmp_path / "o"),
              "--sweep-b0", "1.0"])
    assert e.value.code == 2


METRIC_COLUMNS = ["cov_selected", "cov_sensitivity", "cov_specificity", "cov_mcc",
                  "bal_selected", "bal_sensitivity", "bal_specificity", "bal_mcc",
                  "mse_sum", "mse_mean", "pmse_sum", "pmse_mean"]


def test_cli_evaluate_groups_runs_by_every_recorded_setting(sim_dir, tmp_path):
    # fits of one replicate that differ in any recorded setting but the seed
    # are aggregated apart; fits that differ only in the seed share a row
    def fit(name, *flags):
        run = tmp_path / name
        assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), "--seed", "5",
                     *FAST_FIT, *flags]) == 0
        return str(run)

    base = fit("base")
    for other, flags, groups in (("r2", ["--r2", "100"], [1, 1]),
                                 ("iterations", ["--iterations", "400"], [1, 1]),
                                 ("seed", ["--seed", "9"], [2])):
        out = tmp_path / f"eval_{other}"
        assert main(["evaluate", base, fit(other, *flags), "--out", str(out)]) == 0
        report = _csv_rows(out / "report.csv")
        assert list(report[0]) == ["run", "replicate", "model", *HYPER_FLAGS, *SAMPLER_FLAGS,
                                   *METRIC_COLUMNS]
        aggregate = _csv_rows(out / "aggregate.csv")
        assert [int(row["n_replicates"]) for row in aggregate] == groups
        assert list(aggregate[0]) == [
            "model", *HYPER_FLAGS, *(f for f in SAMPLER_FLAGS if f != "seed"),
            "n_replicates", *(c + s for c in METRIC_COLUMNS for s in ("_mean", "_sd"))]
    assert [row["r2"] for row in _csv_rows(tmp_path / "eval_r2" / "aggregate.csv")] == [
        "10.0", "100.0"]


def test_cli_fit_pooled_matches_serial(sim_dir, tmp_path):
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    for out, jobs in ((serial, "1"), (pooled, "2")):
        assert main(["fit", str(sim_dir), "--out", str(out), "--seed", "5",
                     "--jobs", jobs, *FAST_FIT]) == 0
    names = [*sorted(CHAIN_BLOCKS), "selected_zeta.csv", "selected_xi.csv", "fitted_y.csv"]
    for rep in ("rep000", "rep001"):
        for name in names:
            assert (pooled / rep / name).read_bytes() == (serial / rep / name).read_bytes()


def test_cli_fit_runs_one_blas_thread(sim_dir, tmp_path):
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(tmp_path / "o"),
                 *FAST_FIT]) == 0
    assert _blas_threads() in (1, None)  # None: no OpenBLAS with a thread getter


def test_cli_simulate_does_not_depend_on_blas_threads(tmp_path):
    # paper-scale products whose bits differ between one and two OpenBLAS
    # threads unless simulate runs one
    src = Path(dmjoint.__file__).resolve().parents[1]
    reps = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                           os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "dmjoint.cli", "simulate", "--out",
                               str(out), "--seed", "619"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        reps.append(out / "rep000")
    names = sorted(p.name for p in reps[0].iterdir())
    assert "train_y.csv" in names and names == sorted(p.name for p in reps[1].iterdir())
    for name in names:
        assert (reps[0] / name).read_bytes() == (reps[1] / name).read_bytes(), name


def test_cli_fit_deterministic(sim_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["fit", str(sim_dir / "rep000"), "--seed", "9", *FAST_FIT]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("alpha_mean.npy", "zeta_changes.npy", "phi_mean.npy", "xi_changes.npy",
                 "selected_zeta.csv"):
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


@pytest.mark.parametrize("model, modes", [("joint", {".": "joint"}),
                                          ("dmlm-bayes", {"stage1": "dm_only",
                                                          "stage2": "lm_only"})])
def test_cli_fit_records_each_fact_in_one_file(sim_dir, tmp_path, model, modes):
    # the fit's facts are in the run root's manifest, with the sampler flags
    # but no mode, which differs between the stages; each chain's summary
    # holds only its own facts, its mode and seed among them
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), "--model", model,
                 "--seed", "5", *FAST_FIT]) == 0
    manifest = dio.read_manifest(run)
    assert set(manifest) == MANIFEST_KEYS  # no seed or inputs beside config's
    config = manifest["config"]
    assert set(config) == {"model", "dataset", "hyperparams", "sampler", "preprocess"}
    assert config["model"] == model
    assert set(config["sampler"]) == set(SAMPLER_FLAGS) and "mode" not in config["sampler"]
    for k, (stage, mode) in enumerate(modes.items()):
        summary = json.loads((run / stage / "summary.json").read_text())
        assert set(summary) == SUMMARY_KEYS
        assert (summary["config"]["mode"], summary["config"]["seed"]) == (mode, 5 + k)
    # predict draws nothing, so its manifest records no seed
    assert main(["predict", str(run)]) == 0
    assert set(dio.read_manifest(run / "predictions")) == MANIFEST_KEYS


@pytest.mark.parametrize("model, stage", [("joint", "."), ("dmlm-bayes", "stage2")])
def test_read_chain_needs_every_summary_key(sim_dir, tmp_path, model, stage):
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), "--model", model,
                 *FAST_FIT]) == 0
    path = run / stage / "summary.json"
    summary = json.loads(path.read_text())
    assert set(summary) == SUMMARY_KEYS
    for key in summary:
        path.write_text(json.dumps({k: v for k, v in summary.items() if k != key}))
        with pytest.raises(ValueError) as e:
            dio.read_chain(run / stage)
        message = str(e.value)
        assert "\n" not in message and str(path) in message, (key, message)
        assert f"'{key}'" in message and "re-run fit" in message, (key, message)
    path.write_text(json.dumps(summary))
    dio.read_chain(run / stage)


def test_cli_refuses_a_directory_fit_did_not_write(sim_dir, tmp_path, capsys):
    # a predict output and a simulate root hold manifests, but not a fit's
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
    assert main(["predict", str(run)]) == 0
    for rundir, command in ((run / "predictions", "predict"), (sim_dir, "simulate")):
        for argv in (["evaluate", str(rundir), "--out", str(tmp_path / "eval")],
                     ["predict", str(rundir), "--out", str(tmp_path / "pred")]):
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(rundir / "manifest.json") in err, err
            assert f"the manifest of a '{command}' run, not of a fit" in err, err
    assert not (tmp_path / "eval").exists() and not (tmp_path / "pred").exists()


def test_cli_predict_rejects_test_data_of_other_shape(sim_dir, tmp_path, capsys):
    # the test set is checked against the fit's J and P, recorded in the
    # chain's phi_shape and the partition; --train-dir is gone
    sims = {"j6": ["--p", "3", "--j", "6"], "p4": ["--p", "4", "--j", "5"]}
    for name, dims in sims.items():
        assert main(["simulate", "--out", str(tmp_path / name), "--seed", "3", "--n", "12",
                     *dims, "--n-true-cov", "2", "--n-true-bal", "1"]) == 0
    for model in ("joint", "dmlm-bayes"):
        run = tmp_path / model
        assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), "--model", model,
                     *FAST_FIT]) == 0
        capsys.readouterr()
        for name, dims in (("j6", "J=6, P=3"), ("p4", "J=5, P=4")):
            assert main(["predict", str(run), "--test-dir",
                         str(tmp_path / name / "rep000")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"test dimensions ({dims})" in err and "(J=5, P=3" in err
            assert str(run) in err
        assert not (run / "predictions").exists()
        with pytest.raises(SystemExit) as e:
            main(["predict", str(run), "--train-dir", str(sim_dir / "rep000")])
        assert e.value.code == 2


@pytest.mark.parametrize("model", ["joint", "dmlm-bayes"])
def test_cli_predict_reads_no_training_data(sim_dir, tmp_path, model):
    # fit records all predict needs of the training data, so predict gives the
    # same bytes once the replicate's training files are gone
    rep, run = tmp_path / "rep", tmp_path / "o"
    shutil.copytree(sim_dir / "rep000", rep)
    assert main(["fit", str(rep), "--out", str(run), "--model", model, *FAST_FIT]) == 0
    assert main(["predict", str(run)]) == 0
    for path in rep.glob("train_*.csv"):
        path.unlink()
    assert main(["predict", str(run), "--out", str(run / "again")]) == 0
    names = sorted(p.name for p in (run / "predictions").glob("*.csv"))
    assert names == (["loglik.csv", "predictions.csv"] if model == "joint"
                     else ["predictions.csv"])
    for name in names:
        assert (run / "again" / name).read_bytes() == (run / "predictions" / name).read_bytes()


def test_cli_evaluate_reads_recorded_paths_from_any_directory(sim_dir, tmp_path,
                                                              monkeypatch):
    # fit and predict given relative paths record them absolute, so evaluate
    # run from another directory scores the same test set
    shutil.copytree(sim_dir, tmp_path / "data")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "data/rep000", "--out", "fit", *FAST_FIT]) == 0
    assert main(["predict", "fit", "--test-dir", "data/rep001"]) == 0
    assert main(["evaluate", "fit", "--out", "eval"]) == 0
    here = _csv_rows(tmp_path / "eval" / "report.csv")[0]
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["evaluate", str(tmp_path / "fit"), "--out", "eval"]) == 0
    there = _csv_rows(tmp_path / "elsewhere" / "eval" / "report.csv")[0]
    assert here["pmse_sum"] != "" and there["pmse_sum"] == here["pmse_sum"]
    assert there["mse_sum"] == here["mse_sum"] != ""
    assert dio.read_manifest(tmp_path / "fit")["config"]["dataset"] == str(
        tmp_path.resolve() / "data" / "rep000")


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
    assert (out / "xi_changes.npy").read_bytes() == (ref / "xi_changes.npy").read_bytes()


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

    chain, hyper = dio.read_chain(run)[0], dio.read_fit(run)["hyperparams"]
    stats = preprocess(dio.read_train(rep))[1]
    test = preprocess_test(dio.read_test(rep), stats)
    want = predict_y(chain, test, spec, hyper) + stats["y_mean"]
    pivot = predict_y(chain, test, sbp_pivot(5), hyper) + stats["y_mean"]
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
    chain = dio.read_chain(run)[0]
    for block in run.glob("*.npy"):
        block.unlink()
    dio.write_matrix(run / "xi.csv", chain.xi, "xi", integer=True)
    assert main(["predict", str(run)]) == 1
    err = capsys.readouterr().err
    assert str(run) in err and "re-run fit" in err


def _ridge_in_place_of_predictor(chain_dir):
    # chains of schemas 7 to 10 kept a (beta, mean, sd) row per selected
    # balance in ridge.npy, and no predictor
    selected = int(dio.read_chain(chain_dir)[0].xi.sum())
    (chain_dir / "predictor.npy").unlink()
    np.save(chain_dir / "ridge.npy", np.zeros((selected, 3)))


def _schema_3(run):
    # a dense phi.npy and xi.npy in place of the change blocks and phi_mean,
    # and no ridge fits
    chain = dio.read_chain(run)[0]
    for name in ("zeta_changes", "phi_mean", "xi_changes", "predictor"):
        (run / f"{name}.npy").unlink()
    np.save(run / "phi.npy", chain.zeta.astype(float))
    np.save(run / "xi.npy", chain.xi)


def _schema_6(run):
    # a joint chain that kept its selected balance columns, and no ridge fits
    selected = int(dio.read_chain(run)[0].xi.sum())
    (run / "predictor.npy").unlink()
    (run / "fits.npy").unlink()
    np.save(run / "balances.npy", np.zeros((selected, 14)))


def _schema_7(run):
    # every sample's alpha and phi values, not their means
    chain = dio.read_chain(run)[0]
    _ridge_in_place_of_predictor(run)
    (run / "alpha_mean.npy").unlink()
    (run / "phi_mean.npy").unlink()
    np.save(run / "alpha.npy", np.tile(chain.alpha_mean, (chain.n_samples, 1)))
    np.save(run / "phi_value.npy", np.ones(int(chain.zeta.sum())))


def _schema_8_joint(run):
    # the ridge rows beside an empty psi block; this run used to predict
    _ridge_in_place_of_predictor(run)
    np.save(run / "psi.npy", np.empty((10, 0, 0)))


def _schema_8_two_step(run):
    # a stage 2 that kept no ridge fits, beside the psi_bar.csv predict read
    # them back from
    for stage in ("stage1", "stage2"):
        _ridge_in_place_of_predictor(run / stage)
        np.save(run / stage / "psi.npy", np.empty((10, 0, 0)))
    np.save(run / "stage2" / "ridge.npy", np.empty((0, 3)))
    np.save(run / "stage2" / "fits.npy", np.empty((10, 0)))
    dio.write_matrix(run / "psi_bar.csv", np.full((12, 5), 0.2), "psi")


def _schema_9(run):
    # the flat indices of each sample's included pairs and the dense xi
    # block, not their changes between samples
    chain = dio.read_chain(run)[0]
    _ridge_in_place_of_predictor(run)
    (run / "zeta_changes.npy").unlink()
    (run / "xi_changes.npy").unlink()
    np.save(run / "phi_index.npy", np.flatnonzero(chain.zeta))
    np.save(run / "xi.npy", chain.xi)
    summary = json.loads((run / "summary.json").read_text())
    del summary["xi_shape"]
    (run / "summary.json").write_text(json.dumps(summary))


def _schema_11(run):
    # no y block; the summary counted the samples, named the model and held
    # a digest of the training data predict read again
    (run / "y.npy").unlink()
    summary = json.loads((run / "summary.json").read_text())
    summary.update(n_samples=10, model="joint", train_sha256="0" * 64)
    (run / "summary.json").write_text(json.dumps(summary))


@pytest.mark.parametrize("version, model, flags, plant", [
    (3, "joint", [], _schema_3),
    (6, "joint", [], _schema_6),
    (7, "joint", [], _schema_7),
    (8, "joint", ["--init-xi-frac", "0.5"], _schema_8_joint),
    (8, "dmlm-bayes", ["--init-xi-frac", "0.5"], _schema_8_two_step),
    (8, "dmlm-bayes", NO_BALANCES, _schema_8_two_step),
    (9, "joint", [], _schema_9),
    (10, "joint", ["--init-xi-frac", "0.5"], _ridge_in_place_of_predictor),
    (11, "joint", [], _schema_11),
], ids=["3", "6-joint", "7", "8-joint", "8-two-step", "8-two-step-no-balances", "9",
        "10-joint", "11-joint"])
def test_cli_predict_refuses_a_run_of_an_older_schema(sim_dir, tmp_path, capsys, version,
                                                      model, flags, plant):
    # each run as a writer of that schema left it: its chains record the
    # schema_version from schema 11 on, and its manifest records the old one
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), "--model", model,
                 *flags, *FAST_FIT]) == 0
    plant(run)
    for path in run.glob("**/summary.json"):
        summary = json.loads(path.read_text())
        if version < 11:
            del summary["schema_version"]
        else:
            summary["schema_version"] = version
        path.write_text(json.dumps(summary))
    manifest = dio.read_manifest(run)
    (run / "manifest.json").write_text(json.dumps({**manifest, "schema_version": version}))
    capsys.readouterr()
    assert main(["predict", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(run) in err
    assert f"chain schema {'10 or older' if version < 11 else version}" in err
    assert "reads schema 13" in err
    assert "re-run fit" in err
    assert not (run / "predictions").exists()


def test_read_chain_refuses_any_other_schema_version(tmp_path):
    chain = small_chains()["joint"]
    dio.write_chain(tmp_path, chain)
    path = tmp_path / "summary.json"
    summary = json.loads(path.read_text())
    assert summary["schema_version"] == 13
    for version in (12, 14, "13", None):
        path.write_text(json.dumps({**summary, "schema_version": version}))
        with pytest.raises(ValueError, match=re.escape(
                f"{path} is of chain schema {version}, but this version of dmjoint "
                "reads schema 13; re-run fit")):
            dio.read_chain(tmp_path)
    path.write_text(json.dumps(summary))
    assert_chains_equal(dio.read_chain(tmp_path)[0], chain)


def test_joint_chain_writes_one_predictor_size_at_any_sample_count(tmp_path):
    # the predictor holds M + 1 sums, so it does not grow with S, and no
    # per-sample ridge rows are written. A balance prior of inclusion odds 9
    # has each sample select most of the 4 balances.
    cfg = SimConfig(N=10, P=3, J=5, n_true_cov=1, n_true_bal=1,
                    zdot_low=50, zdot_high=100)
    train, _, _ = gen_replicate(cfg, replicate_rng(1, 0))
    train, _ = preprocess(train)
    hyper, sizes = Hyperparams(a_m=9.0, b_m=1.0), []
    for S in (10, 400):
        chain = run_chain(train, hyper, sbp_pivot(5),
                          SamplerConfig(iterations=20 + S, burn_in=20, thin=1, seed=1,
                                        init_xi_frac=0.5))
        assert chain.n_samples == S and chain.xi.sum() >= 2 * S
        dio.write_chain(tmp_path / str(S), chain)
        assert {p.name for p in (tmp_path / str(S)).glob("*.npy")} == CHAIN_BLOCKS
        sizes.append((tmp_path / str(S) / "predictor.npy").stat().st_size)
    assert sizes[0] == sizes[1]


def assert_read_refuses(run, name):
    """``read_chain`` refuses ``run`` for its block ``name`` in one line that
    names the chain directory and asks for a re-fit."""
    with pytest.raises(ValueError) as e:
        dio.read_chain(run)
    message = str(e.value)
    assert "\n" not in message, message
    assert message.startswith(f"{run} holds a malformed chain: the block {name} "), message
    assert message.endswith("re-run fit to rewrite it"), message


def test_read_chain_rejects_count_means_that_disagree_with_the_samples(sim_dir, tmp_path):
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
    chain = dio.read_chain(run)[0]
    good = {name: getattr(chain, name) for name in ("alpha_mean", "phi_mean")}
    assert good["alpha_mean"].shape == (5,)
    assert good["phi_mean"].shape == (np.count_nonzero(chain.mppi_zeta),) != (0,)
    # a mean other than one per taxon, or one per pair some sample included
    for name, block in good.items():
        for bad in (block[1:], np.append(block, 1.0), block[:, None]):
            with pytest.raises(ValueError, match=f"^the block {name} has shape"):
                replace(chain, **{name: bad})
    np.save(run / "phi_mean.npy", good["phi_mean"][1:])
    assert_read_refuses(run, "phi_mean")
    np.save(run / "phi_mean.npy", good["phi_mean"])
    dio.read_chain(run)


def test_read_chain_rejects_change_blocks_that_are_not_ascending_indices(sim_dir, tmp_path):
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run),
                 "--init-xi-frac", "0.5", *FAST_FIT]) == 0
    chain = dio.read_chain(run)[0]
    good = {name: getattr(chain, name) for name in ("zeta_changes", "xi_changes")}
    sizes = {"zeta_changes": chain.zeta.size, "xi_changes": chain.xi.size}
    for name, block in good.items():
        assert block.size > 1 and block[-1] < sizes[name]
        # out of order, repeated, out of [0, S*K), not int64 or not flat
        for bad in (block[::-1], np.sort(np.append(block, block[0])),
                    np.append(block, sizes[name]), np.append(-1, block),
                    block.astype(float), block[:, None]):
            with pytest.raises(ValueError, match=f"^the block {name} is not strictly"):
                replace(chain, **{name: bad})
    np.save(run / "xi_changes.npy", good["xi_changes"][::-1])
    assert_read_refuses(run, "xi_changes")
    np.save(run / "xi_changes.npy", good["xi_changes"])
    dio.read_chain(run)


def test_read_chain_rejects_ridge_blocks_that_disagree_with_the_samples(sim_dir, tmp_path):
    # the blocks kept of the samples' ridge fits: the predictor's M + 1 sums
    # and each sample's N fitted values
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run),
                 "--init-xi-frac", "0.5", *FAST_FIT]) == 0
    chain = dio.read_chain(run)[0]
    good = {name: getattr(chain, name) for name in ("predictor", "fits")}
    assert chain.xi.sum() > 0
    assert good["predictor"].shape == (5,) and np.any(good["predictor"] != 0)
    assert good["fits"].shape == (10, 12)
    # a row short, a row over, or an extra axis
    for name, block in good.items():
        for bad in (block[1:], np.concatenate([block, block[:1]]), block[None]):
            with pytest.raises(ValueError, match=f"^the block {name} has shape"):
                replace(chain, **{name: bad})
    np.save(run / "fits.npy", good["fits"][None])
    assert_read_refuses(run, "fits")
    np.save(run / "fits.npy", good["fits"])
    dio.read_chain(run)


@pytest.mark.parametrize("mode", ["joint", "dm_only", "lm_only"])
def test_chain_output_checks_its_blocks_in_memory(mode):
    # run_chain's chains pass the check in every mode; a block of the wrong
    # shape for the mode, or a change block out of order or out of range, is
    # refused at construction, with no file involved
    chain = small_chains()[mode]
    assert chain.config.mode == mode
    assert_chains_equal(replace(chain), chain)
    for name in ("alpha_mean", "phi_mean", "predictor", "fits", "y"):
        block = getattr(chain, name)
        bad = np.zeros((block.shape[0] + 1, *block.shape[1:]))
        with pytest.raises(ValueError, match=f"^the block {name} has shape .* this {mode} "):
            replace(chain, **{name: bad})
    for name, shape in (("zeta_changes", chain.phi_shape), ("xi_changes", chain.xi_shape)):
        block, size = getattr(chain, name), int(np.prod(shape))
        unordered = np.append(block, block[-1]) if block.size else np.array([0, 0])
        for bad in (unordered, np.append(block, size)):
            with pytest.raises(ValueError, match=f"^the block {name} is not strictly"):
                replace(chain, **{name: bad})


def test_cli_predict_without_selected_balances_is_a0_hat(sim_dir, tmp_path):
    # no retained sample selects a balance, so every prediction and fitted
    # value is the intercept's posterior mean
    rep, run = sim_dir / "rep000", tmp_path / "o"
    assert main(["fit", str(rep), "--out", str(run), *NO_BALANCES, *FAST_FIT]) == 0
    assert main(["predict", str(run)]) == 0
    assert dio.read_chain(run)[0].xi.sum() == 0
    assert np.array_equal(np.load(run / "predictor.npy"), np.zeros(5))
    assert np.load(run / "fits.npy").shape == (10, 12)
    train, stats = preprocess(dio.read_train(rep))
    test = preprocess_test(dio.read_test(rep), stats)
    a0_hat = train.Y.sum() / (train.n_subjects + 1.0 / Hyperparams().h_alpha0)
    for path, n in ((run / "fitted_y.csv", train.n_subjects),
                    (run / "predictions" / "predictions.csv", len(test.X_test))):
        assert np.array_equal(dio.read_matrix(path).ravel(),
                              np.full(n, a0_hat + stats["y_mean"]))


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, (fragment, err)


EXACT_FIELDS = pytest.mark.parametrize("damage, message", [
    (dict.pop, "has no key '{}'"),
    (lambda record, key: record.update({"bogus": 1.0}), "argument 'bogus'"),
], ids=["missing", "unknown"])


@EXACT_FIELDS
def test_cli_predict_needs_exactly_the_recorded_hyperparameters(sim_dir, tmp_path, capsys,
                                                                damage, message):
    # a missing hyperparameter must not take its default: this fit's delta is
    # not the default one
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), "--delta", "0.01",
                 *FAST_FIT]) == 0
    path = run / "manifest.json"
    manifest = json.loads(path.read_text())
    damage(manifest["config"]["hyperparams"], "delta")
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["predict", str(run)]) == 1
    assert_one_error_line(capsys, str(path), message.format("delta"), "re-run fit")
    assert not (run / "predictions").exists()


@EXACT_FIELDS
def test_cli_predict_needs_exactly_the_recorded_sampler_settings(sim_dir, tmp_path, capsys,
                                                                 damage, message):
    # a missing mode must not take its default: stage 1 is not a joint chain
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), "--model", "dmlm-bayes",
                 *FAST_FIT]) == 0
    path = run / "stage1" / "summary.json"
    summary = json.loads(path.read_text())
    damage(summary["config"], "mode")
    path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["predict", str(run)]) == 1
    assert_one_error_line(capsys, str(path), message.format("mode"), "re-run fit")


@pytest.mark.parametrize("case", ["predict-a-file", "evaluate-a-file", "fit-out-a-file",
                                  "empty-block"])
def test_cli_file_errors_print_one_line(sim_dir, tmp_path, capsys, case):
    a_file, run = tmp_path / "a_file", tmp_path / "o"
    a_file.write_text("not a directory\n")
    argv, named = {
        "predict-a-file": (["predict", str(a_file)], a_file),
        "evaluate-a-file": (["evaluate", str(a_file), "--out", str(tmp_path / "e")], a_file),
        "fit-out-a-file": (["fit", str(sim_dir / "rep000"), "--out", str(a_file),
                            *FAST_FIT], a_file),
        "empty-block": (["predict", str(run)], run),
    }[case]
    if case == "empty-block":
        assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
        (run / "fits.npy").write_bytes(b"")
    capsys.readouterr()
    assert main(argv) == 1
    assert_one_error_line(capsys, str(named))
    assert a_file.read_text() == "not a directory\n"


@pytest.mark.parametrize("case", ["b0", "mode", "acceptance", "not-an-object", "x-sd",
                                  "no-test-dir"])
def test_cli_damaged_record_prints_one_line(sim_dir, tmp_path, capsys, case):
    # each JSON record is parsed under one guard: an invalid value, a value
    # of the wrong type and a record that is not an object are one error line
    # naming the file, never a traceback
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
    assert main(["predict", str(run)]) == 0
    path, damage, commands = {
        "b0": ("manifest.json", lambda m: m["config"]["hyperparams"].update(b0=-1.0),
               ["predict", "evaluate"]),
        "mode": ("summary.json", lambda s: s["config"].update(mode="bogus"), ["predict"]),
        "acceptance": ("summary.json", lambda s: s.update(acceptance=[1, 2]), ["predict"]),
        "not-an-object": ("manifest.json", None, ["predict", "evaluate"]),
        "x-sd": ("manifest.json", lambda m: m["config"]["preprocess"].update(x_sd=["a"] * 3),
                 ["predict", "evaluate"]),
        "no-test-dir": ("predictions/manifest.json", lambda m: m["config"].pop("test_dir"),
                        ["evaluate"]),
    }[case]
    path = run / path
    record = json.loads(path.read_text())
    if damage is None:
        record = []
    else:
        damage(record)
    path.write_text(json.dumps(record))
    for command in commands:
        argv = {"predict": ["predict", str(run), "--out", str(tmp_path / "p")],
                "evaluate": ["evaluate", str(run), "--out", str(tmp_path / "e")]}[command]
        capsys.readouterr()
        assert main(argv) == 1, command
        assert_one_error_line(capsys, str(path), "re-run fit")
    assert not (tmp_path / "p").exists() and not (tmp_path / "e").exists()


def test_cli_predict_refuses_statistics_of_another_p(sim_dir, tmp_path, capsys):
    # a P=3 fit whose manifest records one covariate's statistics
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
    path = run / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["preprocess"]["x_sd"] = [1.0]
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["predict", str(run)]) == 1
    assert_one_error_line(capsys, str(path), "x_mean and x_sd of shapes (3,) and (1,), "
                          "not the fit's (3,)", "re-run fit")
    assert not (run / "predictions").exists()


def test_partition_files_name_themselves(sim_dir, tmp_path, capsys):
    # a line that does not parse names the file and line; a file whose
    # partitions PartitionSpec refuses names the file
    unparsed, refused = tmp_path / "unparsed.txt", tmp_path / "refused.txt"
    unparsed.write_text("1,2,3 | 4,5\na | b\n")
    refused.write_text("1,2 | 3\n1 | 1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(unparsed))}:2: invalid literal"):
        PartitionSpec.from_file(unparsed)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}: partition 1: overlap"):
        PartitionSpec.from_file(refused)
    for pfile in (unparsed, refused):
        capsys.readouterr()
        assert main(["fit", str(sim_dir / "rep000"), "--out", str(tmp_path / "o"),
                     "--partition-file", str(pfile), *FAST_FIT]) == 1
        assert_one_error_line(capsys, str(pfile))
    # predict reads the partition the fit wrote
    run = tmp_path / "fit"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
    (run / "partition.txt").write_text("a | b\n")
    capsys.readouterr()
    assert main(["predict", str(run)]) == 1
    assert_one_error_line(capsys, f"{run / 'partition.txt'}:1: ")


def cli_tree():
    return ast.parse(Path(cli.__file__).read_text())


def test_cli_keeps_no_copy_of_the_recorded_fields():
    # cli takes a fit's settings whole from io.read_fit: it reads no
    # hyperparameter by name and parses no manifest itself
    tree = cli_tree()
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attrs & set(HYPER_FLAGS), attrs & set(HYPER_FLAGS)
    assert "read_manifest" not in attrs


def test_only_main_writes_to_stderr():
    # commands raise; cli.main prints the one error line
    writers = {fn.name for fn in ast.walk(cli_tree()) if isinstance(fn, ast.FunctionDef)
               for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr == "stderr"}
    assert writers == {"main"}


def test_cli_predict_chain_missing_a_block_exits_1(sim_dir, tmp_path, capsys):
    # a stage-2 chain from a writer that skipped its empty count blocks
    run = tmp_path / "two"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run),
                 "--model", "dmlm-bayes", *FAST_FIT]) == 0
    (run / "stage2" / "alpha_mean.npy").unlink()
    assert main(["predict", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "re-run fit" in err
    assert str(run / "stage2") in err and "alpha_mean.npy" in err


@pytest.mark.parametrize("model", ["joint", "dmlm-bayes"])
@pytest.mark.parametrize("record, damage, message", [
    ("summary", lambda summary: summary.pop("phi_shape"), "has no key 'phi_shape'"),
    # the fit's facts are in the run root's manifest, under config
    ("manifest", lambda m: m["config"]["hyperparams"].update(bogus=1.0), "'bogus'"),
    ("manifest", lambda m: m["config"].pop("dataset"), "has no key 'dataset'"),
    ("manifest", lambda m: m["config"].pop("preprocess"), "has no key 'preprocess'"),
    ("manifest", lambda m: m["config"]["preprocess"].pop("x_sd"), "has no key 'x_sd'"),
], ids=["no-phi-shape", "unknown-hyperparameter", "no-dataset", "no-preprocess",
        "no-x-sd"])
def test_cli_predict_malformed_summary_exits_1(sim_dir, tmp_path, capsys, model,
                                               record, damage, message):
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), "--model", model,
                 *FAST_FIT]) == 0
    path = (run / "manifest.json" if record == "manifest"
            else run / "stage1" / "summary.json" if model == "dmlm-bayes"
            else run / "summary.json")
    recorded = json.loads(path.read_text())
    damage(recorded)
    path.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert main(["predict", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and message in err and "re-run fit" in err


def test_cli_predict_rejects_malformed_test_data(sim_dir, tmp_path, capsys):
    run = tmp_path / "o"
    assert main(["fit", str(sim_dir / "rep000"), "--out", str(run), *FAST_FIT]) == 0
    test = dio.read_test(sim_dir / "rep000")
    Z, X, Y = test.Z_test, test.X_test, test.Y_test[:, None]
    negative, empty_row, infinite = Z.copy(), Z.copy(), X.copy()
    negative[1, 0], empty_row[1], infinite[4, 1] = -3, 0, -np.inf
    cases = {"negative": (negative, X, Y, "nonnegative"),
             "infinite": (Z, infinite, Y, "test_x.csv has the non-finite value -inf at "
                                          "row 5, column 2"),
             "short_x": (Z, X[:-1], Y, "'X_test': 11"),
             "short_y": (Z, X, Y[:-1], "'Y_test': 11"),
             "empty_row": (empty_row, X, Y, None)}  # shrinks to lambda: allowed
    for name, (z, x, y, message) in cases.items():
        bad = tmp_path / name
        bad.mkdir()
        dio.write_matrix(bad / "test_z.csv", z, "z", integer=True)
        dio.write_matrix(bad / "test_x.csv", x, "x")
        dio.write_matrix(bad / "test_y.csv", y, "y")
        capsys.readouterr()
        code = main(["predict", str(run), "--test-dir", str(bad), "--out", str(bad / "p")])
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and not err, name
        else:
            assert code == 1 and err.startswith("error: ") and message in err, (name, err)



@pytest.mark.parametrize("name, prefix, row, col, value", [("train_x.csv", "x", 2, 3, np.nan),
                                                           ("train_y.csv", "y", 4, 1, np.inf)])
def test_cli_fit_rejects_non_finite_training_data(sim_dir, tmp_path, capsys,
                                                  name, prefix, row, col, value):
    rep = tmp_path / "rep"
    shutil.copytree(sim_dir / "rep000", rep)
    M = dio.read_matrix(rep / name)
    M[row - 1, col - 1] = value
    dio.write_matrix(rep / name, M, prefix)
    capsys.readouterr()
    assert main(["fit", str(rep), "--out", str(tmp_path / "o"), *FAST_FIT]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(rep / name) in err, err
    assert f"non-finite value {value} at row {row}, column {col}" in err, err

def test_inputs_reject_non_finite_entries():
    Y, Z, X = np.zeros(3), np.ones((3, 2)), np.ones((3, 2))
    X[1, 0] = np.nan
    with pytest.raises(ValueError, match="X has the non-finite value nan at row 2, column 1"):
        Dataset(Y=Y, Z=Z, X=X)
    with pytest.raises(ValueError, match="Y has the non-finite value inf at row 3"):
        Dataset(Y=[0.0, 0.0, np.inf], Z=Z, X=np.ones((3, 2)))
    with pytest.raises(ValueError, match="counts has the non-finite value inf"):
        Dataset(Y=Y, Z=[[1.0, np.inf]] * 3, X=np.ones((3, 2)))
    with pytest.raises(ValueError, match="X_test has the non-finite value nan"):
        TestSet(Z_test=Z, X_test=X)
    with pytest.raises(ValueError, match="Y_test has the non-finite value -inf"):
        TestSet(Z_test=Z, X_test=np.ones((3, 2)), Y_test=[0.0, -np.inf, 0.0])
