"""Acceptance gate.

Part A is a fast, deterministic property suite. Part B reproduces the
benchmark simulation at full scale (10 replicates, N=50, P=50, J=150, 20k
iterations per fit) and checks replicate-mean selection and prediction
metrics against the published windows. The B fits take roughly two hours
serially, so their per-fit metrics are cached in a JSON file (path
overridable via the ACCEPTANCE_CACHE environment variable) and reused on
subsequent runs; delete the file to force a full re-run. The cache carries a
fingerprint of the sampler's ``STREAM_VERSION`` and the battery's settings;
a cache under another fingerprint is ignored and every fit re-runs. Each entry
also records the OpenBLAS thread count it ran with, which moves the last
digits of ``mse``/``pmse`` but is not part of the fingerprint.

Each criterion prints one PASS line on success; a failed assertion reports
the offending numbers.
"""

import ctypes
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln

from dmjoint.baselines import run_two_step, two_step_fitted_y, two_step_predict_y
from dmjoint.metrics import confusion, median_model, squared_error
from dmjoint.model import (
    Dataset,
    Hyperparams,
    PartitionSpec,
    beta_binomial_logprior,
    flip_log_marginals,
    log_marginal_y,
    marginal_gram,
    sbp_pivot,
    zero_replace,
)
from dmjoint.predict import TestSet, fitted_y, predict_y
from dmjoint.prep import preprocess, preprocess_test
from dmjoint.sampler import (
    STREAM_VERSION,
    ChainState,
    SamplerConfig,
    alpha_log_mh_ratio,
    pair_log_mh_ratio,
    run_chain,
    update_c,
    update_u,
    xi_log_mh_ratio,
)
from dmjoint.simulate import SimConfig, gen_replicate, replicate_rng
from oracles import balance_matrix, predictor_blocks


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


# ===========================================================================
# Part A: property suite
# ===========================================================================


def test_criterion_a1_balance_geometry():
    rng = np.random.default_rng(0)
    J = 7
    psi = rng.dirichlet(np.full(J, 2.0), size=12)
    spec = sbp_pivot(J)
    V = spec.contrast_matrix()
    # orthonormal contrast: isometry of the ilr map
    assert np.allclose(V.T @ V, np.eye(J - 1), atol=1e-12)
    assert np.allclose(V.sum(axis=0), 0.0, atol=1e-12)
    # scale invariance: balances unchanged by rescaling the composition
    B = np.log(psi) @ V
    for k in (0.1, 1.0, 17.0):
        assert np.allclose(np.log(k * psi) @ V, B, atol=1e-12)
    # span invariance: two SBPs give balance matrices with equal column span
    other = PartitionSpec(
        [((0, 1, 2), (3, 4, 5, 6)), ((0,), (1, 2)), ((1,), (2,)),
         ((3, 4), (5, 6)), ((3,), (4,)), ((5,), (6,))]
    )
    B2 = np.log(psi) @ other.contrast_matrix()
    proj1 = B @ np.linalg.pinv(B)
    proj2 = B2 @ np.linalg.pinv(B2)
    assert np.allclose(proj1, proj2, atol=1e-8)
    report("criterion 1", "balance isometry, scale and span invariance")


def test_criterion_a2_gamma_identity_quadrature():
    for zdot, T in ((2, 0.5), (5, 3.0), (12, 7.5)):
        val, _ = quad(
            lambda x: x ** (zdot - 1) * np.exp(-T * x) / np.exp(gammaln(zdot)),
            0, np.inf,
        )
        assert val == pytest.approx(T ** (-zdot), rel=1e-8)
    report("criterion 2", "gamma-identity quadrature, rel tol 1e-8")


def _dense_log_marginal(Y, B, hyper):
    n = len(Y)
    df = 2.0 * hyper.a0
    omega = np.eye(n) + hyper.h_alpha0 * np.ones((n, n))
    if B.shape[1]:
        omega = omega + hyper.h_beta * B @ B.T
    sigma = (hyper.b0 / hyper.a0) * omega
    quad_form = Y @ np.linalg.solve(sigma, Y)
    _, logdet = np.linalg.slogdet(sigma)
    return float(
        gammaln((df + n) / 2.0) - gammaln(df / 2.0)
        - 0.5 * n * np.log(df * np.pi) - 0.5 * logdet
        - 0.5 * (df + n) * np.log1p(quad_form / df)
    )


def test_criterion_a3_marginal_likelihood_woodbury_vs_dense():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(0, 6))
        Y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        B = rng.normal(size=(n, k))
        hyper = Hyperparams(
            h_alpha0=rng.uniform(0.1, 5.0), h_beta=rng.uniform(0.1, 5.0),
            a0=rng.uniform(1.0, 4.0), b0=rng.uniform(0.5, 8.0),
        )
        fast = log_marginal_y(Y, B, hyper)
        dense = _dense_log_marginal(Y, B, hyper)
        assert fast == pytest.approx(dense, abs=1e-8), f"trial {trial}"
    report("criterion 3", "Woodbury marginal equals dense oracle on 50 fixtures")


def test_criterion_a4_dirichlet_multinomial_conjugacy():
    data = Dataset(Y=np.zeros(1), Z=np.array([[4, 1]]), X=np.zeros((1, 1)))
    rng = np.random.default_rng(2)
    c = data.Z + 0.5  # gamma fixed at (2, 3): no covariate moves
    state = ChainState(alpha=np.log(np.array([2.0, 3.0])), phi=np.zeros((2, 1)), c=c,
                       u=data.row_totals / c.sum(axis=1), xi=np.zeros(1, np.uint8),
                       X=data.X)
    samples = []
    for it in range(51_000):
        update_c(state, data, rng)
        update_u(state, data, rng)
        if it >= 1000 and it % 10 == 0:
            samples.append(state.c[0, 0] / state.T[0])
    ks = stats.kstest(np.asarray(samples[:5000]), stats.beta(6, 4).cdf).statistic
    assert ks < 0.03
    report("criterion 4", f"conjugacy KS statistic {ks:.4f} < 0.03")


def test_criterion_a5_mh_reversibility():
    # each forward ratio comes from the chain's kernel on the chain's cached
    # (log c, gamma, lgamma(gamma)); the reverse ratio starts from the state
    # the kernel proposed
    hyper = Hyperparams()
    rng = np.random.default_rng(3)
    c = rng.gamma(2.0, size=6)
    lam = rng.normal(size=6)
    x = rng.normal(size=6)
    logc, gamma = np.log(c), np.exp(lam)
    lgam = gammaln(gamma)
    odds = beta_binomial_logprior(1, hyper.a, hyper.b) - beta_binomial_logprior(
        0, hyper.a, hyper.b)

    def alpha_round_trip(a_old, a_new):
        step = np.array([a_new - a_old])
        fwd, g, lg = alpha_log_mh_ratio(logc[:, None], gamma[:, None], lgam[:, None],
                                        np.array([a_old]), step, hyper)
        bwd, _, _ = alpha_log_mh_ratio(logc[:, None], g, lg, np.array([a_old]) + step,
                                       -step, hyper)
        return fwd[0] + bwd[0]

    def pair_round_trip(phi_old, phi_new):
        fwd, lam2, g, lg = pair_log_mh_ratio(logc, gamma, lgam, lam, x,
                                             phi_old, phi_new, hyper, odds)
        bwd, _, _, _ = pair_log_mh_ratio(logc, g, lg, lam2, x, phi_new, phi_old,
                                         hyper, odds)
        return fwd + bwd

    checks = {
        "alpha": alpha_round_trip(0.3, -0.9),
        "add/delete": pair_round_trip(0.0, 0.8),
        "within": pair_round_trip(0.5, 1.2),
    }
    Y = rng.normal(size=8)
    B = rng.normal(size=(8, 3))
    xi = np.array([1, 0, 1], dtype=np.uint8)
    gram = marginal_gram(Y, B, hyper)
    xi_odds = beta_binomial_logprior(1, hyper.a_m, hyper.b_m) - beta_binomial_logprior(
        0, hyper.a_m, hyper.b_m)
    flipped = np.array([1, 1, 1], dtype=np.uint8)  # xi with balance 1 flipped
    checks["xi"] = xi_log_mh_ratio(
        xi, 1, *flip_log_marginals(gram, xi, hyper), xi_odds) + xi_log_mh_ratio(
        flipped, 1, *flip_log_marginals(gram, flipped, hyper), xi_odds)
    for name, val in checks.items():
        assert abs(val) < 1e-10, f"{name}: {val}"
    report("criterion 5", "forward+reverse log ratios cancel for all move types")


def test_criterion_a6_ridge_prediction_oracle():
    rng = np.random.default_rng(4)
    n, J = 6, 3
    psi = rng.dirichlet(np.full(J, 2.0), size=n)
    Y = rng.normal(size=n)
    Y -= Y.mean()
    train = Dataset(Y=Y, Z=rng.integers(1, 30, size=(n, J)) + 1,
                    X=rng.normal(size=(n, 2)))
    spec = sbp_pivot(J)
    hyper = Hyperparams()
    from dmjoint.sampler import ChainOutput

    cfg = SamplerConfig(iterations=2, burn_in=1, thin=1)
    predictor, fits = predictor_blocks(psi[None, :, :], [[1, 0]], Y, spec, hyper)
    chain = ChainOutput(
        alpha_mean=np.zeros(J), zeta_changes=np.empty(0, dtype=np.int64),
        phi_mean=np.empty(0), phi_shape=(1, J, 2),
        xi_changes=np.array([0]), xi_shape=(1, 2),  # xi = [[1, 0]]
        predictor=predictor, fits=fits, y=Y,
        log_posterior=np.zeros(2), accept={}, config=cfg,
    )
    Z_test = rng.integers(0, 40, size=(4, J))
    X_test = rng.normal(size=(4, 2))
    got = predict_y(chain, TestSet(Z_test=Z_test, X_test=X_test),
                    spec, hyper)
    V = spec.contrast_matrix()
    b = (np.log(zero_replace(psi, hyper.delta)) @ V)[:, 0]
    mu, sd = b.mean(), b.std(ddof=1)
    b_std = (b - mu) / sd
    beta = (b_std @ Y) / (b_std @ b_std + 1.0 / hyper.h_beta)
    alpha0 = Y.sum() / (n + 1.0 / hyper.h_alpha0)
    psi_test = (Z_test + 1.0) / (Z_test + 1.0).sum(axis=1, keepdims=True)
    b_test = (np.log(zero_replace(psi_test, hyper.delta)) @ V)[:, 0]
    expected = alpha0 + (b_test - mu) / sd * beta
    assert np.allclose(got, expected, atol=1e-12)
    report("criterion 6", "scalar ridge prediction oracle, tol 1e-12")


# ===========================================================================
# Part B: full-scale benchmark battery
# ===========================================================================

CACHE_PATH = Path(os.environ.get(
    "ACCEPTANCE_CACHE", Path(__file__).parent / ".acceptance_cache.json"))
N_REPS = 10
MASTER_SEED = 20260825
SIM = SimConfig()  # benchmark scale: N=50, P=50, J=150
FIT = dict(iterations=20000, burn_in=10000, thin=10, between_moves_per_iter=20)


def _fit_seed(rep):
    return int(np.random.SeedSequence([MASTER_SEED, rep]).generate_state(1)[0])


def _make_data(rep, null=False):
    if null:
        cfg = SimConfig(n_true_cov=0, n_true_bal=0)
        rng = replicate_rng(MASTER_SEED, 1000 + rep)
    else:
        cfg = SIM
        rng = replicate_rng(MASTER_SEED, rep)
    train, test, truth = gen_replicate(cfg, rng)
    train, stats = preprocess(train)
    return train, preprocess_test(test, stats), truth


def _joint_metrics(rep, b, b0, null=False):
    train, test, truth = _make_data(rep, null=null)
    hyper = Hyperparams(b=b, b0=b0)
    spec = sbp_pivot(train.n_taxa)
    # one seed per (replicate, covariate prior); the b0 sweep reuses it so the
    # count-side trajectory is directly comparable across b0
    cfg = SamplerConfig(seed=_fit_seed(rep), **FIT)
    chain = run_chain(train, hyper, spec, cfg)
    cov = confusion(median_model(chain.mppi_zeta), truth.zeta_true)
    bal = confusion(median_model(chain.mppi_xi), truth.xi_true)
    mse = squared_error(train.Y, fitted_y(chain, hyper))
    pmse = squared_error(test.Y_test, predict_y(chain, test, spec, hyper))
    return {
        "cov_selected": cov.n_selected, "cov_sens": cov.sensitivity,
        "cov_spec": cov.specificity, "cov_mcc": cov.mcc,
        "bal_selected": bal.n_selected, "bal_sens": bal.sensitivity,
        "bal_mcc": bal.mcc,
        "mse": mse, "pmse": pmse,
        "mean_zeta_mppi": float(chain.mppi_zeta.mean()),
        "max_xi_mppi": float(chain.mppi_xi.max()),
    }


def _two_step_metrics(rep, b):
    train, test, truth = _make_data(rep)
    hyper = Hyperparams(b=b)
    spec = sbp_pivot(train.n_taxa)
    cfg = SamplerConfig(seed=_fit_seed(rep), **FIT)
    two = run_two_step(train, hyper, spec, cfg)
    cov = confusion(median_model(two.stage1.mppi_zeta), truth.zeta_true)
    bal = confusion(median_model(two.stage2.mppi_xi), truth.xi_true)
    mse = squared_error(train.Y, two_step_fitted_y(two, hyper))
    pmse = squared_error(
        test.Y_test, two_step_predict_y(two, test, spec, hyper))
    return {
        "cov_selected": cov.n_selected, "cov_sens": cov.sensitivity,
        "cov_spec": cov.specificity, "cov_mcc": cov.mcc,
        "bal_selected": bal.n_selected, "bal_sens": bal.sensitivity,
        "bal_mcc": bal.mcc,
        "mse": mse, "pmse": pmse,
    }


RUNS = {
    "jm_b9": lambda rep: _joint_metrics(rep, b=9.0, b0=2.0),
    "jm_b99": lambda rep: _joint_metrics(rep, b=99.0, b0=2.0),
    "jm_b999": lambda rep: _joint_metrics(rep, b=999.0, b0=2.0),
    "two_b9": lambda rep: _two_step_metrics(rep, b=9.0),
    "jm_b9_b0_1": lambda rep: _joint_metrics(rep, b=9.0, b0=1.0),
    "jm_b9_b0_4": lambda rep: _joint_metrics(rep, b=9.0, b0=4.0),
    "jm_b9_b0_8": lambda rep: _joint_metrics(rep, b=9.0, b0=8.0),
    "null_jm_b9": lambda rep: _joint_metrics(rep, b=9.0, b0=2.0, null=True),
}


def _blas_threads():
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def battery_fingerprint(runs):
    """What the cached metrics depend on, as it reads back from JSON."""
    return json.loads(json.dumps({
        "stream_version": STREAM_VERSION, "fit": FIT, "sim": asdict(SIM),
        "master_seed": MASTER_SEED, "runs": sorted(runs)}))


def load_battery(path, runs, n_reps):
    """Per-fit metrics keyed ``rep:label``; fits missing under the current
    fingerprint run and are written back to ``path`` one at a time."""
    fingerprint = battery_fingerprint(runs)
    cache = json.loads(path.read_text()) if path.exists() else {}
    if cache.get("fingerprint") != fingerprint:
        cache = {"fingerprint": fingerprint, "runs": {}}
    entries = cache["runs"]
    for rep in range(n_reps):
        for label, runner in runs.items():
            key = f"{rep}:{label}"
            if key not in entries:
                entries[key] = {**runner(rep), "blas_threads": _blas_threads()}
                path.write_text(json.dumps(cache, indent=1, sort_keys=True))
    return entries


@pytest.fixture(scope="session")
def battery():
    return load_battery(CACHE_PATH, RUNS, N_REPS)


def test_battery_cache_ignores_other_fingerprint(tmp_path):
    path = tmp_path / "cache.json"
    calls = []

    def runner(rep):
        calls.append(rep)
        return {"mse": 2.0}

    stale = {"fingerprint": {**battery_fingerprint({"x": runner}), "stream_version": 0},
             "runs": {"0:x": {"mse": 1.0}}}
    path.write_text(json.dumps(stale))
    assert load_battery(path, {"x": runner}, 1)["0:x"]["mse"] == 2.0
    assert calls == [0]
    # under the current fingerprint the entry is reused, not recomputed
    assert load_battery(path, {"x": runner}, 1)["0:x"]["mse"] == 2.0
    assert calls == [0]
    saved = json.loads(path.read_text())
    assert saved["fingerprint"] == battery_fingerprint({"x": runner})
    assert "blas_threads" in saved["runs"]["0:x"]


def test_battery_fits_run_at_a_tiny_scale(monkeypatch):
    # every battery fit, on replicate 0 at a tiny scale, called directly so
    # that the cache is neither read nor written: each reads its MPPIs, fitted
    # and predicted values through the chain as the full battery does
    monkeypatch.setitem(globals(), "FIT", dict(iterations=20, burn_in=10, thin=2,
                                               between_moves_per_iter=2))
    monkeypatch.setitem(globals(), "SIM", SimConfig(N=12, P=3, J=6, n_true_cov=1,
                                                    n_true_bal=1, zdot_low=50,
                                                    zdot_high=100))
    selection = {"cov_selected", "cov_sens", "cov_spec", "cov_mcc", "bal_selected",
                 "bal_sens", "bal_mcc", "mse", "pmse"}
    for label, runner in RUNS.items():
        got = runner(0)
        want = selection if label.startswith("two") else selection | {
            "mean_zeta_mppi", "max_xi_mppi"}
        assert got.keys() == want, label
        assert np.isfinite(got["mse"]) and np.isfinite(got["pmse"]), label


def _mean(cache, label, metric):
    return float(np.mean([cache[f"{r}:{label}"][metric] for r in range(N_REPS)]))


def test_criterion_b7_joint_covariate_selection_b9(battery):
    sens = _mean(battery, "jm_b9", "cov_sens")
    spec = _mean(battery, "jm_b9", "cov_spec")
    mcc = _mean(battery, "jm_b9", "cov_mcc")
    assert 0.51 <= sens, f"mean sensitivity {sens:.3f} below window"
    assert spec >= 0.99, f"mean specificity {spec:.4f} < 0.99"
    assert 0.48 <= mcc <= 1.0, f"mean MCC {mcc:.3f} outside window"
    report("criterion 7",
           f"b=9 covariates: sens {sens:.3f}, spec {spec:.4f}, MCC {mcc:.3f}")


def test_criterion_b8_joint_covariate_selection_b99(battery):
    mcc = _mean(battery, "jm_b99", "cov_mcc")
    nsel = _mean(battery, "jm_b99", "cov_selected")
    assert 0.58 <= mcc <= 1.0, f"mean MCC {mcc:.3f} outside 0.82 +/- 0.24"
    assert 3.47 <= nsel <= 11.47, f"mean #selected {nsel:.2f} outside 7.47 +/- 4"
    report("criterion 8", f"b=99 covariates: MCC {mcc:.3f}, selected {nsel:.2f}")


def test_criterion_b9_joint_balance_selection(battery):
    sens = _mean(battery, "jm_b9", "bal_sens")
    mcc = _mean(battery, "jm_b9", "bal_mcc")
    assert 0.74 <= sens, f"mean balance sensitivity {sens:.3f} below window"
    assert 0.82 <= mcc <= 1.0, f"mean balance MCC {mcc:.3f} outside window"
    report("criterion 9", f"joint balances: sens {sens:.3f}, MCC {mcc:.3f}")


def test_criterion_b10_two_step_balance_selection(battery):
    sens = _mean(battery, "two_b9", "bal_sens")
    assert 0.85 <= sens, f"mean two-step balance sensitivity {sens:.3f} below window"
    report("criterion 10", f"two-step balances: sens {sens:.3f}")


def test_criterion_b11_error_orderings(battery):
    pmse9 = _mean(battery, "jm_b9", "pmse")
    pmse99 = _mean(battery, "jm_b99", "pmse")
    pmse999 = _mean(battery, "jm_b999", "pmse")
    mse_joint = _mean(battery, "jm_b9", "mse")
    mse_two = _mean(battery, "two_b9", "mse")
    pmse_two = _mean(battery, "two_b9", "pmse")
    assert pmse9 < pmse99 < pmse999, (
        f"PMSE ordering violated: {pmse9:.1f}, {pmse99:.1f}, {pmse999:.1f}")
    assert mse_two < mse_joint, (
        f"two-step MSE {mse_two:.1f} not below joint {mse_joint:.1f}")
    assert pmse9 < pmse_two, (
        f"joint PMSE {pmse9:.1f} not below two-step {pmse_two:.1f}")
    report("criterion 11",
           f"PMSE {pmse9:.1f} < {pmse99:.1f} < {pmse999:.1f}; "
           f"MSE two-step {mse_two:.1f} < joint {mse_joint:.1f}; "
           f"PMSE joint {pmse9:.1f} < two-step {pmse_two:.1f}")


def test_criterion_b12_b0_sweep(battery):
    labels = {1.0: "jm_b9_b0_1", 2.0: "jm_b9", 4.0: "jm_b9_b0_4",
              8.0: "jm_b9_b0_8"}
    # covariate selection is b0-free: identical seeds and data give identical
    # count-side trajectories, so the metrics must match exactly
    for rep in range(N_REPS):
        ref = battery[f"{rep}:jm_b9"]
        for lab in labels.values():
            run = battery[f"{rep}:{lab}"]
            for key in ("cov_selected", "cov_sens", "cov_spec", "cov_mcc"):
                assert run[key] == ref[key], (
                    f"rep {rep} {lab}: {key} {run[key]} != {ref[key]}")
    nsel = {b0: _mean(battery, lab, "bal_selected")
            for b0, lab in labels.items()}
    mcc = {b0: _mean(battery, lab, "bal_mcc") for b0, lab in labels.items()}
    mse = {b0: _mean(battery, lab, "mse") for b0, lab in labels.items()}
    pmse = {b0: _mean(battery, lab, "pmse") for b0, lab in labels.items()}
    assert nsel[1.0] >= nsel[8.0], f"balance count rose with b0: {nsel}"
    assert mcc[1.0] >= mcc[8.0], f"balance MCC rose with b0: {mcc}"
    # widening the error-variance prior degrades the training fit (each retained
    # model keeps fewer balances per sample) while leaving out-of-sample error
    # essentially unchanged at this signal strength
    assert mse[8.0] > mse[1.0], f"MSE did not rise with b0: {mse}"
    assert abs(pmse[8.0] - pmse[1.0]) / pmse[1.0] < 0.05, (
        f"PMSE not stable across b0: {pmse}")
    report("criterion 12",
           f"b0 sweep: covariate metrics flat; balances {nsel[1.0]:.2f} -> "
           f"{nsel[8.0]:.2f}, MCC {mcc[1.0]:.3f} -> {mcc[8.0]:.3f}, "
           f"MSE {mse[1.0]:.1f} -> {mse[8.0]:.1f}, "
           f"PMSE {pmse[1.0]:.1f} -> {pmse[8.0]:.1f}")


def test_criterion_b13_null_model_calibration(battery):
    mean_mppi = _mean(battery, "null_jm_b9", "mean_zeta_mppi")
    hyper = Hyperparams()
    bound = 2.0 * hyper.a / (hyper.a + hyper.b)
    assert mean_mppi < bound, f"mean null MPPI {mean_mppi:.4f} >= {bound}"
    cov_spec = _mean(battery, "null_jm_b9", "cov_spec")
    assert cov_spec >= 0.99, f"null covariate specificity {cov_spec:.4f} < 0.99"
    # with no positives every selected balance is a false positive, so
    # specificity is (M - #selected) / M
    n_bal = SIM.J - 1
    bal_spec = [
        (n_bal - battery[f"{r}:null_jm_b9"]["bal_selected"]) / n_bal
        for r in range(N_REPS)
    ]
    assert float(np.mean(bal_spec)) >= 0.98, (
        f"mean null balance specificity {np.mean(bal_spec):.4f} < 0.98")
    assert min(bal_spec) >= 0.97, (
        f"worst null balance specificity {min(bal_spec):.4f} < 0.97")
    report("criterion 13",
           f"null data: mean zeta MPPI {mean_mppi:.4f} < {bound}, "
           f"covariate specificity {cov_spec:.4f}, "
           f"balance specificity {float(np.mean(bal_spec)):.4f}")
