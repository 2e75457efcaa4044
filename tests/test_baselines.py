from dataclasses import replace

import numpy as np
import pytest

from dmjoint import sampler
from dmjoint.baselines import (
    TwoStepOutput,
    run_balance_selection,
    run_dm_only,
    run_two_step,
    two_step_fitted_y,
    two_step_predict_y,
)
from dmjoint.model import (
    Dataset,
    Hyperparams,
    beta_binomial_logprior,
    log_marginal_y,
    sbp_pivot,
)
from dmjoint.predict import estimate_lambda_test, estimate_psi_test
from dmjoint.prep import preprocess, preprocess_test
from dmjoint.sampler import SamplerConfig, run_chain
from dmjoint.simulate import SimConfig, gen_replicate, replicate_rng
from oracles import (
    assert_matches_reference,
    change_block,
    one_sample_at_a_time,
    predictor_blocks,
)


def small_fixture(seed=0, **kw):
    base = dict(N=25, P=4, J=8, n_true_cov=2, n_true_bal=2,
                zdot_low=200, zdot_high=400, seed=seed)
    base.update(kw)
    cfg = SimConfig(**base)
    train, test, truth = gen_replicate(cfg, replicate_rng(seed, 0))
    train, stats = preprocess(train)
    return train, preprocess_test(test, stats), truth


def standardized_design(rng, n, M):
    B = rng.normal(size=(n, M))
    return (B - B.mean(0)) / B.std(0, ddof=1)


def xi_only_chain(B, Y, hyper, cfg):
    """run_chain's lm_only mode on the fixed balances B, with a minimal Dataset around Y."""
    n, M = B.shape
    data = Dataset(Y=Y, Z=np.ones((n, M + 1), dtype=int), X=np.zeros((n, 1)))
    return run_chain(data, hyper, sbp_pivot(M + 1), replace(cfg, mode="lm_only"),
                     balances=B)


def stage_one_psi_bar(two):
    """The frozen composition of stage two: stage one's mean composition with
    its rows normalised."""
    return two.stage1.psi_mean / two.stage1.psi_mean.sum(axis=1, keepdims=True)


def enumeration_mppi(Y, B, hyper):
    """Exact inclusion probabilities by summing over all 2^M models."""
    M = B.shape[1]
    logws, models = [], []
    for code in range(2**M):
        xi = [(code >> m) & 1 for m in range(M)]
        sel = np.array(xi, dtype=bool)
        lw = log_marginal_y(Y, B[:, sel], hyper) + sum(
            beta_binomial_logprior(v, hyper.a_m, hyper.b_m) for v in xi)
        logws.append(lw)
        models.append(xi)
    w = np.exp(logws - np.max(logws))
    w /= w.sum()
    return np.array([
        sum(wi for wi, xi in zip(w, models) if xi[m]) for m in range(M)])


def test_lm_selection_null_response_prior_dominated():
    rng = np.random.default_rng(0)
    B = standardized_design(rng, 30, 3)
    Y = 0.3 * rng.normal(size=30)
    Y -= Y.mean()
    hyper = Hyperparams()
    oracle = enumeration_mppi(Y, B, hyper)
    cfg = SamplerConfig(iterations=4000, burn_in=1000, thin=1, seed=1,
                        between_moves_per_iter=3, init_xi_frac=0.0)
    out = xi_only_chain(B, Y, hyper, cfg)
    assert np.all(np.abs(out.mppi_xi - oracle) < 0.05)
    assert out.mppi_xi.max() < 0.5


def test_lm_selection_strong_signal_matches_enumeration():
    rng = np.random.default_rng(1)
    B = standardized_design(rng, 40, 4)
    Y = 2.0 * B[:, 2] + 0.1 * rng.normal(size=40)
    Y -= Y.mean()
    hyper = Hyperparams()
    oracle = enumeration_mppi(Y, B, hyper)
    assert oracle[2] > 0.95
    cfg = SamplerConfig(iterations=5000, burn_in=1000, thin=1, seed=2,
                        between_moves_per_iter=4, init_xi_frac=0.0)
    out = xi_only_chain(B, Y, hyper, cfg)
    assert np.all(np.abs(out.mppi_xi - oracle) < 0.05)
    assert out.mppi_xi[2] > 0.9


def test_lm_selection_huge_prior_keeps_null():
    rng = np.random.default_rng(2)
    B = standardized_design(rng, 40, 4)
    Y = 2.0 * B[:, 0]
    # set the prior odds against inclusion well beyond the largest single-
    # column Bayes factor so the prior provably dominates the likelihood
    base = Hyperparams()
    log_bf = max(
        log_marginal_y(Y, B[:, [m]], base) - log_marginal_y(Y, B[:, []], base)
        for m in range(4)
    )
    hyper = Hyperparams(b_m=float(np.exp(min(log_bf + 10.0, 700.0))))
    cfg = SamplerConfig(iterations=2000, burn_in=500, thin=1, seed=3,
                        between_moves_per_iter=4, init_xi_frac=0.0)
    out = xi_only_chain(B, Y, hyper, cfg)
    assert out.mppi_xi.max() < 0.05


def test_dm_only_matches_joint_covariate_side_with_noise_response():
    # with a pure-noise response, the count side of the joint chain targets
    # the same posterior the dm-only chain does
    train, _, _ = small_fixture(seed=4, n_true_bal=1, sigma_eps=5.0)
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    cfg = SamplerConfig(iterations=4000, burn_in=1000, thin=2, seed=5,
                        between_moves_per_iter=10)
    joint = run_chain(train, hyper, spec, cfg)
    dm = run_dm_only(train, hyper, spec, cfg)
    # same stationary law; only the rng stream differs (the xi block draws
    # from the shared generator), so compare inclusion probabilities
    assert np.abs(joint.mppi_zeta - dm.mppi_zeta).mean() < 0.1
    assert dm.xi.shape == (cfg.n_retained, 0)  # no balance samples


def test_two_step_structure_and_fits():
    train, test, truth = small_fixture(seed=6)
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    cfg = SamplerConfig(iterations=1200, burn_in=400, thin=4, seed=7,
                        between_moves_per_iter=10)
    two = run_two_step(train, hyper, spec, cfg)
    assert two.stage1.config.mode == "dm_only"
    assert two.stage2.config.mode == "lm_only"
    assert two.stage2.config.seed == cfg.seed + 1
    psi_bar = stage_one_psi_bar(two)
    assert psi_bar.shape == (train.n_subjects, train.n_taxa)
    assert np.all(psi_bar > 0)
    assert np.allclose(psi_bar.sum(axis=1), 1.0, atol=1e-12)
    assert two.stage2.xi.shape[1] == spec.M
    S = two.stage2.n_samples
    assert two.stage2.predictor.shape == (spec.M + 1,)
    assert two.stage2.fits.shape == (S, train.n_subjects)
    assert np.array_equal(two.stage2.y, train.Y) and two.stage1.y.shape == (0,)

    fit = two_step_fitted_y(two, hyper)
    pred = two_step_predict_y(two, test, spec, hyper)
    assert fit.shape == (train.n_subjects,)
    assert pred.shape == (test.X_test.shape[0],)
    assert np.all(np.isfinite(fit)) and np.all(np.isfinite(pred))
    # the fitted values should beat the constant-only predictor in-sample
    const = np.full_like(fit, train.Y.mean())
    assert np.sum((train.Y - fit) ** 2) < np.sum((train.Y - const) ** 2)


def test_two_step_keeps_psi_bar_not_stage_one_compositions():
    # stage one is run_dm_only's chain bitwise, with no composition samples;
    # stage two runs on psi_bar, its mean composition normalised
    train, _, _ = small_fixture(seed=12)
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    cfg = SamplerConfig(iterations=60, burn_in=20, thin=4, seed=13,
                        between_moves_per_iter=5)
    two = run_two_step(train, hyper, spec, cfg)
    dm = run_dm_only(train, hyper, spec, cfg)
    assert two.stage1.psi.shape == (cfg.n_retained, 0, 0)
    psi_bar = dm.psi_mean / dm.psi_mean.sum(axis=1, keepdims=True)
    assert stage_one_psi_bar(two).tobytes() == psi_bar.tobytes()
    for name in ("alpha_mean", "zeta_changes", "phi_mean", "xi_changes", "psi_mean",
                 "log_posterior"):
        a, b = getattr(two.stage1, name), getattr(dm, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert two.stage1.accept == dm.accept
    stage2 = run_balance_selection(train, psi_bar, hyper, spec, replace(cfg, seed=14))
    for name in ("xi_changes", "predictor", "fits", "log_posterior"):
        assert getattr(two.stage2, name).tobytes() == getattr(stage2, name).tobytes(), name
    assert two.stage2.accept == stage2.accept


def test_psi_bar_is_the_mean_of_the_retained_compositions(monkeypatch):
    # every iteration's composition, as the count blocks leave it, against the
    # mean stage one kept and the psi_bar formed from it, bit for bit
    train, _, _ = small_fixture(seed=14)
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    psi = []
    model_update_u = sampler.update_u

    def update_u(state, *args):
        model_update_u(state, *args)
        psi.append(state.psi)

    monkeypatch.setattr(sampler, "update_u", update_u)
    cfg = SamplerConfig(iterations=70, burn_in=21, thin=3, seed=15,
                        between_moves_per_iter=5)
    two = run_two_step(train, hyper, spec, cfg)
    assert len(psi) == cfg.iterations  # stage two runs no count block
    kept = np.stack(psi[cfg.burn_in + cfg.thin - 1::cfg.thin])
    assert len(kept) == two.stage1.n_samples == 16
    psi_mean = kept.mean(axis=0)
    assert two.stage1.psi_mean.tobytes() == psi_mean.tobytes()
    psi_bar = psi_mean / psi_mean.sum(axis=1, keepdims=True)
    assert stage_one_psi_bar(two).tobytes() == psi_bar.tobytes()


def test_two_step_deterministic():
    train, _, _ = small_fixture(seed=8)
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    cfg = SamplerConfig(iterations=600, burn_in=200, thin=4, seed=9,
                        between_moves_per_iter=5)
    a = run_two_step(train, hyper, spec, cfg)
    b = run_two_step(train, hyper, spec, cfg)
    assert np.array_equal(a.stage1.zeta, b.stage1.zeta)
    assert np.array_equal(a.stage2.xi, b.stage2.xi)
    assert np.array_equal(a.stage1.psi_mean, b.stage1.psi_mean)
    assert np.array_equal(a.stage2.predictor, b.stage2.predictor)
    assert np.array_equal(a.stage2.fits, b.stage2.fits)


def test_two_step_outputs_match_one_sample_at_a_time():
    # stage-two selections of every size, the empty model included, each fitted
    # on psi_bar's balances rebuilt for every sample by the reference
    train, test, _ = small_fixture(seed=10)
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    cfg = SamplerConfig(iterations=60, burn_in=20, thin=10, seed=11)
    two = run_two_step(train, hyper, spec, cfg)
    psi_bar = stage_one_psi_bar(two)
    xi = np.zeros((two.stage2.n_samples, spec.M), dtype=np.uint8)
    assert len(xi) >= 4
    xi[0, [0, 3]] = 1
    xi[2] = 1
    xi[3, [1, 2, 6]] = 1
    predictor, fits = predictor_blocks([psi_bar] * len(xi), xi, train.Y, spec, hyper)
    xi_changes, xi_shape = change_block(xi)
    two = TwoStepOutput(stage1=two.stage1,
                        stage2=replace(two.stage2, xi_changes=xi_changes, xi_shape=xi_shape,
                                       predictor=predictor, fits=fits))
    psi_test = estimate_psi_test(estimate_lambda_test(two.stage1, test.X_test), test.Z_test)

    assert_matches_reference(two_step_fitted_y(two, hyper),
                             two_step_predict_y(two, test, spec, hyper), None,
                             one_sample_at_a_time([psi_bar] * len(xi), xi, train.Y,
                                                  psi_test, spec, hyper))


def test_stage_two_keeps_the_ridge_fits_of_its_frozen_balances():
    # the fitted values and linear predictor stage two kept of the ridge fits
    # of its own selections, against each sample fitted again on psi_bar's
    # balances, and the pass over them against the reference that rebuilds
    # those balances for every sample
    train, test, _ = small_fixture(seed=16)
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    cfg = SamplerConfig(iterations=300, burn_in=100, thin=4, seed=17,
                        between_moves_per_iter=5, init_xi_frac=0.5)
    two = run_two_step(train, hyper, spec, cfg)
    stage2, psi_bar = two.stage2, stage_one_psi_bar(two)
    S = stage2.n_samples
    assert S == 50 and stage2.xi.sum() > 0
    assert len(np.unique(stage2.xi, axis=0)) > 1
    predictor, fits = predictor_blocks([psi_bar] * S, stage2.xi, train.Y, spec, hyper)
    assert (stage2.predictor.dtype == predictor.dtype
            and stage2.predictor.tobytes() == predictor.tobytes())
    assert stage2.fits.dtype == fits.dtype and stage2.fits.tobytes() == fits.tobytes()

    psi_test = estimate_psi_test(estimate_lambda_test(two.stage1, test.X_test), test.Z_test)
    assert_matches_reference(two_step_fitted_y(two, hyper),
                             two_step_predict_y(two, test, spec, hyper), None,
                             one_sample_at_a_time([psi_bar] * S, stage2.xi, train.Y,
                                                  psi_test, spec, hyper))
