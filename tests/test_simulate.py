import numpy as np
import pytest

from dmjoint.io import read_train, write_replicate
from dmjoint.model import sbp_pivot, zero_replace
from dmjoint.simulate import (
    GroundTruth,
    SimConfig,
    gen_covariates,
    gen_dm_counts,
    gen_replicate,
    gen_response,
    replicate_rng,
)
from oracles import balance_matrix


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(d=0.0)
    with pytest.raises(ValueError):
        SimConfig(zdot_low=100, zdot_high=50)
    with pytest.raises(ValueError):
        SimConfig(J=5, n_true_bal=5)
    with pytest.raises(ValueError):
        SimConfig(J=2, P=2, n_true_cov=5)


def test_covariate_ar_structure():
    cfg = SimConfig(N=4000, P=6)
    X = gen_covariates(cfg, np.random.default_rng(0))
    corr = np.corrcoef(X.T)
    assert corr[0, 1] == pytest.approx(0.4, abs=0.05)
    assert corr[1, 2] == pytest.approx(0.4, abs=0.05)
    assert corr[0, 2] == pytest.approx(0.16, abs=0.05)
    assert X[:, 3].var() == pytest.approx(1.0, abs=0.1)

    cfg0 = SimConfig(N=4000, P=4, omega=0.0)
    X0 = gen_covariates(cfg0, np.random.default_rng(1))
    assert abs(np.corrcoef(X0.T)[0, 1]) < 0.05


def null_truth(J, P):
    M = J - 1
    return GroundTruth(
        zeta_true=np.zeros((J, P), dtype=np.uint8),
        phi_true=np.zeros((J, P)),
        alpha_true=np.zeros(J),
        xi_true=np.zeros(M, dtype=np.uint8),
        beta_true=np.zeros(M),
        psi_star=np.empty((0, J)),
    )


def test_dm_counts_match_dirichlet_moment_oracle():
    # with all intercepts zero and d = 0.01, the compositions are symmetric
    # Dirichlet with total concentration (1 - d)/d = 99:
    # E[psi_j] = 1/J, Var[psi_j] = p(1-p)/(99 + 1)
    J, n = 5, 20_000
    cfg = SimConfig(N=n, P=2, J=J, n_true_cov=0, n_true_bal=1,
                    zdot_low=100, zdot_high=100)
    truth = null_truth(J, 2)
    X = np.zeros((n, 2))
    Z, psi = gen_dm_counts(X, truth, cfg, np.random.default_rng(2))
    p = 1.0 / J
    assert np.allclose(psi.mean(axis=0), p, atol=0.01)
    assert psi[:, 0].var() == pytest.approx(p * (1 - p) / 100.0, rel=0.1)
    assert np.all(Z.sum(axis=1) == 100)
    assert np.all(Z >= 0)
    # counts track the drawn compositions; with zdot = 100 the multinomial
    # sampling noise is comparable to the composition spread, so the
    # correlation is near 1/sqrt(2) rather than 1
    assert np.corrcoef(Z[:, 0], psi[:, 0])[0, 1] > 0.6


def test_dm_counts_covariate_effect_direction():
    # a positive coefficient on taxon 0 makes its share increase with x
    J, n = 4, 4000
    cfg = SimConfig(N=n, P=1, J=J, n_true_cov=1, n_true_bal=1, d=0.1,
                    zdot_low=200, zdot_high=200)
    truth = null_truth(J, 1)
    truth.zeta_true[0, 0] = 1
    truth.phi_true[0, 0] = 1.0
    X = np.linspace(-2, 2, n)[:, None]
    _, psi = gen_dm_counts(X, truth, cfg, np.random.default_rng(3))
    lo = psi[X[:, 0] < -1, 0].mean()
    hi = psi[X[:, 0] > 1, 0].mean()
    assert hi > 2 * lo


def test_response_variance_decomposition():
    J, n = 5, 20_000
    cfg = SimConfig(N=n, P=2, J=J, n_true_cov=0, n_true_bal=2,
                    zdot_low=100, zdot_high=100)
    truth = null_truth(J, 2)
    truth.xi_true[[0, 2]] = 1
    truth.beta_true[[0, 2]] = [1.5, -1.5]
    _, psi = gen_dm_counts(np.zeros((n, 2)), truth, cfg,
                           np.random.default_rng(4))
    Y = gen_response(psi, sbp_pivot(J).contrast_matrix(), truth, cfg,
                     np.random.default_rng(5))
    B = balance_matrix(zero_replace(psi, cfg.delta), sbp_pivot(J))
    signal = truth.beta_true @ np.cov(B.T) @ truth.beta_true
    assert Y.var() == pytest.approx(signal + 1.0, rel=0.1)


def test_response_noiseless_and_null():
    J, n = 4, 50
    cfg = SimConfig(N=n, P=1, J=J, n_true_cov=0, n_true_bal=1, sigma_eps=0.0,
                    zdot_low=50, zdot_high=50)
    truth = null_truth(J, 1)
    psi = np.random.default_rng(6).dirichlet(np.ones(J), size=n)
    contrast = sbp_pivot(J).contrast_matrix()
    Y = gen_response(psi, contrast, truth, cfg, np.random.default_rng(7))
    assert np.array_equal(Y, np.zeros(n))  # beta = 0, sigma = 0

    truth.beta_true[1] = 2.0
    Y1 = gen_response(psi, contrast, truth, cfg, np.random.default_rng(8))
    Y2 = gen_response(psi, contrast, truth, cfg, np.random.default_rng(9))
    assert np.array_equal(Y1, Y2)  # deterministic without noise
    B = balance_matrix(zero_replace(psi, cfg.delta), sbp_pivot(J))
    assert np.allclose(Y1, 2.0 * B[:, 1], atol=1e-12)


def test_replicate_determinism_and_independence():
    cfg = SimConfig(N=10, P=4, J=6, n_true_cov=2, n_true_bal=2,
                    zdot_low=50, zdot_high=80)
    tr1, te1, truth1 = gen_replicate(cfg, replicate_rng(7, 0))
    tr2, te2, truth2 = gen_replicate(cfg, replicate_rng(7, 0))
    assert np.array_equal(tr1.Z, tr2.Z)
    assert np.array_equal(tr1.Y, tr2.Y)
    assert np.array_equal(te1.Z_test, te2.Z_test)
    assert np.array_equal(truth1.phi_true, truth2.phi_true)

    tr3, _, truth3 = gen_replicate(cfg, replicate_rng(7, 1))
    assert not np.array_equal(tr1.Z, tr3.Z)

    # train and test share the truth but not the data
    assert not np.array_equal(tr1.Z, te1.Z_test)
    assert int(truth1.zeta_true.sum()) == 2
    assert int(truth1.xi_true.sum()) == 2
    assert np.all((truth1.phi_true != 0) == (truth1.zeta_true == 1))
    assert np.all(tr1.Z.sum(axis=1) >= 50)
    assert np.all(tr1.Z.sum(axis=1) <= 80)
    assert np.allclose(truth1.psi_star.sum(axis=1), 1.0)


def test_many_replicates_generate_and_serialize(tmp_path):
    cfg = SimConfig(N=12, P=5, J=8, n_true_cov=3, n_true_bal=2,
                    zdot_low=100, zdot_high=200)
    for rep in range(30):
        train, test, truth = gen_replicate(cfg, replicate_rng(11, rep))
        out = tmp_path / f"rep{rep:02d}"
        write_replicate(out, train, test, truth)
        back = read_train(out)
        assert np.array_equal(back.Z, train.Z)
        assert np.allclose(back.Y, train.Y)
        assert np.allclose(back.X, train.X)
