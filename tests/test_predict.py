import warnings

import numpy as np
import pytest
from scipy import stats

from dmjoint.model import (
    Dataset,
    Hyperparams,
    PartitionSpec,
    sbp_pivot,
    standardize_columns,
    zero_replace,
)
from dmjoint.predict import (
    TestSet,
    estimate_lambda_test,
    estimate_psi_test,
    fitted_y,
    pointwise_loglik,
    predict_y,
)
from dmjoint.sampler import ChainOutput, SamplerConfig
from oracles import (
    assert_matches_reference,
    change_block,
    one_sample_at_a_time,
    predictor_blocks,
)


def indicator_blocks(phi, xi):
    """The indicator and phi fields of ChainOutput for a dense S x J x P phi and
    S x M xi: the mean phi is kept at the pairs some sample includes."""
    phi = np.asarray(phi, dtype=float)
    included = (phi != 0).any(axis=0)
    (zeta_changes, phi_shape), (xi_changes, xi_shape) = change_block(phi), change_block(xi)
    return {"zeta_changes": zeta_changes, "phi_mean": phi.mean(axis=0)[included],
            "phi_shape": phi_shape, "xi_changes": xi_changes, "xi_shape": xi_shape}


def make_chain(alpha, phi, xi, psi=None, spec=None, hyper=None, Y=None):
    """A joint chain of the given samples. Its predictor and fits are those
    of the fits of ``Y`` on the balances of the compositions ``psi`` on
    ``spec``, as the sampler fits them, and it keeps ``Y``; without ``psi``
    all three are empty."""
    alpha = np.asarray(alpha, dtype=float)
    xi = np.asarray(xi, dtype=np.uint8)
    cfg = SamplerConfig(iterations=2, burn_in=1, thin=1)
    predictor, fits = ((np.empty(0), np.empty((len(alpha), 0))) if psi is None
                       else predictor_blocks(psi, xi, Y, spec, hyper or Hyperparams()))
    return ChainOutput(
        alpha_mean=alpha.mean(axis=0),
        **indicator_blocks(phi, xi),
        predictor=predictor,
        fits=fits,
        y=np.empty(0) if psi is None else np.asarray(Y, dtype=float),
        log_posterior=np.zeros(2),
        accept={},
        config=cfg,
    )


def random_simplex(rng, n, J):
    raw = rng.dirichlet(np.full(J, 2.0), size=n)
    return raw


# ---------------------------------------------------------------------------
# lambda / psi estimates
# ---------------------------------------------------------------------------


def test_lambda_test_zero_chain_is_one():
    S, J, P = 3, 4, 2
    chain = make_chain(np.zeros((S, J)), np.zeros((S, J, P)), np.zeros((S, J - 1)))
    lam = estimate_lambda_test(chain, np.random.default_rng(0).normal(size=(6, P)))
    assert np.allclose(lam, 1.0)


def test_lambda_test_averages_before_exponentiating():
    # two samples with intercepts 0 and log(4): posterior-mean lambda is
    # exp(log(2)) = 2, not the mean of (1, 4)
    chain = make_chain(np.log(np.array([[1.0, 1.0], [4.0, 4.0]])),
                       np.zeros((2, 2, 1)), np.zeros((2, 1)))
    lam = estimate_lambda_test(chain, np.zeros((4, 1)))
    assert np.allclose(lam, 2.0)


def test_lambda_test_overflow_raises_without_warning():
    chain = make_chain(np.array([[1e4, 0.0]]), np.zeros((1, 2, 1)), np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="taxon 0"):
            estimate_lambda_test(chain, np.zeros((4, 1)))


def test_psi_test_examples():
    assert np.allclose(
        estimate_psi_test(np.ones((1, 2)), np.array([[3, 1]])), [[2 / 3, 1 / 3]]
    )
    # zero counts fall back to the normalized lambda estimate
    lam = np.array([[2.0, 6.0]])
    assert np.allclose(estimate_psi_test(lam, np.zeros((1, 2))), [[0.25, 0.75]])
    with pytest.raises(ValueError):
        estimate_psi_test(np.array([[0.0, 1.0]]), np.zeros((1, 2)))


def test_psi_test_simplex_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, J = int(rng.integers(1, 8)), int(rng.integers(2, 9))
        lam = rng.gamma(1.0, size=(n, J)) + 1e-6
        Z = rng.integers(0, 50, size=(n, J))
        psi = estimate_psi_test(lam, Z)
        assert np.all(psi > 0)
        assert np.allclose(psi.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# predict_y / fitted_y
# ---------------------------------------------------------------------------


def single_sample_fixture(rng, n=6, J=3, hyper=None):
    hyper = hyper or Hyperparams()
    psi = random_simplex(rng, n, J)[None, :, :]  # S = 1
    Y = rng.normal(size=n)
    Y -= Y.mean()
    train = Dataset(Y=Y, Z=rng.integers(1, 30, size=(n, J)) + 1,
                    X=rng.normal(size=(n, 2)))
    spec = sbp_pivot(J)
    return train, psi, spec, hyper


def test_predict_y_matches_scalar_ridge_oracle():
    rng = np.random.default_rng(2)
    train, psi, spec, hyper = single_sample_fixture(rng)
    J = 3
    chain = make_chain(np.zeros((1, J)), np.zeros((1, J, 2)), np.array([[1, 0]]), psi,
                       spec, hyper, Y=train.Y)
    Z_test = rng.integers(0, 40, size=(4, J))
    X_test = rng.normal(size=(4, 2))
    got = predict_y(chain, TestSet(Z_test=Z_test, X_test=X_test),
                    spec, hyper)

    # oracle: scalar ridge with hand-rolled standardization
    V = spec.contrast_matrix()
    B = np.log(zero_replace(psi[0], hyper.delta)) @ V
    b = B[:, 0]
    mu, sd = b.mean(), b.std(ddof=1)
    b_std = (b - mu) / sd
    beta = (b_std @ train.Y) / (b_std @ b_std + 1.0 / hyper.h_beta)
    alpha0 = train.Y.sum() / (len(train.Y) + 1.0 / hyper.h_alpha0)
    psi_test = (Z_test + 1.0) / (Z_test + 1.0).sum(axis=1, keepdims=True)
    b_test = (np.log(zero_replace(psi_test, hyper.delta)) @ V)[:, 0]
    expected = alpha0 + (b_test - mu) / sd * beta
    assert np.allclose(got, expected, atol=1e-12)


def test_predict_y_empty_model_is_constant():
    rng = np.random.default_rng(3)
    train, psi, spec, hyper = single_sample_fixture(rng)
    chain = make_chain(np.zeros((1, 3)), np.zeros((1, 3, 2)), np.array([[0, 0]]), psi,
                       spec, hyper, Y=train.Y)
    got = predict_y(chain,
                    TestSet(Z_test=rng.integers(0, 20, size=(5, 3)),
                            X_test=rng.normal(size=(5, 2))), spec, hyper)
    alpha0 = train.Y.sum() / (len(train.Y) + 1.0 / hyper.h_alpha0)
    assert np.allclose(got, alpha0, atol=1e-14)


def test_fitted_y_recovers_noiseless_balance_response():
    rng = np.random.default_rng(4)
    n, J = 30, 4
    psi = random_simplex(rng, n, J)
    spec = sbp_pivot(J)
    hyper = Hyperparams(h_beta=1e8, h_alpha0=1e8)
    B_std, _, _ = standardize_columns(np.log(psi) @ spec.contrast_matrix())
    Y = 2.0 * B_std[:, 0]
    train = Dataset(Y=Y, Z=np.ones((n, J), dtype=int), X=np.zeros((n, 1)))
    chain = make_chain(np.zeros((1, J)), np.zeros((1, J, 1)),
                       np.array([[1, 0, 0]]),
                       psi[None, :, :], spec, hyper, Y=train.Y)
    got = fitted_y(chain, hyper)
    assert np.allclose(got, Y, atol=1e-5)


def test_predictions_invariant_to_partition_choice_in_full_model():
    # with every balance selected and negligible shrinkage, predictions are a
    # function of the composition subspace only, not the particular partition
    rng = np.random.default_rng(5)
    n, J = 25, 4
    psi = random_simplex(rng, n, J)
    Y = rng.normal(size=n)
    Y -= Y.mean()
    train = Dataset(Y=Y, Z=rng.integers(1, 20, size=(n, J)) + 1,
                    X=rng.normal(size=(n, 1)))
    hyper = Hyperparams(h_beta=1e10)
    test = TestSet(Z_test=rng.integers(0, 30, size=(6, J)),
                   X_test=rng.normal(size=(6, 1)))
    spec_a = sbp_pivot(J)
    spec_b = PartitionSpec([
        ((0, 1), (2, 3)),
        ((0,), (1,)),
        ((2,), (3,)),
    ])
    # the chain keeps balances, so each partition has its own chain
    chain_a, chain_b = (make_chain(np.zeros((1, J)), np.zeros((1, J, 1)),
                                   np.array([[1, 1, 1]]), psi[None, :, :], spec, hyper,
                                   Y=train.Y)
                        for spec in (spec_a, spec_b))
    pa = predict_y(chain_a, test, spec_a, hyper)
    pb = predict_y(chain_b, test, spec_b, hyper)
    assert np.allclose(pa, pb, atol=1e-6)


# ---------------------------------------------------------------------------
# pointwise log-likelihood
# ---------------------------------------------------------------------------


def test_pointwise_loglik_matches_normal_oracle():
    rng = np.random.default_rng(6)
    train, psi, spec, hyper = single_sample_fixture(rng, n=10)
    chain = make_chain(np.zeros((1, 3)), np.zeros((1, 3, 2)), np.array([[0, 0]]), psi,
                       spec, hyper, Y=train.Y)
    ll = pointwise_loglik(chain, hyper)
    assert ll.shape == (10, 1)
    n = 10
    alpha0 = train.Y.sum() / (n + 1.0 / hyper.h_alpha0)
    resid = train.Y - alpha0
    sigma2 = (hyper.b0 + 0.5 * resid @ resid) / (hyper.a0 + 0.5 * n - 1.0)
    expected = stats.norm.logpdf(train.Y, loc=alpha0, scale=np.sqrt(sigma2))
    assert np.allclose(ll[:, 0], expected, atol=1e-12)


def test_pointwise_loglik_identical_samples_identical_columns():
    rng = np.random.default_rng(7)
    train, psi, spec, hyper = single_sample_fixture(rng, n=8)
    psi2 = np.repeat(psi, 3, axis=0)
    chain = make_chain(np.zeros((3, 3)), np.zeros((3, 3, 2)), np.tile([1, 0], (3, 1)),
                       psi2, spec, hyper, Y=train.Y)
    ll = pointwise_loglik(chain, hyper)
    assert ll.shape == (8, 3)
    assert np.array_equal(ll[:, 0], ll[:, 1])
    assert np.array_equal(ll[:, 0], ll[:, 2])
    assert np.all(np.isfinite(ll))


# ---------------------------------------------------------------------------
# the ridge pass against a one-sample-at-a-time reference
# ---------------------------------------------------------------------------


def test_joint_outputs_match_one_sample_at_a_time():
    # five samples with different compositions and selections, one of them
    # the empty model, so the averages mix models of every size
    rng = np.random.default_rng(8)
    S, n, J, P = 5, 9, 6, 2
    xi = np.array([[1, 0, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1],
                   [0, 1, 0, 0, 1], [1, 0, 1, 0, 0]])
    psi = np.stack([random_simplex(rng, n, J) for _ in range(S)])
    phi = rng.normal(size=(S, J, P)) * (rng.random((S, J, P)) < 0.3)
    spec, hyper = sbp_pivot(J), Hyperparams()
    alpha = rng.normal(size=(S, J))
    Y = rng.normal(size=n)
    Y -= Y.mean()
    chain = make_chain(alpha, phi, xi, psi, spec, hyper, Y=Y)
    test = TestSet(Z_test=rng.integers(0, 30, size=(4, J)), X_test=rng.normal(size=(4, P)))
    psi_test = estimate_psi_test(estimate_lambda_test(chain, test.X_test), test.Z_test)

    assert_matches_reference(fitted_y(chain, hyper),
                             predict_y(chain, test, spec, hyper),
                             pointwise_loglik(chain, hyper),
                             one_sample_at_a_time(psi, xi, Y, psi_test, spec, hyper))
