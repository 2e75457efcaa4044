import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln

from dmjoint.model import (
    Dataset,
    Hyperparams,
    PartitionSpec,
    beta_binomial_logprior,
    build_gamma,
    log_marginal_y,
    sbp_pivot,
    spike_slab_logprior,
    standardize_columns,
    zero_replace,
)
from oracles import balance_matrix, balance_value, log_augmented_dm


# ---------------------------------------------------------------------------
# build_gamma
# ---------------------------------------------------------------------------


def test_build_gamma_identity():
    X = np.random.default_rng(0).normal(size=(4, 3))
    _, gamma = build_gamma(np.zeros(5), np.zeros((5, 3)), X)
    assert np.allclose(gamma, 1.0)


def test_build_gamma_constant_shift():
    X = np.random.default_rng(0).normal(size=(4, 3))
    _, gamma = build_gamma(np.full(5, np.log(2)), np.zeros((5, 3)), X)
    assert np.allclose(gamma, 2.0)


def test_build_gamma_scalar_case():
    alpha = np.array([0.5, 0.0])
    phi = np.zeros((2, 1))
    phi[0, 0] = 1.0
    X = np.array([[1.0]])
    lam, gamma = build_gamma(alpha, phi, X)
    assert lam[0, 0] == 1.5
    assert gamma[0, 0] == pytest.approx(np.exp(1.5), rel=1e-12)


def test_build_gamma_overflow_reports_location():
    with pytest.raises(FloatingPointError, match="taxon 0"):
        build_gamma(np.array([1e4, 0.0]), np.zeros((2, 1)), np.ones((1, 1)))


def test_build_gamma_overflow_raises_without_warning():
    # the overflow is reported by the FloatingPointError alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="taxon 0"):
            build_gamma(np.array([1e4, 0.0]), np.zeros((2, 1)), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# log_augmented_dm
# ---------------------------------------------------------------------------


def test_log_augmented_dm_rejects_empty_row():
    with pytest.raises(ValueError):
        log_augmented_dm([0, 0], [1.0, 1.0], [1.0, 1.0], 1.0)


def test_log_augmented_dm_hand_value():
    # (zdot-1) log u - T u + sum[(z+g-1) log c - c - lgamma(g)] = 0 - 2 - 2
    val = log_augmented_dm([1, 0], [1.0, 1.0], [1.0, 1.0], 1.0)
    assert val == pytest.approx(-4.0, abs=1e-12)


def test_log_augmented_dm_doubling_c_difference():
    z = np.array([3, 2])
    c = np.array([0.7, 1.3])
    g = np.array([1.4, 0.9])
    u = 0.8
    base = log_augmented_dm(z, c, g, u)
    c2 = c.copy()
    c2[0] *= 2.0
    doubled = log_augmented_dm(z, c2, g, u)
    # T grows by c[0] (so the u-term drops by c[0]*u), the power term gains
    # (z+g-1) ln 2, and the -c term drops by c[0]
    assert doubled - base == pytest.approx(
        (z[0] + g[0] - 1.0) * np.log(2) - c[0] - c[0] * u, abs=1e-12)


# ---------------------------------------------------------------------------
# partitions and balances
# ---------------------------------------------------------------------------


def test_sbp_pivot_small_cases():
    assert sbp_pivot(2).partitions == [((0,), (1,))]
    assert sbp_pivot(3).partitions == [((0,), (1, 2)), ((1,), (2,))]
    with pytest.raises(ValueError):
        sbp_pivot(1)


def test_sbp_pivot_refinement_invariant():
    spec = sbp_pivot(4)
    assert spec.M == 3
    # constructor itself enforces block refinement; also check orthonormality
    V = spec.contrast_matrix()
    assert np.allclose(V.T @ V, np.eye(3), atol=1e-12)
    assert np.allclose(V.T @ np.ones(4), 0.0, atol=1e-12)


def test_partition_spec_rejects_bad_sequences():
    with pytest.raises(ValueError):
        PartitionSpec([((0,), (1,)), ((1,), (2,))])  # first does not span
    with pytest.raises(ValueError):
        PartitionSpec([((0, 1), (2,)), ((0,), (2,))])  # second not a block split


def test_partition_spec_file_round_trip(tmp_path):
    spec = PartitionSpec([((0, 1), (2, 3)), ((0,), (1,)), ((2,), (3,))])
    path = tmp_path / "sbp.txt"
    spec.to_file(path)
    again = PartitionSpec.from_file(path)
    assert again.partitions == spec.partitions


def test_balance_value_examples():
    assert balance_value([0.5, 0.5], ((0,), (1,))) == pytest.approx(0.0, abs=1e-15)
    assert balance_value([0.4, 0.6], ((0,), (1,))) == pytest.approx(
        np.sqrt(0.5) * np.log(2 / 3), abs=1e-12)
    assert balance_value([0.2, 0.2, 0.6], ((0, 1), (2,))) == pytest.approx(
        np.sqrt(2 / 3) * np.log(0.2 / 0.6), abs=1e-12)


@pytest.mark.parametrize("k", [0.1, 1.0, 17.0])
def test_balance_scale_invariance(k):
    rng = np.random.default_rng(3)
    psi = rng.dirichlet(np.ones(6))
    spec = sbp_pivot(6)
    for part in spec.partitions:
        assert balance_value(k * psi, part) == pytest.approx(
            balance_value(psi, part), abs=1e-12)


def test_balance_matrix_matches_contrast():
    rng = np.random.default_rng(4)
    Psi = rng.dirichlet(np.ones(5), size=8)
    spec = sbp_pivot(5)
    B = balance_matrix(Psi, spec)
    assert np.allclose(B, np.log(Psi) @ spec.contrast_matrix(), atol=1e-12)
    # rowwise agreement with the scalar operation
    for m, part in enumerate(spec.partitions):
        for i in range(8):
            assert B[i, m] == pytest.approx(balance_value(Psi[i], part), abs=1e-12)


def test_balance_matrix_degenerate_standardize():
    Psi = np.tile(np.array([0.2, 0.3, 0.5]), (4, 1))
    spec = sbp_pivot(3)
    B = balance_matrix(Psi, spec)
    assert np.allclose(B, B[0])  # constant columns
    with pytest.raises(ValueError, match="column"):
        balance_matrix(Psi, spec, standardize=True)


def test_balance_matrix_single_row_unstandardized():
    psi = np.array([[0.1, 0.2, 0.7]])
    spec = sbp_pivot(3)
    B = balance_matrix(psi, spec)
    assert B.shape == (1, 2)


def test_span_invariance_between_sbps():
    # same composition matrix, two different SBPs: column spaces agree
    rng = np.random.default_rng(5)
    Psi = rng.dirichlet(np.ones(5), size=10)
    spec_a = sbp_pivot(5)
    spec_b = PartitionSpec([
        ((0, 1), (2, 3, 4)), ((0,), (1,)), ((2,), (3, 4)), ((3,), (4,)),
    ])
    Ba = balance_matrix(Psi, spec_a)
    Bb = balance_matrix(Psi, spec_b)

    def proj(B):
        Q, _ = np.linalg.qr(B)
        return Q @ Q.T

    assert np.allclose(proj(Ba), proj(Bb), atol=1e-8)


# ---------------------------------------------------------------------------
# zero replacement
# ---------------------------------------------------------------------------


def test_zero_replace_examples():
    assert np.allclose(zero_replace(np.array([0.5, 0.5]), 1e-4), [0.5, 0.5])
    assert np.allclose(zero_replace(np.array([0.0, 1.0]), 0.01), [0.01, 0.99])
    assert np.allclose(zero_replace(np.array([0.0, 0.0, 1.0]), 0.25),
                       [0.25, 0.25, 0.5])


def test_zero_replace_too_large_delta():
    with pytest.raises(ValueError):
        zero_replace(np.array([0.0, 0.0, 1.0]), 0.5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=10),
       st.floats(1e-6, 1e-3))
def test_zero_replace_property(raw, delta):
    raw = np.asarray(raw)
    if raw.sum() <= 0:
        raw = raw + 1.0
    psi = raw / raw.sum()
    out = zero_replace(psi, delta)
    assert abs(out.sum() - 1.0) < 1e-10
    assert np.all(out > 0)
    # idempotent once strictly positive
    assert np.allclose(zero_replace(out, delta), out, atol=1e-15)


# ---------------------------------------------------------------------------
# collapsed marginal of Y
# ---------------------------------------------------------------------------


def _dense_log_marginal(Y, B, hyper):
    """Independent oracle: dense multivariate-t density."""
    n = len(Y)
    omega = np.eye(n) + hyper.h_alpha0 * np.ones((n, n))
    if B.size:
        omega = omega + hyper.h_beta * B @ B.T
    sigma = (hyper.b0 / hyper.a0) * omega
    nu = 2 * hyper.a0
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    q = Y @ np.linalg.solve(sigma, Y)
    return (gammaln((nu + n) / 2) - gammaln(nu / 2)
            - 0.5 * n * np.log(nu * np.pi) - 0.5 * logdet
            - 0.5 * (nu + n) * np.log1p(q / nu))


def test_log_marginal_y_univariate_t():
    hyper = Hyperparams(h_alpha0=1.0, a0=2.0, b0=2.0)
    got = log_marginal_y(np.array([0.0]), np.empty((1, 0)), hyper)
    oracle = stats.t.logpdf(0.0, df=4, scale=np.sqrt(2.0))
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(-1.32740, abs=1e-4)


def test_log_marginal_y_zero_column_noop():
    hyper = Hyperparams()
    Y = np.array([0.3, -0.2, 1.1])
    base = log_marginal_y(Y, np.empty((3, 0)), hyper)
    with_zero = log_marginal_y(Y, np.zeros((3, 1)), hyper)
    assert with_zero == pytest.approx(base, abs=1e-12)


def test_log_marginal_y_matches_dense_oracle():
    rng = np.random.default_rng(6)
    hyper = Hyperparams(h_alpha0=0.7, h_beta=2.3, a0=1.5, b0=0.8)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(0, 6))
        Y = rng.normal(size=n)
        B = rng.normal(size=(n, k))
        got = log_marginal_y(Y, B, hyper)
        assert got == pytest.approx(_dense_log_marginal(Y, B, hyper), abs=1e-8)


def test_log_marginal_y_k0_compound_symmetric():
    # closed form with compound-symmetric covariance I + h 11'
    rng = np.random.default_rng(7)
    hyper = Hyperparams(h_alpha0=1.4, a0=2.0, b0=3.0)
    Y = rng.normal(size=6)
    got = log_marginal_y(Y, np.empty((6, 0)), hyper)
    assert got == pytest.approx(_dense_log_marginal(Y, np.empty((6, 0)), hyper),
                                abs=1e-10)


def test_gamma_identity_quadrature():
    # int u^{zdot-1} e^{-T u} / Gamma(zdot) du = T^{-zdot}
    for zdot in (1, 3, 10):
        for T in (0.5, 2.0):
            val, _ = quad(
                lambda u: u ** (zdot - 1) * np.exp(-T * u) / np.exp(gammaln(zdot)),
                0, np.inf)
            assert val == pytest.approx(T ** (-zdot), rel=1e-8)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


def test_spike_slab_logprior():
    assert spike_slab_logprior(0.0, 10.0) == pytest.approx(
        -0.5 * np.log(2 * np.pi * 10.0), abs=1e-10)
    assert spike_slab_logprior(0.0, 10.0) == pytest.approx(-2.07023, abs=1e-4)
    with pytest.raises(ValueError, match="slab variance"):
        spike_slab_logprior(0.0, 0.0)


def test_beta_binomial_logprior():
    assert beta_binomial_logprior(1, 1.0, 9.0) == pytest.approx(np.log(0.1), abs=1e-12)
    assert beta_binomial_logprior(0, 1.0, 9.0) == pytest.approx(np.log(0.9), abs=1e-12)
    assert beta_binomial_logprior(1, 1.0, 1.0) == pytest.approx(np.log(0.5), abs=1e-12)


# ---------------------------------------------------------------------------
# dataset / hyperparams validation
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(Y=[1.0], Z=[[0, 0]], X=[[0.1]])
    with pytest.raises(ValueError):
        Dataset(Y=[1.0], Z=[[1, -1]], X=[[0.1]])
    ds = Dataset(Y=[1.0, -1.0], Z=[[1, 2], [3, 4]], X=[[0.1], [0.2]])
    assert ds.row_totals.tolist() == [3, 7]


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(b0=-1.0)


def test_standardize_columns():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(10, 3)) * 5 + 2
    Bs, means, sds = standardize_columns(B)
    assert np.allclose(Bs.mean(axis=0), 0, atol=1e-12)
    assert np.allclose(Bs.std(axis=0, ddof=1), 1, atol=1e-12)
    assert np.allclose(Bs * sds + means, B, atol=1e-12)
    # the same bits as numpy's own mean and sample sd, at paper scale too
    for C in (B, rng.normal(size=(50, 149)) * 3 - 1):
        Cs, means, sds = standardize_columns(C)
        assert np.array_equal(means, C.mean(axis=0))
        assert np.array_equal(sds, C.std(axis=0, ddof=1))
        assert np.array_equal(Cs, (C - C.mean(axis=0)) / C.std(axis=0, ddof=1))
