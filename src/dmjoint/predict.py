"""Out-of-sample prediction from a fitted chain and pointwise log-likelihood export.

Test compositions are estimated by shrinking observed test counts toward the
posterior-mean concentrations of the training chain; each retained sample then
contributes a ridge-form fit of the balances it selected. Test balances are
standardized with that sample's training column statistics, so no test
information leaks into the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    Hyperparams,
    PartitionSpec,
    build_gamma,
    log_balances,
    standardize_columns,
)
from .sampler import ChainOutput

__all__ = [
    "TestSet",
    "estimate_lambda_test",
    "estimate_psi_test",
    "predict_y",
    "fitted_y",
    "pointwise_loglik",
    "averaged_response",
]


@dataclass
class TestSet:
    Z_test: np.ndarray
    X_test: np.ndarray
    Y_test: np.ndarray | None = None

    def __post_init__(self):
        self.Z_test = np.asarray(self.Z_test)
        self.X_test = np.asarray(self.X_test, dtype=float)
        if self.Y_test is not None:
            self.Y_test = np.asarray(self.Y_test, dtype=float).ravel()


def estimate_lambda_test(chain: ChainOutput, X_test) -> np.ndarray:
    """Exponential of the posterior-mean linear predictor for test subjects."""
    if chain.n_samples < 1:
        raise ValueError("chain has no retained samples")
    phi_mean = chain.pair_sums(chain.phi_value) / chain.n_samples
    return build_gamma(chain.alpha.mean(axis=0), phi_mean, X_test).gamma


def estimate_psi_test(lambda_hat, Z_test) -> np.ndarray:
    """Count-shrunk composition estimate: rows of (z + lambda) normalized to 1."""
    lam = np.asarray(lambda_hat, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lambda_hat must be strictly positive")
    raw = np.asarray(Z_test, dtype=float) + lam
    return raw / raw.sum(axis=1, keepdims=True)


def _alpha0_hat(Y, hyper: Hyperparams) -> float:
    n = len(Y)
    return float(Y.sum() / (n + 1.0 / hyper.h_alpha0))


def _ridge_beta(B_sel, Y, hyper: Hyperparams) -> np.ndarray:
    k = B_sel.shape[1]
    A = B_sel.T @ B_sel + np.eye(k) / hyper.h_beta
    return np.linalg.solve(A, B_sel.T @ Y)


def _per_sample_fit(psi, xi, Y, contrast, hyper):
    """Yield (sel, beta_hat, col_means, col_sds, B_train_std_sel) per sample s,
    from its training compositions ``psi[s]`` and balance selection ``xi[s]``."""
    for psi_s, xi_s in zip(psi, xi):
        B_std, means, sds = standardize_columns(log_balances(psi_s, contrast, hyper.delta))
        sel = xi_s == 1
        if not sel.any():
            yield sel, None, means, sds, None
            continue
        beta = _ridge_beta(B_std[:, sel], Y, hyper)
        yield sel, beta, means, sds, B_std[:, sel]


def averaged_response(psi, xi, Y, spec: PartitionSpec, hyper: Hyperparams,
                      psi_test=None) -> np.ndarray:
    """Response averaged over samples of training compositions ``psi`` (S x N x J)
    and balance selections ``xi`` (S x M).

    In-sample when ``psi_test`` is None; otherwise at the test compositions,
    whose balances are standardized with each sample's training statistics.
    """
    contrast = spec.contrast_matrix()
    if psi_test is not None:
        B_test = log_balances(psi_test, contrast, hyper.delta)
    total = np.zeros(len(Y) if psi_test is None else len(psi_test))
    for sel, beta, means, sds, B_sel in _per_sample_fit(psi, xi, Y, contrast, hyper):
        if beta is None:
            continue
        if psi_test is None:
            total += B_sel @ beta
        else:
            total += ((B_test[:, sel] - means[sel]) / sds[sel]) @ beta
    return _alpha0_hat(Y, hyper) + total / len(xi)


def predict_y(
    chain: ChainOutput,
    data_train: Dataset,
    test: TestSet,
    spec: PartitionSpec,
    hyper: Hyperparams,
) -> np.ndarray:
    """Posterior-averaged predictions for the test responses."""
    if chain.psi.shape[1] == 0:
        raise ValueError("chain does not retain composition samples")
    psi_test = estimate_psi_test(
        estimate_lambda_test(chain, test.X_test), test.Z_test
    )
    return averaged_response(chain.psi, chain.xi, data_train.Y, spec, hyper, psi_test)


def fitted_y(
    chain: ChainOutput,
    data_train: Dataset,
    spec: PartitionSpec,
    hyper: Hyperparams,
) -> np.ndarray:
    """In-sample analogue of predict_y, using each sample's own training balances."""
    return averaged_response(chain.psi, chain.xi, data_train.Y, spec, hyper)


def pointwise_loglik(
    chain: ChainOutput,
    data: Dataset,
    spec: PartitionSpec,
    hyper: Hyperparams,
) -> np.ndarray:
    """N x S matrix of conditional normal log densities of each training response.

    Coefficients and the error variance are plugged in at their conditional
    posterior means given each sample's selected balances (they were collapsed
    out of the chain), so entry (i, s) approximates the per-subject likelihood
    needed by external leave-one-out tooling.
    """
    n = data.n_subjects
    S = chain.n_samples
    out = np.empty((n, S))
    a0_hat = _alpha0_hat(data.Y, hyper)
    for s, (sel, beta, _, _, B_sel) in enumerate(
        _per_sample_fit(chain.psi, chain.xi, data.Y, spec.contrast_matrix(), hyper)
    ):
        mu = np.full(n, a0_hat)
        if beta is not None:
            mu = mu + B_sel @ beta
        resid = data.Y - mu
        sigma2 = (hyper.b0 + 0.5 * resid @ resid) / (hyper.a0 + 0.5 * n - 1.0)
        out[:, s] = -0.5 * (np.log(2.0 * np.pi * sigma2) + resid**2 / sigma2)
    return out
