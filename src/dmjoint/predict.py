"""Out-of-sample prediction from a fitted chain and pointwise log-likelihood export.

Test compositions are estimated by shrinking observed test counts toward the
posterior-mean concentrations of the training chain. ``ridge_pass`` then
makes one pass over the retained samples: each contributes a ridge-form fit
of the balances it selected, and every fitted value, prediction and
log-likelihood comes from that pass. A joint chain hands it the balance
columns each sample kept, and a two-step fit slices its frozen balances with
each stage-two selection, so no pass rebuilds a balance. Test balances are
standardized with each sample's training column statistics, so no test
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
    integer_counts,
    log_balances,
    require_finite,
)
from .sampler import ChainOutput

__all__ = [
    "TestSet",
    "estimate_lambda_test",
    "estimate_psi_test",
    "estimate_test_balances",
    "ridge_pass",
    "predict_y",
    "fitted_y",
    "pointwise_loglik",
]


@dataclass
class TestSet:
    Z_test: np.ndarray
    X_test: np.ndarray
    Y_test: np.ndarray | None = None

    def __post_init__(self):
        self.X_test = np.asarray(self.X_test, dtype=float)
        if np.ndim(self.Z_test) != 2 or self.X_test.ndim != 2:
            raise ValueError("Z_test and X_test must be 2-dimensional")
        require_finite(self.X_test, "X_test")
        self.Z_test = integer_counts(self.Z_test)  # zero-total rows shrink to lambda
        rows = {"Z_test": len(self.Z_test), "X_test": len(self.X_test)}
        if self.Y_test is not None:
            self.Y_test = require_finite(np.asarray(self.Y_test, dtype=float).ravel(),
                                         "Y_test")
            rows["Y_test"] = len(self.Y_test)
        if len(set(rows.values())) > 1:
            raise ValueError(f"test row counts disagree: {rows}")


def estimate_lambda_test(chain: ChainOutput, X_test) -> np.ndarray:
    """Exponential of the posterior-mean linear predictor for test subjects."""
    if chain.n_samples < 1:
        raise ValueError("chain has no retained samples")
    phi_mean = chain.pair_sums(chain.phi_value) / chain.n_samples
    return build_gamma(chain.alpha.mean(axis=0), phi_mean, X_test)[1]


def estimate_psi_test(lambda_hat, Z_test) -> np.ndarray:
    """Count-shrunk composition estimate: rows of (z + lambda) normalized to 1."""
    lam = np.asarray(lambda_hat, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lambda_hat must be strictly positive")
    raw = np.asarray(Z_test, dtype=float) + lam
    return raw / raw.sum(axis=1, keepdims=True)


def estimate_test_balances(counts_chain: ChainOutput, test: TestSet, contrast,
                           hyper: Hyperparams) -> np.ndarray:
    """Raw balances of the test compositions estimated from ``counts_chain``."""
    psi_test = estimate_psi_test(estimate_lambda_test(counts_chain, test.X_test),
                                 test.Z_test)
    return log_balances(psi_test, contrast, hyper.delta)


def ridge_pass(balances, xi, Y, hyper: Hyperparams, B_test=None):
    """One ridge fit per retained sample, reduced over the samples in order.

    ``balances`` yields each sample's ``(B_sel, means, sds)``: the standardized
    training balances it selected, N x k, with their column means and sds, and
    ``xi`` holds the samples' balance selections (S x M). ``B_test`` are raw
    test balances; each sample standardizes its selected ones with its
    training statistics.

    Returns the fitted values and the test predictions (None without
    ``B_test``), both averaged over the samples, and the N x S matrix of
    conditional normal log densities of the training responses. Coefficients
    and the error variance are plugged in at their conditional posterior means
    given each sample's selected balances (they were collapsed out of the
    chain), so entry (i, s) approximates the per-subject likelihood needed by
    external leave-one-out tooling.
    """
    n, S = len(Y), len(xi)
    a0_hat = float(Y.sum() / (n + 1.0 / hyper.h_alpha0))
    fit_total = np.zeros(n)
    pred_total = None if B_test is None else np.zeros(len(B_test))
    loglik = np.empty((n, S))
    for s, ((B_sel, means, sds), xi_s) in enumerate(zip(balances, xi)):
        fit = 0.0
        if B_sel.shape[1]:
            A = B_sel.T @ B_sel + np.eye(B_sel.shape[1]) / hyper.h_beta
            beta = np.linalg.solve(A, B_sel.T @ Y)
            fit = B_sel @ beta
            fit_total += fit
            if B_test is not None:
                pred_total += ((B_test[:, xi_s == 1] - means) / sds) @ beta
        resid = Y - (a0_hat + fit)
        sigma2 = (hyper.b0 + 0.5 * resid @ resid) / (hyper.a0 + 0.5 * n - 1.0)
        loglik[:, s] = -0.5 * (np.log(2.0 * np.pi * sigma2) + resid**2 / sigma2)
    pred = None if B_test is None else a0_hat + pred_total / S
    return a0_hat + fit_total / S, pred, loglik


def _joint_pass(chain: ChainOutput, data: Dataset, hyper: Hyperparams, B_test=None):
    """``ridge_pass`` over the chain's samples, each on the balance columns it kept."""
    if chain.config.mode != "joint":
        raise ValueError(f"a {chain.config.mode} chain keeps no balance samples")
    return ridge_pass(chain.selected_balances(), chain.xi, data.Y, hyper, B_test)


def predict_y(
    chain: ChainOutput,
    data_train: Dataset,
    test: TestSet,
    spec: PartitionSpec,
    hyper: Hyperparams,
) -> np.ndarray:
    """Posterior-averaged predictions for the test responses."""
    B_test = estimate_test_balances(chain, test, spec.contrast_matrix(), hyper)
    return _joint_pass(chain, data_train, hyper, B_test)[1]


def fitted_y(chain: ChainOutput, data_train: Dataset, hyper: Hyperparams) -> np.ndarray:
    """In-sample analogue of predict_y, using each sample's own training balances."""
    return _joint_pass(chain, data_train, hyper)[0]


def pointwise_loglik(chain: ChainOutput, data: Dataset, hyper: Hyperparams) -> np.ndarray:
    """N x S matrix of conditional normal log densities of each training response
    (see ``ridge_pass``)."""
    return _joint_pass(chain, data, hyper)[2]
