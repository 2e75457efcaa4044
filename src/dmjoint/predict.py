"""Out-of-sample prediction from a fitted chain and pointwise log-likelihood export.

Test compositions are estimated by shrinking observed test counts toward the
posterior-mean concentrations of the training chain. ``ridge_pass`` then
makes one pass over the retained samples: each contributes the ridge-form fit
of the balances it selected (``model.ridge_fit``), and every fitted value,
prediction and log-likelihood comes from that pass, which solves nothing. A
joint chain ran each sample's fit as it sampled and keeps it, and a two-step
fit runs one per stage-two selection on a slice of its frozen balances. Test
balances are standardized with each sample's training column statistics, so
no test information leaks into the scaling.
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
    phi_mean = np.zeros(chain.phi_shape[1:])
    phi_mean[chain.mppi_zeta > 0] = chain.phi_mean
    return build_gamma(chain.alpha_mean, phi_mean, X_test)[1]


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


def ridge_pass(records, xi, Y, hyper: Hyperparams, B_test=None):
    """Reduce the retained samples' ridge fits over the samples, in order.

    ``records`` yields each sample's ``(beta, means, sds, fit)``: the
    coefficients of the balances it selected, their training column means and
    sds, and its N fitted values ``B_sel @ beta`` (``model.ridge_fit``); ``xi``
    holds the samples' balance selections (S x M). ``B_test`` are raw test
    balances; each sample standardizes its selected ones with its training
    statistics.

    Returns the fitted values and the test predictions (None without
    ``B_test``), both averaged over the samples, and the N x S matrix of
    conditional normal log densities of the training responses. Coefficients
    and the error variance are plugged in at their conditional posterior means
    given each sample's selected balances (they were collapsed out of the
    chain), so each density puts y_i into its own fitted mean and variance. It
    is not the likelihood importance-sampling leave-one-out needs: under
    PSIS-LOO on a joint chain of S = 1000 samples, Pareto k exceeded 0.7 for
    14 of 50 subjects.
    """
    n, S = len(Y), len(xi)
    a0_hat = float(Y.sum() / (n + 1.0 / hyper.h_alpha0))
    fit_total = np.zeros(n)
    pred_total = None if B_test is None else np.zeros(len(B_test))
    loglik = np.empty((n, S))
    for s, ((beta, means, sds, fit), xi_s) in enumerate(zip(records, xi)):
        fit_total += fit
        if B_test is not None:
            pred_total += ((B_test[:, xi_s == 1] - means) / sds) @ beta
        resid = Y - (a0_hat + fit)
        sigma2 = (hyper.b0 + 0.5 * resid @ resid) / (hyper.a0 + 0.5 * n - 1.0)
        loglik[:, s] = -0.5 * (np.log(2.0 * np.pi * sigma2) + resid**2 / sigma2)
    pred = None if B_test is None else a0_hat + pred_total / S
    return a0_hat + fit_total / S, pred, loglik


def _joint_pass(chain: ChainOutput, data: Dataset, hyper: Hyperparams, B_test=None):
    """``ridge_pass`` over the ridge fits the chain's samples kept."""
    if chain.config.mode != "joint":
        raise ValueError(f"a {chain.config.mode} chain keeps no ridge fits")
    return ridge_pass(chain.ridge_fits(), chain.xi, data.Y, hyper, B_test)


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
