"""Out-of-sample prediction from a fitted chain and pointwise log-likelihood export.

Test compositions are estimated by shrinking observed test counts toward the
posterior-mean concentrations of the training chain. A chain that selects
balances (a joint chain, or stage two of a two-step fit) keeps its samples'
fitted values, the sum of their linear predictors and the centred training
response (``ChainOutput``), so ``ridge_pass`` averages them with no
per-sample loop and no training data. Test balances are
standardized with each sample's training column statistics, which the
predictor holds, so no test information leaks into the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
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


def _a0_hat(chain: ChainOutput, hyper: Hyperparams) -> float:
    """Posterior mean of the response intercept, for a chain that selects balances."""
    if chain.config.mode == "dm_only":
        raise ValueError("a dm_only chain keeps no ridge fits")
    return float(chain.y.sum() / (len(chain.y) + 1.0 / hyper.h_alpha0))


def ridge_pass(chain: ChainOutput, hyper: Hyperparams, B_test=None):
    """The fitted values and the test predictions (None without ``B_test``),
    averaged over the retained samples' ridge fits.

    The fitted values average the rows of ``chain.fits``. The samples' summed
    prediction at raw test balances ``B_test`` is ``B_test @ W - c``, with
    ``W`` and ``c`` the chain's ``predictor``.
    """
    S, a0_hat = chain.n_samples, _a0_hat(chain, hyper)
    fitted = a0_hat + chain.fits.sum(axis=0) / S
    if B_test is None:
        return fitted, None
    W, c = chain.predictor[:-1], chain.predictor[-1]
    return fitted, a0_hat + (B_test @ W - c) / S


def predict_y(chain: ChainOutput, test: TestSet, spec: PartitionSpec,
              hyper: Hyperparams) -> np.ndarray:
    """Posterior-averaged predictions for the test responses."""
    B_test = estimate_test_balances(chain, test, spec.contrast_matrix(), hyper)
    return ridge_pass(chain, hyper, B_test)[1]


def fitted_y(chain: ChainOutput, hyper: Hyperparams) -> np.ndarray:
    """In-sample analogue of predict_y: the samples' mean fitted values."""
    return ridge_pass(chain, hyper)[0]


def pointwise_loglik(chain: ChainOutput, hyper: Hyperparams) -> np.ndarray:
    """N x S matrix of conditional normal log densities of each training response.

    Coefficients and the error variance are plugged in at their conditional
    posterior means given each sample's selected balances (they were
    collapsed out of the chain), so each density puts y_i into its own fitted
    mean and variance. It is not the likelihood importance-sampling
    leave-one-out needs.
    """
    Y, n = chain.y, len(chain.y)
    a0_hat = _a0_hat(chain, hyper)
    loglik = np.empty((n, chain.n_samples))
    for s, fit in enumerate(chain.fits):
        resid = Y - (a0_hat + fit)
        sigma2 = (hyper.b0 + 0.5 * resid @ resid) / (hyper.a0 + 0.5 * n - 1.0)
        loglik[:, s] = -0.5 * (np.log(2.0 * np.pi * sigma2) + resid**2 / sigma2)
    return loglik
