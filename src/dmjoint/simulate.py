"""Synthetic data generator: AR-correlated covariates, overdispersed
Dirichlet-multinomial counts, and a balance-driven continuous response.

The generating model deliberately differs from the fitted model: counts are
drawn through a normalized-concentration reparameterization in which ``d``
controls overdispersion (total concentration (1 - d) / d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, log_balances, sbp_pivot
from .predict import TestSet

__all__ = ["SimConfig", "GroundTruth", "gen_covariates", "gen_dm_counts",
           "gen_response", "gen_replicate", "replicate_rng"]


@dataclass(frozen=True)
class SimConfig:
    N: int = 50
    P: int = 50
    J: int = 150
    omega: float = 0.4
    n_true_cov: int = 10
    phi_low: float = 0.75
    phi_high: float = 1.25
    alpha_low: float = -2.3
    alpha_high: float = 2.3
    d: float = 0.01
    zdot_low: int = 2500
    zdot_high: int = 7500
    n_true_bal: int = 5
    beta_low: float = 1.25
    beta_high: float = 1.75
    sigma_eps: float = 1.0
    delta: float = 6.67e-5
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.d < 1):
            raise ValueError("overdispersion d must lie in (0, 1)")
        if self.phi_low > self.phi_high or self.alpha_low > self.alpha_high \
                or self.beta_low > self.beta_high or self.zdot_low > self.zdot_high:
            raise ValueError("range bounds out of order")
        if self.n_true_cov > self.J * self.P:
            raise ValueError("more true covariate pairs than available")
        if self.n_true_bal > self.J - 1:
            raise ValueError("more true balances than available")


@dataclass
class GroundTruth:
    zeta_true: np.ndarray  # J x P
    phi_true: np.ndarray  # J x P
    alpha_true: np.ndarray  # J
    xi_true: np.ndarray  # M
    beta_true: np.ndarray  # M
    psi_star: np.ndarray  # N x J (training compositions)


def replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """Per-replicate generator derived from (master seed, replicate index)."""
    return np.random.default_rng([master_seed, replicate])


def gen_covariates(cfg: SimConfig, rng) -> np.ndarray:
    """Zero-mean covariates with AR(1) correlation omega^|i-j| across columns."""
    X = np.empty((cfg.N, cfg.P))
    X[:, 0] = rng.normal(size=cfg.N)
    scale = np.sqrt(1.0 - cfg.omega**2)
    for p in range(1, cfg.P):
        X[:, p] = cfg.omega * X[:, p - 1] + scale * rng.normal(size=cfg.N)
    return X


def _draw_truth(cfg: SimConfig, rng) -> GroundTruth:
    J, P, M = cfg.J, cfg.P, cfg.J - 1
    zeta = np.zeros((J, P), dtype=np.uint8)
    flat = rng.choice(J * P, size=cfg.n_true_cov, replace=False)
    zeta.ravel()[flat] = 1
    phi = np.zeros((J, P))
    mags = rng.uniform(cfg.phi_low, cfg.phi_high, size=cfg.n_true_cov)
    signs = rng.choice([-1.0, 1.0], size=cfg.n_true_cov)
    phi.ravel()[flat] = mags * signs
    alpha = rng.uniform(cfg.alpha_low, cfg.alpha_high, size=J)
    xi = np.zeros(M, dtype=np.uint8)
    bal_idx = rng.choice(M, size=cfg.n_true_bal, replace=False)
    xi[bal_idx] = 1
    beta = np.zeros(M)
    beta[bal_idx] = rng.uniform(cfg.beta_low, cfg.beta_high, size=cfg.n_true_bal) * \
        rng.choice([-1.0, 1.0], size=cfg.n_true_bal)
    return GroundTruth(zeta_true=zeta, phi_true=phi, alpha_true=alpha,
                       xi_true=xi, beta_true=beta, psi_star=np.empty((0, J)))


def gen_dm_counts(X, truth: GroundTruth, cfg: SimConfig, rng):
    """Counts from the overdispersion reparameterization; returns (Z, psi_star)."""
    lam = truth.alpha_true[None, :] + X @ (truth.phi_true * truth.zeta_true).T
    gamma = np.exp(lam)
    gamma_star = gamma / gamma.sum(axis=1, keepdims=True) * ((1.0 - cfg.d) / cfg.d)
    n = X.shape[0]
    psi_star = np.empty((n, cfg.J))
    Z = np.empty((n, cfg.J), dtype=np.int64)
    for i in range(n):
        psi_star[i] = rng.dirichlet(gamma_star[i])
        zdot = int(rng.integers(cfg.zdot_low, cfg.zdot_high + 1))
        # dirichlet can emit exact zeros for tiny concentrations; multinomial
        # needs a valid probability vector either way
        p = psi_star[i] / psi_star[i].sum()
        Z[i] = rng.multinomial(zdot, p)
    return Z, psi_star


def gen_response(psi_star, contrast, truth: GroundTruth, cfg: SimConfig,
                 rng) -> np.ndarray:
    """Response built from the balances of the true compositions;
    ``contrast`` is the pivot SBP's ``contrast_matrix()``, built once per
    replicate by the caller."""
    B = log_balances(psi_star, contrast, cfg.delta)
    eps = rng.normal(0.0, cfg.sigma_eps, size=psi_star.shape[0]) \
        if cfg.sigma_eps > 0 else 0.0
    return B @ truth.beta_true + eps


def gen_replicate(cfg: SimConfig, rng=None):
    """One replicate: shared truth, independent train and test sets of N subjects.

    Returns (train Dataset, TestSet, GroundTruth); the truth's ``psi_star``
    holds the training compositions.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    contrast = sbp_pivot(cfg.J).contrast_matrix()
    truth = _draw_truth(cfg, rng)
    X_tr = gen_covariates(cfg, rng)
    Z_tr, psi_tr = gen_dm_counts(X_tr, truth, cfg, rng)
    Y_tr = gen_response(psi_tr, contrast, truth, cfg, rng)
    X_te = gen_covariates(cfg, rng)
    Z_te, psi_te = gen_dm_counts(X_te, truth, cfg, rng)
    Y_te = gen_response(psi_te, contrast, truth, cfg, rng)
    truth.psi_star = psi_tr
    train = Dataset(Y=Y_tr, Z=Z_tr, X=X_tr)
    test = TestSet(Z_test=Z_te, X_test=X_te, Y_test=Y_te)
    return train, test, truth
