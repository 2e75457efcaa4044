"""Closed-form references the tests check the package against.

Each is the textbook form of a quantity the package computes another way:
the augmented DM density behind the sampler's MH ratios, and the balances
that ``model.log_balances`` forms with one contrast matmul.
"""

import numpy as np
from scipy.special import gammaln

from dmjoint.model import PartitionSpec, standardize_columns


def log_augmented_dm(z_row, c_row, gamma_row, u_i) -> float:
    """Log of the augmented DM integrand for one subject, up to additive constants.

    Returns ``(zdot - 1) log u - T u
    + sum_j [(z_j + gamma_j - 1) log c_j - c_j - lgamma(gamma_j)]``.
    """
    z = np.asarray(z_row, dtype=float)
    c = np.asarray(c_row, dtype=float)
    g = np.asarray(gamma_row, dtype=float)
    zdot = z.sum()
    if zdot < 1:
        raise ValueError("row total must be >= 1")
    if np.any(c <= 0) or np.any(g <= 0) or u_i <= 0:
        raise ValueError("c, gamma, u must be strictly positive")
    T = c.sum()
    logc = np.log(c)
    out = (zdot - 1.0) * np.log(u_i) - T * u_i
    out += np.sum((z + g - 1.0) * logc - c - gammaln(g))
    return float(out)


def balance_value(psi_row, partition) -> float:
    """Balance of one composition for one (plus, minus) partition."""
    psi = np.asarray(psi_row, dtype=float)
    plus, minus = partition
    plus = list(plus)
    minus = list(minus)
    pp, pm = psi[plus], psi[minus]
    if np.any(pp <= 0) or np.any(pm <= 0):
        raise ValueError("balance requires strictly positive components")
    r, s = len(plus), len(minus)
    log_gmean_diff = np.mean(np.log(pp)) - np.mean(np.log(pm))
    return float(np.sqrt(r * s / (r + s)) * log_gmean_diff)


def balance_matrix(Psi, spec: PartitionSpec, standardize: bool = False) -> np.ndarray:
    """All M balances for every row of Psi; optionally column-standardized."""
    Psi = np.atleast_2d(np.asarray(Psi, dtype=float))
    if np.any(Psi <= 0):
        raise ValueError("balance matrix requires strictly positive compositions")
    B = np.log(Psi) @ spec.contrast_matrix()
    if standardize:
        B, _, _ = standardize_columns(B)
    return B
