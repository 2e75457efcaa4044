"""Closed-form references the tests check the package against.

Each is the textbook form of a quantity the package computes another way:
the augmented DM density behind the sampler's MH ratios, the balances that
``model.log_balances`` forms with one contrast matmul, and the ridge pass
rebuilt from each sample's composition, as it ran when joint chains kept
``psi``. ``predictor_blocks`` builds a joint chain's ``predictor`` and
``fits`` blocks from compositions, and ``change_block`` its indicator change
blocks from dense samples, for tests that make a chain by hand.
``assert_matches_reference`` holds the prediction outputs to the reference.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from dmjoint.model import (
    PartitionSpec,
    log_balances,
    ridge_fit,
    standardize_columns,
    zero_replace,
)
from dmjoint.sampler import indicator_changes


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
        B, _, _ = standardize_columns(B, "balance")
    return B


def change_block(samples):
    """``(changes, shape)`` of the S x ... samples whose non-zero entries are
    the indicators: each sample encoded against the one before, as
    ``run_chain`` encodes them."""
    on = np.asarray(samples) != 0
    parts = map(indicator_changes, [np.zeros_like(on[0]), *on[:-1]], on, range(len(on)))
    return np.concatenate([np.empty(0, dtype=np.int64), *parts]), on.shape


def predictor_blocks(psi, xi, Y, spec: PartitionSpec, hyper):
    """The ``predictor`` and ``fits`` blocks a joint chain keeps for
    compositions ``psi`` (S x N x J), selections ``xi`` (S x M) and responses
    ``Y``, each sample fitted on the slice of its standardized balances it
    selected, as the sampler fits it."""
    contrast = spec.contrast_matrix()
    predictor, fits = np.zeros(spec.M + 1), np.empty((len(xi), len(Y)))
    for s, (psi_s, xi_s) in enumerate(zip(psi, xi)):
        B = log_balances(psi_s, contrast, hyper.delta)
        B_std, means, sds = standardize_columns(B, "balance")
        sel = np.asarray(xi_s) == 1
        beta, fits[s] = ridge_fit(B_std[:, sel], Y, hyper)
        predictor[:-1][sel] += beta / sds[sel]
        predictor[-1] += (means[sel] / sds[sel]) @ beta
    return predictor, fits


class Reference(NamedTuple):
    fitted: np.ndarray  # N
    per_sample: np.ndarray  # test predictions, each sample's added in turn
    linear: np.ndarray  # test predictions from the summed linear predictor
    loglik: np.ndarray  # N x S


def one_sample_at_a_time(psi, xi, Y, psi_test, spec, hyper) -> Reference:
    """Reference for the ridge pass over the retained samples.

    Each sample s standardizes its full training balance matrix, built from
    ``psi[s]``, fits its selected columns and adds its contribution in sample
    order; an empty model contributes nothing to the averages. ``per_sample``
    adds each sample's prediction ``((B_test - mean) / sd) @ beta`` on its
    selected columns, the pass of the chains that kept ``psi``. ``linear``
    adds ``beta / sd`` into ``W`` at the selected columns and
    ``(mean / sd) @ beta`` into ``c``, and predicts ``B_test @ W - c``, the
    same sum in another order: it has the bits of the pass over a chain's
    ``predictor``, and agrees with ``per_sample`` to rounding.
    """
    V = spec.contrast_matrix()
    n, S = len(Y), len(xi)
    B_test = np.log(zero_replace(psi_test, hyper.delta)) @ V
    a0 = float(Y.sum() / (n + 1.0 / hyper.h_alpha0))
    fit_sum, pred_sum = np.zeros(n), np.zeros(len(psi_test))
    W, c = np.zeros(V.shape[1]), 0.0
    loglik = np.empty((n, S))
    for s in range(S):
        B = np.log(zero_replace(psi[s], hyper.delta)) @ V
        mean, sd = B.mean(axis=0), B.std(axis=0, ddof=1)
        sel = np.asarray(xi[s]) == 1
        mu = np.full(n, a0)
        if sel.any():
            B_sel = ((B - mean) / sd)[:, sel]
            beta = np.linalg.solve(B_sel.T @ B_sel + np.eye(sel.sum()) / hyper.h_beta,
                                   B_sel.T @ Y)
            fit_sum += B_sel @ beta
            mu = mu + B_sel @ beta
            pred_sum += ((B_test[:, sel] - mean[sel]) / sd[sel]) @ beta
            W[sel] += beta / sd[sel]
            c += (mean[sel] / sd[sel]) @ beta
        resid = Y - mu
        sigma2 = (hyper.b0 + 0.5 * resid @ resid) / (hyper.a0 + 0.5 * n - 1.0)
        loglik[:, s] = -0.5 * (np.log(2.0 * np.pi * sigma2) + resid**2 / sigma2)
    return Reference(fitted=a0 + fit_sum / S, per_sample=a0 + pred_sum / S,
                     linear=a0 + (B_test @ W - c) / S, loglik=loglik)


def assert_matches_reference(fitted, predicted, loglik, ref):
    """Fitted values and log-likelihoods have the bits of the reference's
    per-sample pass, and predictions those of its linear form; they agree with
    its per-sample predictions to 1e-12 of their largest magnitude."""
    assert fitted.tobytes() == ref.fitted.tobytes()
    assert predicted.tobytes() == ref.linear.tobytes()
    if loglik is not None:
        assert loglik.tobytes() == ref.loglik.tobytes()
    scale = np.abs(ref.per_sample).max()
    assert np.abs(predicted - ref.per_sample).max() <= 1e-12 * scale
