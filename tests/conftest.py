import numpy as np
import pytest

from dmjoint.model import zero_replace
from dmjoint.predict import TestSet

# dataclass named Test* — keep pytest from trying to collect it
TestSet.__test__ = False


def one_sample_at_a_time(psi, xi, Y, psi_test, spec, hyper):
    """Reference for the per-sample ridge pass: (fitted, predicted, N x S loglik).

    Each sample s standardizes its full training balance matrix, built from
    ``psi[s]``, fits its selected columns and adds its contribution in sample
    order; an empty model contributes nothing to the averages.
    """
    V = spec.contrast_matrix()
    n, S = len(Y), len(xi)
    B_test = np.log(zero_replace(psi_test, hyper.delta)) @ V
    a0 = float(Y.sum() / (n + 1.0 / hyper.h_alpha0))
    fit_sum, pred_sum = np.zeros(n), np.zeros(len(psi_test))
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
        resid = Y - mu
        sigma2 = (hyper.b0 + 0.5 * resid @ resid) / (hyper.a0 + 0.5 * n - 1.0)
        loglik[:, s] = -0.5 * (np.log(2.0 * np.pi * sigma2) + resid**2 / sigma2)
    return a0 + fit_sum / S, a0 + pred_sum / S, loglik


@pytest.fixture
def ridge_reference():
    return one_sample_at_a_time
