"""Core mathematical kernel: likelihoods, priors, and balance geometry.

The numerical functions return values computed from their arguments alone.
Two things have effects: ``PartitionSpec.to_file`` writes a file, and the
first ``gammaln`` or ``beta_binomial_logprior`` call loads scipy's compiled
``_special_ufuncs`` module and registers it in ``sys.modules``. The sampler,
prediction, and simulation modules are all consumers.

Conventions fixed here so that Metropolis-Hastings ratios built on top are
exact:

* The augmented DM density carries ``(zdot - 1) * log(u)`` and drops
  ``log Gamma(zdot)`` and the multinomial coefficient; both are constant in
  (c, gamma, u), so they cancel in every acceptance ratio.
* The spike component of the spike-and-slab prior contributes 0 to the log
  prior (Dirac mass convention).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "Hyperparams",
    "PartitionSpec",
    "integer_counts",
    "require_finite",
    "build_gamma",
    "sbp_pivot",
    "log_balances",
    "standardize_columns",
    "zero_replace",
    "marginal_gram",
    "flip_log_marginals",
    "log_marginal_y",
    "ridge_fit",
    "spike_slab_logprior",
    "beta_binomial_logprior",
    "gammaln",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyperparams:
    """Fixed prior and proposal constants.

    ``r2`` is the slab variance shared across taxa, ``sigma_alpha2`` the
    intercept prior variance. ``delta`` is the zero-replacement pseudovalue
    applied before any log-ratio computation.
    """

    h_alpha0: float = 1.0
    h_beta: float = 1.0
    a0: float = 2.0
    b0: float = 2.0
    r2: float = 10.0
    sigma_alpha2: float = 10.0
    a: float = 1.0
    b: float = 9.0
    a_m: float = 1.0
    b_m: float = 9.0
    proposal_sd: float = 0.5
    delta: float = 6.67e-5

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"hyperparameter {f.name} must be > 0, got {v}")


@dataclass
class Dataset:
    """Training data: response Y (length N), counts Z (N x J), covariates X (N x P).

    Y is assumed mean-centered and X standardized before fitting; the fitting
    routines do not re-scale.
    """

    Y: np.ndarray
    Z: np.ndarray
    X: np.ndarray
    row_totals: np.ndarray = field(init=False)

    def __post_init__(self):
        self.Y = require_finite(np.asarray(self.Y, dtype=float).ravel(), "Y")
        self.Z = np.asarray(self.Z)
        self.X = np.asarray(self.X, dtype=float)
        if self.Z.ndim != 2 or self.X.ndim != 2:
            raise ValueError("Z and X must be 2-dimensional")
        require_finite(self.X, "X")
        n, j = self.Z.shape
        if self.Y.shape[0] != n or self.X.shape[0] != n:
            raise ValueError("Y, Z, X row counts disagree")
        if n < 1 or j < 1 or self.X.shape[1] < 1:
            raise ValueError("need N, J, P >= 1")
        self.Z = integer_counts(self.Z)
        self.row_totals = self.Z.sum(axis=1)
        if np.any(self.row_totals < 1):
            bad = int(np.argmin(self.row_totals))
            raise ValueError(f"row {bad} of Z has zero total count")

    @property
    def n_subjects(self) -> int:
        return self.Z.shape[0]

    @property
    def n_taxa(self) -> int:
        return self.Z.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.X.shape[1]


class PartitionSpec:
    """An ordered sequential binary separation of J taxa into M = J - 1 balances.

    Partitions are stored 0-based as (plus, minus) tuples of taxon indices.
    The file format is 1-based: one partition per line,
    ``plus indices | minus indices``, comma-separated.
    """

    def __init__(self, partitions):
        parts = []
        for plus, minus in partitions:
            parts.append((tuple(int(i) for i in plus), tuple(int(i) for i in minus)))
        if not parts:
            raise ValueError("need at least one partition")
        all_idx = set(parts[0][0]) | set(parts[0][1])
        J = len(all_idx)
        if all_idx != set(range(J)):
            raise ValueError("first partition must span taxa 0..J-1")
        if len(parts) != J - 1:
            raise ValueError(f"need exactly J-1={J-1} partitions, got {len(parts)}")
        # Each partition must split one block produced earlier.
        blocks = {frozenset(range(J))}
        for m, (plus, minus) in enumerate(parts):
            sp, sm = set(plus), set(minus)
            if not sp or not sm:
                raise ValueError(f"partition {m}: empty side")
            if sp & sm:
                raise ValueError(f"partition {m}: overlapping sides")
            whole = frozenset(sp | sm)
            if whole not in blocks:
                raise ValueError(f"partition {m} does not split an existing block")
            blocks.remove(whole)
            blocks.add(frozenset(sp))
            blocks.add(frozenset(sm))
            parts[m] = (tuple(sorted(sp)), tuple(sorted(sm)))
        self.partitions = parts
        self.n_taxa = J

    @property
    def M(self) -> int:
        return len(self.partitions)

    def contrast_matrix(self) -> np.ndarray:
        """Orthonormal J x M matrix V with balances = log(psi) @ V."""
        J, M = self.n_taxa, self.M
        V = np.zeros((J, M))
        for m, (plus, minus) in enumerate(self.partitions):
            r, s = len(plus), len(minus)
            V[list(plus), m] = np.sqrt(s / (r * (r + s)))
            V[list(minus), m] = -np.sqrt(r / (s * (r + s)))
        return V

    def to_file(self, path):
        with open(path, "w") as f:
            for plus, minus in self.partitions:
                left = ",".join(str(i + 1) for i in plus)
                right = ",".join(str(i + 1) for i in minus)
                f.write(f"{left} | {right}\n")

    @classmethod
    def from_file(cls, path) -> "PartitionSpec":
        parts = []
        with open(path) as f:
            for ln, line in enumerate(f, start=1):
                left, bar, right = line.partition("|")
                try:
                    if bar:
                        parts.append([[int(t) - 1 for t in side.split(",") if t.strip()]
                                      for side in (left, right)])
                    elif line.strip():
                        raise ValueError("expected 'plus | minus'")
                except ValueError as e:
                    raise ValueError(f"{path}:{ln}: {e}") from e
        try:
            return cls(parts)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def require_finite(A, name: str) -> np.ndarray:
    """``A`` (at least 1-D) unchanged; raises naming ``name`` and its first NaN
    or infinite entry, with row and column counted from 1."""
    A = np.asarray(A)
    bad = ~np.isfinite(A)
    if np.any(bad):
        i, j = np.argwhere(bad.reshape(len(A), -1))[0]
        value = A.reshape(len(A), -1)[i, j]
        raise ValueError(f"{name} has the non-finite value {value} at row {i + 1}, "
                         f"column {j + 1} (counting from 1)")
    return A


def integer_counts(Z) -> np.ndarray:
    """``Z`` as int64 counts; raises unless every entry is a nonnegative integer."""
    Z = require_finite(Z, "counts")
    if np.any(Z < 0):
        raise ValueError("counts must be nonnegative")
    if not np.allclose(Z, np.round(Z)):
        raise ValueError("counts must be integers")
    return np.round(Z).astype(np.int64)


def build_gamma(alpha, phi, X):
    """Log-linear Dirichlet concentrations: (lam, gamma = exp(lam)) for
    lam = alpha + X @ phi' (phi is 0 if excluded)."""
    alpha = np.asarray(alpha, dtype=float)
    lam = alpha[None, :] + np.asarray(X, dtype=float) @ np.asarray(phi, dtype=float).T
    with np.errstate(over="ignore"):  # reported below with its location
        gamma = np.exp(lam)
    if not np.all(np.isfinite(gamma)):
        i, j = np.argwhere(~np.isfinite(gamma))[0]
        raise FloatingPointError(f"gamma overflow at subject {i}, taxon {j}")
    return lam, gamma


def sbp_pivot(J: int) -> PartitionSpec:
    """Default pivot SBP: balance m contrasts taxon m against taxa m+1..J."""
    if J < 2:
        raise ValueError("need at least two taxa")
    parts = [((m,), tuple(range(m + 1, J))) for m in range(J - 1)]
    return PartitionSpec(parts)


def log_balances(psi, contrast, delta: float) -> np.ndarray:
    """Balances ``log(psi) @ contrast`` of compositions after zero replacement.

    ``contrast`` is a ``PartitionSpec.contrast_matrix()`` built once by the
    caller, so a per-iteration call does no partition work.
    """
    return np.log(zero_replace(psi, delta)) @ contrast


def standardize_columns(B, noun: str):
    """Center and scale columns to mean 0 and sample variance 1.

    Returns (standardized, means, sds). Raises on a zero-variance ``noun`` column.
    """
    B = np.asarray(B, dtype=float)
    means = B.mean(axis=0)
    dev = B - means
    # B.std(axis=0, ddof=1) bit for bit, without forming the means and
    # deviations a second time
    sds = (np.sqrt((dev * dev).sum(axis=0) / (B.shape[0] - 1)) if B.shape[0] > 1
           else np.zeros(B.shape[1]))
    if np.any(sds <= 0):
        col = int(np.argmin(sds))
        raise ValueError(f"{noun} column {col} has zero variance; cannot standardize")
    return dev / sds, means, sds


def zero_replace(psi, delta: float) -> np.ndarray:
    """Multiplicative replacement of near-zero components.

    Components below ``delta`` are set to ``delta`` and the remaining ones are
    rescaled so each row still sums to one. Works on a single composition or a
    matrix of row compositions.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    psi = np.asarray(psi, dtype=float)
    single = psi.ndim == 1
    P = np.atleast_2d(psi).copy()
    small = P < delta
    k = small.sum(axis=1)
    if np.any(k * delta >= 1):
        raise ValueError("pseudovalue too large: delta * #replaced >= 1")
    if np.any(k):
        keep_sum = np.where(small, 0.0, P).sum(axis=1)
        factor = np.where(k > 0, (1.0 - k * delta) / keep_sum, 1.0)
        P = np.where(small, delta, P * factor[:, None])
    return P[0] if single else P


def marginal_gram(Y, B, hyper: Hyperparams):
    """(U, diag G, U'Y, Y'Y) for the Gram matrix ``G = I + U'U`` of the Y marginal.

    ``U = [sqrt(h_alpha0) 1, sqrt(h_beta) B]``: index 0 is the intercept,
    index m + 1 balance m; B's columns need not be centred. The rows of G a
    selection needs are formed from U when it is scored, never all of G.
    """
    Y = np.asarray(Y, dtype=float).ravel()
    n = Y.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    U = np.empty((n, B.shape[1] + 1))
    U[:, 0] = np.sqrt(hyper.h_alpha0)
    U[:, 1:] = np.sqrt(hyper.h_beta) * B
    return U, 1.0 + np.sum(U * U, axis=0), U.T @ Y, float(Y @ Y)


def flip_log_marginals(gram, xi, hyper: Hyperparams):
    """Log marginal of the selection ``xi`` and of each of its M single flips.

    ``gram`` is a ``marginal_gram``. Y ~ t_{2 a0}(0, (b0/a0) Omega) with
    Omega = I + U_S U_S', S the intercept plus the selected balances. By
    Woodbury, log|Omega| = log|K| and Y' Omega^{-1} Y = Y'Y - b'K^{-1}b for
    K = G[S, S], b = (U'Y)[S]. From one Cholesky K = LL', adding column m
    changes them by its Schur complement and deleting it by the m-th diagonal
    of K^{-1} (Brown, Vannucci & Fearn 1998). Returns (log marginal of xi,
    length-M array of flipped ones).
    """
    U, G_diag, Uty, yty = gram
    on = np.flatnonzero(np.concatenate(([1], xi)))
    off = np.flatnonzero(np.asarray(xi) == 0) + 1
    rows = U[:, on].T @ U  # G[S, :]
    rows[np.arange(len(on)), on] += 1.0
    try:
        L = np.linalg.cholesky(rows[:, on])
    except np.linalg.LinAlgError as e:
        raise ValueError("covariance not positive definite") from e
    L_inv = np.linalg.inv(L)
    w = L_inv @ Uty[on]
    # add m: Schur complement s = G_mm - |L^{-1} g|^2, residual r = b_m - v'w
    V = L_inv @ rows[:, off]
    schur = G_diag[off] - np.sum(V * V, axis=0)
    resid = Uty[off] - V.T @ w
    # delete m: (K^{-1})_mm and (K^{-1} b)_m, skipping the intercept
    k_inv_diag = np.sum(L_inv * L_inv, axis=0)[1:]
    k_inv_b = (L_inv.T @ w)[1:]
    quad = yty - w @ w
    logdet = 2.0 * np.sum(np.log(np.diag(L))) + np.log(
        np.concatenate(([1.0], schur, k_inv_diag)))
    quad = np.concatenate(([quad], quad - resid**2 / schur, quad + k_inv_b**2 / k_inv_diag))
    # multivariate-t log density of Y, current selection first
    n, nu, scale = U.shape[0], 2.0 * hyper.a0, hyper.b0 / hyper.a0
    logml = (gammaln((nu + n) / 2.0) - gammaln(nu / 2.0) - 0.5 * n * np.log(nu * np.pi)
             - 0.5 * (n * np.log(scale) + logdet)
             - 0.5 * (nu + n) * np.log1p(quad / scale / nu))
    flips = np.empty(len(xi))
    flips[np.concatenate((off, on[1:])) - 1] = logml[1:]
    return float(logml[0]), flips


def log_marginal_y(Y, B_sel, hyper: Hyperparams) -> float:
    """Collapsed multivariate-t log density of Y given the selected balances.

    Y ~ t_{2 a0}(0, (b0/a0)(I + h_alpha0 11' + h_beta B B')); the Gram form of
    ``flip_log_marginals`` with every column of ``B_sel`` selected.
    """
    gram = marginal_gram(Y, B_sel, hyper)
    return flip_log_marginals(gram, np.ones(len(gram[2]) - 1, np.uint8), hyper)[0]


def ridge_fit(B_sel, Y, hyper: Hyperparams):
    """Ridge-form fit of Y on the selected standardized balances ``B_sel`` (N x k).

    Returns ``beta = (B'B + I / h_beta)^{-1} B'Y``, the coefficients' conditional
    posterior mean given the selection, and the fit ``B_sel @ beta``. An empty
    selection gives an empty ``beta`` and a zero fit.
    """
    A = B_sel.T @ B_sel + np.eye(B_sel.shape[1]) / hyper.h_beta
    beta = np.linalg.solve(A, B_sel.T @ Y)
    return beta, B_sel @ beta


def spike_slab_logprior(value, slab_var: float):
    """Log slab density of an included coefficient (or array of them)."""
    if slab_var <= 0:
        raise ValueError("slab variance must be positive")
    return -0.5 * (np.log(2.0 * np.pi * slab_var) + value * value / slab_var)


def beta_binomial_logprior(included: int, a: float, b: float) -> float:
    """Log marginal prior of one inclusion indicator after integrating its Beta mean."""
    betaln = _special_ufuncs().betaln
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    return float(betaln(included + a, 1 - included + b) - betaln(a, b))


def gammaln(x):
    """``scipy.special.gammaln(x)``, the ufunc itself. Only a fit calls it, so simulate,
    predict and evaluate load no scipy, and a fit only ``_special_ufuncs`` below."""
    return _special_ufuncs().gammaln(x)


_UFUNCS = "scipy.special._special_ufuncs"


def _special_ufuncs():
    """scipy's compiled module of ``gammaln`` and ``betaln``, loaded alone on first use.

    ``scipy/special/__init__`` imports some 300 modules and maps scipy's own
    OpenBLAS, none of which a fit runs. The extension is found without running
    scipy's ``__init__`` and registered under its own name, so a later
    ``import scipy.special`` reuses it, as this reuses the one that import made.
    """
    module = sys.modules.get(_UFUNCS)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        roots = scipy.submodule_search_locations if scipy else []
        where = [str(Path(root, "special")) for root in roots]
        spec = importlib.machinery.PathFinder.find_spec(_UFUNCS, where)
        if spec is None:
            raise RuntimeError(f"scipy's {_UFUNCS} extension not found in {where}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_UFUNCS] = module
    return module
