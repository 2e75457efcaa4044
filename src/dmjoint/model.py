"""Core mathematical kernel: likelihoods, priors, and balance geometry.

Everything in this module is a pure function of its inputs. The sampler,
prediction, and simulation modules are all consumers.

Conventions fixed here so that Metropolis-Hastings ratios built on top are
exact:

* ``log_augmented_dm`` carries ``(zdot - 1) * log(u)`` and drops
  ``log Gamma(zdot)`` and the multinomial coefficient; both are constant in
  (c, gamma, u), so they cancel in every acceptance ratio.
* The spike component of the spike-and-slab prior contributes 0 to the log
  prior (Dirac mass convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import betaln, gammaln

__all__ = [
    "Dataset",
    "Hyperparams",
    "ChainState",
    "PartitionSpec",
    "GammaField",
    "build_gamma",
    "log_augmented_dm",
    "sbp_pivot",
    "balance_value",
    "balance_matrix",
    "log_balances",
    "standardize_columns",
    "zero_replace",
    "marginal_gram",
    "flip_log_marginals",
    "log_marginal_y",
    "spike_slab_logprior",
    "beta_binomial_logprior",
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
        self.Y = np.asarray(self.Y, dtype=float).ravel()
        self.Z = np.asarray(self.Z)
        self.X = np.asarray(self.X, dtype=float)
        if self.Z.ndim != 2 or self.X.ndim != 2:
            raise ValueError("Z and X must be 2-dimensional")
        n, j = self.Z.shape
        if self.Y.shape[0] != n or self.X.shape[0] != n:
            raise ValueError("Y, Z, X row counts disagree")
        if n < 1 or j < 1 or self.X.shape[1] < 1:
            raise ValueError("need N, J, P >= 1")
        if np.any(self.Z < 0):
            raise ValueError("counts must be nonnegative")
        if not np.allclose(self.Z, np.round(self.Z)):
            raise ValueError("counts must be integers")
        self.Z = np.round(self.Z).astype(np.int64)
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


@dataclass
class ChainState:
    """Current values of all sampled blocks.

    ``T`` caches the row sums of ``c``; ``psi`` is the derived composition
    ``c / T`` and is never stored.
    """

    alpha: np.ndarray
    phi: np.ndarray
    zeta: np.ndarray
    c: np.ndarray
    u: np.ndarray
    xi: np.ndarray
    T: np.ndarray

    def validate(self):
        if not np.all((self.phi == 0) == (self.zeta == 0)):
            raise ValueError("phi and zeta supports disagree")
        if np.any(self.c <= 0) or np.any(self.u <= 0):
            raise ValueError("c and u must be strictly positive")
        if not np.allclose(self.T, self.c.sum(axis=1), rtol=1e-10, atol=0):
            raise ValueError("cached T inconsistent with c")

    def refresh_totals(self):
        self.T = self.c.sum(axis=1)

    @property
    def psi(self) -> np.ndarray:
        return self.c / self.T[:, None]


@dataclass
class GammaField:
    """Dirichlet concentrations gamma = exp(lambda) for every subject and taxon."""

    gamma: np.ndarray
    lam: np.ndarray


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
                line = line.strip()
                if not line:
                    continue
                if "|" not in line:
                    raise ValueError(f"{path}:{ln}: expected 'plus | minus'")
                left, right = line.split("|", 1)
                plus = [int(t) - 1 for t in left.split(",") if t.strip()]
                minus = [int(t) - 1 for t in right.split(",") if t.strip()]
                parts.append((plus, minus))
        return cls(parts)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def build_gamma(alpha, phi, zeta, X) -> GammaField:
    """Log-linear Dirichlet concentrations: lam = alpha + X @ (zeta * phi)'."""
    alpha = np.asarray(alpha, dtype=float)
    effect = np.asarray(phi, dtype=float) * np.asarray(zeta)
    lam = alpha[None, :] + np.asarray(X, dtype=float) @ effect.T
    with np.errstate(over="ignore"):  # reported below with its location
        gamma = np.exp(lam)
    if not np.all(np.isfinite(gamma)):
        i, j = np.argwhere(~np.isfinite(gamma))[0]
        raise FloatingPointError(f"gamma overflow at subject {i}, taxon {j}")
    return GammaField(gamma=gamma, lam=lam)


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


def sbp_pivot(J: int) -> PartitionSpec:
    """Default pivot SBP: balance m contrasts taxon m against taxa m+1..J."""
    if J < 2:
        raise ValueError("need at least two taxa")
    parts = [((m,), tuple(range(m + 1, J))) for m in range(J - 1)]
    return PartitionSpec(parts)


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


def log_balances(psi, contrast, delta: float) -> np.ndarray:
    """Balances ``log(psi) @ contrast`` of compositions after zero replacement.

    ``contrast`` is a ``PartitionSpec.contrast_matrix()`` built once by the
    caller, so a per-iteration call does no partition work.
    """
    return np.log(zero_replace(psi, delta)) @ contrast


def standardize_columns(B):
    """Center and scale columns to mean 0 and sample variance 1.

    Returns (standardized, means, sds). Raises on a zero-variance column.
    """
    B = np.asarray(B, dtype=float)
    means = B.mean(axis=0)
    sds = B.std(axis=0, ddof=1) if B.shape[0] > 1 else np.zeros(B.shape[1])
    if np.any(sds <= 0):
        col = int(np.argmin(sds))
        raise ValueError(f"balance column {col} has zero variance; cannot standardize")
    return (B - means) / sds, means, sds


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


def spike_slab_logprior(value, included: int, slab_var: float):
    """Log prior of a coefficient (or an included array) under the spike-and-slab."""
    if slab_var <= 0:
        raise ValueError("slab variance must be positive")
    if included:
        return -0.5 * (np.log(2.0 * np.pi * slab_var) + value * value / slab_var)
    return 0.0 if value == 0 else -np.inf


def beta_binomial_logprior(included: int, a: float, b: float) -> float:
    """Log marginal prior of one inclusion indicator after integrating its Beta mean."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    return float(betaln(included + a, 1 - included + b) - betaln(a, b))
