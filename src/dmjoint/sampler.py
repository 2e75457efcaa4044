"""Metropolis-Hastings-within-Gibbs sampler for the joint model.

One iteration sweeps, in order: taxon intercepts ``alpha``; the
covariate-inclusion pairs ``(zeta, phi)`` (between-model add/delete moves
followed by a within-model refresh of every included coefficient); the
latent ``c`` and ``u`` blocks via exact Gibbs draws; and the
balance-inclusion indicators ``xi``. The ``dm_only`` mode skips the response
block. The ``lm_only`` mode runs the ``xi`` block alone on a fixed balance
matrix given by the caller (stage two of the two-step comparator) and keeps
no count samples.

All acceptance ratios are exact because the augmented log likelihood drops
only terms constant in (c, gamma, u); see ``model.log_augmented_dm``.

Draw order is part of the contract: the batched blocks take every draw in the
order of a one-move-at-a-time scan (the within-model refresh: a standard
normal then a uniform per included pair, in ``np.argwhere`` order), so chains
stay bitwise identical to it. Moving a draw changes every chain and the cached
Part B numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .model import (
    ChainState,
    Dataset,
    Hyperparams,
    PartitionSpec,
    beta_binomial_logprior,
    build_gamma,
    flip_log_marginals,
    log_balances,
    marginal_gram,
    spike_slab_logprior,
    standardize_columns,
)
# perfbench/tracer.py patches these names on this module, so they stay here.
from .model import log_marginal_y, zero_replace  # noqa: F401

__all__ = [
    "SamplerConfig",
    "ChainOutput",
    "run_chain",
    "mppi",
    "update_alpha",
    "update_zeta_phi",
    "update_c",
    "update_u",
    "update_xi",
    "initial_state",
    "alpha_log_mh_ratio",
    "pair_log_mh_ratio",
    "xi_log_mh_ratio",
]

_MODES = ("joint", "dm_only", "lm_only")
_C_FLOOR = 1e-300  # gamma draws may underflow to exactly 0 for tiny shapes


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int = 20000
    burn_in: int = 10000
    thin: int = 10
    seed: int = 0
    init_zeta_frac: float = 0.01
    init_xi_frac: float = 0.05
    between_moves_per_iter: int = 1
    mode: str = "joint"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be < iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.n_retained < 1:
            raise ValueError(f"iterations={self.iterations}, burn_in={self.burn_in} and "
                             f"thin={self.thin} keep no samples")
        if self.between_moves_per_iter < 1:
            raise ValueError("between_moves_per_iter must be >= 1")
        if not (0 <= self.init_zeta_frac < 1) or not (0 <= self.init_xi_frac < 1):
            raise ValueError("init fractions must lie in [0, 1)")

    @property
    def n_retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainOutput:
    """Thinned post-burn-in samples plus summaries."""

    alpha: np.ndarray  # S x J
    phi: np.ndarray  # S x J x P
    zeta: np.ndarray  # S x J x P, uint8
    xi: np.ndarray  # S x M, uint8
    psi: np.ndarray  # S x N x J
    u: np.ndarray  # S x N
    log_posterior: np.ndarray  # full pre-thinning trace, length iterations
    accept: dict  # per-move-type (accepted, proposed) counters
    mppi_zeta: np.ndarray  # J x P
    mppi_xi: np.ndarray  # M
    config: SamplerConfig
    seed: int = field(init=False)

    def __post_init__(self):
        self.seed = self.config.seed

    @property
    def n_samples(self) -> int:
        return self.alpha.shape[0]


# ---------------------------------------------------------------------------
# MH log acceptance ratios (single-move, exact). The block updates below take
# every ratio from these kernels, on the chain's cached N x J arrays
# logc = log(c), gamma and lgam = lgamma(gamma).
# ---------------------------------------------------------------------------


def alpha_log_mh_ratio(logc, gamma, lgam, alpha, step, hyper: Hyperparams):
    """Log MH ratios of the intercept proposals ``alpha + step``, one per taxon.

    Returns (ratios, proposed gamma, proposed lgamma(gamma)).
    """
    gamma_new = gamma * np.exp(step)[None, :]
    lgam_new = gammaln(gamma_new)
    diff = np.sum((gamma_new - gamma) * logc, axis=0) - np.sum(lgam_new - lgam, axis=0)
    alpha_new = alpha + step
    diff += (alpha**2 - alpha_new**2) / (2.0 * hyper.sigma_alpha2)
    return diff, gamma_new, lgam_new


def pair_log_mh_ratio(move, logc_col, gamma_col, lgam_col, lam_col, x_col,
                      phi_old, phi_new, hyper: Hyperparams, log_odds_on):
    """Log MH ratio of one covariate-taxon pair move on taxon column j.

    ``move`` is ``"add"`` (phi 0 -> phi_new), ``"delete"`` (phi_old -> 0) or
    ``"within"`` (phi_old -> phi_new); ``x_col`` is the covariate column and
    ``log_odds_on`` the prior log odds of inclusion. Returns (ratio, proposed
    lam, gamma and lgamma columns); a proposal whose gamma overflows has
    ratio -inf, so it is rejected. Call under ``np.errstate(over="ignore")``,
    as ``update_zeta_phi`` does, to keep that overflow silent.

    It also scores K pairs in K distinct taxa at once (C-contiguous K x N rows,
    length-K phi), each row with the bits of the one-pair call.
    """
    if move == "add":
        prior = log_odds_on + spike_slab_logprior(phi_new, 1, hyper.r2)
    elif move == "delete":
        prior = -log_odds_on - spike_slab_logprior(phi_old, 1, hyper.r2)
    else:
        prior = spike_slab_logprior(phi_new, 1, hyper.r2) - spike_slab_logprior(
            phi_old, 1, hyper.r2
        )
    lam_new = lam_col + np.asarray(phi_new - phi_old)[..., None] * x_col
    gamma_new = np.exp(lam_new)
    ok = np.isfinite(gamma_new.sum(axis=-1))
    if not ok.all():
        if gamma_new.ndim == 1:
            return -np.inf, lam_new, gamma_new, None
        ratio = np.full(ok.shape, -np.inf)
        lgam_new = np.full_like(gamma_new, np.inf)
        ratio[ok], _, _, lgam_new[ok] = pair_log_mh_ratio(
            move, logc_col[ok], gamma_col[ok], lgam_col[ok], lam_col[ok], x_col[ok],
            phi_old[ok], phi_new[ok], hyper, log_odds_on)
        return ratio, lam_new, gamma_new, lgam_new
    lgam_new = gammaln(gamma_new)
    diff = ((gamma_new - gamma_col) * logc_col).sum(axis=-1) - (
        lgam_new - lgam_col).sum(axis=-1)
    return diff + prior, lam_new, gamma_new, lgam_new


def xi_log_mh_ratio(xi, m, logml_cur, flips, log_odds_on):
    """Log MH ratio of flipping balance indicator m against the collapsed Y marginal.

    ``logml_cur`` and ``flips`` are ``model.flip_log_marginals`` of ``xi``.
    Returns (ratio, flipped indicators).
    """
    flipped = xi.copy()
    flipped[m] = 1 - flipped[m]
    prior = log_odds_on if flipped[m] else -log_odds_on
    return flips[m] - logml_cur + prior, flipped


# ---------------------------------------------------------------------------
# Block updates
# ---------------------------------------------------------------------------


def initial_state(data: Dataset, config: SamplerConfig, rng) -> ChainState:
    """Overdispersion-safe starting point: c matched to counts, sparse random supports.

    The ``lm_only`` mode draws no covariate support, only balance indicators.
    """
    n, J, P = data.n_subjects, data.n_taxa, data.n_covariates
    M = J - 1
    zeta = np.zeros((J, P), dtype=np.uint8)
    n_on = 0 if config.mode == "lm_only" else int(round(config.init_zeta_frac * J * P))
    if n_on:
        flat = rng.choice(J * P, size=n_on, replace=False)
        zeta.ravel()[flat] = 1
    phi = np.zeros((J, P))
    phi[zeta == 1] = rng.normal(0.0, 0.5, size=int(zeta.sum()))
    xi = np.zeros(M, dtype=np.uint8)
    n_bal = int(round(config.init_xi_frac * M))
    if n_bal:
        xi[rng.choice(M, size=n_bal, replace=False)] = 1
    c = data.Z.astype(float) + 0.5
    T = c.sum(axis=1)
    u = data.row_totals / T
    return ChainState(
        alpha=np.zeros(J), phi=phi, zeta=zeta, c=c, u=u, xi=xi, T=T
    )


def update_alpha(state, data, field, hyper, rng, logc, lgam):
    """Random-walk MH on every intercept; proposals are independent across taxa.

    ``logc`` and ``lgam`` are the chain's caches of log(c) and lgamma(gamma);
    accepted moves update ``field`` and ``lgam`` in place.
    """
    J = state.alpha.shape[0]
    step = rng.normal(0.0, hyper.proposal_sd, size=J)
    diff, gamma_new, lgam_new = alpha_log_mh_ratio(
        logc, field.gamma, lgam, state.alpha, step, hyper
    )
    ok = np.isfinite(diff) & (np.log(rng.uniform(size=J)) < diff)
    if np.any(ok):
        state.alpha[ok] += step[ok]
        field.lam[:, ok] += step[ok][None, :]
        field.gamma[:, ok] = gamma_new[:, ok]
        lgam[:, ok] = lgam_new[:, ok]
    return int(ok.sum())


def update_zeta_phi(state, data, field, hyper, rng, logc, lgam, log_odds_on,
                    n_between=1):
    """Between-model add/delete moves followed by a within-model refresh.

    Takes and updates the same caches as ``update_alpha``. After the scan's
    draws, the refresh scores the r-th included pair of every taxon at once:
    pairs in different taxa are independent given c.
    """
    J, P = state.zeta.shape
    counts = {"add": 0, "add_prop": 0, "delete": 0, "delete_prop": 0,
              "within": 0, "within_prop": 0}

    def try_move(move, j, p, phi_new):
        ratio, lam_new, gamma_new, lgam_new = pair_log_mh_ratio(
            move, logc[:, j], field.gamma[:, j], lgam[:, j], field.lam[:, j],
            data.X[:, p], state.phi[j, p], phi_new, hyper, log_odds_on,
        )
        counts[move + "_prop"] += 1
        if np.log(rng.uniform()) < ratio:
            state.phi[j, p] = phi_new
            state.zeta[j, p] = move != "delete"
            field.lam[:, j] = lam_new
            field.gamma[:, j] = gamma_new
            lgam[:, j] = lgam_new
            counts[move] += 1

    # an overflowing proposal is rejected by its -inf ratio
    with np.errstate(over="ignore"):
        for _ in range(n_between):
            j = int(rng.integers(J))
            p = int(rng.integers(P))
            if state.zeta[j, p]:
                try_move("delete", j, p, 0.0)
            else:
                try_move("add", j, p, rng.normal(state.phi[j, p], hyper.proposal_sd))

        taxa, covs = np.argwhere(state.zeta == 1).T
        draws = [(rng.standard_normal(), rng.random()) for _ in taxa]
        z, u = np.array(draws).reshape(-1, 2).T
        phi_new = state.phi[taxa, covs] + hyper.proposal_sd * z
        log_u = np.log(u)
        rank = np.arange(len(taxa)) - np.searchsorted(taxa, taxa)
        for r in range(rank.max(initial=-1) + 1):
            k = np.flatnonzero(rank == r)
            j, p = taxa[k], covs[k]
            # a.T[j] is C-contiguous: each taxon's N values are one row
            ratio, lam_new, gamma_new, lgam_new = pair_log_mh_ratio(
                "within", logc.T[j], field.gamma.T[j], lgam.T[j], field.lam.T[j],
                data.X.T[p], state.phi[j, p], phi_new[k], hyper, log_odds_on)
            ok = log_u[k] < ratio
            j = j[ok]
            state.phi[j, p[ok]] = phi_new[k[ok]]
            field.lam[:, j], field.gamma[:, j] = lam_new[ok].T, gamma_new[ok].T
            lgam[:, j] = lgam_new[ok].T
            counts["within"] += len(j)
        counts["within_prop"] = len(taxa)
    return counts


def update_c(state, data, field, rng):
    """Exact Gibbs draw: c_ij ~ Gamma(z_ij + gamma_ij, u_i + 1)."""
    shape = data.Z + field.gamma
    if np.any(shape <= 0):
        raise ValueError("nonpositive gamma shape in c update")
    state.c = np.maximum(
        rng.gamma(shape, 1.0 / (state.u + 1.0)[:, None]), _C_FLOOR
    )
    state.refresh_totals()


def update_u(state, data, rng):
    """Exact Gibbs draw: u_i ~ Gamma(zdot_i, T_i)."""
    if np.any(state.T <= 0):
        raise ValueError("nonpositive T in u update")
    state.u = rng.gamma(data.row_totals.astype(float), 1.0 / state.T)


def update_xi(state, gram, hyper, rng, logml_cur, flips, log_odds_on, n_moves=1):
    """Add/delete flips of balance indicators against the collapsed Y marginal.

    ``logml_cur`` and ``flips`` are the current selection's
    ``model.flip_log_marginals`` on ``gram``, rescored after each accepted
    flip; returns the number of accepted flips and the final two.
    """
    M = state.xi.shape[0]
    accepted = 0
    for _ in range(n_moves):
        m = int(rng.integers(M))
        ratio, flipped = xi_log_mh_ratio(state.xi, m, logml_cur, flips, log_odds_on)
        if np.log(rng.uniform()) < ratio:
            state.xi = flipped
            logml_cur, flips = flip_log_marginals(gram, flipped, hyper)
            accepted += 1
    return accepted, logml_cur, flips


# ---------------------------------------------------------------------------
# Full chain
# ---------------------------------------------------------------------------


def _log_posterior(state, data, field, hyper, lgam, logc, logml, mode,
                   zeta_prior, xi_prior):
    lp = 0.0
    if mode != "lm_only":
        lp += np.sum((data.Z + field.gamma - 1.0) * logc) - state.c.sum() - lgam.sum()
        lp += np.sum((data.row_totals - 1.0) * np.log(state.u)) - np.sum(
            state.T * state.u
        )
        lp += -0.5 * np.sum(state.alpha**2) / hyper.sigma_alpha2 - 0.5 * len(
            state.alpha
        ) * np.log(2.0 * np.pi * hyper.sigma_alpha2)
        n_on = int(state.zeta.sum())
        on = state.phi[state.zeta == 1]
        lp += -0.5 * np.sum(on**2) / hyper.r2 - 0.5 * n_on * np.log(
            2.0 * np.pi * hyper.r2
        )
        lp += n_on * zeta_prior[0]
        lp += (state.zeta.size - n_on) * zeta_prior[1]
    if mode != "dm_only":
        lp += logml
        n_bal = int(state.xi.sum())
        lp += n_bal * xi_prior[0]
        lp += (state.xi.size - n_bal) * xi_prior[1]
    return lp


def run_chain(
    data: Dataset,
    hyper: Hyperparams,
    spec: PartitionSpec,
    config: SamplerConfig,
    balances: np.ndarray | None = None,
) -> ChainOutput:
    """Run the full MH-within-Gibbs sweep and return thinned post-burn-in samples.

    ``balances`` is the fixed, column-standardized N x M balance matrix of the
    ``lm_only`` mode, which samples ``xi`` alone and returns empty count
    blocks. It is required in that mode and rejected in the others, which
    rebuild the balances from the sampled composition every iteration.
    Bitwise reproducible given (seed, config, data) on a fixed platform.
    """
    if spec.n_taxa != data.n_taxa:
        raise ValueError("partition spec and data disagree on number of taxa")
    mode = config.mode
    if (mode == "lm_only") != (balances is not None):
        raise ValueError("balances are required in lm_only mode and rejected in "
                         f"the others (mode {mode!r})")
    rng = np.random.default_rng(config.seed)
    n, J, P = data.n_subjects, data.n_taxa, data.n_covariates
    M = spec.M
    if balances is not None and np.shape(balances) != (n, M):
        raise ValueError(f"balances must be {n} x {M}, got {np.shape(balances)}")
    state = initial_state(data, config, rng)
    field = build_gamma(state.alpha, state.phi, state.zeta, data.X)
    lgam = gammaln(field.gamma)
    logc = np.log(state.c)
    contrast = spec.contrast_matrix()

    S = config.n_retained
    # lm_only keeps no count samples: its count blocks have zero width
    nk, Jk, Pk = (0, 0, 0) if mode == "lm_only" else (n, J, P)
    out_alpha = np.empty((S, Jk))
    out_phi = np.empty((S, Jk, Pk))
    out_zeta = np.empty((S, Jk, Pk), dtype=np.uint8)
    out_xi = np.empty((S, M), dtype=np.uint8)
    out_psi = np.empty((S, nk, Jk))
    out_u = np.empty((S, nk))
    log_post = np.empty(config.iterations)
    moves = ("xi",) if mode == "lm_only" else ("alpha", "add", "delete", "within", "xi")
    accept = {k: [0, 0] for k in moves}

    s = 0
    zeta_prior = [beta_binomial_logprior(v, hyper.a, hyper.b) for v in (1, 0)]  # in, out
    xi_prior = [beta_binomial_logprior(v, hyper.a_m, hyper.b_m) for v in (1, 0)]
    B_std, logml = balances, 0.0
    for it in range(config.iterations):
        if mode != "lm_only":
            acc = update_alpha(state, data, field, hyper, rng, logc=logc, lgam=lgam)
            accept["alpha"][0] += acc
            accept["alpha"][1] += J
            zc = update_zeta_phi(
                state, data, field, hyper, rng,
                logc=logc, lgam=lgam, log_odds_on=zeta_prior[0] - zeta_prior[1],
                n_between=config.between_moves_per_iter,
            )
            for k in ("add", "delete", "within"):
                accept[k][0] += zc[k]
                accept[k][1] += zc[k + "_prop"]
            update_c(state, data, field, rng)
            logc = np.log(state.c)
            update_u(state, data, rng)
        if mode != "dm_only":
            if balances is None:
                B_std, _, _ = standardize_columns(
                    log_balances(state.psi, contrast, hyper.delta))
            if balances is None or it == 0:  # fixed balances: the scores carry over
                gram = marginal_gram(data.Y, B_std, hyper)
                logml, flips = flip_log_marginals(gram, state.xi, hyper)
            acc, logml, flips = update_xi(
                state, gram, hyper, rng, logml, flips, xi_prior[0] - xi_prior[1],
                n_moves=config.between_moves_per_iter,
            )
            accept["xi"][0] += acc
            accept["xi"][1] += config.between_moves_per_iter

        lp = _log_posterior(state, data, field, hyper, lgam, logc, logml, mode,
                            zeta_prior, xi_prior)
        if not np.isfinite(lp):
            raise RuntimeError(f"non-finite log posterior at iteration {it}")
        log_post[it] = lp

        t = it + 1
        if t > config.burn_in and (t - config.burn_in) % config.thin == 0:
            if mode != "lm_only":
                out_alpha[s] = state.alpha
                out_phi[s] = state.phi
                out_zeta[s] = state.zeta
                out_psi[s] = state.psi
                out_u[s] = state.u
            out_xi[s] = state.xi
            s += 1

    assert s == S
    return ChainOutput(
        alpha=out_alpha,
        phi=out_phi,
        zeta=out_zeta,
        xi=out_xi,
        psi=out_psi,
        u=out_u,
        log_posterior=log_post,
        accept={k: tuple(v) for k, v in accept.items()},
        mppi_zeta=mppi(out_zeta),
        mppi_xi=mppi(out_xi),
        config=config,
    )


def mppi(indicator_samples) -> np.ndarray:
    """Marginal posterior probability of inclusion: entrywise mean of 0/1 samples."""
    arr = np.asarray(indicator_samples)
    if arr.shape[0] < 1:
        raise ValueError("need at least one retained sample")
    return arr.mean(axis=0)
