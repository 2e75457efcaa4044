"""Metropolis-Hastings-within-Gibbs sampler for the joint model.

One iteration sweeps, in order: taxon intercepts ``alpha``; the
covariate-inclusion pairs ``(zeta, phi)`` (between-model add/delete moves
followed by a within-model refresh of every included coefficient); the
latent ``c`` and ``u`` blocks via exact Gibbs draws; and the
balance-inclusion indicators ``xi``, scored on balances rebuilt from the
new composition. The ``dm_only`` mode skips the response block. The
``lm_only`` mode runs the ``xi`` block alone on a fixed balance matrix given
by the caller (stage two of the two-step comparator), standardized once.

All acceptance ratios are exact because the augmented log likelihood drops
only terms constant in (c, gamma, u): ``log Gamma(zdot)`` and the multinomial
coefficient. ``ChainState`` carries the sweep: each block update moves it in
place, adds its (accepted, proposed) counts to the chain's ``accept`` table
and returns None. What a chain keeps of its retained samples, mostly sums
taken in sample order and changes between samples, is set out on
``ChainOutput``.

Draw order is part of the contract: the batched blocks take every draw in the
order of a one-move-at-a-time scan, so chains stay bitwise identical to it.
A between-model move draws its taxon, its covariate, an add's proposal and
its uniform; the within-model refresh a standard normal then a uniform per
included pair, in ``np.argwhere`` order; an xi move its target then its
uniform. Each block draws before it scores. The covariate and xi blocks
then scan their moves in order: each pass scores every move not yet decided
against the current state in one kernel call and applies the first
acceptance (per taxon for the covariate moves). Moving a draw changes every
chain and the cached Part B numbers, and must bump ``STREAM_VERSION``, which
keys that cache.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

# gammaln comes from .model, which imports scipy on its first call only.
from .model import (
    Dataset,
    Hyperparams,
    PartitionSpec,
    beta_binomial_logprior,
    build_gamma,
    flip_log_marginals,
    gammaln,
    log_balances,
    marginal_gram,
    ridge_fit,
    spike_slab_logprior,
    standardize_columns,
)
# perfbench/tracer.py patches these names on this module, so they stay here.
from .model import log_marginal_y, zero_replace  # noqa: F401

__all__ = [
    "SamplerConfig",
    "ChainOutput",
    "ChainState",
    "run_chain",
    "indicator_changes",
    "replay_changes",
    "change_counts",
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

STREAM_VERSION = 1  # bump on any change to the draws or their order
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
    """What a chain keeps of its thinned post-burn-in samples, and the
    summaries derived from them.

    - ``zeta_changes`` and ``xi_changes``: the S x J x P ``zeta = phi != 0``
      of shape ``phi_shape`` and the S x M ``xi`` of shape ``xi_shape``, as
      their changes between samples (``indicator_changes``). ``zeta`` and
      ``xi`` replay them, and the MPPIs are counted from them.
    - ``alpha_mean`` and ``phi_mean``: the posterior means of the intercepts
      and of ``phi`` at the pairs some sample included (``mppi_zeta > 0``), in
      C order; the mean of ``phi`` is 0 at every other pair.
    - ``fits`` and ``predictor``, in a chain that selects balances (``joint``
      or ``lm_only``): each sample's ridge fit on its selected standardized
      balances (``model.ridge_fit``) gives row s of ``fits``, its N fitted
      values, and adds ``beta / sd`` into ``W = predictor[:-1]`` at its
      selected columns and ``(mean / sd) @ beta`` into ``c = predictor[-1]``,
      so the samples' summed prediction at raw balances ``B`` is
      ``B @ W - c``. A ``dm_only`` chain keeps both empty.
    - ``y``, in a chain that selects balances: the N centred training
      responses it was fitted to, which the intercept's posterior mean and
      the pointwise log-likelihood read; empty in ``dm_only``.
    - ``psi_mean``: in ``dm_only``, the mean of the retained compositions,
      held in memory only; no chain keeps composition samples.
    """

    alpha_mean: np.ndarray  # J
    zeta_changes: np.ndarray  # int64 changes of the S x J x P zeta
    phi_mean: np.ndarray  # mean phi at the pairs with mppi_zeta > 0
    phi_shape: tuple  # (S, J, P); (S, 0, 0) in lm_only
    xi_changes: np.ndarray  # int64 changes of the S x M xi
    xi_shape: tuple  # (S, M); (S, 0) in dm_only
    predictor: np.ndarray  # W then c: M + 1, 0 in dm_only
    fits: np.ndarray  # S x N, S x 0 in dm_only
    y: np.ndarray  # N, 0 in dm_only
    log_posterior: np.ndarray  # full pre-thinning trace, length iterations
    accept: dict  # per-move-type (accepted, proposed) counters
    config: SamplerConfig
    psi_mean: np.ndarray | None = None  # N x J in dm_only, None otherwise
    mppi_zeta: np.ndarray = field(init=False)  # J x P
    mppi_xi: np.ndarray = field(init=False)  # M

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one retained sample")
        self.mppi_zeta = change_counts(self.zeta_changes, self.phi_shape) / self.n_samples
        self.mppi_xi = change_counts(self.xi_changes, self.xi_shape) / self.n_samples

    @property
    def n_samples(self) -> int:
        return self.phi_shape[0]

    @property
    def psi(self) -> np.ndarray:
        """An empty S x 0 x 0 composition block: no chain keeps compositions.
        Only the benchmark's fit check (``perfbench/run.py`` ``check_fit``)
        reads it; it goes when that check is retargeted (ROADMAP item 1)."""
        return np.empty((self.n_samples, 0, 0))

    @property
    def zeta(self) -> np.ndarray:
        """S x J x P uint8 inclusion indicators, ``phi != 0``."""
        return replay_changes(self.zeta_changes, self.phi_shape)

    @property
    def xi(self) -> np.ndarray:
        """S x M uint8 balance-inclusion indicators."""
        return replay_changes(self.xi_changes, self.xi_shape)


@dataclass
class ChainState:
    """Current values of the sampled blocks and of the caches built on them.

    A covariate-taxon pair is included exactly when its ``phi`` is non-zero
    (the spike is a point mass at 0), so no separate indicator is kept. The
    block that moves an input keeps its caches equal to their recomputation:
    the row sums ``T`` of ``c`` and ``logc = log(c)``; the N x J ``lam =
    alpha + X phi'``, ``gamma = exp(lam)`` and ``lgam = lgamma(gamma)``, built
    here from the covariates ``X``; and the xi block's ``gram``, a
    ``marginal_gram`` of the current balances, with ``(logml, flips) =
    flip_log_marginals(gram, xi)``. ``psi`` is the derived composition
    ``c / T`` and is never stored.
    """

    alpha: np.ndarray
    phi: np.ndarray
    c: np.ndarray
    u: np.ndarray
    xi: np.ndarray
    X: InitVar[np.ndarray]
    T: np.ndarray = field(init=False)
    logc: np.ndarray = field(init=False)
    lam: np.ndarray = field(init=False)
    gamma: np.ndarray = field(init=False)
    lgam: np.ndarray = field(init=False)
    gram: tuple | None = field(init=False, default=None)
    logml: float = field(init=False, default=0.0)
    flips: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self, X):
        self.T = self.c.sum(axis=1)
        self.lam, self.gamma = build_gamma(self.alpha, self.phi, X)
        self.lgam = gammaln(self.gamma)
        self.logc = np.log(self.c)

    @property
    def psi(self) -> np.ndarray:
        return self.c / self.T[:, None]


# ---------------------------------------------------------------------------
# MH log acceptance ratios (single-move, exact). The block updates below take
# every ratio from these kernels, on the state's cached N x J arrays
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


def pair_log_mh_ratio(logc_col, gamma_col, lgam_col, lam_col, x_col, phi_old, phi_new,
                      hyper: Hyperparams, log_odds_on):
    """Log MH ratio of one covariate-taxon pair move on taxon column j.

    The spike is a point mass at 0, so ``phi_old`` and ``phi_new`` give the
    move: an add (0 -> phi_new), a delete (phi_old -> 0) or a within-model
    move (phi_old -> phi_new). ``x_col`` is the covariate column and
    ``log_odds_on`` the prior log odds of inclusion. Returns (ratio, proposed
    lam, gamma and lgamma columns); a proposal whose gamma overflows has ratio
    -inf, so it is rejected. Call under
    ``np.errstate(over="ignore", invalid="ignore")``, as ``update_zeta_phi``
    does, to keep that overflow and the inf - inf it leaves silent.

    It also scores K pairs at once (C-contiguous K x N rows, length-K phi),
    each row with the bits of the one-pair call, whatever its move.
    """
    on_old, on_new = np.asarray(phi_old) != 0, np.asarray(phi_new) != 0
    # a within move adds log_odds_on * 0: its prior is the slab difference's bits
    prior = (np.where(on_new, spike_slab_logprior(phi_new, 1, hyper.r2), 0.0)
             - np.where(on_old, spike_slab_logprior(phi_old, 1, hyper.r2), 0.0)
             + log_odds_on * np.subtract(on_new, on_old, dtype=float))
    lam_new = lam_col + np.asarray(phi_new - phi_old)[..., None] * x_col
    gamma_new = np.exp(lam_new)
    lgam_new = gammaln(gamma_new)
    diff = ((gamma_new - gamma_col) * logc_col).sum(axis=-1) - (
        lgam_new - lgam_col).sum(axis=-1)
    ratio = np.where(np.isfinite(gamma_new.sum(axis=-1)), diff + prior, -np.inf)
    return ratio, lam_new, gamma_new, lgam_new


def xi_log_mh_ratio(xi, m, logml_cur, flips, log_odds_on):
    """Log MH ratios of flipping balance indicators m against the collapsed Y marginal.

    ``m`` is an index or an array of them, each scored as the only flip from
    ``xi``; ``logml_cur`` and ``flips`` are ``model.flip_log_marginals`` of
    ``xi``. Returns ratios shaped like ``m``.
    """
    prior = np.where(xi[m] == 1, -log_odds_on, log_odds_on)  # delete or add
    return flips[m] - logml_cur + prior


# ---------------------------------------------------------------------------
# Block updates
# ---------------------------------------------------------------------------


def initial_state(data: Dataset, config: SamplerConfig, rng) -> ChainState:
    """Overdispersion-safe starting point: c matched to counts, sparse random supports.

    The ``lm_only`` mode draws no covariate support, only balance indicators.
    The ``dm_only`` mode still draws them, though it never samples ``xi``: that
    draw keeps its stream the joint chain's, and goes at the next
    ``STREAM_VERSION`` bump.
    """
    n, J, P = data.n_subjects, data.n_taxa, data.n_covariates
    M = J - 1
    phi = np.zeros((J, P))
    n_on = 0 if config.mode == "lm_only" else int(round(config.init_zeta_frac * J * P))
    if n_on:
        flat = np.sort(rng.choice(J * P, size=n_on, replace=False))
        phi.ravel()[flat] = rng.normal(0.0, 0.5, size=n_on)
    xi = np.zeros(M, dtype=np.uint8)
    n_bal = int(round(config.init_xi_frac * M))
    if n_bal:
        xi[rng.choice(M, size=n_bal, replace=False)] = 1
    c = data.Z.astype(float) + 0.5
    u = data.row_totals / c.sum(axis=1)
    return ChainState(alpha=np.zeros(J), phi=phi, c=c, u=u, xi=xi, X=data.X)


def update_alpha(state, hyper, rng, accept):
    """Random-walk MH on every intercept; proposals are independent across taxa."""
    J = state.alpha.shape[0]
    step = rng.normal(0.0, hyper.proposal_sd, size=J)
    diff, gamma_new, lgam_new = alpha_log_mh_ratio(state.logc, state.gamma, state.lgam,
                                                   state.alpha, step, hyper)
    ok = np.isfinite(diff) & (np.log(rng.uniform(size=J)) < diff)
    if np.any(ok):
        state.alpha[ok] += step[ok]
        state.lam[:, ok] += step[ok][None, :]
        state.gamma[:, ok] = gamma_new[:, ok]
        state.lgam[:, ok] = lgam_new[:, ok]
    accept["alpha"][0] += int(ok.sum())
    accept["alpha"][1] += J


def update_zeta_phi(state, data, hyper, rng, log_odds_on, accept, n_between=1):
    """Between-model add/delete moves followed by a within-model refresh.

    A pair is included when its ``phi`` is non-zero. Each between-model move
    draws its taxon, its covariate, for an add its proposal, and its uniform;
    a batch of moves ends before a pair it already holds, whose move type
    waits on the earlier move. The refresh then draws a standard normal and a
    uniform per included pair, in ``np.argwhere`` order. Both score their
    moves in the order drawn with the first-acceptance scan of ``update_xi``,
    taken per taxon since pairs in different taxa are independent given c:
    each pass scores every move not yet decided in one kernel call; in each
    taxon the moves before its first acceptance are rejected and that move is
    applied, and the taxon's later moves wait for the next pass.
    """
    J, P = state.phi.shape

    def scan(moves, j, p, phi_new, u):
        """Apply the moves on pairs (j, p), all distinct, and count them in accept."""
        accepted = np.zeros(len(j), dtype=bool)
        todo, log_u = np.arange(len(j)), np.log(u)
        while todo.size:
            jj, pp = j[todo], p[todo]
            # a.T[jj] is C-contiguous: each taxon's N values are one row
            ratio, lam_new, gamma_new, lgam_new = pair_log_mh_ratio(
                state.logc.T[jj], state.gamma.T[jj], state.lgam.T[jj], state.lam.T[jj],
                data.X.T[pp], state.phi[jj, pp], phi_new[todo], hyper, log_odds_on)
            hits = np.flatnonzero(log_u[todo] < ratio)
            _, first = np.unique(jj[hits], return_index=True)
            k = hits[first]  # each taxon's first acceptance
            jk = jj[k]
            accepted[todo[k]] = True
            state.phi[jk, pp[k]] = phi_new[todo[k]]
            state.lam[:, jk], state.gamma[:, jk] = lam_new[k].T, gamma_new[k].T
            state.lgam[:, jk] = lgam_new[k].T
            # a taxon's moves after its acceptance are scored again
            cut = np.full(J, len(todo))
            cut[jk] = k
            todo = todo[np.arange(len(todo)) > cut[jj]]
        for move in set(moves.tolist()):
            accept[move][0] += int(np.sum(accepted[moves == move]))
            accept[move][1] += int(np.sum(moves == move))

    # an overflowing proposal is rejected by its -inf ratio
    with np.errstate(over="ignore", invalid="ignore"):
        batch, pairs = [], set()  # moves (move, j, p, phi_new, u) not yet scored
        for _ in range(n_between):
            j = int(rng.integers(J))
            p = int(rng.integers(P))
            if (j, p) in pairs:
                scan(*map(np.array, zip(*batch)))
                batch, pairs = [], set()
            pairs.add((j, p))
            if state.phi[j, p]:
                batch.append(("delete", j, p, 0.0, rng.random()))
            else:
                phi_new = rng.normal(0.0, hyper.proposal_sd)
                batch.append(("add", j, p, phi_new, rng.random()))
        if batch:
            scan(*map(np.array, zip(*batch)))

        taxa, covs = np.argwhere(state.phi != 0).T
        draws = [(rng.standard_normal(), rng.random()) for _ in taxa]
        z, u = np.array(draws).reshape(-1, 2).T
        scan(np.full(len(taxa), "within"), taxa, covs,
             state.phi[taxa, covs] + hyper.proposal_sd * z, u)


def update_c(state, data, rng):
    """Exact Gibbs draw: c_ij ~ Gamma(z_ij + gamma_ij, u_i + 1)."""
    shape = data.Z + state.gamma
    if np.any(shape <= 0):
        raise ValueError("nonpositive gamma shape in c update")
    # numpy's gamma(shape, scale) is scale * standard_gamma(shape): the same
    # bits and stream, without the broadcast of scale to N x J
    state.c = np.maximum(rng.standard_gamma(shape) * (1.0 / (state.u + 1.0))[:, None],
                         _C_FLOOR)
    state.T = state.c.sum(axis=1)
    state.logc = np.log(state.c)


def update_u(state, data, rng):
    """Exact Gibbs draw: u_i ~ Gamma(zdot_i, T_i)."""
    if np.any(state.T <= 0):
        raise ValueError("nonpositive T in u update")
    state.u = rng.gamma(data.row_totals.astype(float), 1.0 / state.T)


def update_xi(state, hyper, rng, log_odds_on, accept, n_moves=1):
    """Add/delete flips of balance indicators against the collapsed Y marginal.

    Draws a target and a uniform per move, then scans the moves in order: all
    moves not yet taken are scored against the current selection at once, the
    first that accepts flips it, and the scan resumes after it. The state's
    ``logml`` and ``flips`` are rescored on its ``gram`` only after an
    accepted flip.
    """
    M = state.xi.shape[0]
    m, u = np.array([(rng.integers(M), rng.random()) for _ in range(n_moves)]).T
    m, log_u = m.astype(np.int64), np.log(u)
    accept["xi"][1] += n_moves
    start = 0
    while True:
        # every move up to the first acceptance is scored against one state
        ratio = xi_log_mh_ratio(state.xi, m[start:], state.logml, state.flips,
                                log_odds_on)
        hits = np.flatnonzero(log_u[start:] < ratio)
        if not hits.size:
            return
        start += int(hits[0])
        state.xi[m[start]] ^= 1
        state.logml, state.flips = flip_log_marginals(state.gram, state.xi, hyper)
        accept["xi"][0] += 1
        start += 1


# ---------------------------------------------------------------------------
# Full chain
# ---------------------------------------------------------------------------


def _log_posterior(state, data, hyper, mode, zeta_prior, xi_prior):
    lp = 0.0
    if mode != "lm_only":
        lp += (np.sum((data.Z + state.gamma - 1.0) * state.logc) - state.c.sum()
               - state.lgam.sum())
        lp += np.sum((data.row_totals - 1.0) * np.log(state.u)) - np.sum(
            state.T * state.u
        )
        lp += -0.5 * np.sum(state.alpha**2) / hyper.sigma_alpha2 - 0.5 * len(
            state.alpha
        ) * np.log(2.0 * np.pi * hyper.sigma_alpha2)
        on = state.phi[state.phi != 0]
        n_on = on.size
        lp += -0.5 * np.sum(on**2) / hyper.r2 - 0.5 * n_on * np.log(
            2.0 * np.pi * hyper.r2
        )
        lp += n_on * zeta_prior[0]
        lp += (state.phi.size - n_on) * zeta_prior[1]
    if mode != "dm_only":
        lp += state.logml
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

    ``balances`` is the fixed raw N x M balance matrix of the ``lm_only``
    mode, which standardizes its columns once, samples ``xi`` alone and
    returns empty count blocks. It is required in that mode and rejected in
    the others, which rebuild the balances from the sampled composition every
    iteration.
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
    # only a joint chain rebuilds balances from its compositions
    contrast = spec.contrast_matrix() if mode == "joint" else None

    S = config.n_retained
    # lm_only keeps no count samples and dm_only no balance samples: the
    # blocks a mode does not keep have zero width. dm_only sums compositions
    Jk, Pk = (0, 0) if mode == "lm_only" else (J, P)
    Mk = 0 if mode == "dm_only" else M
    # the count blocks are read only through their means: sum them in sample
    # order, as mean(axis=0) over the stacked samples adds them
    alpha_sum, phi_sum = np.zeros(Jk), np.zeros((Jk, Pk))
    # the indicators are kept as their changes from the previous sample
    on, sel = np.zeros((Jk, Pk), dtype=bool), np.zeros(Mk, dtype=bool)
    zeta_changes, xi_changes = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    included = on.copy()  # pairs some sample included
    psi_sum = np.zeros((n, J)) if mode == "dm_only" else None
    # the ridge fits' linear predictor W, c, summed in sample order
    predictor = np.zeros(0 if mode == "dm_only" else M + 1)
    out_fits = np.empty((S, 0 if mode == "dm_only" else n))
    log_post = np.empty(config.iterations)
    moves = {"joint": ("alpha", "add", "delete", "within", "xi"),
             "dm_only": ("alpha", "add", "delete", "within"),
             "lm_only": ("xi",)}[mode]
    accept = {k: [0, 0] for k in moves}  # move -> [accepted, proposed]

    s = 0
    zeta_prior = [beta_binomial_logprior(v, hyper.a, hyper.b) for v in (1, 0)]  # in, out
    xi_prior = [beta_binomial_logprior(v, hyper.a_m, hyper.b_m) for v in (1, 0)]
    if balances is not None:
        B_std, means, sds = standardize_columns(balances)
    n_moves = config.between_moves_per_iter
    for it in range(config.iterations):
        if mode != "lm_only":
            update_alpha(state, hyper, rng, accept)
            update_zeta_phi(state, data, hyper, rng, zeta_prior[0] - zeta_prior[1],
                            accept, n_between=n_moves)
            update_c(state, data, rng)
            update_u(state, data, rng)
        if mode != "dm_only":
            if balances is None:
                B_std, means, sds = standardize_columns(
                    log_balances(state.psi, contrast, hyper.delta))
            if balances is None or it == 0:  # fixed balances: the scores carry over
                state.gram = marginal_gram(data.Y, B_std, hyper)
                state.logml, state.flips = flip_log_marginals(state.gram, state.xi, hyper)
            update_xi(state, hyper, rng, xi_prior[0] - xi_prior[1], accept, n_moves=n_moves)

        lp = _log_posterior(state, data, hyper, mode, zeta_prior, xi_prior)
        if not np.isfinite(lp):
            raise RuntimeError(f"non-finite log posterior at iteration {it}")
        log_post[it] = lp

        t = it + 1
        if t > config.burn_in and (t - config.burn_in) % config.thin == 0:
            if mode != "lm_only":
                alpha_sum += state.alpha
                phi_sum += state.phi
                on, was = state.phi != 0, on
                included |= on
                zeta_changes.append(indicator_changes(was, on, s))
            if mode == "dm_only":
                psi_sum += state.psi
            else:
                sel, was = state.xi == 1, sel
                xi_changes.append(indicator_changes(was, sel, s))
                beta, out_fits[s] = ridge_fit(B_std[:, sel], data.Y, hyper)
                predictor[:-1][sel] += beta / sds[sel]
                predictor[-1] += (means[sel] / sds[sel]) @ beta
            s += 1

    assert s == S
    return ChainOutput(
        alpha_mean=alpha_sum / S,
        zeta_changes=np.concatenate(zeta_changes),
        phi_mean=(phi_sum / S)[included],  # mppi_zeta > 0
        phi_shape=(S, Jk, Pk),
        xi_changes=np.concatenate(xi_changes),
        xi_shape=(S, Mk),
        predictor=predictor,
        fits=out_fits,
        y=data.Y[:0] if mode == "dm_only" else data.Y,
        log_posterior=log_post,
        accept={k: tuple(v) for k, v in accept.items()},
        config=config,
        psi_mean=None if psi_sum is None else psi_sum / S,
    )


def indicator_changes(prev, now, s) -> np.ndarray:
    """Sample s's entries of a change block: the ascending flat indices
    ``s*K + k`` of the K indicators at which ``now`` differs from ``prev``,
    sample s - 1's (all zeros for s = 0)."""
    return np.flatnonzero(now != prev) + s * now.size


def replay_changes(changes, shape) -> np.ndarray:
    """The uint8 indicator block of ``shape`` (samples first) whose change
    block is ``changes``."""
    rows = np.zeros(shape, dtype=np.uint8)
    rows.ravel()[changes] = 1
    # each sample is the one before with its changes flipped; in place
    np.bitwise_xor.accumulate(rows, axis=0, out=rows)
    return rows


def change_counts(changes, shape) -> np.ndarray:
    """Int64 counts, shaped ``shape[1:]``, of the samples whose indicator is 1,
    from the change block of the indicator block of ``shape``.

    Every indicator starts at 0, so its changes alternate on and off: an
    indicator turned on at sample s counts S - s samples, and one turned off
    there takes them back."""
    S, K = shape[0], int(np.prod(shape[1:]))
    s, k = np.divmod(changes, K) if K else (changes, changes)
    order = np.argsort(k, kind="stable")  # each indicator's changes in sample order
    s, k = s[order], k[order]
    nth = np.arange(k.size) - np.searchsorted(k, k)  # 0 for an indicator's first change
    counts = np.zeros(K, dtype=np.int64)
    np.add.at(counts, k, np.where(nth % 2 == 0, S - s, s - S))
    return counts.reshape(shape[1:])

