import tracemalloc
import warnings
from copy import deepcopy
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln

from dmjoint import sampler
from dmjoint.model import (
    Dataset,
    Hyperparams,
    beta_binomial_logprior,
    build_gamma,
    flip_log_marginals,
    log_marginal_y,
    marginal_gram,
    ridge_fit,
    sbp_pivot,
    spike_slab_logprior,
)
from dmjoint.predict import (
    estimate_lambda_test,
    estimate_psi_test,
    fitted_y,
    pointwise_loglik,
    predict_y,
)
from dmjoint.prep import preprocess, preprocess_test
from dmjoint.sampler import (
    STREAM_VERSION,
    ChainOutput,
    ChainState,
    SamplerConfig,
    alpha_log_mh_ratio,
    change_counts,
    initial_state,
    pair_log_mh_ratio,
    replay_changes,
    run_chain,
    update_c,
    update_u,
    update_xi,
    update_zeta_phi,
    xi_log_mh_ratio,
)
from dmjoint.simulate import SimConfig, gen_replicate, replicate_rng
from oracles import (
    assert_matches_reference,
    change_block,
    log_augmented_dm,
    one_sample_at_a_time,
)


def xi_only_inputs(Y, B):
    """A minimal Dataset around Y, and a partition with as many balances as B has
    columns, for run_chain(mode="lm_only", balances=B)."""
    n, M = B.shape
    data = Dataset(Y=Y, Z=np.ones((n, M + 1), dtype=int), X=np.zeros((n, 1)))
    return data, sbp_pivot(M + 1)


def small_fixture(seed=0, **kw):
    cfg = SimConfig(N=25, P=4, J=8, n_true_cov=2, n_true_bal=2,
                    zdot_low=200, zdot_high=400, seed=seed, **kw)
    train, test, truth = gen_replicate(cfg, replicate_rng(seed, 0))
    train, stats = preprocess(train)
    return train, preprocess_test(test, stats), truth


# ---------------------------------------------------------------------------
# MH ratio correctness and reversibility
# ---------------------------------------------------------------------------


def column_caches(c, lam):
    """The chain's cached (logc, gamma, lgam) for one taxon column."""
    gamma = np.exp(lam)
    return np.log(c), gamma, gammaln(gamma)


def log_odds_on(hyper):
    return beta_binomial_logprior(1, hyper.a, hyper.b) - beta_binomial_logprior(
        0, hyper.a, hyper.b)


def xi_log_odds_on(hyper):
    return beta_binomial_logprior(1, hyper.a_m, hyper.b_m) - beta_binomial_logprior(
        0, hyper.a_m, hyper.b_m)


def test_alpha_ratio_matches_augmented_likelihood():
    # 2-taxon, 1-subject fixture: the ratio must equal the difference of the
    # full augmented log density plus the intercept prior difference
    hyper = Hyperparams()
    z = np.array([3, 1])
    c = np.array([0.8, 1.7])
    u = 0.9
    alpha = np.array([0.2, -0.4])
    a_new = 0.75
    logc, gamma, lgam = column_caches(c[None, :], alpha[None, :])
    got, _, _ = alpha_log_mh_ratio(logc, gamma, lgam, alpha,
                                   np.array([a_new - alpha[0], 0.0]), hyper)
    # oracle: whole-subject augmented density with only taxon 0 perturbed
    g_old = np.exp(alpha)
    g_new = np.exp(np.array([a_new, alpha[1]]))
    lik_old = log_augmented_dm(z, c, g_old, u)
    lik_new = log_augmented_dm(z, c, g_new, u)
    prior = (alpha[0] ** 2 - a_new**2) / (2 * hyper.sigma_alpha2)
    assert got[0] == pytest.approx(lik_new - lik_old + prior, abs=1e-10)
    assert got[1] == 0.0


def test_reversibility_alpha():
    hyper = Hyperparams()
    rng = np.random.default_rng(1)
    c = rng.gamma(2.0, size=5)
    lam = rng.normal(size=5)
    logc, gamma, lgam = column_caches(c[:, None], lam[:, None])
    step = np.array([-0.9 - 0.3])
    fwd, gamma_new, lgam_new = alpha_log_mh_ratio(logc, gamma, lgam, np.array([0.3]),
                                                  step, hyper)
    bwd, _, _ = alpha_log_mh_ratio(logc, gamma_new, lgam_new, np.array([0.3]) + step,
                                   -step, hyper)
    assert fwd[0] + bwd[0] == pytest.approx(0.0, abs=1e-10)


def pair_ratio_round_trip(c, lam, x, phi_old, phi_new, hyper):
    """Forward ratio from (lam, phi_old) and reverse ratio from the accepted state."""
    logc, gamma, lgam = column_caches(c, lam)
    odds = log_odds_on(hyper)
    fwd, lam_new, gamma_new, lgam_new = pair_log_mh_ratio(
        logc, gamma, lgam, lam, x, phi_old, phi_new, hyper, odds)
    bwd, _, _, _ = pair_log_mh_ratio(
        logc, gamma_new, lgam_new, lam_new, x, phi_new, phi_old, hyper, odds)
    return fwd, bwd


def test_reversibility_add_delete():
    hyper = Hyperparams()
    rng = np.random.default_rng(2)
    c = rng.gamma(2.0, size=6)
    lam = rng.normal(size=6)
    x = rng.normal(size=6)
    add, delete = pair_ratio_round_trip(c, lam, x, 0.0, 0.8, hyper)
    assert add + delete == pytest.approx(0.0, abs=1e-10)


def test_reversibility_within():
    hyper = Hyperparams()
    rng = np.random.default_rng(3)
    c = rng.gamma(2.0, size=6)
    lam = rng.normal(size=6)
    x = rng.normal(size=6)
    fwd, bwd = pair_ratio_round_trip(c, lam, x, 0.5, 1.2, hyper)
    assert fwd + bwd == pytest.approx(0.0, abs=1e-10)


def test_pair_ratio_rejects_overflowing_proposal():
    hyper = Hyperparams()
    c = np.array([1.0, 2.0])
    logc, gamma, lgam = column_caches(c, np.zeros(2))
    # silent inside the documented errstate, though the sums meet inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            ratio, _, _, _ = pair_log_mh_ratio(
                logc, gamma, lgam, np.zeros(2), np.array([1.0, 800.0]), 0.0, 1.0, hyper,
                log_odds_on(hyper))
    assert ratio == -np.inf


def test_pair_ratio_rows_match_one_pair_calls_bitwise():
    # K pairs at once give the bits of K one-pair calls, for each move type
    # alone and for a call that mixes them; N = 50 is long enough that the
    # summation order shows
    hyper = Hyperparams()
    rng = np.random.default_rng(14)
    K, n = 6, 50
    c = rng.gamma(2.0, size=(K, n))
    lam = rng.normal(size=(K, n))
    x = rng.normal(size=(K, n))
    logc, gamma, lgam = column_caches(c, lam)
    phi_old, phi_new = rng.normal(size=K), rng.normal(size=K)
    add, delete = np.arange(K) % 3 == 0, np.arange(K) % 3 == 1  # the rest are within
    for old, new in ((np.zeros(K), phi_new), (phi_old, np.zeros(K)), (phi_old, phi_new),
                     (np.where(add, 0.0, phi_old), np.where(delete, 0.0, phi_new))):
        rows = pair_log_mh_ratio(logc, gamma, lgam, lam, x, old, new, hyper,
                                 log_odds_on(hyper))
        for k in range(K):
            one = pair_log_mh_ratio(logc[k], gamma[k], lgam[k], lam[k], x[k],
                                    old[k], new[k], hyper, log_odds_on(hyper))
            assert np.float64(one[0]).tobytes() == rows[0][k].tobytes()
            for a, b in zip(one[1:], rows[1:]):
                assert a.tobytes() == b[k].tobytes()
    # with x = 0 the likelihood terms vanish and each row's ratio is its prior:
    # the add, delete and within formulas of the spike-and-slab, bit for bit
    odds = log_odds_on(hyper)
    ratio = pair_log_mh_ratio(logc, gamma, lgam, lam, 0 * x, old, new, hyper, odds)[0]
    slab_old, slab_new = (spike_slab_logprior(v, hyper.r2) for v in (old, new))
    want = np.where(add, odds + slab_new,
                    np.where(delete, -odds - slab_old, slab_new - slab_old))
    assert ratio.tobytes() == want.tobytes()


def test_reversibility_xi():
    hyper = Hyperparams()
    rng = np.random.default_rng(4)
    Y = rng.normal(size=8)
    B = rng.normal(size=(8, 3))
    xi = np.array([1, 0, 1], dtype=np.uint8)
    gram, odds = marginal_gram(Y, B, hyper), xi_log_odds_on(hyper)
    logml, flips = flip_log_marginals(gram, xi, hyper)
    fwd = xi_log_mh_ratio(xi, np.arange(3), logml, flips, odds)
    for m in range(3):
        flipped = xi.copy()
        flipped[m] ^= 1
        bwd = xi_log_mh_ratio(flipped, m, *flip_log_marginals(gram, flipped, hyper), odds)
        assert fwd[m] + bwd == pytest.approx(0.0, abs=1e-10)


def test_xi_ratio_on_centered_y_is_determinant_only():
    # Y = 0: the t-density kernel is 1, so the ratio reduces to the
    # normalizing-constant (determinant) part; hand-check on n=2
    hyper = Hyperparams(h_alpha0=0.5, h_beta=2.0, a0=2.0, b0=2.0)
    Y = np.zeros(2)
    B = np.array([[1.0], [-1.0]])
    xi = np.array([0], dtype=np.uint8)
    logml, flips = flip_log_marginals(marginal_gram(Y, B, hyper), xi, hyper)
    got = xi_log_mh_ratio(xi, 0, logml, flips, xi_log_odds_on(hyper))
    omega0 = np.eye(2) + hyper.h_alpha0 * np.ones((2, 2))
    omega1 = omega0 + hyper.h_beta * B @ B.T
    det_part = -0.5 * (np.linalg.slogdet(omega1)[1] - np.linalg.slogdet(omega0)[1])
    prior = beta_binomial_logprior(1, hyper.a_m, hyper.b_m) - beta_binomial_logprior(
        0, hyper.a_m, hyper.b_m)
    assert got == pytest.approx(det_part + prior, abs=1e-10)


@pytest.mark.parametrize("k", [0, 1, 8])
def test_flip_log_marginals_match_log_marginal_y(k):
    # uncentred balances, n = 6 subjects: k = 8 selected exceeds n
    rng = np.random.default_rng(12)
    hyper = Hyperparams(h_alpha0=0.7, h_beta=1.9, a0=1.5, b0=3.0)
    n, M = 6, 10
    Y = rng.normal(size=n) + 0.4
    B = rng.normal(size=(n, M)) * rng.uniform(0.5, 3.0, size=M) + rng.normal(size=M) * 2
    xi = np.zeros(M, dtype=np.uint8)
    xi[rng.choice(M, size=k, replace=False)] = 1
    logml, flips = flip_log_marginals(marginal_gram(Y, B, hyper), xi, hyper)
    assert abs(logml - log_marginal_y(Y, B[:, xi == 1], hyper)) < 1e-10
    for m in range(M):
        flipped = xi.copy()
        flipped[m] = 1 - flipped[m]
        assert abs(flips[m] - log_marginal_y(Y, B[:, flipped == 1], hyper)) < 1e-10


def pair_accept():
    """An empty accept table for the covariate moves."""
    return {move: [0, 0] for move in ("add", "delete", "within")}


class PairMove(NamedTuple):
    """One move of the reference scan, as update_zeta_phi schedules it: moves
    are scored in batches (``batch`` -1 is the within-model refresh), and a
    move is last scored in pass ``scan_pass``, the number of earlier accepted
    moves of its taxon in its batch. Each pass scores every move of the batch
    not yet decided in one kernel call."""

    move: str
    j: int
    p: int
    batch: int
    scan_pass: int
    accepted: bool
    overflowed: bool


def one_pair_move(move, j, p, phi_new, log_u, state, X, hyper, accept):
    """Reference move: score and apply one pair move; returns (accepted,
    whether its gamma overflowed)."""
    ratio, lam_new, gamma_new, lgam_new = pair_log_mh_ratio(
        state.logc[:, j], state.gamma[:, j], state.lgam[:, j], state.lam[:, j],
        X[:, p], state.phi[j, p], phi_new, hyper, log_odds_on(hyper))
    accept[move][1] += 1
    ok = bool(log_u < ratio)
    if ok:
        state.phi[j, p] = phi_new
        state.lam[:, j], state.gamma[:, j], state.lgam[:, j] = lam_new, gamma_new, lgam_new
        accept[move][0] += 1
    return ok, not np.all(np.isfinite(gamma_new))


def sequential_pair_moves(state, X, hyper, rng, n_between):
    """Reference for update_zeta_phi: one move at a time, drawing as it goes.

    Each between-model move draws its taxon and covariate, deletes the pair if
    it is included and otherwise adds it at rng.normal(0, proposal_sd), then
    draws its uniform. The refresh then moves the included pairs in
    np.argwhere order, drawing rng.normal then rng.uniform per pair. Returns
    the accept table and a PairMove per move; a batch of between-model moves
    ends before a pair it already holds.
    """
    accept = pair_accept()
    log, batch, pairs = [], 0, set()
    J, P = state.phi.shape

    def record(move, j, p, phi_new, batch):
        scan_pass = sum(m.j == j and m.batch == batch and m.accepted for m in log)
        ok, over = one_pair_move(move, j, p, phi_new, np.log(rng.uniform()), state, X,
                                 hyper, accept)
        log.append(PairMove(move, j, p, batch, scan_pass, ok, over))

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_between):
            j, p = int(rng.integers(J)), int(rng.integers(P))
            if (j, p) in pairs:
                batch, pairs = batch + 1, set()
            pairs.add((j, p))
            if state.phi[j, p]:
                record("delete", j, p, 0.0, batch)
            else:
                record("add", j, p, rng.normal(0.0, hyper.proposal_sd), batch)
        for j, p in np.argwhere(state.phi != 0):
            record("within", j, p, rng.normal(state.phi[j, p], hyper.proposal_sd), -1)
    return accept, log


def pair_move_fixture(hyper):
    """5 taxa with 0-4 included pairs each; covariate 3 takes a huge value for
    subject 0, so a proposal that moves its coefficient up overflows gamma.
    Returns the data and a factory of fresh states."""
    rng = np.random.default_rng(13)
    n, J, P = 9, 5, 4
    X = rng.normal(size=(n, P))
    X[0, 3] = 2000.0
    zeta = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1],
                     [1, 0, 0, 1]], dtype=np.uint8)
    phi = np.where(zeta == 1, rng.normal(0.0, 0.1, size=(J, P)), 0.0)
    phi[:, 3] *= 1e-3
    data = Dataset(Y=np.zeros(n), Z=rng.integers(0, 40, size=(n, J)) + 1, X=X)
    c = data.Z + rng.gamma(2.0, size=(n, J))
    alpha = rng.normal(size=J)

    def start():
        return ChainState(alpha=alpha.copy(), phi=phi.copy(), c=c.copy(), u=np.ones(n),
                          xi=np.zeros(J - 1, np.uint8), X=X)

    return data, start


def assert_same_pair_moves(data, start, hyper, seed, n_between):
    """Run update_zeta_phi and the reference from one seed; both must end in
    the same bits. Returns the reference's move log."""
    s_ref, r_ref = start(), np.random.default_rng(seed)
    accept_ref, log = sequential_pair_moves(s_ref, data.X, hyper, r_ref, n_between)
    s_new, r_new = start(), np.random.default_rng(seed)
    accept = pair_accept()
    update_zeta_phi(s_new, data, hyper, r_new, log_odds_on(hyper), accept,
                    n_between=n_between)
    assert accept == accept_ref
    for name in ("phi", "lam", "gamma", "lgam"):
        assert getattr(s_ref, name).tobytes() == getattr(s_new, name).tobytes()
    assert r_ref.bit_generator.state == r_new.bit_generator.state
    return accept_ref, log


def overflow_in_shared_call(log, within):
    """True if a within (or between-model) move overflowed in a kernel call
    shared with another taxon: a move of another taxon in its batch was still
    undecided in the pass that decided it."""
    moves = [m for m in log if (m.move == "within") == within]
    return any(m.overflowed and any(o.j != m.j and o.batch == m.batch
                                    and o.scan_pass >= m.scan_pass for o in moves)
               for m in moves)


def rescored(log, within):
    """True if a within (or between-model) move was scored again after an
    earlier move of its taxon accepted in the same scan."""
    return any(m.scan_pass > 0 for m in log if (m.move == "within") == within)


def test_within_refresh_matches_sequential_scan():
    # taxa 3 and 4 score the pair on covariate 3 in a kernel call shared with
    # other taxa; taxa 0 and 3 hold 4 and 3 pairs, so an acceptance leaves
    # later moves of the taxon to the next pass
    hyper = Hyperparams(proposal_sd=0.3)
    data, start = pair_move_fixture(hyper)
    seen = set()
    for seed in range(20):
        accept, log = assert_same_pair_moves(data, start, hyper, seed, n_between=0)
        assert accept["within"][1] == 11 and 0 < accept["within"][0] < 11
        if overflow_in_shared_call(log, within=True):
            seen.add("overflow in a shared call")
        if rescored(log, within=True):
            seen.add("rescored after an acceptance")
        if len(seen) == 2:
            break
    assert len(seen) == 2, f"the seeds covered only {seen}"


def test_between_moves_match_sequential_scan():
    # 12 moves on 20 pairs: the seeds must between them move a pair twice (an
    # accepted add, then a delete), move two pairs of one taxon in one batch,
    # score a taxon's later move again after an acceptance, and overflow a
    # proposal in a kernel call shared with other taxa
    hyper = Hyperparams(proposal_sd=0.3, a=50.0, b=1.0)
    data, start = pair_move_fixture(hyper)
    seen = set()
    for seed in range(50):
        accept, log = assert_same_pair_moves(data, start, hyper, seed, n_between=12)
        assert accept["add"][1] + accept["delete"][1] == 12
        between = [m for m in log if m.move != "within"]
        for i, m in enumerate(between):
            if m.move == "delete" and any(o.move == "add" and (o.j, o.p) == (m.j, m.p)
                                          for o in between[:i]):
                seen.add("add then delete")
            if any(o.j == m.j and o.p != m.p and o.batch == m.batch for o in between[:i]):
                seen.add("two pairs in one taxon")
        if rescored(log, within=False):
            seen.add("rescored after an acceptance")
        if overflow_in_shared_call(log, within=False):
            seen.add("overflow in a shared call")
        if len(seen) == 4:
            break
    assert len(seen) == 4, f"the seeds covered only {seen}"


def test_pair_moves_match_sequential_scan_at_paper_scale():
    # a SimConfig() replicate (N = 50, P = 50, J = 150) with about 100
    # included pairs, 10 taxa holding 4-8 of them; a few sweeps of 20
    # between-model moves, each continuing from the state the last one left
    train, _, _ = gen_replicate(SimConfig(), replicate_rng(7, 0))
    train, _ = preprocess(train)
    hyper = Hyperparams()
    rng = np.random.default_rng(16)
    J, P = train.n_taxa, train.n_covariates
    phi = np.zeros((J, P))
    for j, k in zip(range(10), rng.integers(4, 9, size=10)):
        phi[j, rng.choice(P, size=k, replace=False)] = rng.normal(0.0, 0.3, size=k)
    flat = rng.choice(np.flatnonzero(phi == 0), size=100 - np.count_nonzero(phi),
                      replace=False)
    phi.ravel()[flat] = rng.normal(0.0, 0.3, size=flat.size)
    c = train.Z + 0.5
    state = ChainState(alpha=np.zeros(J), phi=phi, c=c, u=train.row_totals / c.sum(axis=1),
                       xi=np.zeros(J - 1, np.uint8), X=train.X)
    ref, logs = deepcopy(state), []
    for sweep in range(4):
        accept_ref, log = sequential_pair_moves(ref, train.X, hyper,
                                                np.random.default_rng(sweep), 20)
        accept = pair_accept()
        update_zeta_phi(state, train, hyper, np.random.default_rng(sweep),
                        log_odds_on(hyper), accept, n_between=20)
        assert accept == accept_ref
        for name in ("phi", "lam", "gamma", "lgam"):
            assert getattr(ref, name).tobytes() == getattr(state, name).tobytes()
        logs += log
    assert rescored(logs, within=True)


def test_xi_scan_matches_sequential_moves():
    # 4 balances and 10 moves repeat targets; the seeds must between them
    # accept two moves in a row. The reference draws a target, scores it and
    # then draws its uniform, one move at a time.
    hyper = Hyperparams(a_m=1.0, b_m=1.0)
    rng = np.random.default_rng(15)
    B = rng.normal(size=(12, 4))
    Y = B[:, 0] + rng.normal(size=12)
    gram, odds, n = marginal_gram(Y - Y.mean(), B, hyper), xi_log_odds_on(hyper), 10
    xi0 = np.array([1, 0, 0, 1], dtype=np.uint8)
    back_to_back = False
    for seed in range(30):
        ref = SimpleNamespace(xi=xi0.copy())
        r_ref = np.random.default_rng(seed)
        logml, flips = flip_log_marginals(gram, ref.xi, hyper)
        accepted = []
        for i in range(n):
            m = int(r_ref.integers(4))
            ratio = xi_log_mh_ratio(ref.xi, m, logml, flips, odds)
            if np.log(r_ref.uniform()) < ratio:
                ref.xi[m] ^= 1
                logml, flips = flip_log_marginals(gram, ref.xi, hyper)
                accepted.append(i)
        state = SimpleNamespace(xi=xi0.copy(), gram=gram)
        state.logml, state.flips = flip_log_marginals(gram, xi0, hyper)
        r_new, accept = np.random.default_rng(seed), {"xi": [0, 0]}
        update_xi(state, hyper, r_new, odds, accept, n_moves=n)
        assert accept["xi"] == [len(accepted), n]
        assert np.float64(state.logml).tobytes() == np.float64(logml).tobytes()
        assert state.flips.tobytes() == flips.tobytes()
        assert state.xi.tobytes() == ref.xi.tobytes()
        assert r_ref.bit_generator.state == r_new.bit_generator.state
        back_to_back |= any(b - a == 1 for a, b in zip(accepted, accepted[1:]))
        if back_to_back:
            break
    assert back_to_back, "no seed accepted two moves in a row"


# ---------------------------------------------------------------------------
# Gibbs block moments
# ---------------------------------------------------------------------------


def fixed_gamma_state(data, gamma):
    """A state with concentrations ``gamma`` for every subject (no covariate
    enters) and c matched to the counts, as ``initial_state`` starts it."""
    c = data.Z + 0.5
    return ChainState(alpha=np.log(gamma), phi=np.zeros((data.n_taxa, 1)), c=c,
                      u=data.row_totals / c.sum(axis=1),
                      xi=np.zeros(data.n_taxa - 1, np.uint8), X=data.X)


def test_update_c_moments():
    n = 100_000
    data = Dataset(Y=np.zeros(n), Z=np.full((n, 1), 3), X=np.zeros((n, 1)))
    state = fixed_gamma_state(data, np.array([1.5]))
    state.u = np.full(n, 2.0)
    update_c(state, data, np.random.default_rng(5))
    draws = state.c[:, 0]
    assert draws.mean() == pytest.approx(4.5 / 3.0, abs=0.02)
    assert draws.var() == pytest.approx(4.5 / 9.0, abs=0.02)


def test_update_c_draws_as_numpy_gamma():
    # update_c takes rng.standard_gamma(shape) * scale, which numpy defines
    # rng.gamma(shape, scale) to be: the same c and generator state, on shapes
    # below 1 (zero counts) and above it, which numpy draws by different methods
    rng = np.random.default_rng(17)
    n, J = 50, 150
    data = Dataset(Y=np.zeros(n), Z=rng.integers(0, 3, size=(n, J)), X=np.zeros((n, 1)))
    state = fixed_gamma_state(data, rng.uniform(0.05, 2.0, size=J))
    shape = data.Z + state.gamma
    assert shape.min() < 1 < shape.max()
    r_ref, r_new = np.random.default_rng(18), np.random.default_rng(18)
    want = np.maximum(r_ref.gamma(shape, 1.0 / (state.u + 1.0)[:, None]), sampler._C_FLOOR)
    update_c(state, data, r_new)
    assert state.c.tobytes() == want.tobytes()
    assert r_ref.bit_generator.state == r_new.bit_generator.state


def test_update_u_moments():
    n = 100_000
    data = Dataset(Y=np.zeros(n), Z=np.full((n, 1), 10), X=np.zeros((n, 1)))
    state = initial_state(data, SamplerConfig(iterations=2, burn_in=1, thin=1),
                          np.random.default_rng(0))
    state.T = np.full(n, 5.0)
    update_u(state, data, np.random.default_rng(6))
    assert state.u.mean() == pytest.approx(2.0, abs=0.03)

    data1 = Dataset(Y=np.zeros(n), Z=np.full((n, 1), 1), X=np.zeros((n, 1)))
    state.T = np.full(n, 1.0)
    update_u(state, data1, np.random.default_rng(7))
    assert np.mean(state.u > 1.0) == pytest.approx(np.exp(-1.0), abs=0.01)


def test_c_u_sweep_consistent_with_gamma_identity():
    # after a joint (c, u) sweep, E[e^{-T u} u^{zdot-1}] relates to T^{-zdot};
    # check via the quadrature identity that the u draw targets the factored law
    zdot, T = 3, 2.0
    val, _ = quad(lambda x: x ** (zdot - 1) * np.exp(-T * x) / np.exp(gammaln(zdot)),
                  0, np.inf)
    assert val == pytest.approx(T ** (-zdot), rel=1e-8)
    rng = np.random.default_rng(8)
    draws = rng.gamma(zdot, 1.0 / T, size=200_000)
    assert draws.mean() == pytest.approx(zdot / T, rel=0.02)


def test_dirichlet_multinomial_conjugacy():
    # fixed gamma=(2,3), z=(4,1): stationary psi_1 is Beta(6, 4)
    data = Dataset(Y=np.zeros(1), Z=np.array([[4, 1]]), X=np.zeros((1, 1)))
    rng = np.random.default_rng(9)
    state = fixed_gamma_state(data, np.array([2.0, 3.0]))
    samples = []
    for it in range(51_000):
        update_c(state, data, rng)
        update_u(state, data, rng)
        if it >= 1000 and it % 10 == 0:
            samples.append(state.c[0, 0] / state.T[0])
    samples = np.asarray(samples[:5000])
    ks = stats.kstest(samples, stats.beta(6, 4).cdf).statistic
    assert ks < 0.03


# ---------------------------------------------------------------------------
# chain-level behavior
# ---------------------------------------------------------------------------


def test_run_chain_retained_count_and_determinism():
    train, _, _ = small_fixture()
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    cfg = SamplerConfig(iterations=60, burn_in=50, thin=10, seed=3,
                        between_moves_per_iter=2)
    out = run_chain(train, hyper, spec, cfg)
    assert out.n_samples == 1

    cfg = SamplerConfig(iterations=200, burn_in=100, thin=5, seed=3,
                        between_moves_per_iter=2)
    out1 = run_chain(train, hyper, spec, cfg)
    out2 = run_chain(train, hyper, spec, cfg)
    assert np.array_equal(out1.alpha_mean, out2.alpha_mean)
    assert np.array_equal(out1.phi_mean, out2.phi_mean)
    assert np.array_equal(out1.predictor, out2.predictor)
    assert np.array_equal(out1.fits, out2.fits)
    assert np.array_equal(out1.xi, out2.xi)
    assert np.array_equal(out1.log_posterior, out2.log_posterior)
    # only a dm_only chain keeps a mean composition
    assert out1.psi_mean is None
    dm1, dm2 = (run_chain(train, hyper, spec, replace(cfg, mode="dm_only"))
                for _ in range(2))
    assert dm1.psi_mean.shape == (train.n_subjects, train.n_taxa)
    assert np.array_equal(dm1.psi_mean, dm2.psi_mean)


def test_stream_version_pins_draw_order():
    # Tiny fixed-seed chains of each mode, pinned by their integer outputs. A
    # change to the draws or their order moves these, and must bump
    # STREAM_VERSION, which keys the cached Part B battery.
    assert STREAM_VERSION == 1
    train, _, _ = small_fixture()
    spec = sbp_pivot(train.n_taxa)
    cfg = dict(iterations=40, burn_in=20, thin=2, seed=9, between_moves_per_iter=4)
    rng = np.random.default_rng(11)
    B = rng.normal(size=(12, 4))
    Y = B[:, 0] + 0.1 * rng.normal(size=12)
    data, xi_spec = xi_only_inputs(Y - Y.mean(), B)
    chains = {
        mode: run_chain(train, Hyperparams(), spec, SamplerConfig(mode=mode, **cfg))
        for mode in ("joint", "dm_only")}
    chains["lm_only"] = run_chain(
        data, Hyperparams(), xi_spec,
        SamplerConfig(mode="lm_only", init_xi_frac=0.5, **cfg), balances=B)
    got = {mode: (out.accept, int(out.xi.sum()), int(out.zeta.sum()))
           for mode, out in chains.items()}
    assert got == {
        "joint": ({"alpha": (107, 320), "add": (11, 140), "delete": (10, 20),
                   "within": (35, 112), "xi": (20, 160)}, 2, 16),
        "dm_only": ({"alpha": (98, 320), "add": (7, 142), "delete": (6, 18),
                     "within": (28, 78)}, 0, 5),
        # run_chain standardizes B itself: these are the bits of the chain on
        # standardize_columns(B)[0] when the caller standardized, no draw moved
        "lm_only": ({"xi": (9, 160)}, 10, 0),
    }


def assert_caches_match(state, X, hyper):
    """Each cache of the state equals its recomputation from the sampled blocks."""
    assert state.T.tobytes() == state.c.sum(axis=1).tobytes()
    assert state.logc.tobytes() == np.log(state.c).tobytes()
    assert state.lgam.tobytes() == gammaln(state.gamma).tobytes()
    # gamma and lam are updated incrementally, so their last bits drift
    np.testing.assert_allclose(state.gamma, np.exp(state.lam), rtol=1e-10, atol=0)
    np.testing.assert_allclose(state.lam, state.alpha + X @ state.phi.T, rtol=1e-10,
                               atol=0)
    if state.gram is not None:
        logml, flips = flip_log_marginals(state.gram, state.xi, hyper)
        assert np.float64(state.logml).tobytes() == np.float64(logml).tobytes()
        assert state.flips.tobytes() == flips.tobytes()


def test_state_caches_match_recomputation_after_every_block(monkeypatch):
    # run_chain looks its blocks up as module globals, so each can be wrapped
    # with a check of the state it leaves
    train, _, _ = small_fixture()
    hyper = Hyperparams()
    calls = dict.fromkeys(["update_alpha", "update_zeta_phi", "update_c", "update_u",
                           "update_xi"], 0)

    def checked(name, block):
        def run(state, *args, **kwargs):
            block(state, *args, **kwargs)
            assert_caches_match(state, train.X, hyper)
            assert name != "update_xi" or state.gram is not None
            calls[name] += 1
        return run

    for name in calls:
        monkeypatch.setattr(sampler, name, checked(name, getattr(sampler, name)))
    cfg = SamplerConfig(iterations=40, burn_in=20, thin=1, seed=2, between_moves_per_iter=5)
    out = run_chain(train, hyper, sbp_pivot(train.n_taxa), cfg)
    assert calls == dict.fromkeys(calls, 40)
    assert all(acc > 0 for acc, _ in out.accept.values())


def test_run_chain_preserves_state_invariants():
    train, _, _ = small_fixture(seed=1)
    cfg = SamplerConfig(iterations=300, burn_in=100, thin=10, seed=4,
                        between_moves_per_iter=5)
    out = run_chain(train, Hyperparams(), sbp_pivot(train.n_taxa), cfg)
    S, J, P = out.phi_shape
    assert (S, J, P) == (20, train.n_taxa, train.n_covariates)
    # each indicator block is kept as ascending flat indices of its changes
    for changes, size in ((out.zeta_changes, S * J * P), (out.xi_changes, S * (J - 1))):
        assert changes.dtype == np.int64 and changes.size and np.all(np.diff(changes) > 0)
        assert changes[0] >= 0 and changes[-1] < size
    assert out.xi_shape == out.xi.shape == (S, J - 1)
    assert np.array_equal(out.mppi_zeta, out.zeta.mean(axis=0))
    assert np.array_equal(out.mppi_xi, out.xi.mean(axis=0))
    # the means: one per taxon, and one per pair some sample included
    assert out.alpha_mean.shape == (J,)
    assert out.phi_mean.shape == (np.count_nonzero(out.mppi_zeta),)
    assert np.all(out.phi_mean != 0)
    assert np.all(np.isfinite(out.log_posterior))
    # a joint chain keeps the fitted values of each sample's ridge fit on its
    # selected standardized balance columns, whose means are 0, so every fit
    # has mean 0, and the fits' summed linear predictor: W over the M = J - 1
    # balances, 0 at those no sample selected, then c
    assert out.psi.shape == (S, 0, 0) and out.psi_mean is None
    assert out.predictor.shape == (J,)
    assert out.fits.shape == (S, train.n_subjects)
    assert np.array_equal(out.y, train.Y)
    assert np.all(np.isfinite(out.predictor)) and np.all(np.isfinite(out.fits))
    assert np.array_equal(out.predictor[:-1] != 0, out.mppi_xi > 0)
    np.testing.assert_allclose(out.fits.mean(axis=1), 0.0, rtol=0, atol=1e-12)
    # and a dm_only chain the mean of its compositions, no sample of them
    dm = run_chain(train, Hyperparams(), sbp_pivot(train.n_taxa),
                   replace(cfg, mode="dm_only"))
    assert dm.psi.shape == (S, 0, 0)
    assert dm.psi_mean.shape == (train.n_subjects, train.n_taxa)
    assert dm.predictor.shape == (0,) and dm.fits.shape == (S, 0) and dm.y.shape == (0,)
    assert np.all(dm.psi_mean > 0)
    assert np.all(np.abs(dm.psi_mean.sum(axis=1) - 1.0) < 1e-10)


@pytest.mark.parametrize("mode", ["joint", "dm_only"])
def test_count_means_are_the_means_of_the_retained_samples(monkeypatch, mode):
    # every iteration's alpha and phi, as the count blocks leave them, against
    # the means the chain kept, bit for bit, and the test-set lambda built
    # from those means
    train, test, _ = small_fixture(seed=1)
    hyper, spec = Hyperparams(), sbp_pivot(train.n_taxa)
    alpha, phi = [], []
    model_update_u = sampler.update_u

    def update_u(state, *args):
        model_update_u(state, *args)
        alpha.append(state.alpha.copy())
        phi.append(state.phi.copy())

    monkeypatch.setattr(sampler, "update_u", update_u)
    cfg = SamplerConfig(iterations=120, burn_in=40, thin=2, seed=4,
                        between_moves_per_iter=5, mode=mode)
    out = run_chain(train, hyper, spec, cfg)
    assert len(alpha) == cfg.iterations
    keep = slice(cfg.burn_in + cfg.thin - 1, None, cfg.thin)
    alpha, phi = np.stack(alpha[keep]), np.stack(phi[keep])
    assert len(alpha) == out.n_samples == 40
    assert np.array_equal(out.zeta, phi != 0)
    assert out.alpha_mean.tobytes() == alpha.mean(axis=0).tobytes()
    phi_mean = np.zeros(out.phi_shape[1:])
    phi_mean[out.mppi_zeta > 0] = out.phi_mean
    assert phi_mean.tobytes() == phi.mean(axis=0).tobytes()
    assert 0 < out.phi_mean.size < phi_mean.size
    assert np.array_equal(
        estimate_lambda_test(out, test.X_test),
        build_gamma(alpha.mean(axis=0), phi.mean(axis=0), test.X_test)[1])


def test_dm_only_chain_holds_no_composition_samples():
    # a dm_only chain sums its compositions as it samples them, so its traced
    # peak stays below half of one S x N x J float block; a chain that kept
    # the samples would hold the whole block
    cfg = SimConfig(N=40, P=3, J=12, n_true_cov=2, n_true_bal=2,
                    zdot_low=200, zdot_high=400, seed=0)
    train, _, _ = gen_replicate(cfg, replicate_rng(0, 0))
    train, _ = preprocess(train)
    hyper, spec = Hyperparams(), sbp_pivot(train.n_taxa)
    chain = SamplerConfig(iterations=410, burn_in=10, thin=1, seed=5, mode="dm_only")
    # a first short chain loads scipy and numpy's caches outside the trace
    run_chain(train, hyper, spec, replace(chain, iterations=12))
    tracemalloc.start()
    try:
        out = run_chain(train, hyper, spec, chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    S, N, J = out.n_samples, train.n_subjects, train.n_taxa
    assert (S, N, J) == (400, 40, 12)
    assert peak < S * N * J * 8 / 2


def test_chain_holds_no_count_samples():
    # a chain sums its intercepts and coefficients as it samples them, so its
    # traced peak stays below half of one S x J float block; a chain that kept
    # the intercept samples would hold the whole block. Few subjects and one
    # covariate keep the per-iteration arrays small against it, and a dm_only
    # chain builds no J x (J - 1) contrast matrix.
    cfg = SimConfig(N=6, P=1, J=300, n_true_cov=1, n_true_bal=2,
                    zdot_low=200, zdot_high=400, seed=0)
    train, _, _ = gen_replicate(cfg, replicate_rng(0, 0))
    train, _ = preprocess(train)
    hyper, spec = Hyperparams(), sbp_pivot(train.n_taxa)
    chain = SamplerConfig(iterations=510, burn_in=10, thin=1, seed=5, mode="dm_only")
    # a first short chain loads scipy and numpy's caches outside the trace
    run_chain(train, hyper, spec, replace(chain, iterations=12))
    tracemalloc.start()
    try:
        out = run_chain(train, hyper, spec, chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    S, J = out.n_samples, train.n_taxa
    assert (S, J) == (500, 300)
    assert peak < S * J * 8 / 2


def test_joint_chain_holds_no_balance_columns():
    # a joint chain keeps 3 floats per selected balance and N fitted values
    # per sample, so its traced peak stays below half of the N + 2 floats per
    # selected balance that a chain keeping the selected columns would hold.
    # A balance prior of inclusion odds 9 has each sample select most of the
    # 29 balances, so the columns would outweigh the chain's other blocks.
    cfg = SimConfig(N=40, P=3, J=30, n_true_cov=2, n_true_bal=6,
                    zdot_low=200, zdot_high=400, seed=0)
    train, _, _ = gen_replicate(cfg, replicate_rng(0, 0))
    train, _ = preprocess(train)
    hyper, spec = Hyperparams(a_m=9.0, b_m=1.0), sbp_pivot(train.n_taxa)
    chain = SamplerConfig(iterations=410, burn_in=10, thin=1, seed=5, init_xi_frac=0.5)
    # a first short chain loads scipy and numpy's caches outside the trace
    run_chain(train, hyper, spec, replace(chain, iterations=12))
    tracemalloc.start()
    try:
        out = run_chain(train, hyper, spec, chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    S, N = out.n_samples, train.n_subjects
    assert (S, N, train.n_taxa) == (400, 40, 30)
    assert peak < out.xi.sum() * (N + 2) * 8 / 2


def test_joint_chain_keeps_the_ridge_fits_of_the_columns_the_sweep_built(monkeypatch):
    # every iteration's compositions and standardized balances, as the sweep
    # built them, against the fitted values and the linear predictor the chain
    # kept of its retained samples' ridge fits
    train, test, _ = small_fixture(seed=1)
    hyper, spec = Hyperparams(), sbp_pivot(train.n_taxa)
    psi, built = [], []
    model_log_balances = sampler.log_balances
    model_standardize_columns = sampler.standardize_columns

    def log_balances(p, *args):
        psi.append(p.copy())
        return model_log_balances(p, *args)

    def standardize_columns(B, noun):
        built.append(model_standardize_columns(B, noun))
        return built[-1]

    monkeypatch.setattr(sampler, "log_balances", log_balances)
    monkeypatch.setattr(sampler, "standardize_columns", standardize_columns)
    cfg = SamplerConfig(iterations=300, burn_in=100, thin=1, seed=4,
                        between_moves_per_iter=5)
    out = run_chain(train, hyper, spec, cfg)
    assert len(psi) == len(built) == 300
    psi, built = np.stack(psi[100:]), built[100:]
    assert len(out.fits) == out.n_samples == 200
    assert out.xi.sum() > 0 and len(np.unique(out.xi, axis=0)) > 1
    W, c = np.zeros(spec.M), 0.0
    for (B_std, means, sds), fit, xi_s in zip(built, out.fits, out.xi):
        sel = xi_s == 1
        beta, want_fit = ridge_fit(B_std[:, sel], train.Y, hyper)
        assert fit.tobytes() == want_fit.tobytes()
        W[sel] += beta / sds[sel]
        c += (means[sel] / sds[sel]) @ beta
    assert out.predictor.tobytes() == np.append(W, c).tobytes()

    # the pass over the kept blocks against rebuilding every sample's
    # balances from its composition
    psi_test = estimate_psi_test(estimate_lambda_test(out, test.X_test), test.Z_test)
    assert_matches_reference(fitted_y(out, hyper),
                             predict_y(out, test, spec, hyper),
                             pointwise_loglik(out, hyper),
                             one_sample_at_a_time(psi, out.xi, train.Y, psi_test, spec, hyper))


def test_run_chain_balances_only_in_lm_only_mode():
    train, _, _ = small_fixture()
    hyper = Hyperparams()
    spec = sbp_pivot(train.n_taxa)
    B = np.zeros((train.n_subjects, spec.M))
    for mode in ("joint", "dm_only"):
        cfg = SamplerConfig(iterations=4, burn_in=2, thin=1, mode=mode)
        with pytest.raises(ValueError, match="lm_only"):
            run_chain(train, hyper, spec, cfg, balances=B)
    cfg = SamplerConfig(iterations=4, burn_in=2, thin=1, mode="lm_only")
    with pytest.raises(ValueError, match="lm_only"):
        run_chain(train, hyper, spec, cfg)
    with pytest.raises(ValueError, match="balances must be"):
        run_chain(train, hyper, spec, cfg, balances=B[:, 1:])


def test_lm_only_chain_keeps_xi_alone():
    # the xi-only chain keeps empty count blocks and only the xi counter
    rng = np.random.default_rng(11)
    B = rng.normal(size=(12, 4))
    Y = B[:, 0] + 0.1 * rng.normal(size=12)
    data, spec = xi_only_inputs(Y - Y.mean(), B)
    cfg = SamplerConfig(iterations=30, burn_in=10, thin=2, seed=1, mode="lm_only",
                        between_moves_per_iter=2, init_xi_frac=0.5)
    out = run_chain(data, Hyperparams(), spec, cfg, balances=B)
    assert out.alpha_mean.shape == (0,) and out.n_samples == 10
    assert out.phi_shape == out.zeta.shape == out.psi.shape == (10, 0, 0)
    assert out.zeta_changes.size == out.phi_mean.size == 0
    assert out.zeta.dtype == np.uint8 and out.mppi_zeta.shape == (0, 0)
    assert out.xi_shape == out.xi.shape == (10, 4) and out.accept.keys() == {"xi"}
    assert out.accept["xi"][1] == 60
    assert np.all(np.isfinite(out.log_posterior))


def test_run_chain_rejects_bad_config():
    with pytest.raises(ValueError):
        SamplerConfig(iterations=10, burn_in=10)
    with pytest.raises(ValueError, match="iterations=300, burn_in=295 and thin=10"):
        SamplerConfig(iterations=300, burn_in=295, thin=10)
    with pytest.raises(ValueError):
        SamplerConfig(thin=0)
    with pytest.raises(ValueError):
        SamplerConfig(mode="bogus")


def test_strong_prior_keeps_null_model():
    train, _, _ = small_fixture(seed=2)
    hyper = Hyperparams(b=1e9)
    cfg = SamplerConfig(iterations=400, burn_in=200, thin=5, seed=5,
                        init_zeta_frac=0.0, between_moves_per_iter=10,
                        mode="dm_only")
    out = run_chain(train, hyper, sbp_pivot(train.n_taxa), cfg)
    assert out.mppi_zeta.max() == 0.0


def test_strong_covariate_signal_recovered():
    # single strongly associated covariate; quadrature Bayes-factor oracle
    # confirms the fixture is decisive before asserting on the chain
    cfg = SimConfig(N=200, P=2, J=3, n_true_cov=0, n_true_bal=0, d=0.2,
                    zdot_low=100, zdot_high=200, seed=0)
    rng = replicate_rng(42, 0)
    from dmjoint.simulate import _draw_truth, gen_covariates, gen_dm_counts

    truth = _draw_truth(cfg, rng)
    truth.zeta_true[0, 0] = 1
    truth.phi_true[0, 0] = 5.0
    truth.alpha_true[:] = 0.0
    X = gen_covariates(cfg, rng)
    Z, _ = gen_dm_counts(X, truth, cfg, rng)
    data = Dataset(Y=np.zeros(cfg.N), Z=Z, X=X)
    data, _ = preprocess(data)

    hyper = Hyperparams()
    # oracle: Bayes factor with latent c fixed at z + 0.5, u at zdot/T
    c = data.Z + 0.5
    u = data.row_totals / c.sum(axis=1)
    logc = np.log(c[:, 0])

    def loglik(phi):
        lam = phi * data.X[:, 0]
        g = np.exp(lam)
        return np.sum((g - 1.0) * logc - gammaln(g))

    grid = np.linspace(-8, 8, 801)
    vals = np.array([loglik(p) for p in grid])
    p_hat = grid[vals.argmax()]
    base = vals.max()
    # the likelihood peak is extremely sharp; integrating a window around it
    # lower-bounds the marginal, which is all the decisiveness claim needs
    integral, _ = quad(lambda p: np.exp(loglik(p) - base) *
                       stats.norm.pdf(p, 0, np.sqrt(hyper.r2)),
                       p_hat - 1.0, p_hat + 1.0)
    log_bf = np.log(integral) + base - loglik(0.0)
    # posterior odds overwhelmingly favor inclusion
    assert log_bf + np.log(hyper.a / hyper.b) > np.log(100)

    scfg = SamplerConfig(iterations=2000, burn_in=1000, thin=5, seed=6,
                         between_moves_per_iter=5, mode="dm_only")
    out = run_chain(data, hyper, sbp_pivot(3), scfg)
    assert out.mppi_zeta[0, 0] > 0.9


def test_xi_selection_matches_enumeration_oracle():
    rng = np.random.default_rng(10)
    n, M = 40, 3
    B = rng.normal(size=(n, M))
    B = (B - B.mean(0)) / B.std(0, ddof=1)
    Y = 2.0 * B[:, 0] + 0.1 * rng.normal(size=n)
    Y -= Y.mean()
    hyper = Hyperparams(a_m=1.0, b_m=9.0)

    # exhaustive 8-model posterior
    logws = []
    models = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    for xi in models:
        sel = np.array(xi, dtype=bool)
        lw = log_marginal_y(Y, B[:, sel], hyper) + sum(
            beta_binomial_logprior(v, hyper.a_m, hyper.b_m) for v in xi)
        logws.append(lw)
    w = np.exp(logws - np.max(logws))
    w /= w.sum()
    oracle_mppi = np.array([
        sum(wi for wi, xi in zip(w, models) if xi[m]) for m in range(M)])
    assert oracle_mppi[0] > 0.95
    assert oracle_mppi[1] < 0.3 and oracle_mppi[2] < 0.3

    cfg = SamplerConfig(iterations=4000, burn_in=1000, thin=1, seed=7,
                        between_moves_per_iter=3, init_xi_frac=0.0, mode="lm_only")
    data, spec = xi_only_inputs(Y, B)
    out = run_chain(data, hyper, spec, cfg, balances=B)
    assert np.all(np.abs(out.mppi_xi - oracle_mppi) < 0.05)
    assert out.mppi_xi[0] > 0.9


def xi_chain(xi_changes, xi_shape):
    """An ``lm_only`` chain with the given xi change block, a zero predictor
    and no fits."""
    S, M = xi_shape
    return ChainOutput(alpha_mean=np.empty(0), zeta_changes=np.empty(0, dtype=np.int64),
                       phi_mean=np.empty(0), phi_shape=(S, 0, 0), xi_changes=xi_changes,
                       xi_shape=xi_shape, predictor=np.zeros(M + 1), fits=np.empty((S, 0)),
                       y=np.empty(0), log_posterior=np.zeros(2), accept={},
                       config=SamplerConfig(iterations=2, burn_in=1, thin=1, mode="lm_only"))


def test_mppi_arithmetic():
    def mppi_xi(xi):
        return xi_chain(*change_block(xi)).mppi_xi

    assert mppi_xi(np.ones((4, 2))).tolist() == [1.0, 1.0]
    assert mppi_xi(np.array([[0], [1], [0], [1]]))[0] == 0.5
    assert mppi_xi(np.array([[1], [1], [0]]))[0] == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="at least one retained sample"):
        xi_chain(np.empty(0, dtype=np.int64), (0, 3))


indicator_samples = st.tuples(
    st.integers(1, 6), st.lists(st.integers(0, 5), min_size=1, max_size=2)).flatmap(
    lambda dims: hnp.arrays(np.uint8, (dims[0], *dims[1]), elements=st.integers(0, 1)))


@settings(max_examples=200, deadline=None)
@given(indicator_samples)
@example(np.zeros((1, 0), dtype=np.uint8))  # a dm_only chain's xi
@example(np.zeros((1, 0, 0), dtype=np.uint8))  # an lm_only chain's zeta
@example(np.ones((1, 3, 2), dtype=np.uint8))
def test_change_blocks_replay_and_count_their_samples(rows):
    # S x M (xi) and S x J x P (zeta) indicator samples, encoded a sample at a
    # time as run_chain does, replay bit for bit and count to their sums; the
    # MPPIs counts / S have the bits of the mean over the samples
    changes, shape = change_block(rows)
    assert changes.dtype == np.int64 and np.all(np.diff(changes) > 0)
    assert np.all((0 <= changes) & (changes < rows.size))
    back = replay_changes(changes, shape)
    assert back.dtype == np.uint8 and back.shape == rows.shape
    assert back.tobytes() == rows.tobytes()
    counts = change_counts(changes, shape)
    assert counts.dtype == np.int64 and np.array_equal(counts, rows.sum(axis=0))
    assert (counts / len(rows)).tobytes() == rows.mean(axis=0).tobytes()
