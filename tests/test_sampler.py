import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln

from dmjoint.model import (
    Dataset,
    Hyperparams,
    ChainState,
    beta_binomial_logprior,
    build_gamma,
    flip_log_marginals,
    log_augmented_dm,
    log_marginal_y,
    marginal_gram,
    sbp_pivot,
)
from dmjoint.prep import preprocess
from dmjoint.sampler import (
    SamplerConfig,
    alpha_log_mh_ratio,
    initial_state,
    mppi,
    pair_log_mh_ratio,
    run_chain,
    update_c,
    update_u,
    update_zeta_phi,
    xi_log_mh_ratio,
)
from dmjoint.simulate import SimConfig, gen_replicate, replicate_rng


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
    train, test, _ = preprocess(train, test)
    return train, test, truth


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


def pair_ratio_round_trip(move, back, c, lam, x, phi_old, phi_new, hyper):
    """Forward ratio from (lam, phi_old) and reverse ratio from the accepted state."""
    logc, gamma, lgam = column_caches(c, lam)
    odds = log_odds_on(hyper)
    fwd, lam_new, gamma_new, lgam_new = pair_log_mh_ratio(
        move, logc, gamma, lgam, lam, x, phi_old, phi_new, hyper, odds)
    bwd, _, _, _ = pair_log_mh_ratio(
        back, logc, gamma_new, lgam_new, lam_new, x, phi_new, phi_old, hyper, odds)
    return fwd, bwd


def test_reversibility_add_delete():
    hyper = Hyperparams()
    rng = np.random.default_rng(2)
    c = rng.gamma(2.0, size=6)
    lam = rng.normal(size=6)
    x = rng.normal(size=6)
    add, delete = pair_ratio_round_trip("add", "delete", c, lam, x, 0.0, 0.8, hyper)
    assert add + delete == pytest.approx(0.0, abs=1e-10)


def test_reversibility_within():
    hyper = Hyperparams()
    rng = np.random.default_rng(3)
    c = rng.gamma(2.0, size=6)
    lam = rng.normal(size=6)
    x = rng.normal(size=6)
    fwd, bwd = pair_ratio_round_trip("within", "within", c, lam, x, 0.5, 1.2, hyper)
    assert fwd + bwd == pytest.approx(0.0, abs=1e-10)


def test_pair_ratio_rejects_overflowing_proposal():
    hyper = Hyperparams()
    c = np.array([1.0, 2.0])
    logc, gamma, lgam = column_caches(c, np.zeros(2))
    with np.errstate(over="ignore"):
        ratio, _, _, lgam_new = pair_log_mh_ratio(
            "add", logc, gamma, lgam, np.zeros(2), np.array([1.0, 800.0]), 0.0, 1.0,
            hyper, log_odds_on(hyper))
    assert ratio == -np.inf and lgam_new is None


def test_pair_ratio_rows_match_one_pair_calls_bitwise():
    # K pairs in K taxa at once give the bits of K one-pair calls, for every
    # move type; N = 50 is long enough that the summation order shows
    hyper = Hyperparams()
    rng = np.random.default_rng(14)
    K, n = 6, 50
    c = rng.gamma(2.0, size=(K, n))
    lam = rng.normal(size=(K, n))
    x = rng.normal(size=(K, n))
    logc, gamma, lgam = column_caches(c, lam)
    phi_old, phi_new = rng.normal(size=K), rng.normal(size=K)
    for move in ("add", "delete", "within"):
        old = np.zeros(K) if move == "add" else phi_old
        new = np.zeros(K) if move == "delete" else phi_new
        rows = pair_log_mh_ratio(move, logc, gamma, lgam, lam, x, old, new, hyper,
                                 log_odds_on(hyper))
        for k in range(K):
            one = pair_log_mh_ratio(move, logc[k], gamma[k], lgam[k], lam[k], x[k],
                                    old[k], new[k], hyper, log_odds_on(hyper))
            assert np.float64(one[0]).tobytes() == rows[0][k].tobytes()
            for a, b in zip(one[1:], rows[1:]):
                assert a.tobytes() == b[k].tobytes()


def test_reversibility_xi():
    hyper = Hyperparams()
    rng = np.random.default_rng(4)
    Y = rng.normal(size=8)
    B = rng.normal(size=(8, 3))
    xi = np.array([1, 0, 1], dtype=np.uint8)
    gram, odds = marginal_gram(Y, B, hyper), xi_log_odds_on(hyper)
    logml, flips = flip_log_marginals(gram, xi, hyper)
    for m in range(3):
        fwd, flipped = xi_log_mh_ratio(xi, m, logml, flips, odds)
        bwd, back = xi_log_mh_ratio(flipped, m, *flip_log_marginals(gram, flipped, hyper),
                                    odds)
        assert fwd + bwd == pytest.approx(0.0, abs=1e-10)
        assert np.array_equal(back, xi)


def test_xi_ratio_on_centered_y_is_determinant_only():
    # Y = 0: the t-density kernel is 1, so the ratio reduces to the
    # normalizing-constant (determinant) part; hand-check on n=2
    hyper = Hyperparams(h_alpha0=0.5, h_beta=2.0, a0=2.0, b0=2.0)
    Y = np.zeros(2)
    B = np.array([[1.0], [-1.0]])
    xi = np.array([0], dtype=np.uint8)
    logml, flips = flip_log_marginals(marginal_gram(Y, B, hyper), xi, hyper)
    got, _ = xi_log_mh_ratio(xi, 0, logml, flips, xi_log_odds_on(hyper))
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


def sequential_within_refresh(state, data, field, hyper, rng, logc, lgam):
    """Reference refresh: one pair at a time, in np.argwhere order, drawing
    rng.normal then rng.uniform per pair. Returns the counts and the taxa of
    the proposals whose gamma overflowed."""
    counts = {"within": 0, "within_prop": 0}
    overflowed = set()
    with np.errstate(over="ignore"):
        for j, p in np.argwhere(state.zeta == 1):
            phi_new = rng.normal(state.phi[j, p], hyper.proposal_sd)
            ratio, lam_new, gamma_new, lgam_new = pair_log_mh_ratio(
                "within", logc[:, j], field.gamma[:, j], lgam[:, j], field.lam[:, j],
                data.X[:, p], state.phi[j, p], phi_new, hyper, log_odds_on(hyper))
            if lgam_new is None:
                overflowed.add(int(j))
            counts["within_prop"] += 1
            if np.log(rng.uniform()) < ratio:
                state.phi[j, p] = phi_new
                field.lam[:, j], field.gamma[:, j], lgam[:, j] = lam_new, gamma_new, lgam_new
                counts["within"] += 1
    return counts, overflowed


def test_within_refresh_matches_sequential_scan():
    # 5 taxa with 0-4 included pairs each; covariate 3 takes a huge value for
    # subject 0, so a proposal that moves its coefficient up overflows gamma.
    # Taxa 3 and 4 score that pair in a round shared with other taxa.
    hyper = Hyperparams(proposal_sd=0.3)
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

    def start():
        state = ChainState(alpha=rng_alpha.copy(), phi=phi.copy(), zeta=zeta.copy(),
                           c=c.copy(), u=np.ones(n), xi=np.zeros(J - 1, np.uint8),
                           T=c.sum(axis=1))
        field = build_gamma(state.alpha, state.phi, state.zeta, X)
        return state, field, gammaln(field.gamma), np.log(c)

    rng_alpha = rng.normal(size=J)
    for seed in range(20):
        s_ref, f_ref, lgam_ref, logc = start()
        r_ref = np.random.default_rng(seed)
        counts_ref, overflowed = sequential_within_refresh(
            s_ref, data, f_ref, hyper, r_ref, logc, lgam_ref)
        s_new, f_new, lgam_new, logc = start()
        r_new = np.random.default_rng(seed)
        counts = update_zeta_phi(s_new, data, f_new, hyper, r_new, logc, lgam_new,
                                 log_odds_on(hyper), n_between=0)
        assert {k: counts[k] for k in counts_ref} == counts_ref
        assert counts_ref["within_prop"] == 11 and 0 < counts_ref["within"] < 11
        for a, b in [(s_ref.phi, s_new.phi), (s_ref.zeta, s_new.zeta),
                     (f_ref.lam, f_new.lam), (f_ref.gamma, f_new.gamma),
                     (lgam_ref, lgam_new)]:
            assert a.tobytes() == b.tobytes()
        assert r_ref.bit_generator.state == r_new.bit_generator.state
        if overflowed & {3, 4}:
            break
    assert overflowed & {3, 4}, "no seed overflowed a pair in a shared round"


# ---------------------------------------------------------------------------
# Gibbs block moments
# ---------------------------------------------------------------------------


def test_update_c_moments():
    n = 100_000
    data = Dataset(Y=np.zeros(n), Z=np.full((n, 1), 3), X=np.zeros((n, 1)))
    state = initial_state(data, SamplerConfig(iterations=2, burn_in=1, thin=1),
                          np.random.default_rng(0))
    state.u = np.full(n, 2.0)
    field = build_gamma(np.array([np.log(1.5)]), np.zeros((1, 1)),
                        np.zeros((1, 1)), data.X)
    update_c(state, data, field, np.random.default_rng(5))
    draws = state.c[:, 0]
    assert draws.mean() == pytest.approx(4.5 / 3.0, abs=0.02)
    assert draws.var() == pytest.approx(4.5 / 9.0, abs=0.02)


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
    state = initial_state(data, SamplerConfig(iterations=2, burn_in=1, thin=1), rng)
    field = build_gamma(np.log(np.array([2.0, 3.0])), np.zeros((2, 1)),
                        np.zeros((2, 1)), data.X)
    samples = []
    for it in range(51_000):
        update_c(state, data, field, rng)
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
    assert np.array_equal(out1.alpha, out2.alpha)
    assert np.array_equal(out1.psi, out2.psi)
    assert np.array_equal(out1.xi, out2.xi)
    assert np.array_equal(out1.log_posterior, out2.log_posterior)


def test_run_chain_preserves_state_invariants():
    train, _, _ = small_fixture(seed=1)
    cfg = SamplerConfig(iterations=300, burn_in=100, thin=10, seed=4,
                        between_moves_per_iter=5)
    out = run_chain(train, Hyperparams(), sbp_pivot(train.n_taxa), cfg)
    assert np.all((out.phi == 0) == (out.zeta == 0))
    assert np.all(out.psi > 0)
    assert np.all(out.u > 0)
    assert np.all(np.isfinite(out.log_posterior))
    assert np.all(np.abs(out.psi.sum(axis=2) - 1.0) < 1e-10)


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
    assert out.alpha.shape == (10, 0) and out.u.shape == (10, 0)
    assert out.phi.shape == out.zeta.shape == out.psi.shape == (10, 0, 0)
    assert out.zeta.dtype == np.uint8 and out.mppi_zeta.shape == (0, 0)
    assert out.xi.shape == (10, 4) and out.accept.keys() == {"xi"}
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
    data, _, _ = preprocess(data)

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


def test_mppi_arithmetic():
    assert mppi(np.ones((4, 2))).tolist() == [1.0, 1.0]
    assert mppi(np.array([[0], [1], [0], [1]]))[0] == 0.5
    assert mppi(np.array([[1], [1], [0]]))[0] == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        mppi(np.empty((0, 3)))
