"""Unit tests for the split-Bregman iteration and the glasso baseline.

One-step behavior is pinned against hand-derived 1-D values, an analytic
fixed point, and a straight-line transliteration of the four updates, both
for the paper's sweep (``_RELAX`` patched to 1) and the over-relaxed one; full
solves are checked against closed forms, high-accuracy self-oracles, and
the KKT residual certificate.
"""

import functools
import math

import numpy as np
import pytest

from lvglasso import solver, symlin
from lvglasso import (
    DivergenceError,
    IterationRecord,
    LatentModelSpec,
    LvggProblem,
    NotPositiveDefiniteError,
    SolverConfig,
    SolverResult,
    SolverState,
    SymMatrix,
    check_stop,
    eval_objective,
    generate_synthetic,
    kkt_residual,
    sample_gaussian,
    sblvgg_step,
    solve_lvgg,
)


def wishart_sigma(p, rng, rows=None):
    g = rng.standard_normal((rows or 2 * p, p))
    return SymMatrix(g.T @ g / (rows or 2 * p))


def zero_state(p):
    return SolverState(
        a=SymMatrix.zeros(p), s=SymMatrix.zeros(p), l=SymMatrix.zeros(p), u=SymMatrix.zeros(p)
    )


# ---------------------------------------------------------------------------
# sblvgg_step


def test_step_one_dimensional_hand_case(monkeypatch):
    monkeypatch.setattr(solver, "_RELAX", 1.0)  # the paper's unrelaxed sweep
    # p=1, sigma=1, lambda1=lambda2=10, mu=1, all-zero start:
    # K = -1, A = (-1+sqrt(5))/2; S and L threshold to 0; U = A.
    prob = LvggProblem(SymMatrix([[1.0]]), 10.0, 10.0)
    new = sblvgg_step(zero_state(1), prob, SolverConfig(mu=1.0))
    golden = 0.6180339887498949  # positive root of a^2 + a - 1 = 0
    assert abs(new.a.array[0, 0] - golden) < 1e-12
    assert new.s.array[0, 0] == 0.0
    assert new.l.array[0, 0] == 0.0
    assert abs(new.u.array[0, 0] - golden) < 1e-12
    assert new.iter == 1
    assert abs(new.primal_residual - golden) < 1e-12


def test_relaxed_step_one_dimensional_hand_case():
    # as above, but the S-, L- and U-updates read A_hat = alpha*A + (1-alpha)*0:
    # S and L still threshold to 0, U = alpha*A, and the primal residual
    # stays the unrelaxed |A - S + L|
    alpha = solver._RELAX
    prob = LvggProblem(SymMatrix([[1.0]]), 10.0, 10.0)
    new = sblvgg_step(zero_state(1), prob, SolverConfig(mu=1.0))
    golden = 0.6180339887498949
    assert abs(new.a.array[0, 0] - golden) < 1e-12
    assert new.s.array[0, 0] == 0.0
    assert new.l.array[0, 0] == 0.0
    assert abs(new.u.array[0, 0] - alpha * golden) < 1e-12
    assert abs(new.primal_residual - golden) < 1e-12


def test_step_is_identity_at_fixed_point():
    # sigma = I_3, lambda1 = 0.5, lambda2 = 10, mu = 1. The optimum is
    # S* = A* = (1/(1+lambda1)) I = (2/3) I, L* = 0; the matching dual is
    # U* = A*^{-1} - sigma = 0.5 I (makes the A-update reproduce A*).
    p = 3
    prob = LvggProblem(SymMatrix.identity(p), 0.5, 10.0)
    star = SolverState(
        a=SymMatrix((2.0 / 3.0) * np.eye(p)),
        s=SymMatrix((2.0 / 3.0) * np.eye(p)),
        l=SymMatrix.zeros(p),
        u=SymMatrix(0.5 * np.eye(p)),
    )
    new = sblvgg_step(star, prob, SolverConfig(mu=1.0))
    assert np.allclose(new.a.array, star.a.array, atol=1e-14)
    assert np.allclose(new.s.array, star.s.array, atol=1e-14)
    assert np.allclose(new.l.array, star.l.array, atol=1e-14)
    assert np.allclose(new.u.array, star.u.array, atol=1e-14)
    assert new.primal_residual < 1e-14


def transliterated_step(sigma, s, l, u, lambda1, lambda2, mu, alpha=1.0):
    """Straight-line reimplementation of the four updates, for one step.

    The S-, L- and U-updates read the over-relaxed
    ``ah = alpha*A + (1 - alpha)*(S - L)``; alpha=1 is the paper's sweep.
    """
    k = mu * (s - l) - sigma - u
    k = (k + k.T) / 2.0
    w, v = np.linalg.eigh(k)
    a_eigs = (w + np.sqrt(w * w + 4.0 * mu)) / (2.0 * mu)
    a = v @ np.diag(a_eigs) @ v.T
    a = (a + a.T) / 2.0
    ah = alpha * a + (1.0 - alpha) * (s - l)
    arg_s = ah + l + u / mu
    s_new = np.sign(arg_s) * np.maximum(np.abs(arg_s) - lambda1 / mu, 0.0)
    arg_l = s_new - ah - u / mu
    arg_l = (arg_l + arg_l.T) / 2.0
    wl, vl = np.linalg.eigh(arg_l)
    l_new = vl @ np.diag(np.maximum(wl - lambda2 / mu, 0.0)) @ vl.T
    l_new = (l_new + l_new.T) / 2.0
    u_new = u + mu * (ah - s_new + l_new)
    return a, s_new, l_new, u_new


def test_step_matches_transliterated_reference(monkeypatch):
    monkeypatch.setattr(solver, "_RELAX", 1.0)  # the paper's unrelaxed sweep
    rng = np.random.default_rng(13)
    for _ in range(10):
        sigma = wishart_sigma(2, rng)
        s0 = wishart_sigma(2, rng)
        g = rng.standard_normal((2, 2))
        l0 = SymMatrix(g @ g.T * 0.1)
        u0 = SymMatrix(rng.standard_normal((2, 2)) * 0.1)
        l1, l2, mu = 0.3, 0.4, 0.7
        state = SolverState(a=SymMatrix.identity(2), s=s0, l=l0, u=u0)
        new = sblvgg_step(state, LvggProblem(sigma, l1, l2), SolverConfig(mu=mu))
        a, s, l, u = transliterated_step(
            sigma.array, s0.array, l0.array, u0.array, l1, l2, mu
        )
        assert np.allclose(new.a.array, a, atol=1e-12)
        assert np.allclose(new.s.array, s, atol=1e-12)
        assert np.allclose(new.l.array, l, atol=1e-12)
        assert np.allclose(new.u.array, u, atol=1e-12)


def test_relaxed_step_matches_transliterated_reference():
    rng = np.random.default_rng(13)
    l1, l2, mu = 0.3, 0.4, 0.7
    for _ in range(10):
        sigma = wishart_sigma(2, rng)
        s0 = wishart_sigma(2, rng)
        g = rng.standard_normal((2, 2))
        l0 = SymMatrix(g @ g.T * 0.1)
        u0 = SymMatrix(rng.standard_normal((2, 2)) * 0.1)
        state = SolverState(a=SymMatrix.identity(2), s=s0, l=l0, u=u0)
        new = sblvgg_step(state, LvggProblem(sigma, l1, l2), SolverConfig(mu=mu))
        a, s, l, u = transliterated_step(
            sigma.array, s0.array, l0.array, u0.array, l1, l2, mu, solver._RELAX
        )
        assert np.allclose(new.a.array, a, atol=1e-12)
        assert np.allclose(new.s.array, s, atol=1e-12)
        assert np.allclose(new.l.array, l, atol=1e-12)
        assert np.allclose(new.u.array, u, atol=1e-12)
        assert abs(new.primal_residual - np.linalg.norm(a - s + l)) <= 1e-12


def test_step_preserves_cone_memberships():
    # A stays PD and L stays PSD at every iteration, all iterates symmetric.
    rng = np.random.default_rng(14)
    prob = LvggProblem(wishart_sigma(8, rng), 0.1, 0.2)
    cfg = SolverConfig(mu=0.05)
    state = zero_state(8)
    for _ in range(50):
        state = sblvgg_step(state, prob, cfg)
        for m in (state.a, state.s, state.l, state.u):
            assert np.array_equal(m.array, m.array.T)
        assert np.linalg.eigvalsh(state.a.array)[0] > 0
        assert np.linalg.eigvalsh(state.l.array)[0] >= -1e-12


def test_step_raises_divergence_with_state_attached():
    # absurd covariance scale drives the A-update eigenvalues to zero and the
    # objective to +inf; the solver must fail loudly, not return garbage
    sigma = SymMatrix(1e160 * np.eye(2))
    for solve in (
        lambda: solve_lvgg(LvggProblem(sigma, 0.1, 0.2), SolverConfig()),
        lambda: solve_lvgg(LvggProblem(sigma, 0.1, None), SolverConfig()),
    ):
        with pytest.raises(DivergenceError) as info:
            solve()
        assert info.value.state is not None


def test_state_of_another_size_is_a_value_error():
    # a mismatched state is a caller's error, not a divergence
    prob = LvggProblem(SymMatrix.identity(5), 0.1, 0.2)
    for step in (
        lambda: sblvgg_step(zero_state(3), prob, SolverConfig()),
        lambda: solve_lvgg(prob, SolverConfig(), init=zero_state(3)),
    ):
        with pytest.raises(ValueError, match="3 does not match problem dimension 5"):
            step()


# ---------------------------------------------------------------------------
# check_stop


def record(it, objective, residual):
    return IterationRecord(
        iter=it,
        objective=objective,
        primal_residual=residual,
        rel_obj_change=math.inf,
        wall_time_cumulative=0.0,
        mu=1.0,
    )


def state_with_residual(residual):
    st = zero_state(1)
    return SolverState(a=st.a, s=st.s, l=st.l, u=st.u, iter=2, primal_residual=residual)


def test_check_stop_truth_table():
    eps = 1e-4
    prev = record(1, 1.0, 1e-5)
    # rel change 1e-5, residual 1e-5 -> stop
    assert check_stop(prev, record(2, 1.0 + 1e-5, 1e-5), state_with_residual(1e-5), eps)
    # rel change 1e-5, residual 1e-3 -> continue (conjunction)
    assert not check_stop(prev, record(2, 1.0 + 1e-5, 1e-3), state_with_residual(1e-3), eps)
    # rel change 1e-3, residual 1e-5 -> continue
    assert not check_stop(prev, record(2, 1.0 + 1e-3, 1e-5), state_with_residual(1e-5), eps)


def test_check_stop_normalizes_by_max_one():
    # |obj| < 1: the denominator clamps at 1, so the change is absolute
    prev = record(1, 0.01, 0.0)
    assert check_stop(prev, record(2, 0.01 + 5e-5, 0.0), state_with_residual(0.0), 1e-4)
    assert not check_stop(prev, record(2, 0.01 + 5e-4, 0.0), state_with_residual(0.0), 1e-4)


def test_iteration_record_rejects_negative_residual():
    with pytest.raises(ValueError):
        record(1, 1.0, -1e-3)


# ---------------------------------------------------------------------------
# solve_lvgg


def test_solve_identity_covariance_closed_form():
    # sigma = I: L = 0 and S solves min -log s + s + lambda1*s per diagonal.
    for lam1 in (0.1, 0.5):
        prob = LvggProblem(SymMatrix.identity(5), lam1, 10.0)
        res, records = solve_lvgg(prob, SolverConfig(mu=0.1, epsilon=1e-6))
        assert res.converged
        assert np.allclose(res.s_hat.array, np.eye(5) / (1.0 + lam1), atol=1e-4)
        assert np.allclose(res.l_hat.array, 0.0, atol=1e-10)
        assert res.rank_l == 0
        assert res.nnz_offdiag_s == 0
        iters = [r.iter for r in records]
        assert iters == sorted(iters) and len(set(iters)) == len(iters)


def test_solve_matches_high_accuracy_self_oracle():
    # p=2 instance pinned by the spec'd tolerances: eps=1e-6 vs 1e-10 runs
    # agree in objective to 1e-6 relative.
    prob = LvggProblem(SymMatrix([[1.0, 0.5], [0.5, 1.0]]), 0.1, 10.0)
    res, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-6, max_iters=50000))
    oracle, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-10, max_iters=200000))
    rel = abs(res.objective - oracle.objective) / max(1.0, abs(oracle.objective))
    assert rel < 1e-6


def test_solve_hits_max_iters_without_exception():
    rng = np.random.default_rng(15)
    prob = LvggProblem(wishart_sigma(6, rng), 0.05, 0.1)
    res, records = solve_lvgg(prob, SolverConfig(mu=0.01, epsilon=1e-12, max_iters=20))
    assert not res.converged
    assert res.iters == 20
    assert len(records) == 20


def test_solve_primal_residual_below_epsilon_across_mu():
    # convergence for any mu > 0: residual drops below eps for the paper's range
    rng = np.random.default_rng(321)
    prob = LvggProblem(wishart_sigma(30, rng), 0.1, 0.2)
    for mu in (0.005, 0.01, 0.05, 0.1):
        res, _ = solve_lvgg(prob, SolverConfig(mu=mu, epsilon=1e-4, max_iters=50000))
        assert res.converged, f"mu={mu} failed to converge"
        assert res.primal_residual < 1e-4


def test_solve_limit_is_mu_invariant():
    # Theorem-level property: the limit point does not depend on mu.
    rng = np.random.default_rng(17)
    prob = LvggProblem(wishart_sigma(20, rng), 0.1, 0.2)
    res_a, _ = solve_lvgg(prob, SolverConfig(mu=0.01, epsilon=1e-8, max_iters=100000))
    res_b, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-8, max_iters=100000))
    ds = np.linalg.norm(res_a.s_hat.array - res_b.s_hat.array)
    dl = np.linalg.norm(res_a.l_hat.array - res_b.l_hat.array)
    assert ds <= 1e-3 * max(1.0, np.linalg.norm(res_a.s_hat.array))
    assert dl <= 1e-3 * max(1.0, np.linalg.norm(res_a.l_hat.array))


def test_solve_reproducible_and_exactly_sparse():
    rng = np.random.default_rng(18)
    sigma = wishart_sigma(12, rng)
    prob = LvggProblem(sigma, 0.2, 0.3)
    res1, _ = solve_lvgg(prob, SolverConfig(mu=0.05))
    res2, _ = solve_lvgg(prob, SolverConfig(mu=0.05))
    assert np.array_equal(res1.s_hat.array, res2.s_hat.array)
    assert res1.nnz_offdiag_s == res2.nnz_offdiag_s
    off = res1.s_hat.array[~np.eye(12, dtype=bool)]
    assert np.count_nonzero(off == 0.0) > 0  # thresholding produced exact zeros
    assert res1.sparse_ratio_s == res1.nnz_offdiag_s / (12 * 11)


def test_solve_respects_custom_init():
    rng = np.random.default_rng(19)
    prob = LvggProblem(wishart_sigma(5, rng), 0.1, 0.2)
    cfg = SolverConfig(mu=0.05, epsilon=1e-8, max_iters=100000)
    default_res, _ = solve_lvgg(prob, cfg)
    warm = SolverState(
        a=default_res.a_hat,
        s=default_res.s_hat,
        l=default_res.l_hat,
        u=SymMatrix.zeros(5),
    )
    warm_res, _ = solve_lvgg(prob, cfg, init=warm)
    rel = abs(warm_res.objective - default_res.objective) / max(1.0, abs(default_res.objective))
    assert rel < 1e-6  # same optimum from a different start


@functools.cache
def cv_p100_covariance():
    # the p=100 latent-variable truth and sample size of the CV benchmark
    truth = generate_synthetic(
        LatentModelSpec(p_obs=100, p_hidden=10, target_sparsity=0.05, seed=7)
    )
    return sample_gaussian(truth.k_marginal, n=600, seed=10).covariance


# lambda2=0.3 keeps rank(L) at 2, below p/8, so every L-update is partial;
# lambda2=0.01 reaches rank 55 > p/8, so the L-update turns full.
@pytest.mark.parametrize("lambda2", [0.3, 0.01], ids=["low-rank", "high-rank"])
def test_partial_l_update_matches_the_full_path(monkeypatch, lambda2):
    eps = 1e-6
    prob = LvggProblem(cv_p100_covariance(), 0.02, lambda2)
    cfg = SolverConfig(epsilon=eps)
    partial_calls = []
    eig_sym_above = symlin._eig_sym_above

    def counted(x, eta):
        partial_calls.append(x.dim)
        return eig_sym_above(x, eta)

    monkeypatch.setattr(symlin, "_eig_sym_above", counted)
    res, _ = solve_lvgg(prob, cfg)
    n_partial = len(partial_calls)
    monkeypatch.setattr(symlin, "_lapacke_dsyevr", lambda: None)  # binding unavailable
    ref, _ = solve_lvgg(prob, cfg)

    assert res.converged and ref.converged
    assert (res.iters, res.rank_l) == (ref.iters, ref.rank_l)
    for name in ("s_hat", "l_hat", "a_hat"):
        assert np.abs(getattr(res, name).array - getattr(ref, name).array).max() <= 1e-10
    assert kkt_residual(prob, res) <= 10 * eps
    low_rank = 8 * res.rank_l <= prob.dim
    assert low_rank == (lambda2 == 0.3)
    if low_rank:
        assert n_partial == res.iters
    else:
        assert 0 < n_partial < res.iters / 4


@pytest.mark.parametrize("lambda2", [0.3, 0.01])
def test_state_carries_the_l_update_kept_count(monkeypatch, lambda2):
    monkeypatch.setattr(solver, "_RELAX", 1.0)  # the paper's unrelaxed sweep
    # l_kept counts the eigenvalues of S - A - U/mu above lambda2/mu, as a
    # full eigendecomposition of the L-update's input finds them
    prob = LvggProblem(cv_p100_covariance(), 0.02, lambda2)
    cfg = SolverConfig(mu=0.01)
    state = zero_state(prob.dim)
    assert state.l_kept == 0
    counts = []
    for _ in range(30):
        new = sblvgg_step(state, prob, cfg)
        x = SymMatrix(new.s.array - new.a.array - state.u.array / cfg.mu)
        ref = int(np.count_nonzero(np.linalg.eigvalsh(x.array) > lambda2 / cfg.mu))
        assert new.l_kept == ref
        counts.append(ref)
        state = new
    assert max(counts) > 0


@pytest.mark.parametrize("lambda2", [0.3, 0.01])
def test_relaxed_state_carries_the_l_update_kept_count(lambda2):
    # the relaxed L-update's input is S_new - A_hat - U/mu with
    # A_hat = alpha*A_new + (1 - alpha)*(S - L) from the incoming S and L
    alpha = solver._RELAX
    prob = LvggProblem(cv_p100_covariance(), 0.02, lambda2)
    cfg = SolverConfig(mu=0.01)
    state = zero_state(prob.dim)
    counts = []
    for _ in range(30):
        new = sblvgg_step(state, prob, cfg)
        a_hat = alpha * new.a.array + (1 - alpha) * (state.s.array - state.l.array)
        x = SymMatrix(new.s.array - a_hat - state.u.array / cfg.mu)
        ref = int(np.count_nonzero(np.linalg.eigvalsh(x.array) > lambda2 / cfg.mu))
        assert new.l_kept == ref
        counts.append(ref)
        state = new
    assert max(counts) > 0


def fixed_penalty_run(sweep, dim, epsilon, sweeps):
    """Loop the fixed-penalty sweep from the solvers' default start.

    Returns (stopped, state): whether check_stop fired within ``sweeps``
    sweeps, and the last state.
    """
    state = SolverState(
        a=SymMatrix.identity(dim), s=SymMatrix.identity(dim),
        l=SymMatrix.zeros(dim), u=SymMatrix.zeros(dim),
    )
    prev = None
    for k in range(1, sweeps + 1):
        state = sweep(state)
        curr = record(k, state.last_objective, state.primal_residual)
        if prev is not None and check_stop(prev, curr, state, epsilon):
            return True, state
        prev = curr
    return False, state


def test_solve_balanced_mu_needs_half_the_fixed_sweeps():
    # residual balancing moves mu away from a too-small start; the driver
    # must beat the paper's fixed-penalty loop by 2x (that loop may not stop
    # within 2*iters - 1 sweeps) and still certify
    rng = np.random.default_rng(60)
    prob = LvggProblem(wishart_sigma(60, rng), 0.1, 0.2)
    cfg = SolverConfig(mu=0.01, epsilon=1e-6, max_iters=20000)
    res, records = solve_lvgg(prob, cfg)
    assert res.converged
    stopped, _ = fixed_penalty_run(
        lambda st: sblvgg_step(st, prob, cfg), 60, cfg.epsilon, 2 * res.iters - 1
    )
    assert not stopped
    assert kkt_residual(prob, res) <= 10 * cfg.epsilon
    assert records[0].mu == cfg.mu


def test_solve_too_large_starting_mu_reaches_the_same_limit():
    # mu = 5 is far above the balanced value, so the schedule halves it; the
    # limit must match a small-mu run within criterion 4's tolerance
    rng = np.random.default_rng(61)
    prob = LvggProblem(wishart_sigma(30, rng), 0.1, 0.2)
    big, records = solve_lvgg(prob, SolverConfig(mu=5.0, epsilon=1e-8, max_iters=100000))
    ref, _ = solve_lvgg(prob, SolverConfig(mu=0.01, epsilon=1e-8, max_iters=100000))
    assert big.converged and ref.converged
    assert records[0].mu == 5.0 and min(r.mu for r in records) < 5.0
    ds = np.linalg.norm(big.s_hat.array - ref.s_hat.array)
    dl = np.linalg.norm(big.l_hat.array - ref.l_hat.array)
    assert ds <= 1e-3 * max(1.0, np.linalg.norm(ref.s_hat.array))
    assert dl <= 1e-3 * max(1.0, np.linalg.norm(ref.l_hat.array))


@pytest.mark.parametrize("lambda2", [0.2, None], ids=["lvgg", "glasso"])
def test_relaxed_balancing_lowers_a_too_large_mu(monkeypatch, lambda2):
    # mu = 5 is far above the balanced value. Balancing on the relaxed
    # primal residual ||U_k - U_{k-1}||/mu halves mu at least as far as the
    # unrelaxed run does; on the unrelaxed ||A - S + L|| the dual/primal
    # ratio stalls inside the 10x band and mu stays at 2.5 here.
    prob = LvggProblem(wishart_sigma(30, np.random.default_rng(61)), 0.1, lambda2)
    cfg = SolverConfig(mu=5.0, epsilon=1e-6, max_iters=20000)
    relaxed, records = solve_lvgg(prob, cfg)
    monkeypatch.setattr(solver, "_RELAX", 1.0)
    plain, plain_records = solve_lvgg(prob, cfg)
    assert relaxed.converged and plain.converged
    assert kkt_residual(prob, relaxed) <= 10 * cfg.epsilon
    assert records[0].mu == 5.0
    assert min(r.mu for r in records) <= min(r.mu for r in plain_records) < 5.0
    if lambda2 is None:
        assert relaxed.iters <= plain.iters
    else:
        # the three-block sweep does not always gain at a too-large start:
        # 67 sweeps against 65 on this fixture
        assert relaxed.iters <= plain.iters + plain.iters // 20


@functools.cache
def n_below_p_covariance():
    # singular sample covariance: n = 40 samples of p = 120 variables
    truth = generate_synthetic(LatentModelSpec(p_obs=120, p_hidden=10, seed=5))
    return sample_gaussian(truth.k_marginal, n=40, seed=6).covariance


@pytest.mark.parametrize("model", ["lvgg", "glasso"])
def test_every_fixture_solve_is_certified(monkeypatch, model):
    # every solve on the suite's fixtures certifies at 10*eps from any
    # starting mu, and over-relaxation saves sweeps in total
    eps = 1e-6
    fixtures = [
        (wishart_sigma(8, np.random.default_rng(14)), 0.1, 0.2),
        (wishart_sigma(30, np.random.default_rng(61)), 0.1, 0.2),
        (wishart_sigma(60, np.random.default_rng(60)), 0.1, 0.2),
        (cv_p100_covariance(), 0.02, 0.3),
        (n_below_p_covariance(), 0.1, 0.5),
    ]
    shipped, sweeps = solver._RELAX, {}
    for alpha in (shipped, 1.0):
        monkeypatch.setattr(solver, "_RELAX", alpha)
        sweeps[alpha] = 0
        for sigma, lambda1, lambda2 in fixtures:
            prob = LvggProblem(sigma, lambda1, lambda2 if model == "lvgg" else None)
            for mu in (1e-3, 1e-2, 5.0):
                res, _ = solve_lvgg(prob, SolverConfig(mu=mu, epsilon=eps, max_iters=20000))
                assert res.converged, (alpha, sigma.dim, mu)
                assert kkt_residual(prob, res) <= 10 * eps, (alpha, sigma.dim, mu)
                sweeps[alpha] += res.iters
    assert sweeps[shipped] < sweeps[1.0]


# ---------------------------------------------------------------------------
# graphical lasso: solve_lvgg with lambda2=None


def test_glasso_identity_closed_form():
    prob = LvggProblem(SymMatrix.identity(4), 0.1, None)
    res, _ = solve_lvgg(prob, SolverConfig(mu=0.1, epsilon=1e-6))
    assert res.converged
    assert np.allclose(res.s_hat.array, np.eye(4) / 1.1, atol=1e-4)
    assert res.rank_l == 0
    assert np.array_equal(res.l_hat.array, np.zeros((4, 4)))


def test_glasso_unpenalized_recovers_inverse():
    sigma = SymMatrix([[2.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 2.0]])
    res, _ = solve_lvgg(LvggProblem(sigma, 0.0, None), SolverConfig(mu=0.1, epsilon=1e-7, max_iters=50000))
    assert np.allclose(res.s_hat.array, np.linalg.inv(sigma.array), atol=1e-4)


def test_glasso_matches_self_oracle():
    rng = np.random.default_rng(77)
    g = rng.standard_normal((9, 3))
    sigma = SymMatrix(g.T @ g / 9)
    prob = LvggProblem(sigma, 0.2, None)
    res, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-6, max_iters=50000))
    oracle, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-10, max_iters=200000))
    rel = abs(res.objective - oracle.objective) / max(1.0, abs(oracle.objective))
    assert rel < 1e-6


def transliterated_glasso_step(sigma, s, u, lam, mu, alpha=1.0):
    """Straight-line two-block sweep (A-update, S-update, dual step), with
    the S-update and dual step reading ``alpha*A + (1 - alpha)*S``."""
    k = mu * s - sigma - u
    k = (k + k.T) / 2.0
    w, v = np.linalg.eigh(k)
    a_eigs = (w + np.sqrt(w * w + 4.0 * mu)) / (2.0 * mu)
    a = v @ np.diag(a_eigs) @ v.T
    a = (a + a.T) / 2.0
    ah = alpha * a + (1.0 - alpha) * s
    arg_s = ah + u / mu
    s_new = np.sign(arg_s) * np.maximum(np.abs(arg_s) - lam / mu, 0.0)
    u_new = u + mu * (ah - s_new)
    objective = (
        -np.log(a_eigs).sum() + (a * sigma).sum() + lam * np.abs(a).sum()
    )
    return a, s_new, u_new, objective


def test_glasso_step_matches_transliterated_reference(monkeypatch):
    monkeypatch.setattr(solver, "_RELAX", 1.0)  # the paper's unrelaxed sweep
    # one sblvgg_step on a lambda2=None problem is the two-block glasso
    # sweep, and L stays exactly zero
    rng = np.random.default_rng(22)
    sigma = wishart_sigma(5, rng)
    lam, mu = 0.15, 0.3
    state = SolverState(
        a=SymMatrix.identity(5), s=sigma, l=SymMatrix.zeros(5), u=SymMatrix(0.1 * sigma.array)
    )
    new = sblvgg_step(state, LvggProblem(sigma, lam, None), SolverConfig(mu=mu))
    a, s, u, objective = transliterated_glasso_step(
        sigma.array, state.s.array, state.u.array, lam, mu
    )
    assert np.allclose(new.a.array, a, atol=1e-12)
    assert np.allclose(new.s.array, s, atol=1e-12)
    assert np.allclose(new.u.array, u, atol=1e-12)
    assert abs(new.last_objective - objective) <= 1e-12 * max(1.0, abs(objective))
    assert np.array_equal(new.l.array, np.zeros((5, 5)))


def test_relaxed_glasso_step_matches_transliterated_reference():
    rng = np.random.default_rng(22)
    sigma = wishart_sigma(5, rng)
    lam, mu = 0.15, 0.3
    state = SolverState(
        a=SymMatrix.identity(5), s=sigma, l=SymMatrix.zeros(5), u=SymMatrix(0.1 * sigma.array)
    )
    new = sblvgg_step(state, LvggProblem(sigma, lam, None), SolverConfig(mu=mu))
    a, s, u, objective = transliterated_glasso_step(
        sigma.array, state.s.array, state.u.array, lam, mu, solver._RELAX
    )
    assert np.allclose(new.a.array, a, atol=1e-12)
    assert np.allclose(new.s.array, s, atol=1e-12)
    assert np.allclose(new.u.array, u, atol=1e-12)
    assert abs(new.last_objective - objective) <= 1e-12 * max(1.0, abs(objective))
    assert np.array_equal(new.l.array, np.zeros((5, 5)))


def test_glasso_init_with_nonzero_l_is_rejected():
    # the sweep would hold a nonzero L fixed and solve a different problem
    sigma = wishart_sigma(4, np.random.default_rng(23))
    l = SymMatrix(0.01 * np.eye(4))
    init = SolverState(a=SymMatrix.identity(4), s=SymMatrix.identity(4), l=l, u=SymMatrix.zeros(4))
    with pytest.raises(ValueError, match="lambda2=None"):
        solve_lvgg(LvggProblem(sigma, 0.1, None), SolverConfig(), init=init)
    res, _ = solve_lvgg(LvggProblem(sigma, 0.1, 0.2), SolverConfig(max_iters=1), init=init)
    assert res.iters == 1


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_glasso_matches_transliterated_reference(monkeypatch, sweeps):
    monkeypatch.setattr(solver, "_RELAX", 1.0)  # the paper's unrelaxed sweep
    # lambda2=None runs the latent-variable sweep with L held at zero; its
    # first sweeps must equal the plain two-block glasso iteration
    rng = np.random.default_rng(21)
    sigma = wishart_sigma(5, rng)
    lam, mu = 0.15, 0.3
    res, records = solve_lvgg(
        LvggProblem(sigma, lam, None), SolverConfig(mu=mu, max_iters=sweeps)
    )
    s, u = np.eye(5), np.zeros((5, 5))
    for i in range(sweeps):
        a, s_next, u, objective = transliterated_glasso_step(sigma.array, s, u, lam, mu)
        assert abs(records[i].objective - objective) <= 1e-12 * max(1.0, abs(objective))
        assert abs(records[i].primal_residual - np.linalg.norm(a - s_next)) <= 1e-12
        s = s_next
    assert res.iters == sweeps
    assert np.allclose(res.a_hat.array, a, atol=1e-12)
    assert np.allclose(res.s_hat.array, s, atol=1e-12)
    assert np.array_equal(res.l_hat.array, np.zeros((5, 5)))
    assert res.rank_l == 0


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_relaxed_glasso_matches_transliterated_reference(sweeps):
    # the relaxed blend reads alpha*A + (1 - alpha)*S, since L is zero; the
    # recorded primal residual stays the unrelaxed ||A - S||
    rng = np.random.default_rng(21)
    sigma = wishart_sigma(5, rng)
    lam, mu = 0.15, 0.3
    res, records = solve_lvgg(
        LvggProblem(sigma, lam, None), SolverConfig(mu=mu, max_iters=sweeps)
    )
    s, u = np.eye(5), np.zeros((5, 5))
    for i in range(sweeps):
        a, s_next, u, objective = transliterated_glasso_step(
            sigma.array, s, u, lam, mu, solver._RELAX
        )
        assert abs(records[i].objective - objective) <= 1e-12 * max(1.0, abs(objective))
        assert abs(records[i].primal_residual - np.linalg.norm(a - s_next)) <= 1e-12
        s = s_next
    assert res.iters == sweeps
    assert np.allclose(res.a_hat.array, a, atol=1e-12)
    assert np.allclose(res.s_hat.array, s, atol=1e-12)
    assert np.array_equal(res.l_hat.array, np.zeros((5, 5)))


def test_glasso_balanced_mu_needs_half_the_fixed_sweeps():
    # looping sblvgg_step on the lambda2=None problem is the paper's
    # fixed-penalty glasso iteration
    rng = np.random.default_rng(62)
    sigma = wishart_sigma(60, rng)
    cfg = SolverConfig(mu=0.01, epsilon=1e-6, max_iters=20000)
    prob = LvggProblem(sigma, 0.1, None)
    res, records = solve_lvgg(prob, cfg)
    assert res.converged
    stopped, last = fixed_penalty_run(
        lambda st: sblvgg_step(st, prob, cfg), 60, cfg.epsilon, 2 * res.iters - 1
    )
    assert not stopped
    assert np.array_equal(last.l.array, np.zeros((60, 60)))
    assert kkt_residual(prob, res) <= 10 * cfg.epsilon
    assert records[0].mu == cfg.mu


def test_glasso_too_large_starting_mu_reaches_the_same_limit():
    rng = np.random.default_rng(63)
    prob = LvggProblem(wishart_sigma(30, rng), 0.1, None)
    big, records = solve_lvgg(prob, SolverConfig(mu=5.0, epsilon=1e-8, max_iters=100000))
    ref, _ = solve_lvgg(prob, SolverConfig(mu=0.01, epsilon=1e-8, max_iters=100000))
    assert big.converged and ref.converged
    assert records[0].mu == 5.0 and min(r.mu for r in records) < 5.0
    ds = np.linalg.norm(big.s_hat.array - ref.s_hat.array)
    assert ds <= 1e-3 * max(1.0, np.linalg.norm(ref.s_hat.array))


def test_lvgg_reduces_to_glasso_for_huge_lambda2():
    # lambda2 = 1e3 kills L from the first shrink onward, so the LVGG sweep
    # reproduces the two-block glasso sweep.
    rng = np.random.default_rng(20)
    sigma = wishart_sigma(20, rng)
    cfg = SolverConfig(mu=0.05)
    lv, _ = solve_lvgg(LvggProblem(sigma, 0.1, 1e3), cfg)
    gl, _ = solve_lvgg(LvggProblem(sigma, 0.1, None), cfg)
    assert np.array_equal(lv.l_hat.array, np.zeros((20, 20)))
    assert np.abs(lv.s_hat.array - gl.s_hat.array).max() <= 1e-4


# ---------------------------------------------------------------------------
# result objective


def test_result_objective_is_the_last_sweeps():
    # The cv-lvgg-p100 benchmark truth: re-evaluating the objective from a
    # fresh eigendecomposition of a_hat moves it in the last digits here,
    # for both models.
    truth = generate_synthetic(
        LatentModelSpec(p_obs=100, p_hidden=10, target_sparsity=0.05, seed=7)
    )
    sigma = sample_gaussian(truth.k_marginal, n=600, seed=10).covariance
    prob = LvggProblem(sigma, 0.02, 0.1)
    res, recs = solve_lvgg(prob)
    assert res.objective == recs[-1].objective
    want = eval_objective(prob, res.a_hat, res.l_hat)
    assert abs(res.objective - want) <= 1e-12 * abs(want)

    gprob = LvggProblem(sigma, 0.02, None)
    res, recs = solve_lvgg(gprob)
    assert res.objective == recs[-1].objective
    want = eval_objective(gprob, res.a_hat, None)
    assert abs(res.objective - want) <= 1e-12 * abs(want)
    assert res.rank_l == 0


# ---------------------------------------------------------------------------
# kkt_residual


def make_result(s, l, a):
    return SolverResult(
        s_hat=s,
        l_hat=l,
        a_hat=a,
        objective=0.0,
        rank_l=0,
        nnz_offdiag_s=0,
        sparse_ratio_s=0.0,
        iters=0,
        converged=True,
        primal_residual=0.0,
        wall_time=0.0,
    )


def test_kkt_residual_zero_at_analytic_solution():
    # sigma = I: S* = A* = (1/(1+lambda1)) I, L* = 0 satisfies all three blocks.
    p, lam1, lam2 = 3, 0.2, 1.0
    prob = LvggProblem(SymMatrix.identity(p), lam1, lam2)
    star = SymMatrix(np.eye(p) / (1.0 + lam1))
    res = make_result(star, SymMatrix.zeros(p), star)
    assert kkt_residual(prob, res) <= 1e-8


def test_kkt_residual_detects_perturbation():
    sigma = wishart_sigma(4, np.random.default_rng(21))
    cfg = SolverConfig(mu=0.05, epsilon=1e-8, max_iters=100000)
    for prob in (LvggProblem(sigma, 0.1, 0.2), LvggProblem(sigma, 0.1, None)):
        res, _ = solve_lvgg(prob, cfg)
        assert kkt_residual(prob, res) <= 1e-6
        bumped = res.s_hat.array.copy()
        bumped[0, 0] += 0.1
        perturbed = make_result(SymMatrix(bumped), res.l_hat, res.a_hat)
        assert kkt_residual(prob, perturbed) > 0.05


def test_kkt_residual_small_after_tight_convergence():
    eps = 1e-6
    cfg = SolverConfig(mu=0.05, epsilon=eps, max_iters=50000)
    sigma = wishart_sigma(5, np.random.default_rng(4485))
    truth = generate_synthetic(LatentModelSpec(p_obs=60, seed=3))
    sampled = sample_gaussian(truth.k_marginal, 120, seed=4).covariance
    for prob in (
        LvggProblem(sigma, 0.1, 0.2),
        LvggProblem(sigma, 0.1, None),
        LvggProblem(sampled, 0.05, None),
    ):
        res, _ = solve_lvgg(prob, cfg)
        assert res.converged
        assert kkt_residual(prob, res) <= 10 * eps


def test_kkt_residual_scales_with_epsilon():
    # certificate quality tracks the stopping tolerance: <= 10*eps
    eps = 1e-5
    cfg = SolverConfig(mu=0.05, epsilon=eps, max_iters=50000)
    for p in (5, 20, 50):
        for seed in range(3):
            rng = np.random.default_rng(4000 + 97 * p + seed)
            prob = LvggProblem(wishart_sigma(p, rng), 0.1, 0.2)
            res, _ = solve_lvgg(prob, cfg)
            assert res.converged
            assert kkt_residual(prob, res) <= 10 * eps


def test_kkt_residual_requires_pd_a():
    prob = LvggProblem(SymMatrix.identity(2), 0.1, 0.2)
    bad = make_result(SymMatrix.identity(2), SymMatrix.zeros(2), SymMatrix(np.diag([1.0, -1.0])))
    with pytest.raises(NotPositiveDefiniteError, match="kkt residual undefined"):
        kkt_residual(prob, bad)
