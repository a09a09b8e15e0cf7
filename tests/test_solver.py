"""Unit tests for the split-Bregman iteration and the glasso baseline.

One-step behavior is pinned against hand-derived 1-D values, an analytic
fixed point, and a straight-line transliteration of the four updates; full
solves are checked against closed forms, high-accuracy self-oracles, and
the KKT residual certificate.
"""

import math

import numpy as np
import pytest

from lvglasso import (
    DivergenceError,
    GlassoProblem,
    IterationRecord,
    LvggProblem,
    NotPositiveDefiniteError,
    SolverConfig,
    SolverResult,
    SolverState,
    SymMatrix,
    check_stop,
    kkt_residual,
    sblvgg_step,
    solve_glasso,
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


def test_step_one_dimensional_hand_case():
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


def transliterated_step(sigma, s, l, u, lambda1, lambda2, mu):
    """Straight-line reimplementation of the four updates, for one step."""
    k = mu * (s - l) - sigma - u
    k = (k + k.T) / 2.0
    w, v = np.linalg.eigh(k)
    a_eigs = (w + np.sqrt(w * w + 4.0 * mu)) / (2.0 * mu)
    a = v @ np.diag(a_eigs) @ v.T
    a = (a + a.T) / 2.0
    arg_s = a + l + u / mu
    s_new = np.sign(arg_s) * np.maximum(np.abs(arg_s) - lambda1 / mu, 0.0)
    arg_l = s_new - a - u / mu
    arg_l = (arg_l + arg_l.T) / 2.0
    wl, vl = np.linalg.eigh(arg_l)
    l_new = vl @ np.diag(np.maximum(wl - lambda2 / mu, 0.0)) @ vl.T
    l_new = (l_new + l_new.T) / 2.0
    u_new = u + mu * (a - s_new + l_new)
    return a, s_new, l_new, u_new


def test_step_matches_transliterated_reference():
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
        lambda: solve_glasso(GlassoProblem(sigma, 0.1), SolverConfig()),
    ):
        with pytest.raises(DivergenceError) as info:
            solve()
        assert info.value.state is not None


# ---------------------------------------------------------------------------
# check_stop


def record(it, objective, residual):
    return IterationRecord(
        iter=it,
        objective=objective,
        primal_residual=residual,
        rel_obj_change=math.inf,
        wall_time_cumulative=0.0,
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


# ---------------------------------------------------------------------------
# solve_glasso


def test_glasso_identity_closed_form():
    prob = GlassoProblem(SymMatrix.identity(4), 0.1)
    res, _ = solve_glasso(prob, SolverConfig(mu=0.1, epsilon=1e-6))
    assert res.converged
    assert np.allclose(res.s_hat.array, np.eye(4) / 1.1, atol=1e-4)
    assert res.rank_l == 0
    assert np.array_equal(res.l_hat.array, np.zeros((4, 4)))


def test_glasso_unpenalized_recovers_inverse():
    sigma = SymMatrix([[2.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 2.0]])
    res, _ = solve_glasso(GlassoProblem(sigma, 0.0), SolverConfig(mu=0.1, epsilon=1e-7, max_iters=50000))
    assert np.allclose(res.s_hat.array, np.linalg.inv(sigma.array), atol=1e-4)


def test_glasso_matches_self_oracle():
    rng = np.random.default_rng(77)
    g = rng.standard_normal((9, 3))
    sigma = SymMatrix(g.T @ g / 9)
    prob = GlassoProblem(sigma, 0.2)
    res, _ = solve_glasso(prob, SolverConfig(mu=0.05, epsilon=1e-6, max_iters=50000))
    oracle, _ = solve_glasso(prob, SolverConfig(mu=0.05, epsilon=1e-10, max_iters=200000))
    rel = abs(res.objective - oracle.objective) / max(1.0, abs(oracle.objective))
    assert rel < 1e-6


def transliterated_glasso_step(sigma, s, u, lam, mu):
    """Straight-line two-block sweep (A-update, S-update, dual step)."""
    k = mu * s - sigma - u
    k = (k + k.T) / 2.0
    w, v = np.linalg.eigh(k)
    a_eigs = (w + np.sqrt(w * w + 4.0 * mu)) / (2.0 * mu)
    a = v @ np.diag(a_eigs) @ v.T
    a = (a + a.T) / 2.0
    arg_s = a + u / mu
    s_new = np.sign(arg_s) * np.maximum(np.abs(arg_s) - lam / mu, 0.0)
    u_new = u + mu * (a - s_new)
    objective = (
        -np.log(a_eigs).sum() + (a * sigma).sum() + lam * np.abs(a).sum()
    )
    return a, s_new, u_new, objective


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_glasso_matches_transliterated_reference(sweeps):
    # solve_glasso runs the latent-variable sweep with L held at zero; its
    # first sweeps must equal the plain two-block glasso iteration
    rng = np.random.default_rng(21)
    sigma = wishart_sigma(5, rng)
    lam, mu = 0.15, 0.3
    res, records = solve_glasso(
        GlassoProblem(sigma, lam), SolverConfig(mu=mu, max_iters=sweeps)
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


def test_lvgg_reduces_to_glasso_for_huge_lambda2():
    # lambda2 = 1e3 kills L from the first shrink onward, so the LVGG sweep
    # reproduces the two-block glasso sweep.
    rng = np.random.default_rng(20)
    sigma = wishart_sigma(20, rng)
    cfg = SolverConfig(mu=0.05)
    lv, _ = solve_lvgg(LvggProblem(sigma, 0.1, 1e3), cfg)
    gl, _ = solve_glasso(GlassoProblem(sigma, 0.1), cfg)
    assert np.array_equal(lv.l_hat.array, np.zeros((20, 20)))
    assert np.abs(lv.s_hat.array - gl.s_hat.array).max() <= 1e-4


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
    rng = np.random.default_rng(21)
    prob = LvggProblem(wishart_sigma(4, rng), 0.1, 0.2)
    res, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-8, max_iters=100000))
    bumped = res.s_hat.array.copy()
    bumped[0, 0] += 0.1
    perturbed = make_result(SymMatrix(bumped), res.l_hat, res.a_hat)
    assert kkt_residual(prob, perturbed) > 0.05


def test_kkt_residual_small_after_tight_convergence():
    rng = np.random.default_rng(4485)
    prob = LvggProblem(wishart_sigma(5, rng), 0.1, 0.2)
    res, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-6, max_iters=50000))
    assert res.converged
    assert kkt_residual(prob, res) <= 1e-4


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
    with pytest.raises(NotPositiveDefiniteError):
        kkt_residual(prob, bad)
