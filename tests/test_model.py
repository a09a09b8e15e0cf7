"""Unit tests for problem definitions, configuration, and objectives."""

import json
import math

import numpy as np
import pytest

from lvglasso import (
    LvggProblem,
    NotPositiveDefiniteError,
    SolverConfig,
    SolverResult,
    SolverState,
    SymMatrix,
    eval_objective,
    offdiag_nnz,
    psd_rank,
)


def random_spd(p, rng, rows=None):
    g = rng.standard_normal((rows or 3 * p, p))
    return SymMatrix(g.T @ g / (rows or 3 * p))


# ---------------------------------------------------------------------------
# Problem and config validation


def test_lvgg_problem_accepts_valid_input():
    prob = LvggProblem(SymMatrix.identity(3), 0.1, 0.2)
    assert prob.lambda1 == 0.1 and prob.lambda2 == 0.2


def test_lvgg_problem_rejects_negative_weights():
    sigma = SymMatrix.identity(2)
    with pytest.raises(ValueError):
        LvggProblem(sigma, -0.1, 0.2)
    with pytest.raises(ValueError):
        LvggProblem(sigma, 0.1, -0.2)
    # non-finite weights would only surface later as a divergence at sweep 1
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LvggProblem(sigma, bad, 0.2)
        with pytest.raises(ValueError):
            LvggProblem(sigma, 0.1, bad)


def test_lvgg_problem_requires_lambda2():
    # the graphical lasso is asked for by lambda2=None, never by omission
    with pytest.raises(TypeError):
        LvggProblem(SymMatrix.identity(2), 0.1)


def test_lvgg_problem_allows_zero_weights():
    # zero weights stay legal so the pure likelihood objective is evaluable
    LvggProblem(SymMatrix.identity(2), 0.0, 0.0)


def test_lvgg_problem_rejects_negative_covariance_diagonal():
    with pytest.raises(ValueError):
        LvggProblem(SymMatrix([[-1.0, 0.0], [0.0, 1.0]]), 0.1, 0.2)


def test_glasso_problem_validation():
    LvggProblem(SymMatrix.identity(2), 0.0, None)
    with pytest.raises(ValueError):
        LvggProblem(SymMatrix.identity(2), -0.5, None)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LvggProblem(SymMatrix.identity(2), bad, None)


def test_solver_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.mu == 0.01
    assert cfg.epsilon == 1e-4
    assert cfg.max_iters == 5000
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    # non-finite values would stop after two sweeps or fail as a divergence
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(mu=bad)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=bad)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_solver_state_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        SolverState(
            a=SymMatrix.identity(2),
            s=SymMatrix.identity(2),
            l=SymMatrix.zeros(3),
            u=SymMatrix.zeros(2),
        )


# ---------------------------------------------------------------------------
# Rank and sparsity summaries


def test_psd_rank_counts_relative_eigenvalues():
    assert psd_rank(SymMatrix(np.diag([1.0, 1e-14, 0.0]))) == 1
    assert psd_rank(SymMatrix.zeros(4)) == 0
    assert psd_rank(SymMatrix(np.diag([2.0, 1.0, 0.5]))) == 3


def test_psd_rank_scale_invariant():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((6, 3))
    low = SymMatrix(g @ g.T)  # rank 3 by construction
    assert psd_rank(low) == 3
    assert psd_rank(SymMatrix(low.array * 1e6)) == 3
    assert psd_rank(SymMatrix(low.array * 1e-6)) == 3


def test_offdiag_nnz_hand_case():
    m = SymMatrix([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [2.0, 0.0, 0.0]])
    assert offdiag_nnz(m) == 2  # the symmetric (0,2)/(2,0) pair


# ---------------------------------------------------------------------------
# eval_objective


def test_eval_objective_identity_case():
    # -logdet I + tr(I) + 0.1*||I||_1 + 1*tr(0) = 0 + 2 + 0.2 + 0 = 2.2
    prob = LvggProblem(SymMatrix.identity(2), 0.1, 1.0)
    val = eval_objective(prob, SymMatrix.identity(2), SymMatrix.zeros(2))
    assert abs(val - 2.2) < 1e-12


@pytest.mark.parametrize("c", [0.5, 1.0, 1.3])
def test_eval_objective_scaled_identity(c):
    p = 4
    prob = LvggProblem(SymMatrix.identity(p), 0.0, 0.0)
    val = eval_objective(prob, SymMatrix(c * np.eye(p)), SymMatrix.zeros(p))
    assert abs(val - (-p * math.log(c) + p * c)) < 1e-12


def naive_objective(sigma, a, l, lambda1, lambda2):
    """Straight-line reimplementation of the four objective terms."""
    p = a.shape[0]
    logdet = math.log(np.linalg.det(a))
    trace_term = sum(sum(a[i, j] * sigma[j, i] for j in range(p)) for i in range(p))
    l1 = sum(abs(a[i, j] + l[i, j]) for i in range(p) for j in range(p))
    tr_l = sum(l[i, i] for i in range(p))
    return -logdet + trace_term + lambda1 * l1 + lambda2 * tr_l


def test_eval_objective_matches_naive_evaluator():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sigma = random_spd(3, rng)
        a = random_spd(3, rng)
        g = rng.standard_normal((3, 2))
        l = SymMatrix(g @ g.T)
        l1, l2 = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.01, 1.0))
        prob = LvggProblem(sigma, l1, l2)
        got = eval_objective(prob, a, l)
        want = naive_objective(sigma.array, a.array, l.array, l1, l2)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_eval_objective_rejects_non_pd():
    prob = LvggProblem(SymMatrix.identity(2), 0.1, 0.1)
    with pytest.raises(NotPositiveDefiniteError, match="objective undefined"):
        eval_objective(prob, SymMatrix(np.diag([1.0, -1.0])), SymMatrix.zeros(2))
    with pytest.raises(NotPositiveDefiniteError, match="objective undefined: a"):
        eval_objective(prob, SymMatrix(np.diag([1.0, 0.0])), SymMatrix.zeros(2))


def test_eval_objective_strictly_convex_on_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(10):
        sigma = random_spd(4, rng)
        prob = LvggProblem(sigma, 0.3, 0.4)
        a1, a2 = random_spd(4, rng), random_spd(4, rng)
        g1 = rng.standard_normal((4, 2))
        g2 = rng.standard_normal((4, 2))
        l1m, l2m = SymMatrix(g1 @ g1.T), SymMatrix(g2 @ g2.T)
        mid_a = SymMatrix((a1.array + a2.array) / 2.0)
        mid_l = SymMatrix((l1m.array + l2m.array) / 2.0)
        lhs = eval_objective(prob, mid_a, mid_l)
        rhs = 0.5 * eval_objective(prob, a1, l1m) + 0.5 * eval_objective(prob, a2, l2m)
        assert lhs < rhs  # strict: the A parts differ almost surely


# ---------------------------------------------------------------------------
# eval_objective of the graphical lasso (lambda2=None)


def test_eval_glasso_objective_identity_cases():
    sigma = SymMatrix.identity(2)
    k = SymMatrix.identity(2)
    assert abs(eval_objective(LvggProblem(sigma, 0.0, None), k, None) - 2.0) < 1e-12
    assert abs(eval_objective(LvggProblem(sigma, 0.5, None), k, None) - 3.0) < 1e-12


def test_eval_objective_needs_l_when_lambda2_is_set():
    sigma = SymMatrix.identity(2)
    with pytest.raises(ValueError, match="l is required"):
        eval_objective(LvggProblem(sigma, 0.1, 0.2), sigma, None)


def test_glasso_objective_agrees_with_lvgg_at_zero_l():
    rng = np.random.default_rng(7)
    for _ in range(5):
        sigma = random_spd(3, rng)
        a = random_spd(3, rng)
        lam = float(rng.uniform(0.01, 1.0))
        lv = eval_objective(LvggProblem(sigma, lam, 5.0), a, SymMatrix.zeros(3))
        gl = eval_objective(LvggProblem(sigma, lam, None), a, None)
        assert abs(lv - gl) < 1e-12 * max(1.0, abs(gl))


# ---------------------------------------------------------------------------
# SolverResult serialization


def test_solver_result_round_trips_through_json():
    res = SolverResult(
        s_hat=SymMatrix.identity(2),
        l_hat=SymMatrix.zeros(2),
        a_hat=SymMatrix.identity(2),
        objective=2.2,
        rank_l=0,
        nnz_offdiag_s=0,
        sparse_ratio_s=0.0,
        iters=12,
        converged=True,
        primal_residual=1e-6,
        wall_time=0.5,
    )
    doc = json.loads(json.dumps(res.to_json_dict()))
    assert doc["objective"] == 2.2
    assert doc["rank_l"] == 0
    assert doc["converged"] is True
    assert doc["iters"] == 12
