"""Split Bregman iterations for the latent-variable and sparse-only models.

One sweep of the latent-variable iteration performs four sequential block
updates on the quadruple (A, S, L, U): a closed-form positive-definite
A-update, an elementwise soft-threshold S-update, a spectral trace-shrink
L-update, and a dual ascent step on the constraint A = S - L. The
sparse-only baseline (graphical lasso) runs the same sweep and driver with
L held at zero: its L-update and trace penalty are skipped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, NotPositiveDefiniteError
from .model import (
    RANK_TOL,
    GlassoProblem,
    LvggProblem,
    SolverConfig,
    SolverResult,
    SolverState,
    _l1,
    eval_glasso_objective,
    eval_objective,
    offdiag_nnz,
    psd_rank,
)
from .symlin import (
    SymMatrix,
    eig_sym,
    eigen_reconstruct,
    psd_trace_shrink,
    soft_threshold,
    sqrt_update_eigenvalues,
)

__all__ = [
    "IterationRecord",
    "sblvgg_step",
    "check_stop",
    "solve_lvgg",
    "solve_glasso",
    "kkt_residual",
]


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry for one sweep: objective, residual, cumulative wall time."""

    iter: int
    objective: float
    primal_residual: float
    rel_obj_change: float
    wall_time_cumulative: float

    def __post_init__(self):
        if self.primal_residual < 0:
            raise ValueError("primal_residual must be nonnegative")


def sblvgg_step(
    state: SolverState, problem: LvggProblem, config: SolverConfig
) -> SolverState:
    """One four-block sweep of the latent-variable iteration.

    In order: A solves ``-A^{-1} - K + mu*A = 0`` with
    ``K = mu*(S - L) - sigma - U``; S soft-thresholds ``A + L + U/mu`` at
    ``lambda1/mu``; L trace-shrinks ``S - A - U/mu`` at ``lambda2/mu`` onto
    the PSD cone; U ascends by ``mu*(A - S + L)``.

    The objective at the new iterate is computed here, reusing the
    A-update's eigenvalues for ``log det A`` so the sweep costs two
    eigendecompositions, not three. A non-finite iterate or objective
    raises DivergenceError carrying the last finite state.
    """
    return _sweep(state, problem.sigma.array, problem.lambda1, problem.lambda2, config.mu)


def _sweep(
    state: SolverState,
    sigma: np.ndarray,
    lambda1: float,
    lambda2: float | None,
    mu: float,
) -> SolverState:
    # The sweep of both models. lambda2=None is the graphical lasso: the
    # L-update and the trace term are skipped, so L keeps its starting zero
    # and every "+ l" below adds an exact zero.
    s, l, u = state.s.array, state.l.array, state.u.array
    try:
        k = SymMatrix(mu * (s - l) - sigma - u)
        dec = eig_sym(k)
        a_eigs = sqrt_update_eigenvalues(dec.eigenvalues, mu)
        a = eigen_reconstruct(dec.eigenvectors, a_eigs)
        s_new = soft_threshold(SymMatrix(a.array + l + u / mu), lambda1 / mu)
        l_new = state.l
        if lambda2 is not None:
            l_new = psd_trace_shrink(
                SymMatrix(s_new.array - a.array - u / mu), lambda2 / mu
            )
        gap = a.array - s_new.array + l_new.array
        u_new = SymMatrix(u + mu * gap)
    except ValueError as exc:
        raise DivergenceError(
            f"non-finite iterate at iteration {state.iter + 1}: {exc}", state=state
        ) from exc
    with np.errstate(divide="ignore"):
        logdet = float(np.log(a_eigs).sum())
    objective = (
        -logdet
        + float((a.array * sigma).sum())
        + lambda1 * _l1(a.array + l_new.array)
    )
    if lambda2 is not None:
        objective += lambda2 * float(np.trace(l_new.array))
    if not math.isfinite(objective):
        raise DivergenceError(
            f"objective diverged to {objective} at iteration {state.iter + 1}",
            state=state,
        )
    return SolverState(
        a=a,
        s=s_new,
        l=l_new,
        u=u_new,
        iter=state.iter + 1,
        last_objective=objective,
        primal_residual=float(np.linalg.norm(gap)),
    )


def check_stop(
    prev: IterationRecord, curr: IterationRecord, state: SolverState, epsilon: float
) -> bool:
    """Stopping rule: relative objective change AND primal residual < epsilon.

    The relative change is ``|obj_curr - obj_prev| / max(1, |obj_curr|)``;
    both criteria must hold (conjunction).
    """
    rel = abs(curr.objective - prev.objective) / max(1.0, abs(curr.objective))
    return rel < epsilon and state.primal_residual < epsilon


def _default_init(dim: int) -> SolverState:
    # Feasible, symmetric, scale-free start; A is recomputed first thing so
    # its slot only needs a symmetric placeholder.
    eye = SymMatrix.identity(dim)
    zero = SymMatrix.zeros(dim)
    return SolverState(a=eye, s=eye, l=zero, u=zero)


def _solve(
    step: Callable[[SolverState], SolverState],
    state: SolverState,
    config: SolverConfig,
    summarize: Callable[[SolverState], tuple[float, int]],
) -> tuple[SolverResult, list[IterationRecord]]:
    # Shared driver: sweep until check_stop fires or max_iters elapse, then
    # assemble the result; summarize(state) gives (objective, rank_l).
    t0 = time.perf_counter()
    records: list[IterationRecord] = []
    converged = False
    for _ in range(config.max_iters):
        new_state = step(state)
        rel = abs(new_state.last_objective - state.last_objective) / max(
            1.0, abs(new_state.last_objective)
        )
        records.append(IterationRecord(
            iter=new_state.iter,
            objective=new_state.last_objective,
            primal_residual=new_state.primal_residual,
            rel_obj_change=rel,
            wall_time_cumulative=time.perf_counter() - t0,
        ))
        state = new_state
        if len(records) > 1 and check_stop(*records[-2:], state, config.epsilon):
            converged = True
            break
    objective, rank_l = summarize(state)
    nnz = offdiag_nnz(state.s)
    p = state.dim
    return SolverResult(
        s_hat=state.s,
        l_hat=state.l,
        a_hat=state.a,
        objective=objective,
        rank_l=rank_l,
        nnz_offdiag_s=nnz,
        sparse_ratio_s=nnz / (p * (p - 1)) if p > 1 else 0.0,
        iters=len(records),
        converged=converged,
        primal_residual=state.primal_residual,
        wall_time=time.perf_counter() - t0,
    ), records


def solve_lvgg(
    problem: LvggProblem,
    config: SolverConfig | None = None,
    init: SolverState | None = None,
) -> tuple[SolverResult, list[IterationRecord]]:
    """Estimate the sparse-minus-low-rank precision decomposition.

    Runs `sblvgg_step` from ``S = I, L = 0, U = 0`` (or ``init``) until
    `check_stop` fires or ``config.max_iters`` sweeps elapse. Hitting the
    cap is reported via ``converged=False`` in the result, not an
    exception; DivergenceError propagates.

    Returns
    -------
    result : SolverResult
        Final estimates with rank/sparsity summaries; ``objective`` is
        re-evaluated at (a_hat, l_hat).
    records : list of IterationRecord
        One telemetry row per sweep performed.
    """
    if config is None:
        config = SolverConfig()
    return _solve(
        lambda st: sblvgg_step(st, problem, config),
        init if init is not None else _default_init(problem.dim),
        config,
        lambda st: (eval_objective(problem, st.a, st.l), psd_rank(st.l)),
    )


def solve_glasso(
    problem: GlassoProblem, config: SolverConfig | None = None
) -> tuple[SolverResult, list[IterationRecord]]:
    """Estimate a sparse precision matrix (no latent part).

    Runs the same sweep and driver as `solve_lvgg` with L held at zero: the
    L-update and the trace penalty are skipped, so the result's ``l_hat``
    is zero and ``rank_l = 0`` by construction. ``s_hat`` carries the
    thresholded (exactly sparse) iterate, ``a_hat`` the smooth one; at
    convergence they agree to the stopping tolerance.
    """
    if config is None:
        config = SolverConfig()
    return _solve(
        lambda st: _sweep(st, problem.sigma.array, problem.lam, None, config.mu),
        _default_init(problem.dim),
        config,
        lambda st: (eval_glasso_objective(problem, st.a), 0),
    )


def kkt_residual(problem: LvggProblem, result: SolverResult) -> float:
    """Independent optimality certificate for a latent-variable solve.

    Measures, at (A, S, L) = (a_hat, s_hat, l_hat) with multiplier
    ``G = A^{-1} - sigma``:

    (i) S-block stationarity: where ``S_ij != 0``,
        ``|G_ij - lambda1*sgn(S_ij)|``; where ``S_ij = 0``, the distance of
        ``G_ij`` to ``[-lambda1, lambda1]``. Max over entries.
    (ii) L-block: ``M = G + lambda2*I`` must be PSD and vanish on
        range(L); violations are ``max(0, -lambda_min(M))`` and the
        spectral norm of M compressed onto the range eigenvectors.
    (iii) primal feasibility ``||A - S + L||_F``.

    Returns the max of the three. A value below ~10x the stopping
    tolerance of the run certifies approximate optimality.
    """
    dec = eig_sym(result.a_hat)
    w = dec.eigenvalues
    if w[0] <= 0:
        raise NotPositiveDefiniteError(
            f"kkt residual undefined: a_hat is not positive definite "
            f"(min eigenvalue {w[0]:.6e})"
        )
    v = dec.eigenvectors
    ainv = (v / w) @ v.T
    ainv = (ainv + ainv.T) / 2.0
    grad = ainv - problem.sigma.array

    s = result.s_hat.array
    p = s.shape[0]
    nz = s != 0
    stat = np.where(
        nz,
        np.abs(grad - problem.lambda1 * np.sign(s)),
        np.maximum(np.abs(grad) - problem.lambda1, 0.0),
    )
    r_s = float(stat.max())

    m = grad + problem.lambda2 * np.eye(p)
    m = (m + m.T) / 2.0
    dec_l = eig_sym(result.l_hat)
    wl = dec_l.eigenvalues
    cutoff = RANK_TOL * max(1.0, float(wl[-1]))
    range_vecs = dec_l.eigenvectors[:, wl > cutoff]
    wm = np.linalg.eigvalsh(m)
    r_l = float(max(0.0, -wm[0]))
    if range_vecs.shape[1] > 0:
        compressed = range_vecs.T @ m @ range_vecs
        compressed = (compressed + compressed.T) / 2.0
        r_l = max(r_l, float(np.abs(np.linalg.eigvalsh(compressed)).max()))

    r_feas = float(
        np.linalg.norm(result.a_hat.array - s + result.l_hat.array)
    )
    return max(r_s, r_l, r_feas)
