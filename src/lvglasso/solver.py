"""Split Bregman iterations for the latent-variable and sparse-only models.

One sweep of the latent-variable iteration performs four sequential block
updates on the quadruple (A, S, L, U): a closed-form positive-definite
A-update, an elementwise soft-threshold S-update, a spectral trace-shrink
L-update, and a dual ascent step on the constraint A = S - L. The
sparse-only baseline (graphical lasso) is the same problem with L held at
zero: ``LvggProblem(sigma, lambda1, None)`` poses it, `solve_lvgg` solves
it, and `sblvgg_step` skips its L-update and trace penalty.

The sweep is over-relaxed (Eckstein & Bertsekas 1992; Boyd et al. 2011,
section 3.4.3): the S-, L- and U-updates read the blend
``A_hat = alpha*A + (1 - alpha)*(S - L)`` of the new A and the incoming
S - L, with the constant alpha = 1.7; alpha = 1 is the paper's sweep. The
reported primal residual, objective and stopping rule stay at the new A.

The penalty mu is adapted by residual balancing in the driver `solve_lvgg`:
``SolverConfig.mu`` is the starting value, and after each sweep mu is
doubled or halved when the relaxed primal residual ``||U_k - U_{k-1}||/mu``
and the dual residual are far apart. After a bounded number of changes mu
stays fixed, so every run ends in the relaxed fixed-penalty iteration. For
the two-block graphical lasso that iteration converges for any alpha in
(0, 2) (Eckstein & Bertsekas 1992); for the three-block latent-variable
sweep no theorem covers it, and each solve is certified by `kkt_residual`
instead. The per-sweep primitive `sblvgg_step` always uses the ``mu`` of
the config it is given.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError
from .model import (
    LvggProblem,
    SolverConfig,
    SolverResult,
    SolverState,
    _objective,
    _offdiag_density,
    _rank_cutoff,
    offdiag_nnz,
    psd_rank,
)
from .symlin import (
    SymMatrix,
    _eig_pd,
    _eigvals_sym,
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
    "kkt_residual",
]

# Residual balancing (He, Yang & Wang 2000; Boyd et al. 2011, section 3.4.1):
# after a sweep, mu is multiplied by _MU_FACTOR when the relaxed primal
# residual exceeds _MU_RATIO times the dual residual and divided by it in
# the reverse case. After _MU_MAX_CHANGES changes mu stays fixed, so the
# tail of every run is the relaxed fixed-penalty iteration.
_MU_RATIO = 10.0
_MU_FACTOR = 2.0
_MU_MAX_CHANGES = 10

# The L-update computes only the eigenpairs above lambda2/mu while the
# previous one kept at most p/_PARTIAL_DIVISOR of them, and runs a full
# eigendecomposition otherwise. At 2 BLAS threads the partial solve broke
# even with the full one at about k = 15, 35 and 60 kept of p = 100, 200
# and 400, and took 5x as long at k = p.
_PARTIAL_DIVISOR = 8

# Over-relaxation (Eckstein & Bertsekas 1992; Boyd et al. 2011, section
# 3.4.3): the S-, L- and U-updates read _RELAX * A + (1 - _RELAX) * (S - L)
# in place of the new A. 1.0 is the paper's sweep. On the benchmark inputs
# 1.7 took 29-45% fewer sweeps than 1.0, and fewer in total than 1.6 or 1.8.
_RELAX = 1.7


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry for one sweep: objective, residual, cumulative wall time,
    and the penalty mu the sweep used."""

    iter: int
    objective: float
    primal_residual: float
    rel_obj_change: float
    wall_time_cumulative: float
    mu: float

    def __post_init__(self):
        if self.primal_residual < 0:
            raise ValueError("primal_residual must be nonnegative")


def sblvgg_step(
    state: SolverState, problem: LvggProblem, config: SolverConfig
) -> SolverState:
    """One sweep of the split Bregman iteration at fixed ``config.mu``.

    In order: A solves ``-A^{-1} - K + mu*A = 0`` with
    ``K = mu*(S - L) - sigma - U``; the over-relaxed
    ``A_hat = alpha*A + (1 - alpha)*(S - L)`` blends it with the incoming
    S and L (alpha = ``_RELAX``; 1 is the paper's sweep); S
    soft-thresholds ``A_hat + L + U/mu`` at ``lambda1/mu``; L trace-shrinks
    ``S - A_hat - U/mu`` at ``lambda2/mu`` onto the PSD cone; U ascends by
    ``mu*(A_hat - S + L)``. The returned ``primal_residual`` is the
    unrelaxed ``||A - S + L||_F`` and the objective is taken at the new
    (A, L). With ``lambda2=None`` (the graphical lasso) the L-update and
    the trace term are skipped, so L keeps its value, zero from the default
    start, every ``+ L`` adds an exact zero, and ``A_hat`` is
    ``alpha*A + (1 - alpha)*S``.

    The objective at the new iterate is computed here, reusing the
    A-update's eigenvalues for ``log det A`` so the sweep costs two
    eigendecompositions, not three. The A-update's is always full; the
    L-update's is partial (only the eigenpairs above ``lambda2/mu``) while
    ``state.l_kept``, the count the previous L-update kept, is at most p/8,
    and full otherwise. A state whose size differs from the
    problem's raises ValueError; a non-finite iterate or objective raises
    DivergenceError carrying the last finite state.
    """
    if state.dim != problem.dim:
        raise ValueError(
            f"state dimension {state.dim} does not match problem dimension {problem.dim}"
        )
    sigma, lambda1, lambda2, mu = (
        problem.sigma.array, problem.lambda1, problem.lambda2, config.mu
    )
    s, l, u = state.s.array, state.l.array, state.u.array
    try:
        k = SymMatrix(mu * (s - l) - sigma - u)
        dec = eig_sym(k)
        a_eigs = sqrt_update_eigenvalues(dec.eigenvalues, mu)
        a = eigen_reconstruct(dec.eigenvectors, a_eigs)
        ah = _RELAX * a.array + (1.0 - _RELAX) * (s - l)
        s_new = soft_threshold(SymMatrix(ah + l + u / mu), lambda1 / mu)
        l_new, l_kept = state.l, state.l_kept
        if lambda2 is not None:
            l_new, l_kept = psd_trace_shrink(
                SymMatrix(s_new.array - ah - u / mu), lambda2 / mu,
                partial=_PARTIAL_DIVISOR * state.l_kept <= problem.dim,
            )
        u_new = SymMatrix(u + mu * (ah - s_new.array + l_new.array))
        gap = a.array - s_new.array + l_new.array
    except ValueError as exc:
        raise DivergenceError(
            f"non-finite iterate at iteration {state.iter + 1}: {exc}", state=state
        ) from exc
    with np.errstate(divide="ignore"):
        logdet = float(np.log(a_eigs).sum())
    objective = _objective(logdet, a.array, l_new.array, sigma, lambda1, lambda2)
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
        l_kept=l_kept,
    )


def check_stop(
    prev: IterationRecord, curr: IterationRecord, state: SolverState, epsilon: float
) -> bool:
    """Stopping rule: relative objective change AND primal residual < epsilon.

    The relative change is ``|obj_curr - obj_prev| / max(1, |obj_curr|)``;
    both criteria must hold (conjunction).
    """
    rel = _rel_change(prev.objective, curr.objective)
    return rel < epsilon and state.primal_residual < epsilon


def _rel_change(prev: float, curr: float) -> float:
    return abs(curr - prev) / max(1.0, abs(curr))


def _balanced_mu(mu: float, primal: float, dual: float) -> float:
    if primal > _MU_RATIO * dual:
        return mu * _MU_FACTOR
    if dual > _MU_RATIO * primal:
        return mu / _MU_FACTOR
    return mu


def _default_init(dim: int) -> SolverState:
    # Feasible, symmetric, scale-free start; A is recomputed first thing so
    # its slot only needs a symmetric placeholder.
    eye = SymMatrix.identity(dim)
    zero = SymMatrix.zeros(dim)
    return SolverState(a=eye, s=eye, l=zero, u=zero)


def solve_lvgg(
    problem: LvggProblem,
    config: SolverConfig | None = None,
    init: SolverState | None = None,
) -> tuple[SolverResult, list[IterationRecord]]:
    """Estimate the sparse-minus-low-rank precision decomposition, or with
    ``problem.lambda2=None`` the graphical lasso's sparse precision.

    Runs `sblvgg_step` from ``S = I, L = 0, U = 0`` (or ``init``) until
    `check_stop` fires or ``config.max_iters`` sweeps elapse. ``config.mu``
    is the starting penalty: after each sweep it is doubled or halved when
    the relaxed primal residual ``||U_k - U_{k-1}||_F / mu`` (the one the
    dual step used) and the dual residual
    ``mu*||(S - L)_k - (S - L)_{k-1}||_F`` are far apart, at most a fixed
    number of times, after which it stays fixed. The stopping rule reads
    the unrelaxed primal residual. Hitting the cap is reported via
    ``converged=False`` in the result, not an exception; DivergenceError
    propagates. For the graphical lasso L stays zero, so ``l_hat`` is zero
    and ``rank_l = 0``; an ``init`` with a nonzero L raises ValueError.

    Returns
    -------
    result : SolverResult
        Final estimates with rank/sparsity summaries; ``objective`` is
        the last sweep's objective, which is evaluated at (a_hat, l_hat).
        ``s_hat`` carries the thresholded (exactly sparse) iterate,
        ``a_hat`` the smooth one; at convergence they agree to the
        stopping tolerance.
    records : list of IterationRecord
        One telemetry row per sweep performed, with the mu it used.
    """
    if config is None:
        config = SolverConfig()
    state = init if init is not None else _default_init(problem.dim)
    if problem.lambda2 is None and np.any(state.l.array):
        raise ValueError("the graphical lasso (lambda2=None) needs init.l = 0")
    # config is rebuilt only when residual balancing changes mu.
    t0 = time.perf_counter()
    records: list[IterationRecord] = []
    converged = False
    mu_changes = 0
    for _ in range(config.max_iters):
        prev, state = state, sblvgg_step(state, problem, config)
        records.append(IterationRecord(
            iter=state.iter,
            objective=state.last_objective,
            primal_residual=state.primal_residual,
            rel_obj_change=_rel_change(prev.last_objective, state.last_objective),
            wall_time_cumulative=time.perf_counter() - t0,
            mu=config.mu,
        ))
        if len(records) > 1 and check_stop(*records[-2:], state, config.epsilon):
            converged = True
            break
        if mu_changes < _MU_MAX_CHANGES:
            # primal: the relaxed residual the dual step used,
            # ||U_k - U_{k-1}||_F / mu; dual: mu * ||(S - L)_k - (S - L)_{k-1}||_F
            primal = float(np.linalg.norm(state.u.array - prev.u.array)) / config.mu
            dual = config.mu * float(np.linalg.norm(
                (state.s.array - prev.s.array) - (state.l.array - prev.l.array)
            ))
            mu = _balanced_mu(config.mu, primal, dual)
            if mu != config.mu:
                config = replace(config, mu=mu)
                mu_changes += 1
    nnz = offdiag_nnz(state.s)
    return SolverResult(
        s_hat=state.s,
        l_hat=state.l,
        a_hat=state.a,
        objective=state.last_objective,
        rank_l=psd_rank(state.l),
        nnz_offdiag_s=nnz,
        sparse_ratio_s=_offdiag_density(nnz, state.dim),
        iters=len(records),
        converged=converged,
        primal_residual=state.primal_residual,
        wall_time=time.perf_counter() - t0,
    ), records


def kkt_residual(problem: LvggProblem, result: SolverResult) -> float:
    """Independent optimality certificate for a solve of either model.

    Measures, at (A, S, L) = (a_hat, s_hat, l_hat) with multiplier
    ``G = A^{-1} - sigma``:

    (i) S-block stationarity: where ``S_ij != 0``,
        ``|G_ij - lambda1*sgn(S_ij)|``; where ``S_ij = 0``, the distance of
        ``G_ij`` to ``[-lambda1, lambda1]``. Max over entries.
    (ii) L-block: ``M = G + lambda2*I`` must be PSD and vanish on
        range(L); violations are ``max(0, -lambda_min(M))`` and the
        spectral norm of M compressed onto the range eigenvectors.
    (iii) primal feasibility ``||A - S + L||_F``.

    Returns the max of the three. With ``lambda2=None`` (the graphical
    lasso) L is held at zero, so (ii) is skipped. A value below ~10x the
    stopping tolerance of the run certifies approximate optimality.
    """
    lambda1, lambda2 = problem.lambda1, problem.lambda2
    dec = _eig_pd(result.a_hat, "kkt residual undefined: a_hat")
    ainv = eigen_reconstruct(dec.eigenvectors, 1.0 / dec.eigenvalues)
    grad = ainv.array - problem.sigma.array

    s = result.s_hat.array
    nz = s != 0
    stat = np.where(
        nz,
        np.abs(grad - lambda1 * np.sign(s)),
        np.maximum(np.abs(grad) - lambda1, 0.0),
    )
    r_s = float(stat.max())

    r_l = 0.0
    if lambda2 is not None:
        m = SymMatrix(grad + lambda2 * np.eye(s.shape[0]))
        dec_l = eig_sym(result.l_hat)
        wl = dec_l.eigenvalues
        range_vecs = dec_l.eigenvectors[:, wl > _rank_cutoff(wl)]
        r_l = float(max(0.0, -_eigvals_sym(m)[0]))
        if range_vecs.shape[1] > 0:
            compressed = SymMatrix(range_vecs.T @ m.array @ range_vecs)
            r_l = max(r_l, float(np.abs(_eigvals_sym(compressed)).max()))

    r_feas = float(
        np.linalg.norm(result.a_hat.array - s + result.l_hat.array)
    )
    return max(r_s, r_l, r_feas)
