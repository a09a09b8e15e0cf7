"""Problem definitions, solver configuration/state, and objective evaluation.

Two estimation problems live here: the latent-variable model (sparse minus
low-rank decomposition of the marginal precision) and the plain sparse
baseline (graphical lasso). Both penalize the entrywise l1 norm *including*
the diagonal, which is how the objectives are written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .symlin import SymMatrix, eig_sym

__all__ = [
    "LvggProblem",
    "GlassoProblem",
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "eval_objective",
    "eval_glasso_objective",
    "psd_rank",
    "offdiag_nnz",
]

# Relative eigenvalue cutoff for counting rank(L).
RANK_TOL = 1e-10


def _check_weight(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass(frozen=True)
class LvggProblem:
    """Latent-variable problem data: empirical covariance and penalty weights.

    Minimize ``-log det(S - L) + tr(sigma (S - L)) + lambda1*||S||_1
    + lambda2*tr(L)`` over ``S - L > 0, L >= 0``.
    """

    sigma: SymMatrix
    lambda1: float
    lambda2: float

    def __post_init__(self):
        # Zero weights are legal for evaluating the objective; estimation
        # proper wants both strictly positive.
        _check_weight("lambda1", self.lambda1)
        _check_weight("lambda2", self.lambda2)
        if np.any(np.diag(self.sigma.array) < 0):
            raise ValueError("covariance diagonal must be nonnegative")

    @property
    def dim(self) -> int:
        return self.sigma.dim


@dataclass(frozen=True)
class GlassoProblem:
    """Sparse-baseline problem data: ``-log det K + tr(sigma K) + lam*||K||_1``."""

    sigma: SymMatrix
    lam: float

    def __post_init__(self):
        _check_weight("lam", self.lam)
        if np.any(np.diag(self.sigma.array) < 0):
            raise ValueError("covariance diagonal must be nonnegative")

    @property
    def dim(self) -> int:
        return self.sigma.dim


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    mu is the augmented-Lagrangian penalty / dual step size (convergence
    holds for any mu > 0; it only affects speed). epsilon is the stopping
    tolerance applied to both the relative objective change and the primal
    residual.
    """

    mu: float = 0.01
    epsilon: float = 1e-4
    max_iters: int = 5000

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SolverState:
    """The splitting quadruple (A, S, L, U) plus iteration telemetry.

    U is the (unscaled) dual variable of the constraint A = S - L.
    """

    a: SymMatrix
    s: SymMatrix
    l: SymMatrix
    u: SymMatrix
    iter: int = 0
    last_objective: float = math.inf
    primal_residual: float = math.inf

    def __post_init__(self):
        dims = {self.a.dim, self.s.dim, self.l.dim, self.u.dim}
        if len(dims) != 1:
            raise ValueError(f"state matrices must share one dimension, got {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.a.dim


@dataclass(frozen=True)
class SolverResult:
    """Converged estimates and structure/iteration summaries.

    rank_l counts eigenvalues of l_hat above ``RANK_TOL * max(1,
    lambda_max(l_hat))``; nnz_offdiag_s counts exactly-nonzero off-diagonal
    entries of s_hat and sparse_ratio_s divides by ``p*(p-1)``.
    """

    s_hat: SymMatrix
    l_hat: SymMatrix
    a_hat: SymMatrix
    objective: float
    rank_l: int
    nnz_offdiag_s: int
    sparse_ratio_s: float
    iters: int
    converged: bool
    primal_residual: float
    wall_time: float

    def to_json_dict(self) -> dict:
        """Scalar fields as a JSON-ready dict (matrices travel separately)."""
        return {
            "objective": self.objective,
            "rank_l": self.rank_l,
            "nnz_offdiag_s": self.nnz_offdiag_s,
            "sparse_ratio_s": self.sparse_ratio_s,
            "iters": self.iters,
            "converged": self.converged,
            "primal_residual": self.primal_residual,
            "wall_time": self.wall_time,
            "dim": self.s_hat.dim,
        }


def psd_rank(m: SymMatrix) -> int:
    """Eigenvalue count above ``RANK_TOL * max(1, lambda_max)``."""
    w = np.linalg.eigvalsh(m.array)
    cutoff = RANK_TOL * max(1.0, float(w[-1]))
    return int(np.count_nonzero(w > cutoff))


def offdiag_nnz(m: SymMatrix) -> int:
    """Exactly-nonzero off-diagonal entry count."""
    arr = m.array != 0
    return int(arr.sum() - np.diag(arr).sum())


def _l1(arr: np.ndarray) -> float:
    return float(np.abs(arr).sum())


def _logdet_pd(m: SymMatrix, what: str) -> float:
    w = eig_sym(m).eigenvalues
    if w[0] <= 0:
        raise NotPositiveDefiniteError(
            f"objective undefined: {what} is not positive definite "
            f"(min eigenvalue {w[0]:.6e})"
        )
    return float(np.log(w).sum())


def eval_objective(problem: LvggProblem, a: SymMatrix, l: SymMatrix) -> float:
    """Latent-variable objective at (A, L), with S identified as A + L.

    ``-log det A + tr(A sigma) + lambda1*||A + L||_1 + lambda2*tr(L)``,
    the functional the stopping rule tracks. On the constraint set A = S - L
    the l1 term equals ``lambda1*||S||_1``.
    """
    logdet = _logdet_pd(a, "a")
    trace_term = float((a.array * problem.sigma.array).sum())
    l1_term = problem.lambda1 * _l1(a.array + l.array)
    trace_l = problem.lambda2 * float(np.trace(l.array))
    return -logdet + trace_term + l1_term + trace_l


def eval_glasso_objective(problem: GlassoProblem, k: SymMatrix) -> float:
    """Sparse-baseline objective ``-log det K + tr(sigma K) + lam*||K||_1``."""
    logdet = _logdet_pd(k, "k")
    trace_term = float((k.array * problem.sigma.array).sum())
    return -logdet + trace_term + problem.lam * _l1(k.array)
