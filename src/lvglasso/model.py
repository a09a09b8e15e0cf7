"""Problem definitions, solver configuration/state, and objective evaluation.

One problem type poses both estimators: the latent-variable model (sparse
minus low-rank decomposition of the marginal precision) and, with
``lambda2=None``, the plain sparse baseline (graphical lasso), whose
low-rank part is held at zero. Both penalize the entrywise l1 norm
*including* the diagonal, which is how the objective is written. The
objective formula, the rank cutoff and the off-diagonal density are written
once, here, for the solver sweep, the evaluator and the cross-validation
score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symlin import SymMatrix, _eig_pd, _eigvals_sym

__all__ = [
    "LvggProblem",
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "eval_objective",
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
    + lambda2*tr(L)`` over ``S - L > 0, L >= 0``. ``lambda2=None`` holds L
    at zero: the graphical lasso ``-log det S + tr(sigma S)
    + lambda1*||S||_1``.
    """

    sigma: SymMatrix
    lambda1: float
    lambda2: float | None

    def __post_init__(self):
        # Zero weights are legal for evaluating the objective; estimation
        # proper wants both strictly positive.
        _check_weight("lambda1", self.lambda1)
        if self.lambda2 is not None:
            _check_weight("lambda2", self.lambda2)
        if np.any(np.diag(self.sigma.array) < 0):
            raise ValueError("covariance diagonal must be nonnegative")

    @property
    def dim(self) -> int:
        return self.sigma.dim


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    mu is the starting augmented-Lagrangian penalty / dual step size. The
    solvers adapt it by residual balancing, with a bounded number of
    changes after which it stays fixed (convergence holds for any starting
    mu > 0; it only affects speed). epsilon is the stopping tolerance
    applied to both the relative objective change and the primal residual.
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
    l_kept is the number of eigenpairs the last L-update kept (eigenvalues
    of its input above lambda2/mu, which is rank(L) up to round-off); the
    next L-update computes only the eigenpairs above the threshold while
    l_kept is at most p/8. It is 0 before the first sweep and for the
    graphical lasso, which has no L-update.
    """

    a: SymMatrix
    s: SymMatrix
    l: SymMatrix
    u: SymMatrix
    iter: int = 0
    last_objective: float = math.inf
    primal_residual: float = math.inf
    l_kept: int = 0

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

    objective is the last sweep's objective at (a_hat, l_hat): what
    `eval_objective` (for the sparse baseline, at ``(a_hat, None)``) gives
    up to round-off in the log-determinant. rank_l counts
    eigenvalues of l_hat above ``RANK_TOL * max(1, lambda_max(l_hat))``;
    nnz_offdiag_s counts exactly-nonzero off-diagonal entries of s_hat and
    sparse_ratio_s divides by ``p*(p-1)``.
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


def _rank_cutoff(w: np.ndarray) -> float:
    # Eigenvalues (ascending) above this count toward rank(L).
    return RANK_TOL * max(1.0, float(w[-1]))


def psd_rank(m: SymMatrix) -> int:
    """Eigenvalue count above ``RANK_TOL * max(1, lambda_max)``."""
    w = _eigvals_sym(m)
    return int(np.count_nonzero(w > _rank_cutoff(w)))


def offdiag_nnz(m: SymMatrix) -> int:
    """Exactly-nonzero off-diagonal entry count."""
    arr = m.array != 0
    return int(arr.sum() - np.diag(arr).sum())


def _offdiag_density(nnz: int, p: int) -> float:
    # nnz over the p*(p-1) off-diagonal slots of a p x p matrix.
    return nnz / (p * (p - 1)) if p > 1 else 0.0


def _logdet_pd(m: SymMatrix, what: str) -> float:
    return float(np.log(_eig_pd(m, what).eigenvalues).sum())


def _objective(logdet: float, a: np.ndarray, l: np.ndarray | None, sigma: np.ndarray,
               lambda1: float, lambda2: float | None) -> float:
    # -logdet + tr(A sigma) + lambda1*||A + L||_1 + lambda2*tr(L): the
    # Gaussian negative log-likelihood of A plus both penalties.
    # lambda2=None is the graphical lasso, whose L is zero and not read.
    value = -logdet + float((a * sigma).sum())
    if lambda2 is None:
        return value + lambda1 * float(np.abs(a).sum())
    return value + lambda1 * float(np.abs(a + l).sum()) + lambda2 * float(np.trace(l))


def eval_objective(problem: LvggProblem, a: SymMatrix, l: SymMatrix | None) -> float:
    """Latent-variable objective at (A, L), with S identified as A + L.

    ``-log det A + tr(A sigma) + lambda1*||A + L||_1 + lambda2*tr(L)``,
    the functional the stopping rule tracks. On the constraint set A = S - L
    the l1 term equals ``lambda1*||S||_1``. For the graphical lasso
    (``lambda2=None``) pass ``l=None``: the objective is
    ``-log det A + tr(A sigma) + lambda1*||A||_1``, and any L is not read.
    """
    if l is None and problem.lambda2 is not None:
        raise ValueError("l is required when lambda2 is set")
    logdet = _logdet_pd(a, "objective undefined: a")
    return _objective(
        logdet, a.array, None if l is None else l.array, problem.sigma.array,
        problem.lambda1, problem.lambda2,
    )
