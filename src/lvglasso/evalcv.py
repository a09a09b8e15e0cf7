"""Held-out likelihood evaluation and k-fold cross-validation over penalty grids.

Protocol: an outer train/test split (by fraction, seeded), k-fold CV on the
training rows to pick penalties by mean validation negative log-likelihood,
a refit on the full training set at the winning cell, and a single held-out
score. Cells whose inner solves diverge are excluded from the argmin but
recorded. Everything is deterministic given (data, plan, config).

Both models are solved by `solve_lvgg`: an ``lvgg`` cell is
``LvggProblem(sigma, lambda1, lambda2)``, and an ``sgg`` (graphical lasso)
cell carries ``lambda2=None``, which holds the low-rank part at zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .datagen import Dataset
from .errors import DivergenceError, NotPositiveDefiniteError
from .model import LvggProblem, SolverConfig, _logdet_pd, _objective
from .solver import solve_lvgg
from .symlin import SymMatrix

__all__ = ["CvPlan", "CvCell", "CvReport", "nloglike", "cross_validate", "MODELS"]

MODELS = ("lvgg", "sgg")


@dataclass(frozen=True)
class CvPlan:
    """Grid, fold count, and split geometry for one cross-validation run.

    Grids are sorted ascending on construction. For the sparse-only model
    (``sgg``) the lambda2 grid is carried but ignored.
    """

    lambda1_grid: tuple
    lambda2_grid: tuple
    folds: int = 10
    split_seed: int = 0
    train_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        for name in ("lambda1_grid", "lambda2_grid"):
            grid = tuple(float(v) for v in getattr(self, name))
            if not grid:
                raise ValueError(f"{name} must be nonempty")
            if not all(0 < v < math.inf for v in grid):
                raise ValueError(f"{name} values must be positive and finite, got {grid}")
            object.__setattr__(self, name, tuple(sorted(grid)))
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.split_seed < 0:
            raise ValueError(f"split_seed must be >= 0, got {self.split_seed}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )


@dataclass(frozen=True)
class CvCell:
    """One grid cell's mean validation score; invalid if any fold diverged."""

    lambda1: float
    lambda2: float | None
    mean_nloglike: float | None
    valid: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CvReport:
    """Selected penalties, the per-cell table, and held-out summaries."""

    model: str
    best_lambda1: float
    best_lambda2: float | None
    cells: tuple
    heldout_nloglike: float
    rank_l: int
    nnz_offdiag_s: int
    folds: int
    n_train: int
    n_test: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def nloglike(a_hat: SymMatrix, sigma_test: SymMatrix) -> float:
    """Gaussian negative log-likelihood (up to constants) of A on held-out data.

    ``-log det A + tr(A sigma_test)``; minimized over A at
    ``sigma_test^{-1}`` when that inverse exists: the estimator's objective
    with both penalties at zero.
    """
    logdet = _logdet_pd(a_hat, "negative log-likelihood undefined: matrix")
    return _objective(logdet, a_hat.array, None, sigma_test.array, 0.0, None)


def cross_validate(
    data: Dataset, plan: CvPlan, config: SolverConfig, model: str
) -> CvReport:
    """Pick penalties by k-fold CV on a training split, score on the rest.

    The winning cell minimizes the mean validation ``nloglike`` of the
    refit precision across folds; ties break toward larger (lambda1,
    lambda2) lexicographically. For ``model="sgg"`` the lambda2 grid is
    ignored and the cell table is one-dimensional.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    n = data.n
    n_train = int(round(plan.train_fraction * n))
    if not 1 <= n_train < n:
        raise ValueError(
            f"train_fraction {plan.train_fraction} leaves no train or test rows "
            f"for n={n}"
        )
    if plan.folds > n_train:
        raise ValueError(f"folds={plan.folds} exceeds training rows ({n_train})")

    rng = np.random.default_rng(plan.split_seed)
    perm = rng.permutation(n)
    train_rows, test_rows = perm[:n_train], perm[n_train:]
    fold_rows = np.array_split(train_rows, plan.folds)
    fold_sigmas = []
    for i in range(plan.folds):
        fit_rows = np.concatenate([fold_rows[j] for j in range(plan.folds) if j != i])
        fold_sigmas.append(
            (data.take(fit_rows).covariance, data.take(fold_rows[i]).covariance)
        )

    if model == "lvgg":
        grid = [(l1, l2) for l1 in plan.lambda1_grid for l2 in plan.lambda2_grid]
    else:
        grid = [(l1, None) for l1 in plan.lambda1_grid]

    cells = []
    for l1, l2 in grid:
        scores = []
        valid = True
        for sigma_fit, sigma_val in fold_sigmas:
            try:
                result, _ = solve_lvgg(LvggProblem(sigma_fit, l1, l2), config)
                scores.append(nloglike(result.a_hat, sigma_val))
            except (DivergenceError, NotPositiveDefiniteError):
                valid = False
                break
        mean = float(np.mean(scores)) if valid else None
        cells.append(CvCell(lambda1=l1, lambda2=l2, mean_nloglike=mean, valid=valid))

    valid_cells = [c for c in cells if c.valid]
    if not valid_cells:
        raise RuntimeError("every grid cell diverged; nothing to select")
    # Ties break toward stronger regularization, lambda1 first.
    best = min(
        valid_cells,
        key=lambda c: (c.mean_nloglike, -c.lambda1, -(c.lambda2 or 0.0)),
    )

    sigma_train = data.take(train_rows).covariance
    sigma_test = data.take(test_rows).covariance
    refit, _ = solve_lvgg(LvggProblem(sigma_train, best.lambda1, best.lambda2), config)
    return CvReport(
        model=model,
        best_lambda1=best.lambda1,
        best_lambda2=best.lambda2,
        cells=tuple(cells),
        heldout_nloglike=nloglike(refit.a_hat, sigma_test),
        rank_l=refit.rank_l,
        nnz_offdiag_s=refit.nnz_offdiag_s,
        folds=plan.folds,
        n_train=int(n_train),
        n_test=int(n - n_train),
    )
