"""Precision-matrix estimation with latent variables.

Estimates the precision (inverse covariance) matrix of observed Gaussian
variables as a sparse matrix minus a low-rank positive semidefinite one:
the sparse part encodes the conditional independence graph among observed
variables, the low-rank part the marginalization effect of a few hidden
ones. A split-Bregman/ADMM solver with closed-form block updates does the
work, and with ``lambda2=None`` solves the sparse-only baseline (graphical
lasso); a synthetic generator, cross-validation tooling, and a CLI round
out the package.
"""

from .datagen import (
    Dataset,
    GroundTruth,
    LatentModelSpec,
    empirical_covariance,
    generate_synthetic,
    marginal_precision,
    sample_gaussian,
)
from .errors import DivergenceError, EigenSolverError, NotPositiveDefiniteError
from .evalcv import CvCell, CvPlan, CvReport, cross_validate, nloglike
from .io_cli import VERSION as __version__
from .io_cli import MatrixFile, RunManifest, main, read_matrix, write_matrix
from .model import (
    LvggProblem,
    SolverConfig,
    SolverResult,
    SolverState,
    eval_objective,
    offdiag_nnz,
    psd_rank,
)
from .solver import (
    IterationRecord,
    check_stop,
    kkt_residual,
    sblvgg_step,
    solve_lvgg,
)
from .symlin import (
    EigenDecomp,
    SymMatrix,
    eig_sym,
    eigen_reconstruct,
    psd_trace_shrink,
    soft_threshold,
    spd_functional_sqrt_update,
    sqrt_update_eigenvalues,
)

__all__ = [
    "__version__",
    # linear-algebra kernel
    "SymMatrix",
    "EigenDecomp",
    "eig_sym",
    "eigen_reconstruct",
    "sqrt_update_eigenvalues",
    "spd_functional_sqrt_update",
    "soft_threshold",
    "psd_trace_shrink",
    # problems and results
    "LvggProblem",
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "eval_objective",
    "psd_rank",
    "offdiag_nnz",
    # solver
    "IterationRecord",
    "sblvgg_step",
    "check_stop",
    "solve_lvgg",
    "kkt_residual",
    # data generation
    "LatentModelSpec",
    "GroundTruth",
    "Dataset",
    "generate_synthetic",
    "marginal_precision",
    "sample_gaussian",
    "empirical_covariance",
    # evaluation
    "CvPlan",
    "CvCell",
    "CvReport",
    "nloglike",
    "cross_validate",
    # io / cli
    "MatrixFile",
    "RunManifest",
    "read_matrix",
    "write_matrix",
    "main",
    # errors
    "EigenSolverError",
    "NotPositiveDefiniteError",
    "DivergenceError",
]
