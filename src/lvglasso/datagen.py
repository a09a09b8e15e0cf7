"""Synthetic latent-variable model generation and Gaussian sampling.

The generator builds a joint precision matrix over observed + hidden
variables from a random sparse Gram matrix, then marginalizes the hidden
block by Schur complement; samples are drawn from the marginal model. All
randomness flows from one seeded generator per call (`numpy.random
.default_rng`), with a fixed draw order (sparsity mask, entry values,
cross-block noise), so outputs are bit-reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _offdiag_density, offdiag_nnz
from .symlin import SymMatrix, _eig_pd, _eigvals_sym, eigen_reconstruct

__all__ = [
    "LatentModelSpec",
    "GroundTruth",
    "Dataset",
    "generate_synthetic",
    "marginal_precision",
    "sample_gaussian",
    "empirical_covariance",
]

# generate_synthetic tries seeds spec.seed .. spec.seed + _SEED_ATTEMPTS - 1
# until the hidden block is nonsingular; a sampling stream seeded from the
# same base starts past this window.
_SEED_ATTEMPTS = 10


@dataclass(frozen=True)
class LatentModelSpec:
    """Generator knobs: sizes, target sparsity of the observed block, seed.

    target_sparsity is the desired fraction of nonzero off-diagonal entries
    in the observed precision block (the generator calibrates the sparse
    factor's density to land near it). cross_block_scale is the standard
    deviation of the dense noise added to the observed-hidden block.
    """

    p_obs: int
    p_hidden: int = 10
    target_sparsity: float = 0.05
    seed: int = 0
    cross_block_scale: float = 0.5

    def __post_init__(self):
        if self.p_obs < 1:
            raise ValueError(f"p_obs must be >= 1, got {self.p_obs}")
        if self.p_hidden < 1:
            raise ValueError(f"p_hidden must be >= 1, got {self.p_hidden}")
        if not 0.0 < self.target_sparsity < 1.0:
            raise ValueError(
                f"target_sparsity must lie in (0, 1), got {self.target_sparsity}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GroundTruth:
    """Joint precision matrix, its blocks, and the marginal (Schur) precision.

    k_full is (p_obs + p_hidden) square; k_oh is the rectangular
    observed-hidden block, so the low-rank marginalization term
    ``k_oh k_h^{-1} k_oh^T`` has rank at most p_hidden.
    """

    k_full: SymMatrix
    k_o: SymMatrix
    k_h: SymMatrix
    k_oh: np.ndarray
    k_marginal: SymMatrix

    def __post_init__(self):
        p_obs, p_hidden = self.k_oh.shape
        if self.k_o.dim != p_obs or self.k_h.dim != p_hidden:
            raise ValueError("block dimensions are inconsistent with k_oh")
        if self.k_full.dim != p_obs + p_hidden or self.k_marginal.dim != p_obs:
            raise ValueError("k_full/k_marginal dimensions are inconsistent")

    @property
    def p_obs(self) -> int:
        return self.k_o.dim

    @property
    def p_hidden(self) -> int:
        return self.k_h.dim

    def low_rank_part(self) -> SymMatrix:
        """The marginalization term ``k_oh k_h^{-1} k_oh^T`` (PSD, rank <= p_hidden)."""
        return SymMatrix(_schur_term(self.k_oh, self.k_h.array))

    def realized_sparsity(self) -> float:
        """Fraction of nonzero off-diagonal entries in the observed block."""
        return _offdiag_density(offdiag_nnz(self.k_o), self.k_o.dim)


class Dataset:
    """An n x p sample matrix with its centering mean and empirical covariance.

    The covariance uses the maximum-likelihood 1/n convention on
    column-centered data. Rows are samples; the stored array is immutable.
    """

    __slots__ = ("_samples", "_mean", "_covariance")

    def __init__(self, samples):
        arr = np.array(samples, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"samples must be 2-D (n x p), got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"samples must be nonempty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.setflags(write=False)
        self._samples = arr
        mean = arr.mean(axis=0)
        mean.setflags(write=False)
        self._mean = mean
        centered = arr - mean
        self._covariance = SymMatrix(centered.T @ centered / arr.shape[0])

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    @property
    def n(self) -> int:
        return self._samples.shape[0]

    @property
    def p(self) -> int:
        return self._samples.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def covariance(self) -> SymMatrix:
        return self._covariance

    def take(self, rows) -> "Dataset":
        """Sub-dataset from a row index array (own centering/covariance)."""
        return Dataset(self._samples[np.asarray(rows)])

    def __repr__(self):
        return f"Dataset(n={self.n}, p={self.p})"


def _schur_term(k_oh: np.ndarray, k_h: np.ndarray) -> np.ndarray:
    # K_OH K_H^{-1} K_HO: what marginalizing the hidden block subtracts.
    return k_oh @ np.linalg.solve(k_h, k_oh.T)


def _sparsity_to_density(target_sparsity: float, p: int) -> float:
    # An off-diagonal entry of W^T W is nonzero iff some row of W hits both
    # columns: P = 1 - (1 - d^2)^p for i.i.d. Bernoulli(d) support. Invert
    # at the target probability.
    return float(np.sqrt(1.0 - (1.0 - target_sparsity) ** (1.0 / p)))


def _build_joint_precision(spec: LatentModelSpec, seed: int) -> np.ndarray:
    p_o, p_h = spec.p_obs, spec.p_hidden
    p = p_o + p_h
    rng = np.random.default_rng(seed)
    density = _sparsity_to_density(spec.target_sparsity, p)
    mask = rng.random((p, p)) < density
    w = np.where(mask, rng.standard_normal((p, p)), 0.0)
    c = w.T @ w
    c[:p_o, p_o:] += spec.cross_block_scale * rng.standard_normal((p_o, p_h))
    c = np.clip(SymMatrix(c).array, -1.0, 1.0)
    np.fill_diagonal(c, 0.0)
    shift = max(-1.2 * float(_eigvals_sym(SymMatrix(c))[0]), 0.001)
    return c + shift * np.eye(p)


def generate_synthetic(spec: LatentModelSpec) -> GroundTruth:
    """Draw a random joint precision matrix and its marginal over observed vars.

    Recipe: sparse p x p factor W with standard-normal nonzeros (density
    calibrated so the observed block's off-diagonal sparsity lands near
    ``spec.target_sparsity``); C = W^T W; dense noise on the
    observed-hidden block; symmetrize; clamp to [-1, 1] and zero the
    diagonal; shift the diagonal by ``max(-1.2 * lambda_min, 0.001)`` to
    force positive definiteness; finally split into blocks and form the
    Schur complement.

    If the hidden block comes out numerically singular the draw is retried
    with the next seed, up to ``_SEED_ATTEMPTS`` attempts.
    """
    p_o = spec.p_obs
    for attempt in range(_SEED_ATTEMPTS):
        k = _build_joint_precision(spec, spec.seed + attempt)
        k_h = k[p_o:, p_o:]
        if _eigvals_sym(SymMatrix(k_h))[0] >= 1e-12:
            break
    else:
        raise RuntimeError(
            f"hidden block numerically singular after {_SEED_ATTEMPTS} attempts "
            f"(seed {spec.seed})"
        )
    k_oh = k[:p_o, p_o:].copy()
    schur = k[:p_o, :p_o] - _schur_term(k_oh, k_h)
    return GroundTruth(
        k_full=SymMatrix(k),
        k_o=SymMatrix(k[:p_o, :p_o]),
        k_h=SymMatrix(k_h),
        k_oh=k_oh,
        k_marginal=SymMatrix(schur),
    )


def marginal_precision(k_full: SymMatrix, p_obs: int) -> SymMatrix:
    """Schur complement of the hidden block: ``K_O - K_OH K_H^{-1} K_HO``.

    This is the precision matrix of the first ``p_obs`` variables after
    integrating out the rest; equivalently the inverse of the top-left
    block of ``k_full^{-1}``.
    """
    if not 1 <= p_obs < k_full.dim:
        raise ValueError(f"p_obs must lie in [1, {k_full.dim - 1}], got {p_obs}")
    _eig_pd(k_full, "marginal precision undefined: k_full")
    arr = k_full.array
    k_oh = arr[:p_obs, p_obs:]
    k_h = arr[p_obs:, p_obs:]
    return SymMatrix(arr[:p_obs, :p_obs] - _schur_term(k_oh, k_h))


def sample_gaussian(precision: SymMatrix, n: int, seed: int) -> Dataset:
    """n i.i.d. zero-mean Gaussian samples with covariance ``precision^{-1}``.

    Drawn as ``Z @ Cov^{1/2}`` with the symmetric square root from the
    precision's eigendecomposition; deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dec = _eig_pd(precision, "sampling undefined: precision")
    cov_sqrt = eigen_reconstruct(dec.eigenvectors, 1.0 / np.sqrt(dec.eigenvalues))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, precision.dim))
    return Dataset(z @ cov_sqrt.array)


def empirical_covariance(data: Dataset, ddof: int = 0) -> SymMatrix:
    """Column-centered sample covariance (PSD by construction).

    The default ``ddof=0`` gives the maximum-likelihood ``1/n`` scaling that
    the estimation objectives assume; ``ddof=1`` gives the unbiased
    ``1/(n-1)`` convention.
    """
    if ddof == 0:
        return data.covariance
    if ddof < 0 or ddof >= data.n:
        raise ValueError(f"ddof must be in [0, n), got {ddof} with n={data.n}")
    scale = data.n / (data.n - ddof)
    return SymMatrix(data.covariance.array * scale)
