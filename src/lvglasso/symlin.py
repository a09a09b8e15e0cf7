"""Symmetric dense linear-algebra kernel.

Everything the solver's closed-form updates need: eigendecomposition of
symmetric matrices, the positive-root matrix update solving
``mu*A^2 - K*A - I = 0``, and the two proximal operators (elementwise soft
thresholding and eigenvalue shrinkage onto the PSD cone). Every
eigensolve, ``V f(w) V^T`` assembly and symmetric mirror of the package is
here, as is the positive-definite gate the other modules apply.

This is also the one home of direct LAPACK access: the partial-spectrum
path of `psd_trace_shrink` calls ``dsyevr`` from the OpenBLAS that numpy
itself loaded, through ctypes, so the process keeps one BLAS library and
one thread pool. The symbol is resolved on first use; on a numpy build that
does not export it, that path falls back to the full eigendecomposition.

All operations are pure; :class:`SymMatrix` values are immutable and safe to
share across threads.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import EigenSolverError, NotPositiveDefiniteError

__all__ = [
    "SymMatrix",
    "EigenDecomp",
    "eig_sym",
    "eigen_reconstruct",
    "sqrt_update_eigenvalues",
    "spd_functional_sqrt_update",
    "soft_threshold",
    "psd_trace_shrink",
]


class SymMatrix:
    """Dense symmetric p x p real matrix, symmetric by construction.

    Input values are mirrored exactly via ``(X + X.T) / 2`` (a bitwise no-op
    on already-symmetric input), checked finite, and frozen. ``entry(i, j) ==
    entry(j, i)`` therefore holds exactly, not approximately.
    """

    __slots__ = ("_data",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix dimension must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            arr = (arr + arr.T) / 2.0
        # checked after mirroring so averaging overflow cannot smuggle in Inf
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def identity(cls, dim: int) -> "SymMatrix":
        return cls(np.eye(dim))

    @classmethod
    def zeros(cls, dim: int) -> "SymMatrix":
        return cls(np.zeros((dim, dim)))

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ndarray (no copy)."""
        return self._data

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self._data, dtype=dtype)
        if dtype is None or dtype == self._data.dtype:
            return self._data
        return self._data.astype(dtype)

    def __getitem__(self, index):
        return self._data[index]

    def __eq__(self, other):
        if isinstance(other, SymMatrix):
            return np.array_equal(self._data, other._data)
        return NotImplemented

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class EigenDecomp:
    """Symmetric eigendecomposition, full or partial, eigenvalues ascending.

    Column ``i`` of ``eigenvectors`` pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eig_error(x: SymMatrix) -> EigenSolverError:
    fro = float(np.linalg.norm(x.array))
    max_abs = float(np.abs(x.array).max())
    return EigenSolverError(
        f"symmetric eigensolver failed to converge: dim={x.dim}, "
        f"fro_norm={fro:.6e}, max_abs_entry={max_abs:.6e}"
    )


def eig_sym(x: SymMatrix) -> EigenDecomp:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    try:
        w, v = np.linalg.eigh(x.array)
    except np.linalg.LinAlgError as exc:
        raise _eig_error(x) from exc
    return EigenDecomp(eigenvalues=w, eigenvectors=v)


_LAPACK_COL_MAJOR = 102


@functools.cache
def _lapacke_dsyevr():
    # LAPACKE_dsyevr (64-bit integers) from the OpenBLAS numpy.linalg links
    # against, looked up through numpy's own extension module so no second
    # BLAS library is loaded; None when that build exports no such symbol.
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        fn = lib.scipy_LAPACKE_dsyevr64_
    except (AttributeError, OSError):
        return None
    lint = ctypes.c_int64
    f64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    fn.argtypes = [
        ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,  # layout jobz range uplo
        lint, f64, lint,                                            # n a lda
        ctypes.c_double, ctypes.c_double, lint, lint, ctypes.c_double,  # vl vu il iu abstol
        i64, f64, f64, lint, i64,                                   # m w z ldz isuppz
    ]
    fn.restype = lint
    return fn


def _eig_sym_above(x: SymMatrix, eta: float) -> EigenDecomp | None:
    # The eigenpairs of x with eigenvalue in (eta, +inf), ascending, from
    # LAPACK dsyevr; None when the binding is unavailable. Past the shared
    # tridiagonal reduction, bisection and inverse iteration cost O(p^2 k)
    # for k eigenpairs instead of the O(p^3) of a full solve.
    dsyevr = _lapacke_dsyevr()
    if dsyevr is None:
        return None
    a = np.array(x.array, order="F")  # dsyevr overwrites its input
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] \
            or not a.flags.f_contiguous:
        raise ValueError(f"dsyevr needs a square contiguous float64 matrix, got {a.shape}")
    n = a.shape[0]
    w = np.empty(n)
    z = np.empty((n, n), order="F")  # the kept count is unknown until the solve
    isuppz = np.empty(2 * n, dtype=np.int64)
    m = np.zeros(1, dtype=np.int64)
    info = dsyevr(_LAPACK_COL_MAJOR, b"V", b"V", b"L", n, a, n,
                  eta, np.inf, 0, 0, 0.0, m, w, z, n, isuppz)
    if info != 0:
        raise _eig_error(x)
    k = int(m[0])
    return EigenDecomp(eigenvalues=w[:k], eigenvectors=z[:, :k])


def _eigvals_sym(x: SymMatrix) -> np.ndarray:
    # Eigenvalues only, ascending; cheaper than eig_sym when no vectors are needed.
    return np.linalg.eigvalsh(x.array)


def _eig_pd(x: SymMatrix, what: str) -> EigenDecomp:
    # The positive-definite gate: eig_sym, or NotPositiveDefiniteError whose
    # message starts with ``what`` (e.g. "sampling undefined: precision").
    dec = eig_sym(x)
    if dec.eigenvalues[0] <= 0:
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite (min eigenvalue {dec.eigenvalues[0]:.6e})"
        )
    return dec


def eigen_reconstruct(eigenvectors: np.ndarray, eigenvalues: np.ndarray) -> SymMatrix:
    """Assemble ``V diag(w) V^T`` and re-symmetrize to kill round-off drift."""
    return SymMatrix((eigenvectors * eigenvalues) @ eigenvectors.T)


def sqrt_update_eigenvalues(kappa: np.ndarray, mu: float) -> np.ndarray:
    """Positive root of ``mu*a^2 - kappa*a - 1 = 0``, elementwise.

    The naive form ``(kappa + sqrt(kappa^2 + 4*mu)) / (2*mu)`` cancels
    catastrophically for large negative ``kappa``; the rationalized branch
    ``2 / (sqrt(kappa^2 + 4*mu) - kappa)`` is used there instead.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    # kappa^2 may overflow to Inf for |kappa| > ~1e154; the branch below then
    # yields 0, which downstream code reports as divergence (such scales are
    # far outside any meaningful covariance).
    with np.errstate(over="ignore", divide="ignore"):
        disc = np.sqrt(kappa * kappa + 4.0 * mu)
        return np.where(kappa >= 0, (kappa + disc) / (2.0 * mu), 2.0 / (disc - kappa))


def spd_functional_sqrt_update(k: SymMatrix, mu: float) -> SymMatrix:
    """Solve ``-A^{-1} - K + mu*A = 0`` for the positive definite A.

    Equivalent to ``(K + sqrt(K^2 + 4*mu*I)) / (2*mu)``, computed from one
    eigendecomposition of K with the scalar root map applied to its
    eigenvalues (same eigenvectors; avoids squaring K).
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    dec = eig_sym(k)
    return eigen_reconstruct(dec.eigenvectors, sqrt_update_eigenvalues(dec.eigenvalues, mu))


def soft_threshold(x: SymMatrix, tau: float) -> SymMatrix:
    """Elementwise shrink-toward-zero: ``sgn(x) * max(0, |x| - tau)``.

    Entries with ``|x| <= tau`` come out exactly zero, so sparsity counts on
    the result are deterministic.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    arr = x.array
    return SymMatrix(np.sign(arr) * np.maximum(np.abs(arr) - tau, 0.0))


def psd_trace_shrink(
    x: SymMatrix, eta: float, partial: bool = False
) -> tuple[SymMatrix, int]:
    """Proximal operator of ``eta*tr(.)`` restricted to the PSD cone.

    Minimizes ``eta*tr(Y) + 0.5*||Y - X||_F^2`` over ``Y >= 0``: eigenvalues
    of X are shifted down by ``eta`` and clipped at zero, in X's eigenbasis.
    Returns the minimizer and k, the number of eigenvalues of X above
    ``eta`` (the rank of the minimizer).

    With ``partial=True`` only those k eigenpairs are computed (LAPACK
    ``dsyevr`` on the interval ``(eta, +inf)``) and the rank-k product
    ``V_k (w_k - eta) V_k^T`` is assembled; that pays while k is a small
    share of p, and is much slower than the full path when k nears p. Where
    numpy's LAPACK exports no ``dsyevr``, the full path runs instead. Both
    paths agree to round-off.
    """
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    dec = _eig_sym_above(x, eta) if partial else None
    if dec is None:
        dec = eig_sym(x)
    w = np.maximum(dec.eigenvalues - eta, 0.0)
    return eigen_reconstruct(dec.eigenvectors, w), int(np.count_nonzero(w))
