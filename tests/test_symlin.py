"""Unit tests for the symmetric linear-algebra kernel.

Closed-form oracle values are frozen as literals with their derivations
noted; the proximal operators are additionally checked against independent
projected-gradient references.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import lvglasso
from lvglasso import symlin
from lvglasso import (
    EigenSolverError,
    SymMatrix,
    eig_sym,
    eigen_reconstruct,
    psd_trace_shrink,
    soft_threshold,
    spd_functional_sqrt_update,
    sqrt_update_eigenvalues,
)


EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals", "svd"}


def random_symmetric(p, rng, scale=1.0):
    g = rng.standard_normal((p, p)) * scale
    return SymMatrix(g + g.T)


# ---------------------------------------------------------------------------
# SymMatrix


def test_symmatrix_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((6, 6))  # deliberately asymmetric input
    m = SymMatrix(raw)
    assert np.array_equal(m.array, m.array.T)
    assert m.dim == 6


def test_symmatrix_symmetric_input_passes_through_bitwise():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((5, 5))
    sym = (g + g.T) / 2.0
    assert np.array_equal(SymMatrix(sym).array, sym)


def test_symmatrix_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix(np.zeros(4))


def test_symmatrix_is_immutable():
    m = SymMatrix.identity(3)
    with pytest.raises(ValueError):
        m.array[0, 0] = 2.0


def test_symmatrix_helpers():
    assert np.array_equal(SymMatrix.identity(4).array, np.eye(4))
    assert np.array_equal(SymMatrix.zeros(3).array, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# eig_sym


def test_eig_sym_identity():
    dec = eig_sym(SymMatrix.identity(3))
    assert np.allclose(dec.eigenvalues, 1.0, atol=1e-14)


def test_eig_sym_diagonal_ascending():
    dec = eig_sym(SymMatrix(np.diag([3.0, -1.0])))
    assert np.allclose(dec.eigenvalues, [-1.0, 3.0], atol=1e-14)
    # eigenvectors are a signed permutation of the identity
    assert np.allclose(np.abs(dec.eigenvectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_eig_sym_two_by_two_hand_case():
    # [[2,1],[1,2]]: eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2).
    dec = eig_sym(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    for col, expected in ((0, np.array([s, -s])), (1, np.array([s, s]))):
        v = dec.eigenvectors[:, col]
        assert min(np.abs(v - expected).max(), np.abs(v + expected).max()) < 1e-12


def test_eig_sym_reconstruction_and_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = int(rng.integers(1, 13))
        x = random_symmetric(p, rng, scale=float(rng.uniform(0.1, 10.0)))
        dec = eig_sym(x)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        err = np.linalg.norm(rebuilt - x.array)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(x.array))
        ortho = dec.eigenvectors.T @ dec.eigenvectors - np.eye(p)
        assert np.linalg.norm(ortho) <= 1e-10 * p
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eigen_reconstruct_output_symmetric():
    rng = np.random.default_rng(8)
    dec = eig_sym(random_symmetric(5, rng))
    out = eigen_reconstruct(dec.eigenvectors, np.maximum(dec.eigenvalues, 0.0))
    assert np.array_equal(out.array, out.array.T)


# ---------------------------------------------------------------------------
# spd_functional_sqrt_update


def test_sqrt_update_scalar_negative_one():
    # mu=1, kappa=-1: positive root of a^2 + a - 1 = 0 is (-1+sqrt(5))/2.
    out = spd_functional_sqrt_update(SymMatrix([[-1.0]]), 1.0)
    assert abs(out.array[0, 0] - 0.6180339887498949) < 1e-12


def test_sqrt_update_zero_matrix():
    out = spd_functional_sqrt_update(SymMatrix.zeros(4), 1.0)
    assert np.allclose(out.array, np.eye(4), atol=1e-14)


def test_sqrt_update_diagonal_case():
    # mu=0.5: a = kappa + sqrt(kappa^2 + 2), per eigenvalue.
    out = spd_functional_sqrt_update(SymMatrix(np.diag([3.0, -2.0])), 0.5)
    assert abs(out.array[0, 0] - (3.0 + math.sqrt(11.0))) < 1e-12
    assert abs(out.array[1, 1] - (-2.0 + math.sqrt(6.0))) < 1e-12
    assert abs(out.array[0, 1]) < 1e-14


def test_sqrt_update_rejects_nonpositive_mu():
    with pytest.raises(ValueError):
        spd_functional_sqrt_update(SymMatrix.identity(2), 0.0)
    with pytest.raises(ValueError):
        spd_functional_sqrt_update(SymMatrix.identity(2), -1.0)


def test_sqrt_update_stationarity_property():
    # -A^{-1} - K + mu*A = 0 within 1e-8 * max(1, ||K||F), A PD throughout.
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = int(rng.integers(2, 51))
        k = random_symmetric(p, rng)
        for mu in (0.01, 1.0, 100.0):
            a = spd_functional_sqrt_update(k, mu)
            w = np.linalg.eigvalsh(a.array)
            assert w[0] > 0
            resid = -np.linalg.inv(a.array) - k.array + mu * a.array
            assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(k.array))


def test_sqrt_update_eigenvalue_map_handles_large_negative_kappa():
    # The rationalized branch must not cancel to zero for kappa << 0.
    vals = sqrt_update_eigenvalues(np.array([-1e8, -1.0, 0.0, 1.0, 1e8]), 1.0)
    assert np.all(vals > 0)
    assert np.all(np.isfinite(vals))
    # scalar stationarity for each root: mu*a^2 - kappa*a - 1 = 0, with the
    # residual scaled by the term magnitudes (the raw difference is itself
    # cancellation-limited at kappa ~ 1e8)
    kappa = np.array([-1e8, -1.0, 0.0, 1.0, 1e8])
    resid = np.abs(vals * vals - kappa * vals - 1.0)
    scale = vals * vals + np.abs(kappa) * vals + 1.0
    assert np.max(resid / scale) < 1e-12


# ---------------------------------------------------------------------------
# soft_threshold


def test_soft_threshold_hand_case():
    out = soft_threshold(SymMatrix([[1.0, -0.3], [-0.3, 2.0]]), 0.5)
    assert np.array_equal(out.array, np.array([[0.5, 0.0], [0.0, 1.5]]))


def test_soft_threshold_zero_tau_is_identity():
    rng = np.random.default_rng(3)
    x = random_symmetric(4, rng)
    assert np.array_equal(soft_threshold(x, 0.0).array, x.array)


def test_soft_threshold_boundary_maps_to_exact_zero():
    out = soft_threshold(SymMatrix([[0.2]]), 0.2)
    assert out.array[0, 0] == 0.0


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold(SymMatrix.identity(2), -0.1)


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = int(rng.integers(1, 9))
        x = random_symmetric(p, rng)
        y = random_symmetric(p, rng)
        tau = float(rng.uniform(0.0, 2.0))
        lhs = np.linalg.norm(soft_threshold(x, tau).array - soft_threshold(y, tau).array)
        assert lhs <= np.linalg.norm(x.array - y.array) + 1e-12


# ---------------------------------------------------------------------------
# psd_trace_shrink

# partial=True computes only the eigenpairs above eta (LAPACK dsyevr);
# partial=False runs the full eigendecomposition. Both must give the same prox.
PATHS = (False, True)


def test_psd_trace_shrink_diagonal_case():
    # the eigenvalue 1.0 equals eta: it shrinks to zero and is not kept
    for partial in PATHS:
        out, kept = psd_trace_shrink(SymMatrix(np.diag([3.0, 1.0, 0.5, -1.0])), 1.0, partial)
        assert np.allclose(out.array, np.diag([2.0, 0.0, 0.0, 0.0]), atol=1e-14)
        assert kept == 1


def test_psd_trace_shrink_eta_zero_fixes_psd_input():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    x = SymMatrix(g @ g.T)
    for partial in PATHS:
        out, kept = psd_trace_shrink(x, 0.0, partial)
        assert np.allclose(out.array, x.array, atol=1e-12)
        assert kept == 4


def test_psd_trace_shrink_offdiagonal_hand_case():
    # [[0,1],[1,0]] has eigenpairs (-1, (1,-1)) and (1, (1,1)); only the
    # positive one survives eta=0.5, leaving 0.5 * vv^T with v=(1,1)/sqrt2.
    for partial in PATHS:
        out, kept = psd_trace_shrink(SymMatrix([[0.0, 1.0], [1.0, 0.0]]), 0.5, partial)
        assert np.allclose(out.array, np.full((2, 2), 0.25), atol=1e-12)
        assert kept == 1


def test_psd_trace_shrink_rejects_negative_eta():
    for partial in PATHS:
        with pytest.raises(ValueError):
            psd_trace_shrink(SymMatrix.identity(2), -0.5, partial)


def eigh_shrink_reference(x, eta):
    w, v = np.linalg.eigh(x)
    return (v * np.maximum(w - eta, 0.0)) @ v.T, int(np.count_nonzero(w > eta))


@pytest.mark.parametrize("partial", PATHS, ids=["full", "partial"])
@pytest.mark.parametrize("p", [1, 2, 7, 60, 150])
def test_psd_trace_shrink_matches_full_eigh_reference(p, partial):
    rng = np.random.default_rng(p)
    x = random_symmetric(p, rng).array
    w = np.linalg.eigvalsh(x)
    lifted = x + (1.0 - w[0]) * np.eye(p)  # lambda_min = 1
    # eta midway between two eigenvalues, so neither sits on the threshold
    below = w[p // 2 - 1] if p > 1 else w[0] - 1.0
    cases = [
        (x, 0.0),
        (x, max(0.0, float(w[p // 2] + below) / 2.0)),
        (lifted, 0.5),  # eta below lambda_min: every eigenpair is kept
    ]
    for arr, eta in cases:
        got, kept = psd_trace_shrink(SymMatrix(arr), eta, partial)
        ref, ref_kept = eigh_shrink_reference(arr, eta)
        assert np.abs(got.array - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(arr))
        assert kept == ref_kept
    assert kept == p
    # eta above lambda_max: nothing is kept and the prox is exactly zero
    out, kept = psd_trace_shrink(SymMatrix(x), abs(float(w[-1])) + 1.0, partial)
    assert np.array_equal(out.array, np.zeros((p, p)))
    assert kept == 0


def numpy_bundles_openblas64():
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return lapack.get("name") == "scipy-openblas" and "USE64BITINT" in str(
        lapack.get("openblas configuration", "")
    )


@pytest.mark.skipif(not numpy_bundles_openblas64(), reason="numpy ships no bundled OpenBLAS")
def test_partial_path_is_active_with_numpys_openblas(monkeypatch):
    # a packaging change that loses the dsyevr binding would silently fall
    # back to the full path; here the full eigensolver must not be reached
    assert symlin._lapacke_dsyevr() is not None

    def no_full_solve(x):
        raise AssertionError("partial path fell back to eig_sym")

    monkeypatch.setattr(symlin, "eig_sym", no_full_solve)
    x = random_symmetric(30, np.random.default_rng(12))
    out, kept = psd_trace_shrink(x, 1.0, partial=True)
    ref, ref_kept = eigh_shrink_reference(x.array, 1.0)
    assert kept == ref_kept
    assert np.abs(out.array - ref).max() <= 1e-12 * np.linalg.norm(x.array)


def test_partial_path_failure_is_an_eigensolver_error(monkeypatch):
    # LAPACK info != 0 maps to the same diagnostics as a failed eig_sym
    monkeypatch.setattr(symlin, "_lapacke_dsyevr", lambda: lambda *args: 1)
    with pytest.raises(EigenSolverError, match=r"dim=3, fro_norm=.*max_abs_entry="):
        psd_trace_shrink(SymMatrix(np.diag([1.0, 2.0, 3.0])), 0.5, partial=True)


def test_partial_path_falls_back_without_binding(monkeypatch):
    monkeypatch.setattr(symlin, "_lapacke_dsyevr", lambda: None)
    out, kept = psd_trace_shrink(SymMatrix(np.diag([3.0, 0.5])), 1.0, partial=True)
    assert np.array_equal(out.array, np.diag([2.0, 0.0]))
    assert kept == 1


def shrink_objective(y, x, eta):
    return eta * np.trace(y) + 0.5 * np.linalg.norm(y - x) ** 2


def projected_gradient_shrink(x, eta, steps=300, step=0.3):
    """Independent reference: projected gradient on eta*tr(Y) + 0.5||Y-X||^2."""
    y = x.copy()
    for _ in range(steps):
        grad = eta * np.eye(x.shape[0]) + (y - x)
        z = y - step * grad
        w, v = np.linalg.eigh((z + z.T) / 2.0)
        y = (v * np.maximum(w, 0.0)) @ v.T
    return y


def test_psd_trace_shrink_matches_projected_gradient_reference():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        x = random_symmetric(p, rng).array
        eta = float(rng.uniform(0.0, 2.0))
        got = psd_trace_shrink(SymMatrix(x), eta)[0].array
        ref = projected_gradient_shrink(x, eta)
        assert shrink_objective(got, x, eta) <= shrink_objective(ref, x, eta) + 1e-8
        assert np.linalg.eigvalsh(got)[0] >= -1e-12


def test_psd_trace_shrink_beats_dense_grid_on_2x2():
    # Feasible 2x2 PSD grid: Y = [[a,b],[b,c]] with a,c >= 0, b^2 <= ac.
    rng = np.random.default_rng(9)
    ticks = np.linspace(0.0, 3.0, 31)
    bticks = np.linspace(-3.0, 3.0, 61)
    for _ in range(5):
        x = random_symmetric(2, rng).array
        eta = float(rng.uniform(0.1, 1.0))
        got = psd_trace_shrink(SymMatrix(x), eta)[0].array
        best = np.inf
        for a in ticks:
            for c in ticks:
                for b in bticks:
                    if b * b <= a * c:
                        y = np.array([[a, b], [b, c]])
                        best = min(best, shrink_objective(y, x, eta))
        assert shrink_objective(got, x, eta) <= best + 1e-8


# ---------------------------------------------------------------------------
# One home for the eigensolver


def imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module]
    return []


def test_only_symlin_calls_numpy_eigensolvers():
    # np.linalg.<solver> or an import of ctypes (direct LAPACK access)
    # anywhere in the package but symlin.py is a finding
    found = []
    for path in sorted(Path(lvglasso.__file__).parent.glob("*.py")):
        if path.name == "symlin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in EIGENSOLVERS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
            ):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            found += [
                f"{path.name}:{node.lineno} import {name}"
                for name in imported_modules(node)
                if name.split(".")[0] == "ctypes"
            ]
    assert found == []
