"""Unit tests for the synthetic generator, marginalization, and sampling."""

import numpy as np
import pytest

from lvglasso import (
    Dataset,
    LatentModelSpec,
    NotPositiveDefiniteError,
    SymMatrix,
    empirical_covariance,
    generate_synthetic,
    marginal_precision,
    sample_gaussian,
)


# ---------------------------------------------------------------------------
# LatentModelSpec


def test_spec_validation():
    LatentModelSpec(p_obs=10)
    with pytest.raises(ValueError):
        LatentModelSpec(p_obs=0)
    with pytest.raises(ValueError):
        LatentModelSpec(p_obs=10, p_hidden=0)
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            LatentModelSpec(p_obs=10, target_sparsity=bad)
    with pytest.raises(ValueError, match="seed"):
        LatentModelSpec(p_obs=10, seed=-1)


# ---------------------------------------------------------------------------
# generate_synthetic


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_truth_invariants(seed):
    spec = LatentModelSpec(p_obs=50, p_hidden=10, target_sparsity=0.05, seed=seed)
    truth = generate_synthetic(spec)
    p = spec.p_obs + spec.p_hidden
    assert truth.k_full.dim == p
    assert np.linalg.eigvalsh(truth.k_full.array)[0] > 0

    # Schur identity: k_marginal = k_o - k_oh k_h^{-1} k_oh^T
    schur = truth.k_o.array - truth.k_oh @ np.linalg.solve(
        truth.k_h.array, truth.k_oh.T
    )
    err = np.linalg.norm(truth.k_marginal.array - schur)
    assert err <= 1e-10 * max(1.0, np.linalg.norm(schur))

    low = truth.low_rank_part()
    w = np.linalg.eigvalsh(low.array)
    assert w[0] >= -1e-10 * max(1.0, w[-1])  # PSD
    assert np.sum(w > 1e-8 * max(1.0, w[-1])) <= spec.p_hidden

    assert 0.02 <= truth.realized_sparsity() <= 0.10


def test_marginal_differs_from_observed_block_by_low_rank():
    truth = generate_synthetic(LatentModelSpec(p_obs=50, p_hidden=10, seed=3))
    diff = truth.k_marginal.array - truth.k_o.array
    w = np.abs(np.linalg.eigvalsh((diff + diff.T) / 2.0))
    cutoff = 1e-8 * np.linalg.norm(truth.k_o.array)
    assert np.sum(w > cutoff) <= 10


def test_generate_round_trips_through_marginal_precision():
    truth = generate_synthetic(LatentModelSpec(p_obs=40, p_hidden=5, seed=4))
    redo = marginal_precision(truth.k_full, 40)
    err = np.linalg.norm(redo.array - truth.k_marginal.array)
    assert err <= 1e-10 * max(1.0, np.linalg.norm(redo.array))


def test_generate_is_deterministic():
    spec = LatentModelSpec(p_obs=30, p_hidden=6, seed=9)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.k_full.array, b.k_full.array)
    assert np.array_equal(a.k_marginal.array, b.k_marginal.array)


def test_generate_seed_changes_output():
    a = generate_synthetic(LatentModelSpec(p_obs=30, seed=0))
    b = generate_synthetic(LatentModelSpec(p_obs=30, seed=1))
    assert not np.array_equal(a.k_full.array, b.k_full.array)


# ---------------------------------------------------------------------------
# marginal_precision


def test_marginal_precision_block_diagonal_is_identity_on_k_o():
    k = np.zeros((5, 5))
    k[:3, :3] = [[2.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 2.0]]
    k[3:, 3:] = [[3.0, 0.5], [0.5, 3.0]]
    out = marginal_precision(SymMatrix(k), 3)
    assert np.array_equal(out.array, k[:3, :3])


def test_marginal_precision_two_by_two():
    out = marginal_precision(SymMatrix([[2.0, 1.0], [1.0, 2.0]]), 1)
    assert abs(out.array[0, 0] - 1.5) < 1e-14


def test_marginal_precision_matches_inverse_of_submatrix_of_inverse():
    rng = np.random.default_rng(10)
    for _ in range(5):
        g = rng.standard_normal((12, 6))
        k = SymMatrix(g.T @ g / 12 + 0.5 * np.eye(6))
        direct = marginal_precision(k, 4).array
        via_inverse = np.linalg.inv(np.linalg.inv(k.array)[:4, :4])
        err = np.linalg.norm(direct - via_inverse)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(direct))


def test_marginal_precision_rejects_bad_input():
    with pytest.raises(NotPositiveDefiniteError, match="marginal precision undefined"):
        marginal_precision(SymMatrix(np.diag([1.0, -1.0])), 1)
    with pytest.raises(ValueError):
        marginal_precision(SymMatrix.identity(3), 0)
    with pytest.raises(ValueError):
        marginal_precision(SymMatrix.identity(3), 3)


# ---------------------------------------------------------------------------
# sample_gaussian


def test_sampling_identity_precision_statistics():
    data = sample_gaussian(SymMatrix.identity(5), 100000, 11)
    assert data.n == 100000 and data.p == 5
    err = np.abs(data.covariance.array - np.eye(5)).max()
    assert err <= 0.05


def test_sampling_variances_invert_the_precision():
    data = sample_gaussian(SymMatrix(np.diag([4.0, 1.0])), 100000, 12)
    var = np.diag(data.covariance.array)
    assert abs(var[0] - 0.25) <= 0.05 * 0.25
    assert abs(var[1] - 1.0) <= 0.05 * 1.0


def test_sampling_matches_symmetric_root_reference():
    # dense, non-diagonal precision: samples are Z @ K^{-1/2}
    rng = np.random.default_rng(31)
    g = rng.standard_normal((40, 12))
    k = g.T @ g / 40 + 0.5 * np.eye(12)
    w, v = np.linalg.eigh(k)
    k_inv_sqrt = v @ np.diag(w ** -0.5) @ v.T
    expected = np.random.default_rng(7).standard_normal((200, 12)) @ k_inv_sqrt
    samples = sample_gaussian(SymMatrix(k), 200, 7).samples
    assert np.abs(samples - expected).max() <= 1e-12 * np.abs(expected).max()


def test_sampling_is_deterministic():
    a = sample_gaussian(SymMatrix.identity(3), 50, 21)
    b = sample_gaussian(SymMatrix.identity(3), 50, 21)
    assert np.array_equal(a.samples, b.samples)


def test_sampling_rejects_non_pd_precision():
    with pytest.raises(NotPositiveDefiniteError, match="sampling undefined"):
        sample_gaussian(SymMatrix([[1.0, 2.0], [2.0, 1.0]]), 10, 0)
    with pytest.raises(ValueError):
        sample_gaussian(SymMatrix.identity(2), 0, 0)


# ---------------------------------------------------------------------------
# Dataset / empirical_covariance


def test_empirical_covariance_repeated_row_is_zero():
    data = Dataset(np.tile([1.5, -2.0, 3.0], (4, 1)))
    assert np.allclose(empirical_covariance(data).array, 0.0, atol=1e-15)


def test_empirical_covariance_hand_case():
    # rows (1,0) and (-1,0): mean 0, covariance [[1,0],[0,0]] with 1/n
    data = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.array_equal(empirical_covariance(data).array, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_empirical_covariance_is_psd():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n, p = int(rng.integers(2, 20)), int(rng.integers(1, 8))
        data = Dataset(rng.standard_normal((n, p)))
        cov = empirical_covariance(data).array
        scale = max(1.0, float(np.linalg.norm(cov)))
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * scale


def test_empirical_covariance_ddof_rescales():
    rng = np.random.default_rng(14)
    data = Dataset(rng.standard_normal((10, 3)))
    ml = empirical_covariance(data).array
    unbiased = empirical_covariance(data, ddof=1).array
    assert np.allclose(unbiased, ml * (10 / 9), atol=1e-15)
    with pytest.raises(ValueError):
        empirical_covariance(data, ddof=10)
    with pytest.raises(ValueError):
        empirical_covariance(data, ddof=-1)


def test_empirical_covariance_converges_to_population():
    truth = generate_synthetic(LatentModelSpec(p_obs=50, p_hidden=10, seed=42))
    data = sample_gaussian(truth.k_marginal, 50 * 50, 7)
    w, v = np.linalg.eigh(truth.k_marginal.array)
    true_cov = (v / w) @ v.T
    err = np.linalg.norm(data.covariance.array - true_cov) / np.linalg.norm(true_cov)
    assert err <= 0.2


def test_dataset_take_selects_rows():
    rng = np.random.default_rng(15)
    data = Dataset(rng.standard_normal((8, 3)))
    rows = np.array([5, 1, 2])
    sub = data.take(rows)
    assert sub.n == 3
    assert np.array_equal(sub.samples, data.samples[rows])


def test_dataset_rejects_bad_input():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.nan]]))
