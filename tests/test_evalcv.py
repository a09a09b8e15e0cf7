"""Unit tests for held-out evaluation and cross-validation."""

import json
import math

import numpy as np
import pytest

from lvglasso import (
    CvPlan,
    Dataset,
    LvggProblem,
    NotPositiveDefiniteError,
    SolverConfig,
    SymMatrix,
    cross_validate,
    nloglike,
    sample_gaussian,
    solve_lvgg,
)


def small_dataset(n=60, p=4, seed=30):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3 * p, p))
    precision = SymMatrix(g.T @ g / (3 * p) + 0.5 * np.eye(p))
    return sample_gaussian(precision, n, seed + 1)


# ---------------------------------------------------------------------------
# nloglike


def test_nloglike_identity_case():
    assert abs(nloglike(SymMatrix.identity(3), SymMatrix.identity(3)) - 3.0) < 1e-12


def test_nloglike_minimized_at_inverse_covariance():
    rng = np.random.default_rng(31)
    g = rng.standard_normal((12, 4))
    sigma = SymMatrix(g.T @ g / 12 + 0.3 * np.eye(4))
    inv = SymMatrix(np.linalg.inv(sigma.array))
    at_min = nloglike(inv, sigma)
    # closed form at the minimizer: log det sigma + p
    want = math.log(np.linalg.det(sigma.array)) + 4
    assert abs(at_min - want) < 1e-10
    for _ in range(10):
        h = rng.standard_normal((12, 4))
        other = SymMatrix(h.T @ h / 12 + 0.3 * np.eye(4))
        assert nloglike(other, sigma) >= at_min - 1e-12


def test_nloglike_matches_naive_evaluator():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = rng.standard_normal((9, 3))
        a = SymMatrix(g.T @ g / 9 + 0.2 * np.eye(3))
        h = rng.standard_normal((9, 3))
        sigma = SymMatrix(h.T @ h / 9)
        want = -math.log(np.linalg.det(a.array)) + float(np.trace(a.array @ sigma.array))
        got = nloglike(a, sigma)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_nloglike_rejects_non_pd():
    with pytest.raises(NotPositiveDefiniteError, match="negative log-likelihood undefined"):
        nloglike(SymMatrix(np.diag([1.0, -1.0])), SymMatrix.identity(2))


# ---------------------------------------------------------------------------
# CvPlan


def test_cv_plan_validation():
    CvPlan((0.1,), (0.2,))
    with pytest.raises(ValueError):
        CvPlan((), (0.2,))
    with pytest.raises(ValueError):
        CvPlan((0.1,), ())
    with pytest.raises(ValueError):
        CvPlan((0.0,), (0.2,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            CvPlan((0.1, bad), (0.2,))
        with pytest.raises(ValueError):
            CvPlan((0.1,), (bad,))
    with pytest.raises(ValueError):
        CvPlan((0.1,), (0.2,), folds=1)
    with pytest.raises(ValueError, match="split_seed"):
        CvPlan((0.1,), (0.2,), split_seed=-1)
    with pytest.raises(ValueError):
        CvPlan((0.1,), (0.2,), train_fraction=1.0)
    with pytest.raises(ValueError):
        CvPlan((0.1,), (0.2,), train_fraction=0.0)


def test_cv_plan_sorts_grids():
    plan = CvPlan((0.3, 0.1, 0.2), (0.5, 0.4))
    assert plan.lambda1_grid == (0.1, 0.2, 0.3)
    assert plan.lambda2_grid == (0.4, 0.5)


# ---------------------------------------------------------------------------
# cross_validate


def test_single_cell_cv_equals_direct_pipeline():
    data = small_dataset()
    cfg = SolverConfig(mu=0.05)
    plan = CvPlan((0.1,), (0.2,), folds=3, split_seed=5, train_fraction=0.5)
    report = cross_validate(data, plan, cfg, "lvgg")
    assert report.best_lambda1 == 0.1 and report.best_lambda2 == 0.2

    # replicate the documented outer split: permutation(n) under split_seed,
    # first round(train_fraction*n) rows train, rest test
    n_train = int(round(0.5 * data.n))
    perm = np.random.default_rng(5).permutation(data.n)
    train = data.take(perm[:n_train])
    test = data.take(perm[n_train:])
    res, _ = solve_lvgg(LvggProblem(train.covariance, 0.1, 0.2), cfg)
    assert report.heldout_nloglike == nloglike(res.a_hat, test.covariance)
    assert report.rank_l == res.rank_l
    assert report.nnz_offdiag_s == res.nnz_offdiag_s
    assert report.n_train == n_train and report.n_test == data.n - n_train


def test_single_cell_cv_sgg_matches_direct_pipeline():
    data = small_dataset(seed=33)
    cfg = SolverConfig(mu=0.05)
    plan = CvPlan((0.15,), (1.0,), folds=2, split_seed=8, train_fraction=0.5)
    report = cross_validate(data, plan, cfg, "sgg")
    assert report.best_lambda2 is None

    n_train = int(round(0.5 * data.n))
    perm = np.random.default_rng(8).permutation(data.n)
    res, _ = solve_lvgg(LvggProblem(data.take(perm[:n_train]).covariance, 0.15, None), cfg)
    held = nloglike(res.a_hat, data.take(perm[n_train:]).covariance)
    assert report.heldout_nloglike == held


def test_cv_selects_minimum_mean_cell():
    data = small_dataset(seed=34)
    cfg = SolverConfig(mu=0.05)
    plan = CvPlan((0.05, 0.2), (0.1, 0.5), folds=3, split_seed=2)
    report = cross_validate(data, plan, cfg, "lvgg")
    valid = [c for c in report.cells if c.valid]
    assert len(valid) == 4
    best_mean = min(c.mean_nloglike for c in valid)
    chosen = next(
        c for c in valid if (c.lambda1, c.lambda2) == (report.best_lambda1, report.best_lambda2)
    )
    assert chosen.mean_nloglike == best_mean


def test_cv_is_deterministic():
    data = small_dataset(seed=35)
    cfg = SolverConfig(mu=0.05)
    plan = CvPlan((0.1, 0.2), (0.3,), folds=3, split_seed=4)
    a = cross_validate(data, plan, cfg, "lvgg")
    b = cross_validate(data, plan, cfg, "lvgg")
    assert a.to_json_dict() == b.to_json_dict()


def test_cv_sgg_ignores_lambda2_grid():
    data = small_dataset(seed=36)
    report = cross_validate(
        data, CvPlan((0.1, 0.3), (0.7, 0.9), folds=2, split_seed=1), SolverConfig(mu=0.05), "sgg"
    )
    assert len(report.cells) == 2  # one per lambda1, not the product
    assert all(c.lambda2 is None for c in report.cells)


def test_cv_rejects_bad_model_and_fold_counts():
    data = small_dataset(seed=37)
    plan = CvPlan((0.1,), (0.2,), folds=3)
    with pytest.raises(ValueError):
        cross_validate(data, plan, SolverConfig(), "ridge")
    with pytest.raises(ValueError):
        # folds exceed training rows
        cross_validate(
            Dataset(np.random.default_rng(0).standard_normal((6, 2))),
            CvPlan((0.1,), (0.2,), folds=5, train_fraction=0.5),
            SolverConfig(),
            "lvgg",
        )


def test_cv_all_cells_invalid_raises():
    # covariance scale drives every inner solve to divergence
    data = Dataset(np.random.default_rng(1).standard_normal((20, 3)) * 1e80)
    plan = CvPlan((0.1,), (0.2,), folds=2, split_seed=0)
    with pytest.raises(RuntimeError, match="diverged"):
        cross_validate(data, plan, SolverConfig(max_iters=50), "lvgg")


def test_cv_report_serializes_to_json():
    data = small_dataset(seed=38)
    report = cross_validate(
        data, CvPlan((0.1,), (0.2,), folds=2, split_seed=3), SolverConfig(mu=0.05), "lvgg"
    )
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["model"] == "lvgg"
    assert doc["best_lambda1"] == 0.1
    assert doc["folds"] == 2
    assert isinstance(doc["cells"], list) and doc["cells"][0]["valid"] is True
