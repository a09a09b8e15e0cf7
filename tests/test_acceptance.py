"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single ``[criterion N] ...: PASS/FAIL`` line in addition
to its pytest verdict, so the gate reads at a glance. Headline experiments
are scaled to desk size; the tolerances and instance recipes are frozen
here so reruns are bit-reproducible.
"""

import json
import sys
import time

import numpy as np
import pytest

from lvglasso import (
    LatentModelSpec,
    LvggProblem,
    CvPlan,
    SolverConfig,
    SymMatrix,
    cross_validate,
    empirical_covariance,
    generate_synthetic,
    kkt_residual,
    main,
    psd_trace_shrink,
    sample_gaussian,
    soft_threshold,
    solve_lvgg,
    spd_functional_sqrt_update,
)


def report(n, name, ok):
    print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr, flush=True)
    assert ok, f"criterion {n} ({name}) failed"


def random_symmetric(p, rng, scale=1.0):
    g = rng.standard_normal((p, p)) * scale
    return SymMatrix(g + g.T)


def wishart_sigma(p, rng, rows=None):
    g = rng.standard_normal((rows or 2 * p, p))
    return SymMatrix(g.T @ g / (rows or 2 * p))


def population_covariance(precision):
    w, v = np.linalg.eigh(precision.array)
    return SymMatrix((v / w) @ v.T)


# ---------------------------------------------------------------------------


def test_criterion_1_proximal_operator_unit_suite():
    """soft_threshold / psd_trace_shrink closed forms to 1e-12; shrink beats
    a projected-gradient oracle within 1e-8 on 100 random 2x2/3x3 each."""
    ok = True

    # closed forms
    out = soft_threshold(SymMatrix([[1.0, -0.3], [-0.3, 2.0]]), 0.5)
    ok &= np.abs(out.array - np.array([[0.5, 0.0], [0.0, 1.5]])).max() < 1e-12
    ok &= soft_threshold(SymMatrix([[0.2]]), 0.2).array[0, 0] == 0.0
    x = random_symmetric(4, np.random.default_rng(0))
    ok &= np.array_equal(soft_threshold(x, 0.0).array, x.array)

    out, _ = psd_trace_shrink(SymMatrix(np.diag([3.0, 0.5, -1.0])), 1.0)
    ok &= np.abs(out.array - np.diag([2.0, 0.0, 0.0])).max() < 1e-12
    out, _ = psd_trace_shrink(SymMatrix([[0.0, 1.0], [1.0, 0.0]]), 0.5)
    ok &= np.abs(out.array - np.full((2, 2), 0.25)).max() < 1e-12
    g = np.random.default_rng(1).standard_normal((3, 3))
    psd = SymMatrix(g @ g.T)
    ok &= np.abs(psd_trace_shrink(psd, 0.0)[0].array - psd.array).max() < 1e-12

    # independent projected-gradient oracle on the shrink objective
    def objective(y, x, eta):
        return eta * np.trace(y) + 0.5 * np.linalg.norm(y - x) ** 2

    def pg_oracle(x, eta, steps=300, step=0.3):
        y = x.copy()
        eye = np.eye(x.shape[0])
        for _ in range(steps):
            z = y - step * (eta * eye + (y - x))
            w, v = np.linalg.eigh((z + z.T) / 2.0)
            y = (v * np.maximum(w, 0.0)) @ v.T
        return y

    rng = np.random.default_rng(2)
    for p in (2, 3):
        for _ in range(100):
            x = random_symmetric(p, rng, scale=float(rng.uniform(0.2, 3.0))).array
            eta = float(rng.uniform(0.0, 2.0))
            got = psd_trace_shrink(SymMatrix(x), eta)[0].array
            ok &= objective(got, x, eta) <= objective(pg_oracle(x, eta), x, eta) + 1e-8

    report(1, "proximal operator unit suite", ok)


def test_criterion_2_a_update_stationarity():
    """100 random symmetric K at p=50, mu in {0.01, 1, 100}:
    ||-A^{-1} - K + mu*A||_F <= 1e-8 * max(1, ||K||_F)."""
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        k = random_symmetric(50, rng, scale=float(rng.uniform(0.1, 5.0)))
        for mu in (0.01, 1.0, 100.0):
            a = spd_functional_sqrt_update(k, mu)
            resid = -np.linalg.inv(a.array) - k.array + mu * a.array
            ok &= np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(k.array))
    report(2, "A-update stationarity", ok)


def test_criterion_3_oracle_equivalence():
    """p in {2,3,5}: eps=1e-6 solve matches the eps=1e-10 self-oracle in
    objective to 1e-6 relative, and the oracle passes kkt <= 1e-4."""
    lam1, lam2 = 0.1, 0.2
    ok = True
    for p in (2, 3, 5):
        for k in range(5):
            seed = 777 + 53 * k + p
            rng = np.random.default_rng(seed)
            covs = [wishart_sigma(p, rng)]
            truth = generate_synthetic(
                LatentModelSpec(p_obs=p, p_hidden=2, target_sparsity=0.3, seed=seed)
            )
            covs.append(population_covariance(truth.k_marginal))
            for sigma in covs:
                prob = LvggProblem(sigma, lam1, lam2)
                res, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-6, max_iters=100000))
                oracle, _ = solve_lvgg(prob, SolverConfig(mu=0.05, epsilon=1e-10, max_iters=400000))
                rel = abs(res.objective - oracle.objective) / max(1.0, abs(oracle.objective))
                ok &= res.converged and oracle.converged
                ok &= rel <= 1e-6
                ok &= kkt_residual(prob, oracle) <= 1e-4
    report(3, "oracle equivalence", ok)


def test_criterion_4_mu_invariance_of_limit():
    """p=100 synthetic instance, mu in {0.005, 0.01, 0.05} at eps=1e-8:
    final (S, L) pairs agree pairwise within 1e-3 relative Frobenius."""
    truth = generate_synthetic(LatentModelSpec(p_obs=100, p_hidden=10, seed=11))
    data = sample_gaussian(truth.k_marginal, 1000, 21)
    prob = LvggProblem(empirical_covariance(data), 0.02, 0.1)
    results = [
        solve_lvgg(prob, SolverConfig(mu=mu, epsilon=1e-8, max_iters=200000))[0]
        for mu in (0.005, 0.01, 0.05)
    ]
    ok = all(r.converged for r in results)
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            ds = np.linalg.norm(results[i].s_hat.array - results[j].s_hat.array)
            dl = np.linalg.norm(results[i].l_hat.array - results[j].l_hat.array)
            ok &= ds <= 1e-3 * max(1.0, np.linalg.norm(results[i].s_hat.array))
            ok &= dl <= 1e-3 * max(1.0, np.linalg.norm(results[i].l_hat.array))
    report(4, "mu-invariance of the limit", ok)


def test_criterion_5_structure_recovery():
    """p_o=200, p_h=10, n=2000: some grid cell recovers rank(L) = 10 +- 3
    with sparse_ratio_s in [2%, 10%], and S carries exact zeros."""
    truth = generate_synthetic(LatentModelSpec(p_obs=200, p_hidden=10, seed=5))
    data = sample_gaussian(truth.k_marginal, 2000, 15)
    sigma = empirical_covariance(data)
    cfg = SolverConfig(mu=0.01, epsilon=1e-4, max_iters=20000)
    p = 200
    hit = None
    for lam1 in (0.01, 0.015, 0.02):
        for lam2 in (0.05, 0.08, 0.12):
            res, _ = solve_lvgg(LvggProblem(sigma, lam1, lam2), cfg)
            if (
                res.converged
                and abs(res.rank_l - 10) <= 3
                and 0.02 <= res.sparse_ratio_s <= 0.10
                and res.nnz_offdiag_s < p * (p - 1)
            ):
                hit = (lam1, lam2, res.rank_l, res.sparse_ratio_s)
    ok = hit is not None
    if ok:
        print(f"  recovered cell: lambda1={hit[0]}, lambda2={hit[1]}, "
              f"rank={hit[2]}, sparse_ratio={hit[3]:.4f}", file=sys.stderr)
    report(5, "structure recovery on the synthetic grid", ok)


def test_criterion_6_generalization_vs_glasso():
    """p_o=100, p_h=10, n=300 split 200/100: LVGG's held-out NLoglike beats
    or ties SGG's in at least 8 of 10 random splits."""
    truth = generate_synthetic(LatentModelSpec(p_obs=100, p_hidden=10, seed=3))
    data = sample_gaussian(truth.k_marginal, 300, 13)
    cfg = SolverConfig(mu=0.01, epsilon=1e-4, max_iters=20000)
    wins = 0
    for split_seed in range(10):
        lv = cross_validate(
            data, CvPlan((0.02, 0.03), (0.2, 0.25), folds=3, split_seed=split_seed), cfg, "lvgg"
        )
        sg = cross_validate(
            data, CvPlan((0.02, 0.03, 0.04), (1.0,), folds=3, split_seed=split_seed), cfg, "sgg"
        )
        wins += lv.heldout_nloglike <= sg.heldout_nloglike
    print(f"  lvgg wins {wins}/10 splits", file=sys.stderr)
    report(6, "generalization vs the sparse baseline", wins >= 8)


def test_criterion_7_glasso_reduction():
    """lambda2 = 1e3 forces L = 0 and S equal to the glasso estimate
    within 1e-4 on p=50 instances."""
    cfg = SolverConfig(mu=0.05)
    ok = True
    for seed in (101, 102, 103):
        sigma = wishart_sigma(50, np.random.default_rng(seed))
        lv, _ = solve_lvgg(LvggProblem(sigma, 0.1, 1e3), cfg)
        gl, _ = solve_lvgg(LvggProblem(sigma, 0.1, None), cfg)
        ok &= np.array_equal(lv.l_hat.array, np.zeros((50, 50)))
        ok &= lv.rank_l == 0
        ok &= np.abs(lv.s_hat.array - gl.s_hat.array).max() <= 1e-4
    report(7, "glasso reduction at large lambda2", ok)


def test_criterion_8_cubic_scaling(tmp_path):
    """bench over p in {100, 200, 400}: per-iteration wall time grows by a
    factor in [4, 12] per doubling (cubic trend with slack)."""
    out = tmp_path / "bench"
    code = main(["bench", "--sizes", "100,200,400", "--seed", "0", "--out", str(out)])
    ok = code == 0
    rows = (out / "bench.csv").read_text().splitlines()[1:]
    per_iter = {}
    for row in rows:
        p, secs, iters = row.split(",")
        per_iter[int(p)] = float(secs) / float(iters)
    ratios = [per_iter[200] / per_iter[100], per_iter[400] / per_iter[200]]
    print(f"  per-iteration ratios: {ratios[0]:.2f}, {ratios[1]:.2f}", file=sys.stderr)
    ok &= all(4.0 <= r <= 12.0 for r in ratios)
    report(8, "cubic per-iteration scaling", ok)


def test_criterion_9_determinism(tmp_path):
    """identical seeds/flags reproduce bit-identical data files and JSON
    results (timestamps excluded) across two runs."""
    ok = True

    def strip_times(path):
        doc = json.loads(path.read_text())
        doc.pop("wall_time", None)
        doc.pop("created", None)
        return doc

    gen_dirs = []
    for sub in ("g1", "g2"):
        d = tmp_path / sub
        code = main(["generate", "--p-obs", "40", "--p-hidden", "8", "--n-samples",
                     "200", "--seed", "6", "--out", str(d)])
        ok &= code == 0
        gen_dirs.append(d)
    for name in ("k_full", "k_marginal", "samples", "covariance"):
        ok &= (gen_dirs[0] / f"{name}.npy").read_bytes() == (gen_dirs[1] / f"{name}.npy").read_bytes()
    ok &= strip_times(gen_dirs[0] / "manifest.json") == strip_times(gen_dirs[1] / "manifest.json")

    solve_dirs = []
    for sub in ("s1", "s2"):
        d = tmp_path / sub
        code = main(["solve", "--cov", str(gen_dirs[0] / "covariance.npy"),
                     "--lambda1", "0.05", "--lambda2", "0.1", "--out", str(d)])
        ok &= code == 0
        solve_dirs.append(d)
    for name in ("s_hat", "l_hat"):
        ok &= (solve_dirs[0] / f"{name}.npy").read_bytes() == (solve_dirs[1] / f"{name}.npy").read_bytes()
    ok &= strip_times(solve_dirs[0] / "result.json") == strip_times(solve_dirs[1] / "result.json")
    ok &= strip_times(solve_dirs[0] / "manifest.json") == strip_times(solve_dirs[1] / "manifest.json")

    report(9, "bit-identical reruns", ok)
