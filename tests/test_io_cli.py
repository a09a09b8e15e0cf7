"""Unit tests for matrix file formats and the command-line interface.

CLI commands are exercised in-process through ``main(argv)``; exit codes
follow the documented contract (0 success, 1 numerical failure, 2 usage).
"""

import hashlib
import json

import numpy as np
import pytest

from lvglasso import SymMatrix, main, read_matrix, write_matrix


def read_json(path):
    with open(path) as f:
        return json.load(f)


def manifest_without_times(path):
    doc = read_json(path)
    doc.pop("wall_time", None)
    doc.pop("created", None)
    return doc


# ---------------------------------------------------------------------------
# Matrix file formats


def test_binary_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3)) * np.array([1e-12, 1.0, 1e12])
    path = tmp_path / "x.npy"
    write_matrix(path, x)
    back = read_matrix(path)
    assert np.array_equal(back, x)
    assert back.dtype == x.dtype


def test_csv_round_trip_is_exact(tmp_path):
    # %.17g prints float64 losslessly, so even the text format round-trips
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 4)) / 3.0
    path = tmp_path / "x.csv"
    write_matrix(path, x)
    assert np.array_equal(read_matrix(path), x)
    header = path.read_text().splitlines()[0]
    assert header == "# dense-csv 4 4"


def test_csv_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# dense-csv 3 3\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_write_matrix_infers_format_from_extension(tmp_path):
    x = np.eye(3)
    write_matrix(tmp_path / "a.npy", x)
    write_matrix(tmp_path / "b.csv", x)
    assert (tmp_path / "a.npy").read_bytes()[:6] == b"\x93NUMPY"
    assert (tmp_path / "b.csv").read_text().startswith("# dense-csv")


def test_write_matrix_accepts_symmatrix(tmp_path):
    m = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    write_matrix(tmp_path / "m.npy", m)
    assert np.array_equal(read_matrix(tmp_path / "m.npy"), m.array)


def test_read_matrix_rejects_non_2d(tmp_path):
    np.save(tmp_path / "vec.npy", np.arange(4.0))
    with pytest.raises(ValueError):
        read_matrix(tmp_path / "vec.npy")


def test_read_matrix_accepts_integer_and_bool_payloads(tmp_path):
    np.save(tmp_path / "i.npy", np.eye(3, dtype=np.int32))
    np.save(tmp_path / "b.npy", np.eye(3, dtype=bool))
    assert np.array_equal(read_matrix(tmp_path / "i.npy"), np.eye(3))
    assert np.array_equal(read_matrix(tmp_path / "b.npy"), np.eye(3))


def test_complex_input_is_refused_not_truncated(tmp_path):
    # casting would silently drop the imaginary part
    cov = tmp_path / "cov.npy"
    np.save(cov, np.eye(3) + 1j * np.eye(3))
    with pytest.raises(ValueError):
        read_matrix(cov)
    out = tmp_path / "run"
    assert main(["solve", "--cov", str(cov), "--lambda1", "0.1",
                 "--lambda2", "0.2", "--out", str(out)]) == 1
    assert read_json(out / "error.json")["error"] == "ValueError"
    assert not (out / "s_hat.npy").exists()


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_files_and_manifest(tmp_path):
    argv = [
        "generate", "--p-obs", "20", "--p-hidden", "4", "--n-samples", "50",
        "--seed", "7", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    for name in ("k_full", "k_marginal", "samples", "covariance"):
        assert (tmp_path / f"{name}.npy").exists()
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["command"] == "generate"
    assert manifest["seeds"] == {"generate": 7, "sample": 17}
    assert manifest["config"]["p_obs"] == 20
    assert 0 < manifest["outputs"]["realized_sparsity"] < 1
    assert manifest["outputs"]["rank_low_rank_part"] <= 4
    assert read_matrix(tmp_path / "samples.npy").shape == (50, 20)


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["generate", "--p-obs", "15", "--n-samples", "30", "--seed", "3", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    for name in ("k_full", "k_marginal", "samples", "covariance"):
        assert (a / f"{name}.npy").read_bytes() == (b / f"{name}.npy").read_bytes()
    assert manifest_without_times(a / "manifest.json") == manifest_without_times(b / "manifest.json")


def test_generate_rejects_out_of_range_sparsity(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--p-obs", "10", "--n-samples", "5",
              "--sparsity", "1.5", "--out", str(tmp_path)])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# solve / glasso


@pytest.fixture
def identity_cov(tmp_path):
    path = tmp_path / "cov.npy"
    write_matrix(path, np.eye(6))
    return path


def test_solve_identity_fixture(tmp_path, identity_cov):
    out = tmp_path / "run"
    argv = [
        "solve", "--cov", str(identity_cov), "--lambda1", "0.1", "--lambda2", "10",
        "--mu", "0.1", "--eps", "1e-6", "--out", str(out), "--telemetry",
    ]
    assert main(argv) == 0
    result = read_json(out / "result.json")
    assert result["rank_l"] == 0
    assert result["converged"] is True
    s_hat = read_matrix(out / "s_hat.npy")
    assert np.abs(s_hat - np.eye(6) / 1.1).max() <= 1e-4
    assert np.allclose(read_matrix(out / "l_hat.npy"), 0.0)
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "solve"
    assert len(manifest["input_hashes"]) == 1

    lines = (out / "telemetry.ndjson").read_text().splitlines()
    iters = [json.loads(line)["iter"] for line in lines]
    assert iters == list(range(1, len(iters) + 1))
    assert len(iters) == result["iters"]


def test_solve_missing_cov_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--lambda1", "0.1", "--lambda2", "0.2", "--out", str(tmp_path)])
    assert info.value.code == 2


def test_solve_non_square_input_fails_with_diagnostic(tmp_path):
    bad = tmp_path / "bad.npy"
    write_matrix(bad, np.zeros((3, 2)))
    out = tmp_path / "run"
    code = main(["solve", "--cov", str(bad), "--lambda1", "0.1",
                 "--lambda2", "0.2", "--out", str(out)])
    assert code == 1
    diag = read_json(out / "error.json")
    assert diag["error"] == "ValueError"
    assert diag["command"] == "solve"


def test_glasso_command(tmp_path, identity_cov):
    out = tmp_path / "run"
    assert main(["glasso", "--cov", str(identity_cov), "--lam", "0.1",
                 "--mu", "0.1", "--eps", "1e-6", "--out", str(out)]) == 0
    k_hat = read_matrix(out / "k_hat.npy")
    assert np.abs(k_hat - np.eye(6) / 1.1).max() <= 1e-4
    result = read_json(out / "result.json")
    assert result["rank_l"] == 0


def test_solver_env_overrides(tmp_path, identity_cov, monkeypatch):
    monkeypatch.setenv("LVGLASSO_MU", "0.5")
    monkeypatch.setenv("LVGLASSO_EPSILON", "1e-3")
    out = tmp_path / "run"
    assert main(["solve", "--cov", str(identity_cov), "--lambda1", "0.1",
                 "--lambda2", "10", "--out", str(out)]) == 0
    config = read_json(out / "manifest.json")["config"]
    assert config["mu"] == 0.5
    assert config["eps"] == 1e-3


@pytest.mark.parametrize("var", ["LVGLASSO_MU", "LVGLASSO_EPSILON"])
@pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf"])
def test_invalid_solver_env_is_usage_error(tmp_path, identity_cov, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as info:
        main(["solve", "--cov", str(identity_cov), "--lambda1", "0.1",
              "--lambda2", "10", "--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# cv


@pytest.fixture
def samples_file(tmp_path):
    rng = np.random.default_rng(40)
    g = rng.standard_normal((9, 3))
    precision = g.T @ g / 9 + 0.5 * np.eye(3)
    w, v = np.linalg.eigh(precision)
    cov_sqrt = (v / np.sqrt(w)) @ v.T
    samples = rng.standard_normal((40, 3)) @ cov_sqrt
    path = tmp_path / "samples.npy"
    write_matrix(path, samples)
    return path


def test_cv_command_writes_report_and_grid(tmp_path, samples_file):
    out = tmp_path / "cv"
    argv = [
        "cv", "--data", str(samples_file), "--model", "sgg", "--grid1", "0.1,0.3",
        "--folds", "2", "--seed", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    report = read_json(out / "report.json")
    assert report["model"] == "sgg"
    assert report["best_lambda1"] in (0.1, 0.3)
    grid_lines = (out / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "lambda1,lambda2,mean_nloglike,valid"
    assert len(grid_lines) == 3  # header + one row per cell


@pytest.mark.parametrize("grid", ["nan", "0.05,nan", "inf", "0.1,-inf", "0", "0.1,abc", ","])
@pytest.mark.parametrize("flag", ["--grid1", "--grid2"])
def test_cv_non_finite_grid_is_usage_error(tmp_path, samples_file, flag, grid):
    grids = {"--grid1": "0.1", "--grid2": "0.3", flag: grid}
    out = tmp_path / "cv"
    with pytest.raises(SystemExit) as info:
        main(["cv", "--data", str(samples_file), "--model", "lvgg",
              "--grid1", grids["--grid1"], "--grid2", grids["--grid2"],
              "--folds", "2", "--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()


def test_cv_lvgg_requires_grid2(tmp_path, samples_file):
    code = main(["cv", "--data", str(samples_file), "--model", "lvgg",
                 "--grid1", "0.1", "--out", str(tmp_path / "x")])
    assert code == 2


def test_cv_is_deterministic(tmp_path, samples_file):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        argv = [
            "cv", "--data", str(samples_file), "--model", "lvgg", "--grid1", "0.1,0.2",
            "--grid2", "0.3", "--folds", "2", "--seed", "9", "--out", str(out),
        ]
        assert main(argv) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "grid.csv").read_bytes() == (outs[1] / "grid.csv").read_bytes()


# ---------------------------------------------------------------------------
# bench


def test_bench_rows_and_reproducible_iters(tmp_path):
    outs = []
    for sub in ("b1", "b2"):
        out = tmp_path / sub
        argv = ["bench", "--sizes", "20,40", "--p-hidden", "4", "--seed", "2",
                "--max-iters", "5", "--out", str(out)]
        assert main(argv) == 0
        outs.append(out)
    for out in outs:
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "p,mean_seconds,iters"
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["20", "40"]
    iters = [
        [line.split(",")[2] for line in (out / "bench.csv").read_text().splitlines()[1:]]
        for out in outs
    ]
    assert iters[0] == iters[1]


# ---------------------------------------------------------------------------
# top level


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# manifests

SOLVER_DEFAULTS = {"mu": 0.01, "eps": 1e-4, "max_iters": 5000}


def manifest_case(command, cov, samples):
    """(argv without --out, config, seeds, input files) for one subcommand."""
    return {
        "generate": (
            ["generate", "--p-obs", "12", "--p-hidden", "3", "--n-samples", "30",
             "--seed", "7"],
            {"p_obs": 12, "p_hidden": 3, "sparsity": 0.05, "cross_block_scale": 0.5,
             "n_samples": 30, "format": "binary"},
            {"generate": 7, "sample": 17},
            [],
        ),
        "solve": (
            ["solve", "--cov", str(cov), "--lambda1", "0.1", "--lambda2", "10",
             "--mu", "0.1", "--eps", "1e-6", "--format", "csv"],
            {"lambda1": 0.1, "lambda2": 10.0, "mu": 0.1, "eps": 1e-6,
             "max_iters": 5000, "format": "csv", "telemetry": False},
            {},
            [cov],
        ),
        "glasso": (
            ["glasso", "--cov", str(cov), "--lam", "0.1", "--telemetry"],
            {"lam": 0.1, **SOLVER_DEFAULTS, "format": "binary", "telemetry": True},
            {},
            [cov],
        ),
        "cv": (
            ["cv", "--data", str(samples), "--model", "lvgg", "--grid1", "0.1,0.2",
             "--grid2", "0.3", "--folds", "2", "--seed", "9", "--mu", "0.05"],
            {"model": "lvgg", "grid1": [0.1, 0.2], "grid2": [0.3], "folds": 2,
             "train_fraction": 2.0 / 3.0, "mu": 0.05, "eps": 1e-4, "max_iters": 5000},
            {"split": 9},
            [samples],
        ),
        "bench": (
            ["bench", "--sizes", "20", "--p-hidden", "4", "--seed", "2",
             "--max-iters", "3"],
            {"sizes": [20], "p_hidden": 4, "sparsity": 0.05, "mu": 0.01, "eps": 1e-4,
             "max_iters": 3},
            {"generate": 2},
            [],
        ),
    }[command]


@pytest.mark.parametrize("command", ["generate", "solve", "glasso", "cv", "bench"])
def test_manifest_records_every_flag(tmp_path, identity_cov, samples_file,
                                     monkeypatch, command):
    monkeypatch.delenv("LVGLASSO_MU", raising=False)
    monkeypatch.delenv("LVGLASSO_EPSILON", raising=False)
    argv, config, seeds, inputs = manifest_case(command, identity_cov, samples_file)
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == command
    assert manifest["config"] == config
    assert manifest["seeds"] == seeds
    assert manifest["input_hashes"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs
    }


def test_failed_runs_write_no_manifest(tmp_path, samples_file):
    bad = tmp_path / "bad.npy"
    write_matrix(bad, np.zeros((3, 2)))
    numeric, usage = tmp_path / "numeric", tmp_path / "usage"
    assert main(["solve", "--cov", str(bad), "--lambda1", "0.1",
                 "--lambda2", "0.2", "--out", str(numeric)]) == 1
    assert main(["cv", "--data", str(samples_file), "--model", "lvgg",
                 "--grid1", "0.1", "--out", str(usage)]) == 2
    assert (numeric / "error.json").exists()
    assert not (numeric / "manifest.json").exists()
    assert not (usage / "manifest.json").exists()
