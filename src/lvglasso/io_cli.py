"""Matrix file formats, run manifests, and the command-line surface.

Subcommands: ``generate`` (synthetic data), ``solve`` (sparse-minus-low-rank
estimate), ``glasso`` (sparse-only estimate), ``cv`` (cross-validated
penalty selection), ``bench`` (per-size timing sweep). Every run writes a
JSON manifest echoing the command, configuration, input hashes, seeds,
package version, and wall time, so a run can be replayed and diffed.
`main` writes it for every subcommand: every parsed flag is configuration
except ``--out``, ``--seed`` (the subcommand reports the seeds it derives)
and the input files (recorded by sha256).

Exit codes: 0 success, 1 numerical failure or unusable input file (with a
diagnostic ``error.json``), 2 usage error. Environment variables ``LVGLASSO_MU`` and
``LVGLASSO_EPSILON`` override the default solver penalty and tolerance and
are validated like the flags they stand in for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .datagen import Dataset, LatentModelSpec, generate_synthetic, sample_gaussian
from .errors import DivergenceError, EigenSolverError, NotPositiveDefiniteError
from .evalcv import CvPlan, cross_validate
from .model import GlassoProblem, LvggProblem, SolverConfig, psd_rank
from .solver import solve_glasso, solve_lvgg
from .symlin import SymMatrix, eig_sym

__all__ = [
    "MatrixFile",
    "RunManifest",
    "write_matrix",
    "read_matrix",
    "cli_generate",
    "cli_solve",
    "cli_glasso",
    "cli_cv",
    "cli_bench",
    "build_parser",
    "main",
]

VERSION = "0.1.0"

FORMATS = ("dense-csv", "dense-binary")
_SUFFIX_TO_FORMAT = {".csv": "dense-csv", ".npy": "dense-binary"}
# --format choice -> file suffix
_FLAG_SUFFIX = {"binary": ".npy", "csv": ".csv"}

# Penalty pairs for the timing sweep, stated at reference size 3000 and
# rescaled to each instance by 3000/p.
_BENCH_PAIRS = ((0.0025, 0.21), (0.0025, 0.22), (0.0027, 0.21), (0.0027, 0.22))
_BENCH_REFERENCE_P = 3000

# The generator reserves seed..seed+9 for singular-block retries; the
# sampling stream starts past that window.
_SAMPLE_SEED_OFFSET = 10


# ---------------------------------------------------------------------------
# File formats


@dataclass(frozen=True)
class MatrixFile:
    """A matrix on disk: path plus self-describing format."""

    path: Path
    format: str

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")


def _format_for(path: Path) -> str:
    try:
        return _SUFFIX_TO_FORMAT[path.suffix]
    except KeyError:
        raise ValueError(
            f"cannot infer matrix format from suffix {path.suffix!r} "
            f"(use .csv or .npy)"
        ) from None


def write_matrix(path, array) -> MatrixFile:
    """Write a 2-D float array (or SymMatrix) to ``path``, format by suffix.

    ``.npy`` (``dense-binary``) round-trips bitwise; ``.csv``
    (``dense-csv``) writes 17 significant digits (enough to reproduce every
    double exactly) under a ``# dense-csv <rows> <cols>`` header line.
    """
    path = Path(path)
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"only 2-D matrices are supported, got ndim={arr.ndim}")
    fmt = _format_for(path)
    if fmt == "dense-binary":
        with open(path, "wb") as f:
            np.save(f, arr)
    else:
        with open(path, "w") as f:
            f.write(f"# dense-csv {arr.shape[0]} {arr.shape[1]}\n")
            np.savetxt(f, arr, fmt="%.17g", delimiter=",")
    return MatrixFile(path=path, format=fmt)


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by `write_matrix` (or any headerless CSV)."""
    path = Path(path)
    fmt = _format_for(path)
    if fmt == "dense-binary":
        arr = np.load(path)
        if arr.ndim != 2:
            raise ValueError(f"{path}: expected a 2-D matrix, got ndim={arr.ndim}")
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"{path}: expected a real matrix, got dtype {arr.dtype}")
        return np.asarray(arr, dtype=np.float64)
    with open(path) as f:
        first = f.readline()
    arr = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if first.startswith("# dense-csv"):
        declared = tuple(int(tok) for tok in first.split()[2:4])
        if declared != arr.shape:
            raise ValueError(
                f"{path}: header declares shape {declared}, payload is {arr.shape}"
            )
    return arr


# ---------------------------------------------------------------------------
# Manifests


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record emitted by every CLI run.

    Two runs with equal manifests (ignoring ``wall_time``/``created``)
    produce equal outputs.
    """

    command: str
    config: dict
    input_hashes: dict
    seeds: dict
    version: str
    wall_time: float
    created: str
    outputs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_manifest(args, seeds: dict, outputs: dict, wall_time: float) -> None:
    """Write ``manifest.json`` for a finished run from its parsed flags.

    Every flag but ``--out`` and ``--seed`` is configuration, except
    ``Path``-typed input files, which are recorded by sha256.
    """
    flags = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "func", "out", "seed")
    }
    inputs = [v for v in flags.values() if isinstance(v, Path)]
    manifest = RunManifest(
        command=args.command,
        config={
            k: list(v) if isinstance(v, tuple) else v
            for k, v in flags.items()
            if not isinstance(v, Path)
        },
        input_hashes={str(path): _sha256(path) for path in inputs},
        seeds=seeds,
        version=VERSION,
        wall_time=wall_time,
        created=datetime.now(timezone.utc).isoformat(),
        outputs=outputs,
    )
    _write_json(args.out / "manifest.json", manifest.to_json_dict())


# ---------------------------------------------------------------------------
# Flag helpers


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a positive real, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a nonnegative real, got {value}")
    return value


def _unit_open_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _grid(text: str) -> tuple:
    values = tuple(_positive_float(tok) for tok in text.split(",") if tok.strip() != "")
    if not values:
        raise argparse.ArgumentTypeError("grid must be nonempty")
    return values


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values or any(v < 2 for v in values):
        raise argparse.ArgumentTypeError(f"sizes must be integers >= 2: {text!r}")
    return values


def _add_solver_flags(sub: argparse.ArgumentParser, max_iters_default: int = 5000):
    sub.add_argument(
        "--mu",
        type=_positive_float,
        default=os.environ.get("LVGLASSO_MU") or "0.01",
        help="dual step size / quadratic penalty weight (env: LVGLASSO_MU)",
    )
    sub.add_argument(
        "--eps",
        type=_positive_float,
        default=os.environ.get("LVGLASSO_EPSILON") or "1e-4",
        help="stopping tolerance (env: LVGLASSO_EPSILON)",
    )
    sub.add_argument(
        "--max-iters",
        type=_positive_int,
        default=max_iters_default,
        help="iteration cap",
    )


def _add_out_flag(sub: argparse.ArgumentParser):
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _add_format_flag(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--format",
        choices=tuple(_FLAG_SUFFIX),
        default="binary",
        help="matrix file format (binary = .npy, csv = .csv)",
    )


def _matrix_path(out_dir: Path, name: str, format_flag: str) -> Path:
    return out_dir / (name + _FLAG_SUFFIX[format_flag])


def _solver_config(args) -> SolverConfig:
    return SolverConfig(mu=args.mu, epsilon=args.eps, max_iters=args.max_iters)


def _write_result_files(args, result, records) -> None:
    out: Path = args.out
    names = {"solve": ("s_hat", "l_hat"), "glasso": ("k_hat", None)}[args.command]
    write_matrix(_matrix_path(out, names[0], args.format), result.s_hat)
    if names[1] is not None:
        write_matrix(_matrix_path(out, names[1], args.format), result.l_hat)
    _write_json(out / "result.json", result.to_json_dict())
    if args.telemetry:
        with open(out / "telemetry.ndjson", "w") as f:
            for r in records:
                row = {
                    "iter": r.iter,
                    "objective": r.objective,
                    "primal_residual": r.primal_residual,
                    "rel_obj_change": (
                        r.rel_obj_change if math.isfinite(r.rel_obj_change) else None
                    ),
                    "wall_time_cumulative": r.wall_time_cumulative,
                }
                f.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands: each writes its files into ``args.out`` and returns the
# manifest's ``(seeds, outputs)``; `main` records the rest.


def cli_generate(args) -> tuple[dict, dict]:
    """Generate ground truth + samples + covariance."""
    out: Path = args.out
    spec = LatentModelSpec(
        p_obs=args.p_obs,
        p_hidden=args.p_hidden,
        target_sparsity=args.sparsity,
        seed=args.seed,
        cross_block_scale=args.cross_block_scale,
    )
    truth = generate_synthetic(spec)
    sample_seed = args.seed + _SAMPLE_SEED_OFFSET
    data = sample_gaussian(truth.k_marginal, args.n_samples, sample_seed)
    write_matrix(_matrix_path(out, "k_full", args.format), truth.k_full)
    write_matrix(_matrix_path(out, "k_marginal", args.format), truth.k_marginal)
    write_matrix(_matrix_path(out, "samples", args.format), data.samples)
    write_matrix(_matrix_path(out, "covariance", args.format), data.covariance)
    return {"generate": args.seed, "sample": sample_seed}, {
        "realized_sparsity": truth.realized_sparsity(),
        "rank_low_rank_part": psd_rank(truth.low_rank_part()),
    }


def _load_covariance(path: Path) -> SymMatrix:
    arr = read_matrix(path)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{path}: covariance must be square, got shape {arr.shape}")
    return SymMatrix(arr)


def cli_solve(args) -> tuple[dict, dict]:
    """Solve the latent-variable problem on a covariance file."""
    sigma = _load_covariance(args.cov)
    problem = LvggProblem(sigma, args.lambda1, args.lambda2)
    result, records = solve_lvgg(problem, _solver_config(args))
    _write_result_files(args, result, records)
    return {}, {"converged": result.converged, "iters": result.iters}


def cli_glasso(args) -> tuple[dict, dict]:
    """Solve the sparse-only problem on a covariance file."""
    sigma = _load_covariance(args.cov)
    problem = GlassoProblem(sigma, args.lam)
    result, records = solve_glasso(problem, _solver_config(args))
    _write_result_files(args, result, records)
    return {}, {"converged": result.converged, "iters": result.iters}


def cli_cv(args) -> tuple[dict, dict]:
    """Cross-validate a penalty grid and score the winner on held-out rows."""
    out: Path = args.out
    if args.model == "lvgg" and args.grid2 is None:
        raise UsageError("--grid2 is required for --model lvgg")
    data = Dataset(read_matrix(args.data))
    plan = CvPlan(
        lambda1_grid=args.grid1,
        lambda2_grid=args.grid2 if args.grid2 is not None else (1.0,),
        folds=args.folds,
        split_seed=args.seed,
        train_fraction=args.train_fraction,
    )
    report = cross_validate(data, plan, _solver_config(args), args.model)
    _write_json(out / "report.json", report.to_json_dict())
    with open(out / "grid.csv", "w") as f:
        f.write("lambda1,lambda2,mean_nloglike,valid\n")
        for cell in report.cells:
            l2 = "" if cell.lambda2 is None else f"{cell.lambda2:.17g}"
            score = "" if cell.mean_nloglike is None else f"{cell.mean_nloglike:.17g}"
            f.write(f"{cell.lambda1:.17g},{l2},{score},{int(cell.valid)}\n")
    return {"split": args.seed}, {
        "best_lambda1": report.best_lambda1,
        "best_lambda2": report.best_lambda2,
        "heldout_nloglike": report.heldout_nloglike,
    }


def cli_bench(args) -> tuple[dict, dict]:
    """Time the solver across instance sizes; emit (p, mean_seconds, iters) CSV.

    Each size gets a synthetic ground truth; the solver runs on the exact
    marginal covariance (no sampling noise) for a fixed small iteration
    budget, once per reference penalty pair, and wall times are averaged.
    """
    config = _solver_config(args)
    rows = []
    for p in args.sizes:
        spec = LatentModelSpec(
            p_obs=p,
            p_hidden=args.p_hidden,
            target_sparsity=args.sparsity,
            seed=args.seed,
        )
        truth = generate_synthetic(spec)
        dec = eig_sym(truth.k_marginal)
        sigma = SymMatrix(
            (dec.eigenvectors / dec.eigenvalues) @ dec.eigenvectors.T
        )
        scale = _BENCH_REFERENCE_P / p
        # One untimed solve per size warms BLAS workspaces and page caches so
        # the first timed pair is not inflated by one-off allocation costs.
        warm1, warm2 = _BENCH_PAIRS[0]
        solve_lvgg(LvggProblem(sigma, warm1 * scale, warm2 * scale), config)
        times, iters = [], []
        for lambda1, lambda2 in _BENCH_PAIRS:
            problem = LvggProblem(sigma, lambda1 * scale, lambda2 * scale)
            result, _ = solve_lvgg(problem, config)
            times.append(result.wall_time)
            iters.append(result.iters)
        rows.append((p, float(np.mean(times)), float(np.mean(iters))))
    with open(args.out / "bench.csv", "w") as f:
        f.write("p,mean_seconds,iters\n")
        for p, secs, its in rows:
            f.write(f"{p},{secs:.6f},{its:g}\n")
    return {"generate": args.seed}, {"rows": len(rows)}


# ---------------------------------------------------------------------------
# Parser / entry point


class UsageError(Exception):
    """Flag combination errors detected after parsing (exit code 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvglasso",
        description=(
            "Sparse-minus-low-rank precision estimation toolkit: synthetic "
            "data generation, solvers, cross-validation, and benchmarks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"lvglasso {VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="generate synthetic data files")
    gen.add_argument("--p-obs", type=_positive_int, required=True)
    gen.add_argument("--p-hidden", type=_positive_int, default=10)
    gen.add_argument("--sparsity", type=_unit_open_float, default=0.05)
    gen.add_argument("--cross-block-scale", type=_nonnegative_float, default=0.5)
    gen.add_argument("--n-samples", type=_positive_int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    _add_out_flag(gen)
    _add_format_flag(gen)
    gen.set_defaults(func=cli_generate)

    solve = subs.add_parser("solve", help="latent-variable solve on a covariance")
    solve.add_argument("--cov", type=Path, required=True)
    solve.add_argument("--lambda1", type=_positive_float, required=True)
    solve.add_argument("--lambda2", type=_positive_float, required=True)
    _add_solver_flags(solve)
    solve.add_argument("--telemetry", action="store_true")
    _add_out_flag(solve)
    _add_format_flag(solve)
    solve.set_defaults(func=cli_solve)

    glasso = subs.add_parser("glasso", help="sparse-only solve on a covariance")
    glasso.add_argument("--cov", type=Path, required=True)
    glasso.add_argument("--lam", type=_positive_float, required=True)
    _add_solver_flags(glasso)
    glasso.add_argument("--telemetry", action="store_true")
    _add_out_flag(glasso)
    _add_format_flag(glasso)
    glasso.set_defaults(func=cli_glasso)

    cv = subs.add_parser("cv", help="cross-validate a penalty grid")
    cv.add_argument("--data", type=Path, required=True, help="samples file (n x p)")
    cv.add_argument("--model", choices=("lvgg", "sgg"), required=True)
    cv.add_argument("--grid1", type=_grid, required=True)
    cv.add_argument("--grid2", type=_grid, default=None, help="ignored for sgg")
    cv.add_argument("--folds", type=_positive_int, default=10)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--train-fraction", type=_unit_open_float, default=2.0 / 3.0)
    _add_solver_flags(cv)
    _add_out_flag(cv)
    cv.set_defaults(func=cli_cv)

    bench = subs.add_parser("bench", help="timing sweep over instance sizes")
    bench.add_argument("--sizes", type=_int_list, default=(100, 200, 400))
    bench.add_argument("--p-hidden", type=_positive_int, default=10)
    bench.add_argument("--sparsity", type=_unit_open_float, default=0.05)
    bench.add_argument("--seed", type=int, default=0)
    _add_solver_flags(bench, max_iters_default=60)
    _add_out_flag(bench)
    bench.set_defaults(func=cli_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        seeds, outputs = args.func(args)
        _write_manifest(args, seeds, outputs, time.perf_counter() - t0)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        DivergenceError,
        NotPositiveDefiniteError,
        EigenSolverError,
        ValueError,
        RuntimeError,
        OSError,
    ) as exc:
        diagnostic = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
        }
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            _write_json(args.out / "error.json", diagnostic)
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
