"""One benchmark child process: imports lvglasso from the checkout's ``src``,
builds one workload's inputs from the seed, and runs its closed loop.

``run.py`` starts this script with the BLAS thread count already set in the
environment, because OpenBLAS reads it once when numpy loads. Modes:

  setup     import and build the inputs, report the set-up time, exit
  measure   set up, then issue operations untraced for ``--seconds``
  trace     set up; run a fixed operation set untraced, then install the
            tracer, set up again and run the same set traced
  once      set up and run one operation untraced

Every operation's output passes the workload's correctness gate, outside the
timed region, before it counts as a success. The last line of output is one
JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lvglasso  # noqa: E402
from run import tail  # noqa: E402
from tracer import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# Workloads. The ground-truth model of lvgg-p400 and cv-lvgg-p100 is fixed
# and the seed draws the samples (and CV split): across ground-truth draws
# the sweep count to convergence moves by up to 20%, across sample draws of
# one model by about 3%, and the benchmark must tell code changes from input
# changes. The CLI derives both from one --seed, so cli-csv cycles a pool.
#
# Each one builds its inputs in __init__ (the set-up), runs one call in
# op(i) (the timed part) and judges its output in check(i, out), which
# returns (failed operations, problem descriptions). ops_per_call is the
# number of operations (solves or CLI commands) one call attempts.

TRUTH_SEED = 7


class LvggP400:
    """One ``solve_lvgg`` per operation, cycling through a pool of samples.

    p_obs=400, p_hidden=10, n=4000, eps=1e-6, penalties in the structure
    recovery regime (rank(L) about 9, about 2% off-diagonal density of S).
    """

    name = "lvgg-p400"
    p = 400
    ops_per_call = 1
    trace_ops = 3
    POOL = 3
    EPS = 1e-6

    def __init__(self, seed, work_dir):
        self.config = lvglasso.SolverConfig(mu=0.01, epsilon=self.EPS)
        truth = lvglasso.generate_synthetic(
            lvglasso.LatentModelSpec(p_obs=400, p_hidden=10, target_sparsity=0.05, seed=TRUTH_SEED)
        )
        self.problems = []
        for i in range(self.POOL):
            data = lvglasso.sample_gaussian(truth.k_marginal, n=4000, seed=1000 * seed + i)
            self.problems.append(lvglasso.LvggProblem(data.covariance, lambda1=0.008, lambda2=0.12))

    def op(self, i):
        return lvglasso.solve_lvgg(self.problems[i % len(self.problems)], self.config)

    def check(self, i, out):
        problems = _solve_gate(self.problems[i % len(self.problems)], out[0], self.EPS)
        return int(bool(problems)), problems


def _solve_gate(problem, result, eps):
    errors = []
    if not result.converged:
        errors.append(f"did not converge in {result.iters} sweeps")
    min_eig = float(np.linalg.eigvalsh(result.s_hat.array - result.l_hat.array)[0])
    if not min_eig > 0:
        errors.append(f"S - L not positive definite (min eigenvalue {min_eig:.3e})")
    else:
        kkt = lvglasso.kkt_residual(problem, result)
        if not kkt <= 10 * eps:
            errors.append(f"kkt residual {kkt:.3e} > 10*eps")
    return errors


class CvP100:
    """One ``cross_validate(model="lvgg")`` per operation on the same data.

    p=100, n=600, a 3 x 2 (lambda1, lambda2) grid and 5 folds: 30 fold
    solves plus the refit, 31 solves at eps=1e-4.
    """

    name = "cv-lvgg-p100"
    p = 100
    trace_ops = 1
    GRID1 = (0.01, 0.02, 0.04)
    GRID2 = (0.1, 0.3)
    FOLDS = 5

    def __init__(self, seed, work_dir):
        truth = lvglasso.generate_synthetic(
            lvglasso.LatentModelSpec(p_obs=100, p_hidden=10, target_sparsity=0.05, seed=TRUTH_SEED)
        )
        self.data = lvglasso.sample_gaussian(truth.k_marginal, n=600, seed=1000 * seed + 10)
        self.plan = lvglasso.CvPlan(self.GRID1, self.GRID2, folds=self.FOLDS, split_seed=seed)
        self.config = lvglasso.SolverConfig(mu=0.01, epsilon=1e-4)
        self.ops_per_call = len(self.GRID1) * len(self.GRID2) * self.FOLDS + 1
        self.selected = None

    def op(self, i):
        return lvglasso.cross_validate(self.data, self.plan, self.config, model="lvgg")

    def check(self, i, report):
        errors = [
            f"cell ({c.lambda1}, {c.lambda2}) invalid" for c in report.cells if not c.valid
        ]
        if not math.isfinite(report.heldout_nloglike):
            errors.append(f"held-out nloglike {report.heldout_nloglike} not finite")
        selected = (report.best_lambda1, report.best_lambda2)
        if self.selected is None:
            self.selected = selected
        elif selected != self.selected:
            errors.append(f"selected {selected}, earlier repeats selected {self.selected}")
        # A failed gate fails every solve of the call.
        return (self.ops_per_call if errors else 0), errors


class CliCsv:
    """``generate`` (CSV) then ``solve`` and ``glasso`` on covariance.csv.

    p=300, n=10000, CLI default mu and eps. Each operation uses the next of
    ``POOL`` generate seeds drawn from the benchmark seed; the CLI derives
    both the model and the samples from its one ``--seed``.
    """

    name = "cli-csv"
    p = 300
    ops_per_call = 3
    trace_ops = 2
    POOL = 4

    def __init__(self, seed, work_dir):
        self.work_dir = work_dir
        self.seeds = [1000 * seed + 20 * i for i in range(self.POOL)]

    def _dirs(self, i):
        base = self.work_dir / f"op{i}"
        return base, base / "data", base / "fit", base / "fit_sgg"

    def op(self, i):
        base, data, fit, fit_sgg = self._dirs(i)
        cov = str(data / "covariance.csv")
        commands = (
            ["generate", "--p-obs", "300", "--p-hidden", "10", "--n-samples", "10000",
             "--seed", str(self.seeds[i % self.POOL]), "--format", "csv", "--out", str(data)],
            ["solve", "--cov", cov, "--lambda1", "0.01", "--lambda2", "0.12",
             "--format", "csv", "--out", str(fit)],
            ["glasso", "--cov", cov, "--lam", "0.01", "--format", "csv", "--out", str(fit_sgg)],
        )
        return [lvglasso.main(argv) for argv in commands]

    def check(self, i, codes):
        base, data, fit, fit_sgg = self._dirs(i)
        errors = [f"{cmd}: exit code {rc}"
                  for cmd, rc in zip(("generate", "solve", "glasso"), codes) if rc != 0]
        for cmd, rc, out in (("solve", codes[1], fit), ("glasso", codes[2], fit_sgg)):
            if rc != 0:
                continue
            problems = _manifest_mismatches(out / "manifest.json")
            if not json.loads((out / "result.json").read_text())["converged"]:
                problems.append("did not converge")
            if cmd == "solve":
                a = lvglasso.read_matrix(out / "s_hat.csv") - lvglasso.read_matrix(out / "l_hat.csv")
                min_eig = float(np.linalg.eigvalsh(a)[0])
                if not min_eig > 0:
                    problems.append(f"s_hat - l_hat not positive definite ({min_eig:.3e})")
            if problems:
                errors.append(f"{cmd}: {'; '.join(problems)}")
        shutil.rmtree(base)
        return len(errors), errors


def _manifest_mismatches(path):
    manifest = json.loads(path.read_text())
    mismatches = []
    for name, digest in manifest["input_hashes"].items():
        with open(name, "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != digest:
                mismatches.append(f"sha256 of {name} does not match the manifest")
    return mismatches


WORKLOADS = {w.name: w for w in (LvggP400, CvP100, CliCsv)}


# ---------------------------------------------------------------------------
# Closed loop

# A median of fewer operations is too noisy: at 30 s a run fits only two
# 14 s cross-validations.
MIN_OPS = 3


def run_loop(wl, *, seconds=None, count=None, tracer=None):
    """Issue operations one after another; each waits for the last to return.

    With ``seconds`` operations are issued until that many seconds have
    passed and at least ``MIN_OPS`` have run, so the last one may end up to
    one operation later. With ``count`` exactly that many run.
    """
    times, attempted, failed, errors = [], 0, 0, []
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        t_iter = time.perf_counter()
        if tracer is not None:
            tracer.op_id = i
        try:
            out = wl.op(i)
        except Exception as exc:  # an operation failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = exc
        finally:
            elapsed = time.perf_counter() - t_iter
            if tracer is not None:
                tracer.op_id = None
        times.append(elapsed)
        attempted += wl.ops_per_call
        if isinstance(out, Exception):
            n_failed, problems = wl.ops_per_call, [repr(out)]
        else:
            try:
                n_failed, problems = wl.check(i, out)
            except Exception as exc:  # a gate that cannot judge fails the call
                traceback.print_exc(file=sys.stderr)
                n_failed, problems = wl.ops_per_call, [f"gate raised {exc!r}"]
        failed += n_failed
        errors += [f"{wl.name} call {i}: {p}" for p in problems]
        i += 1
    return {"op_s": times, "attempted": attempted, "failed": failed, "errors": errors}


# ---------------------------------------------------------------------------
# Per-layer figures from the traced pass


def layer_metrics(tracer, untraced, traced):
    self_s = tracer.self_times()
    c = tracer.counters
    solve_ms = [1e3 * d for d in tracer.durations({"solver.solve_lvgg", "solver.solve_glasso"})]
    solve_tail, tail_label = tail(solve_ms) or (max(solve_ms), "max")
    cv_calls = len(tracer.durations({"evalcv.cross_validate"}))
    fold_solves = tracer.count_under(
        {"solver.solve_lvgg", "solver.solve_glasso"}, "evalcv.cross_validate"
    ) - cv_calls
    metrics = {
        "symlin.self_s": sum(v for k, v in self_s.items() if k.startswith("symlin.")),
        "symlin.eig_sym.calls": c.get("symlin.eig_sym.calls", 0),
        "symlin.eig_sym.self_s": self_s.get("symlin.eig_sym", 0.0),
        "symlin.eig_sym.gflop_computed": c.get("symlin.eig_sym.flop_computed", 0) / 1e9,
        "symlin.eigen_reconstruct.calls": c.get("symlin.eigen_reconstruct.calls", 0),
        "symlin.eigen_reconstruct.self_s": self_s.get("symlin.eigen_reconstruct", 0.0),
        "symlin.eigen_reconstruct.gflop_computed": c.get("symlin.eigen_reconstruct.flop_computed", 0) / 1e9,
        "symlin.SymMatrix.constructs": c.get("symlin.SymMatrix.constructs", 0),
        "symlin.SymMatrix.self_s": self_s.get("symlin.SymMatrix", 0.0),
        "symlin.SymMatrix.mb_computed": c.get("symlin.SymMatrix.bytes_computed", 0) / 1e6,
        "solver.sblvgg_step.self_s": self_s.get("solver.sblvgg_step", 0.0),
        "solver.sweeps": c.get("solver.sweeps", 0),
        "solver.converged_ratio": c["solver.converged"] / c["solver.solves"],
        "solver.solve_ms_p50": statistics.median(solve_ms),
        "solver.solve_ms_tail": solve_tail,
        "evalcv.cross_validate.self_s": self_s.get("evalcv.cross_validate", 0.0),
        "evalcv.fold_solves": fold_solves,
        "datagen.Dataset.take.self_s": self_s.get("datagen.Dataset.take", 0.0),
        "datagen.generate_synthetic.self_s": self_s.get("datagen.generate_synthetic", 0.0),
        "datagen.sample_gaussian.self_s": self_s.get("datagen.sample_gaussian", 0.0),
        "model.eval_objective.self_s": self_s.get("model.eval_objective", 0.0),
        "model.psd_rank.self_s": self_s.get("model.psd_rank", 0.0),
        "io_cli.self_s": sum(v for k, v in self_s.items() if k.startswith("io_cli.")),
        "io_cli.write_matrix.bytes": c.get("io_cli.write_matrix.bytes", 0),
        "io_cli.write_matrix.self_s": self_s.get("io_cli.write_matrix", 0.0),
        "io_cli.read_matrix.bytes": c.get("io_cli.read_matrix.bytes", 0),
        "io_cli.read_matrix.self_s": self_s.get("io_cli.read_matrix", 0.0),
        "io_cli.main.generate.self_s": self_s.get("io_cli.main.generate", 0.0),
        "io_cli.main.solve.self_s": self_s.get("io_cli.main.solve", 0.0),
        "io_cli.main.glasso.self_s": self_s.get("io_cli.main.glasso", 0.0),
        "trace.op_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    notes = {
        "solver.solve_ms_tail": f"{tail_label} of {len(solve_ms)} solves",
        "trace.op_s": f"median of {len(traced)} traced ops",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Environment record


def _blas_threads():
    """Thread count OpenBLAS reports, or None if its library is not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _l3_bytes():
    # glibc's _SC_LEVEL3_CACHE_SIZE, which Python's os.sysconf does not name.
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype, libc.sysconf.argtypes = ctypes.c_long, [ctypes.c_int]
        size = int(libc.sysconf(194))
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def env_record(p):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "p": p,
        "matrix_mb_computed": 8 * p * p / 1e6,
        # about 14 p x p float64 arrays are live during one sweep
        "sweep_working_set_mb_computed": 14 * 8 * p * p / 1e6,
    }


# ---------------------------------------------------------------------------


def _warm_blas():
    # Starts the BLAS thread pool and LAPACK workspaces before timing.
    x = np.random.default_rng(0).standard_normal((64, 64))
    np.linalg.eigh(x + x.T)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "once"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    lib_file = Path(lvglasso.__file__).resolve()
    if SRC.resolve() not in lib_file.parents:
        sys.exit(f"lvglasso was imported from {lib_file}, not from {SRC}")

    args.work_dir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, args.work_dir)
    _warm_blas()
    out = {"mode": args.mode, "setup_s": time.perf_counter() - T0}

    if args.mode == "measure":
        out.update(run_loop(wl, seconds=args.seconds))
    elif args.mode == "once":
        out.update(run_loop(wl, count=1))
    elif args.mode == "trace":
        untraced = run_loop(wl, count=cls.trace_ops)
        tracer = Tracer()
        tracer.install(lvglasso)
        tracer.op_id = "setup"
        wl = cls(args.seed, args.work_dir)
        tracer.op_id = None
        traced = run_loop(wl, count=cls.trace_ops, tracer=tracer)
        out["layers"], out["notes"] = layer_metrics(tracer, untraced["op_s"], traced["op_s"])
        out["attempted"] = untraced["attempted"] + traced["attempted"]
        out["errors"] = untraced["errors"] + traced["errors"]
        out["failed"] = untraced["failed"] + traced["failed"]
        out["op_s"] = traced["op_s"]
        spans = args.work_dir / "spans.jsonl"
        tracer.dump(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    out["env"] = env_record(cls.p)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(out))


if __name__ == "__main__":
    main()
