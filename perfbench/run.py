"""Time-to-certified-solution benchmark for lvglasso.

Run from the repository root:

    python3 perfbench/run.py --workload lvgg-p400 --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  lvgg-p400     one solve_lvgg per operation, p_obs=400, eps=1e-6
  cv-lvgg-p100  one cross_validate(model="lvgg") per operation, 31 solves
  cli-csv       CLI generate (CSV, p=300, n=10000), then solve and glasso

``--trace 0`` issues operations untraced for ``--seconds`` seconds (and at
least 3 operations) and reports the end-to-end metrics. ``--trace 1`` runs a
fixed operation set untraced and then traced, whatever ``--seconds`` says,
and reports the per-layer metrics, the tracing overhead and a
single-threaded lvgg-p400 baseline. Metric names and units come from
BENCHMARK.json.

Each workload runs in a child process (perfbench/worker.py) whose BLAS
thread count is set in its environment: min(2, nproc), and 1 for the
single-threaded baseline. Operations form a closed loop with one caller.
The last line of output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lvgg-p400", "cv-lvgg-p100", "cli-csv")

# The workload-specific name of solution_s.
PRIMARY = {"lvgg-p400": "solve_s", "cv-lvgg-p100": "cv_s", "cli-csv": "pipeline_s"}

# Per-layer metric prefix -> the end-to-end metric it should move.
MOVES = (
    ("symlin.eig_sym.", "solve_s on lvgg-p400, also cv_s"),
    ("symlin.eigen_reconstruct.", "solve_s on lvgg-p400, also cv_s"),
    ("symlin.SymMatrix.", "cv_s on cv-lvgg-p100"),
    ("symlin.self_s", "solve_s, cv_s"),
    ("solver.", "cv_s and solve_s"),
    ("evalcv.", "cv_s"),
    ("datagen.Dataset.take.", "cv_s"),
    ("datagen.", "setup_s, and pipeline_s through generate"),
    ("model.", "solve_s"),
    ("io_cli.", "pipeline_s on cli-csv"),
    ("trace.", "none: traced cost of one operation"),
    ("baseline.", "none: BLAS-threading reference"),
)

SETUP_PROBES = 4      # extra set-ups in their own processes; the measuring one is the fifth
BUDGET_S = 170.0      # every child must end within this many seconds of the start


class BenchError(Exception):
    """A child process failed or the time budget ran out."""


def max_blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env(threads: int) -> dict:
    # LVGLASSO_* variables would change the CLI's default mu and eps.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LVGLASSO_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(argv, deadline: float, threads: int | None = None) -> dict:
    """Run worker.py with ``argv`` and return the JSON object it prints last.

    Children run one at a time: two OpenBLAS processes with two threads
    each on two cores spin against each other and run 10-20x slower.
    """
    threads = threads or max_blas_threads()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(threads), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {argv} printed no result") from exc


def tail(values):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], f"p{100 * (k + 1) // n}"


def moves(name: str) -> str:
    return next(target for prefix, target in MOVES if name.startswith(prefix))


def print_env(env: dict) -> None:
    l3 = env["l3_bytes"]
    l3_text = f"{l3 / 2**20:.0f} MiB" if l3 else "unknown"
    print(f"  env: numpy {env['numpy']}, {env['blas']}, BLAS threads in effect "
          f"{env['blas_threads']} (env {env['blas_threads_env']}), nproc {env['nproc']}")
    print(f"  env: p={env['p']}: one p x p matrix {env['matrix_mb_computed']:.2f} MB, "
          f"sweep working set ~{env['sweep_working_set_mb_computed']:.1f} MB (computed) "
          f"against L3 {l3_text}")


def measure(args, spec, common, deadline):
    setups = [run_worker(common + ["--mode", "setup"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = run_worker(common + ["--mode", "measure", "--seconds", str(args.seconds)], deadline)
    setups.append(res["setup_s"])
    ops = res["op_s"]
    metrics = {
        "solution_s": statistics.median(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    t = tail(ops)
    tail_text = (f"{t[1]} {t[0]:.4f} s" if t else
                 f"tail percentile not reported: needs >= 11 ops")
    print(f"{args.workload} seed={args.seed} trace=0 closed loop, 1 caller")
    print_env(res["env"])
    print(f"  {PRIMARY[args.workload]} (solution_s) = {metrics['solution_s']:.4f} s "
          f"(median of {len(ops)} ops; {tail_text})")
    print(f"  setup_s = {metrics['setup_s']:.4f} s (median of {len(setups)} set-ups)")
    print(f"  peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB")
    print(f"  failed_frac = {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g}")
    for err in res["errors"]:
        print(f"  FAILED {err}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, res["attempted"], res["failed"]


def trace(args, spec, common, deadline):
    res = run_worker(common + ["--mode", "trace"], deadline)
    base_common = ["--workload", "lvgg-p400", "--seed", str(args.seed),
                   "--work-dir", str(ROOT / ".perfbench" / "baseline"), "--mode", "once"]
    base_1 = run_worker(base_common, deadline, threads=1)
    base_n = run_worker(base_common, deadline)
    layers = dict(res["layers"])
    layers["baseline.lvgg_p400.solve_s_1thread"] = base_1["op_s"][0]
    layers["baseline.lvgg_p400.solve_s_maxthreads"] = base_n["op_s"][0]
    attempted = res["attempted"] + base_1["attempted"] + base_n["attempted"]
    failed = res["failed"] + base_1["failed"] + base_n["failed"]
    errors = res["errors"] + base_1["errors"] + base_n["errors"]

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = sorted(set(units) - set(layers))
    if missing:
        raise BenchError(f"traced run did not produce {missing}")
    print(f"{args.workload} seed={args.seed} trace=1: {len(res['op_s'])} ops untraced, "
          f"then traced; spans in {res['spans_file']}")
    print_env(res["env"])
    share = layers["symlin.self_s"] / sum(res["op_s"])
    print(f"  symlin self time = {share:.1%} of traced op time; "
          f"io_cli self time = {layers['io_cli.self_s']:.4f} s")
    print(f"  baseline lvgg-p400 solve: 1 BLAS thread {layers['baseline.lvgg_p400.solve_s_1thread']:.4f} s, "
          f"{base_n['env']['blas_threads']} threads {layers['baseline.lvgg_p400.solve_s_maxthreads']:.4f} s")
    for name in units:
        note = res["notes"].get(name)
        print(f"  {name} = {layers[name]:.6g} {units[name]}"
              f"{f' ({note})' if note else ''}  -> {moves(name)}")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    for err in errors:
        print(f"  FAILED {err}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="lvglasso time-to-certified-solution benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "lvglasso" / "__init__.py").is_file():
        print(f"error: no lvglasso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = ROOT / ".perfbench" / args.workload
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(work_dir)]
    deadline = time.monotonic() + BUDGET_S
    try:
        run = trace if args.trace else measure
        metrics, attempted, failed = run(args, spec, common, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
