"""Exact-repeat self-test of the traced run.

Runs the traced pass of each workload twice with the same seed and requires
every per-layer figure that is not a time (solver.sweeps,
symlin.eig_sym.calls, evalcv.fold_solves, the io_cli byte counts, the
*_computed flop and byte figures, ...) to be identical. Exits 1 otherwise.

    python3 perfbench/selftest.py [--seed 0] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import BUDGET_S, ROOT, WORKLOADS, BenchError, run_worker


def main() -> int:
    parser = argparse.ArgumentParser(description="exact-repeat self-test of the traced run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOADS, nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] not in ("s", "ms") and not m["name"].startswith("baseline.")]
    mismatches = 0
    for workload in args.workload:
        argv = ["--workload", workload, "--seed", str(args.seed), "--mode", "trace",
                "--work-dir", str(ROOT / ".perfbench" / workload)]
        try:
            runs = [run_worker(argv, time.monotonic() + BUDGET_S)["layers"]
                    for _ in range(2)]
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name in exact:
            first, second = runs[0][name], runs[1][name]
            same = first == second
            mismatches += not same
            print(f"{workload} {name}: {first} / {second} {'ok' if same else 'MISMATCH'}")
    print(f"exact-repeat self-test: {'passed' if mismatches == 0 else f'{mismatches} mismatches'}")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
