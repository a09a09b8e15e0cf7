"""The package's public surface: every exported name resolves, and a solve
loads one BLAS library."""

import importlib
import os
import subprocess
import sys

import pytest

SUBMODULES = ("symlin", "model", "solver", "datagen", "evalcv", "io_cli")
MODULES = ("lvglasso", *(f"lvglasso.{m}" for m in SUBMODULES))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_is_an_attribute(name):
    # a stale __all__ entry breaks `from lvglasso import *` and every tool
    # that walks __all__
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_a_solve_loads_one_blas_library():
    # one BLAS library per process: scipy bundles a second OpenBLAS whose
    # thread pool spins against numpy's, so a solve must never import it
    code = (
        "import sys\n"
        "import lvglasso\n"
        "sigma = lvglasso.SymMatrix([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]])\n"
        "lvglasso.solve_lvgg(lvglasso.LvggProblem(sigma, 0.05, 0.1))\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"
