"""The package's public surface: every exported name resolves."""

import importlib

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
