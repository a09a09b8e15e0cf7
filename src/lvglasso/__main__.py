"""Run the command-line interface: ``python -m lvglasso <subcommand> ...``."""

import sys

from .io_cli import main

if __name__ == "__main__":
    sys.exit(main())
