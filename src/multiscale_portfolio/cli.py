"""Console entry point for the ``msport`` command."""

from __future__ import annotations

import logging
import sys

from .experiments import run_cli


def main() -> None:
    # the package's own level comes from --log-level (default INFO)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
