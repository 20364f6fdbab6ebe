"""Run the command-line interface as ``python -m paramfuzz``."""

import sys

from paramfuzz.cli import main

if __name__ == "__main__":
    sys.exit(main())
