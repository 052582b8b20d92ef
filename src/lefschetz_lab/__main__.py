"""``python -m lefschetz_lab``: the same command line as ``lefschetz-lab``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
