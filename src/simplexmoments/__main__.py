"""``python -m simplexmoments``: the same command line tool as ``simplexmoments``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
