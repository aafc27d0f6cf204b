"""``python3 -m projlim``: the command-line interface, as the ``projlim``
script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
