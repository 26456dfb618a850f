"""``python -m tcpci``: the command line of :mod:`tcpci.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
