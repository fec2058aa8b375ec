"""`python -m dualxp`: the same command line as the `dualxp` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
