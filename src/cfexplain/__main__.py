"""``python -m cfexplain``: the command-line front end, run from the package."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
