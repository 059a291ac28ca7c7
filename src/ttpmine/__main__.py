"""``python -m ttpmine``: the same entry point as the ``ttpmine`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
