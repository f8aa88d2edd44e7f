"""``python -m tetrageo``: the command-line interface of :mod:`tetrageo.cli`."""

import sys

from .cli import main

sys.exit(main())
