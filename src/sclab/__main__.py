"""``python -m sclab``: the same command line as the ``sclab`` script."""

import sys

from .cli import main

sys.exit(main())
