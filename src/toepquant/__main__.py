"""``python -m toepquant``: the same command line as the ``toepquant`` script."""

import sys

from .cli import main

sys.exit(main())
