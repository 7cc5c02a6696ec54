"""``python -m hgipll``: the ``hgipll`` command line."""

import sys

from .cli import main

sys.exit(main())
