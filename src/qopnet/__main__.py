"""``python -m qopnet``: the ``qopnet`` console script without an install."""
import sys

from qopnet.cli import main

sys.exit(main())
