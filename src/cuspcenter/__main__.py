import sys

from .driver import run

sys.exit(run())
