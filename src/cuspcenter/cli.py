"""The whole-package import that ``perfbench/`` makes: its tracer
(``perfbench/traced_cli.py``) and its set-up probe import this module.

The command line lives in ``driver``, which loads only the modules a
command runs.  The tracer instead reads
``sys.modules["cuspcenter.<module>"]`` for every module it spans right
after ``import cuspcenter.cli``, so this module imports all of them, and
it re-exports the driver's ``main``, ``run``, ``build_parser``,
``read_args``, ``OPTIONS`` and ``_DISPATCH`` as the same objects.  It
holds no logic.  Once the tracer imports the modules it spans itself
(ROADMAP.md, direction I), this file is deleted.
"""

import sys

from . import (  # noqa: F401  (every module perfbench/traced_cli.py spans)
    centermap, characters, classes, cyclotomic, deformation, finitefield, gl2table,
    invariants, linalg, matrices, matrixoracle, polynomials, report,
)
from .driver import _DISPATCH, OPTIONS, build_parser, main, read_args, run  # noqa: F401

if __name__ == "__main__":
    sys.exit(run())
