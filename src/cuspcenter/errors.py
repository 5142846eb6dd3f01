"""Exception taxonomy.

CLI exit codes: ParameterError subclasses and ScaleLimit map to exit 2
(bad input / refused size), everything else derived from CuspCenterError
maps to exit 1 (a verification that ran and failed), and any other
exception maps to exit 3 (an internal error, not a verdict).
"""

from __future__ import annotations


class CuspCenterError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CuspCenterError):
    """A parameter set that does not describe a block we handle."""


class InvalidPrime(ParameterError):
    """ell is not prime, divides q, or q is not a prime power."""


class DegenerateBlock(ParameterError):
    """The block is semisimple or outside the supported range."""


class SupercuspidalCase(ParameterError):
    """d = n: the supercuspidal case is out of scope by design."""


class ScaleLimit(CuspCenterError):
    """Requested computation exceeds the configured size bounds."""


class ZeroArgument(CuspCenterError):
    """Valuation of zero requested."""


class ZeroElement(CuspCenterError):
    """Multiplicative decomposition of zero requested."""


class IntegralityFailure(CuspCenterError):
    """A value required to be ell-integral is not."""


class NoSolution(CuspCenterError):
    """An exact linear system is inconsistent."""


class RelationFailure(CuspCenterError):
    """A matrix relation that defines a deformation point fails."""


class AssertionFailure(CuspCenterError):
    """A verified mathematical invariant failed.

    Carries an optional ``witness`` payload naming the offending object
    (class label, orbit, deformation point) for reports.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
