"""Exception types shared across the package.

Every error carries an optional ``details`` mapping so callers (notably the
command line interface) can emit a machine-readable counterexample block
instead of parsing the message string.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


class OrdalgError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, details: Optional[Mapping[str, Any]] = None):
        super().__init__(message)
        self.details = dict(details) if details else {}


class UnknownElement(OrdalgError):
    """A relation or function mentions a label outside the declared carrier."""


class AntisymmetryViolation(OrdalgError):
    """A relation required to be a partial order has a two-way pair x <= y <= x."""


class CarrierMismatch(OrdalgError):
    """Two objects that must share a carrier do not."""


class EmptyCarrier(OrdalgError):
    """The carrier must contain at least one element."""


class NotInSkeleton(OrdalgError):
    """A function expected to lie in the reflexive cone does not."""


class NotAMorphism(OrdalgError):
    """A claimed morphism fails one of its defining laws on a checked input."""


class NotBlockConstant(OrdalgError):
    """A function is not constant on the blocks of the given partition."""


class NotMonotone(NotInSkeleton):
    """A function required to be order-preserving, i.e. in the monotone cone, is not."""


class NonPositiveEpsilon(OrdalgError):
    """Approximation tolerances must be strictly positive rationals."""


class NoApproximantWithinTolerance(OrdalgError):
    """An interpolation claim was asked for a pair f, g with f not totally below g."""


class TooLargeToEnumerate(OrdalgError):
    """Exhaustive enumeration was requested beyond the supported size."""
