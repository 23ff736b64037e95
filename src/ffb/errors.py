"""Exception types shared across the package.

Construction and input errors (NotPrime, Reducible, Overflow, BadParam, ...)
subclass UsageError and signal caller mistakes.  RoundingDrift and
IntegerOverflow signal that a computation left its guaranteed-exact regime
and must not be trusted; InvariantViolation signals that a proven fact
failed to hold, which is a bug.
"""


class FfbError(Exception):
    """Base class for every error raised by this package."""


class UsageError(FfbError):
    """Base class for errors caused by the caller's input, not the computation."""


class NotPrime(UsageError):
    """The characteristic passed to a field constructor is not prime."""


class Reducible(UsageError):
    """A supplied modulus polynomial factors over the base field."""


class Overflow(UsageError):
    """Requested field order exceeds the configured cap."""


class DivideByZero(FfbError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class BadExponent(UsageError):
    """Character index outside the valid range [0, q-1)."""


class IntegerOverflow(FfbError):
    """An exact integer computation would exceed the 64-bit range."""


class RoundingDrift(FfbError):
    """A float quantity that must be an integer drifted past tolerance."""


class NoNontrivialCharacter(UsageError):
    """The field has no nontrivial multiplicative character (q = 2)."""


class LambdaZero(UsageError):
    """The requested target value must be nonzero."""


class NotPrimeField(UsageError):
    """Operation defined only over prime fields (k = 1)."""


class BadParam(UsageError):
    """A set description or CLI parameter is malformed; message names it."""


class InvariantViolation(FfbError):
    """A result the mathematics guarantees did not hold; a bug, not bad input."""
