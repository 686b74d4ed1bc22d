"""Exception types shared across the library.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error payloads without string matching.
"""


class DomainError(Exception):
    """An input lies outside an operation's mathematical domain."""

    code = "domain-error"


class NotPrimeError(DomainError):
    code = "not-an-odd-prime"


class NotAUnitError(DomainError):
    code = "not-a-unit"


class ExcludedMultiplierError(DomainError):
    """Multipliers 0 and 1 are rejected wherever a multiplier is taken."""

    code = "excluded-multiplier"


class InsufficientPrecisionError(DomainError):
    code = "insufficient-precision"


class RootOfUnityError(DomainError):
    """No threshold level exists: the multiplier is a root of unity."""

    code = "root-of-unity"


class CapExceededError(DomainError):
    code = "cap-exceeded"


class ZeroValuationError(DomainError):
    code = "zero-valuation"


class ValuationMismatchError(DomainError):
    code = "valuation-mismatch"


class BasisMismatchError(DomainError):
    code = "basis-mismatch"


class ParseError(DomainError):
    code = "parse-error"
