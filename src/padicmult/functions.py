"""Locally constant functions on the p-adic integers and the two
multiplication endomorphisms acting on them.

A function of level m is stored as its p^m values on the clopen balls
j + p^m Z_p.  This class of functions is closed under both endomorphisms, so
all operator identities downstream can be checked with exact arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from .errors import InsufficientPrecisionError, ParseError
from .padic import Multiplier, MultiplierSpec, PadicApprox, as_prime, multiplier_residue
from .scalars import ZERO, RationalLike, Scalar


@dataclass(frozen=True)
class LocallyConstantFn:
    """A level-m function on Z_p: entry j is the value on the ball j + p^m Z_p."""

    p: int
    level: int
    values: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        p = as_prime(self.p)
        if self.level < 0:
            raise ParseError("level must be non-negative")
        values = self.values
        # the library passes tuples of Scalars, which need no coercion
        if type(values) is not tuple or not all(map(isinstance, values, repeat(Scalar))):
            values = tuple(map(Scalar.of, values))
            object.__setattr__(self, "values", values)
        if len(values) != p**self.level:
            raise ParseError(
                f"level {self.level} over p={p} needs {p**self.level} values, "
                f"got {len(values)}"
            )

    @classmethod
    def constant(cls, p: int, value: Scalar | RationalLike) -> LocallyConstantFn:
        return cls(p, 0, (Scalar.of(value),))

    @classmethod
    def indicator(cls, p: int, level: int, residue: int) -> LocallyConstantFn:
        """Indicator of the ball residue + p^level Z_p."""
        p = as_prime(p)
        if level < 0:
            raise ParseError("level must be non-negative")
        residue %= p**level
        values = [ZERO] * p**level
        values[residue] = Scalar.of(1)
        return cls(p, level, tuple(values))

    def __call__(self, x: int | PadicApprox) -> Scalar:
        if isinstance(x, PadicApprox):
            if x.p != self.p:
                raise ParseError("mixed primes in function evaluation")
            if x.precision < self.level:
                raise InsufficientPrecisionError(
                    f"argument known mod p^{x.precision}, level {self.level} needed"
                )
            x = x.residue
        return self.values[x % self.p**self.level]

    def refined(self, level: int) -> LocallyConstantFn:
        """The same function presented at a higher level."""
        if level < self.level:
            raise InsufficientPrecisionError("refined() cannot lower the level")
        modulus = self.p**self.level
        values = tuple(self.values[j % modulus] for j in range(self.p**level))
        return LocallyConstantFn(self.p, level, values)

    def reduced(self) -> LocallyConstantFn:
        """Canonical form at the minimal level representing the same function."""
        p, level, values = self.p, self.level, self.values
        # a level drops when the values repeat their first p^(level-1) entries p times;
        # the tuples compare in C, skipping identical entries
        while level > 0:
            head = values[: len(values) // p]
            if values != head * p:
                break
            level, values = level - 1, head
        return self if level == self.level else LocallyConstantFn(p, level, values)

    def _align(self, other: LocallyConstantFn) -> tuple[LocallyConstantFn, LocallyConstantFn]:
        if other.p != self.p:
            raise ParseError("mixed primes in function arithmetic")
        level = max(self.level, other.level)
        return self.refined(level), other.refined(level)

    def __add__(self, other: LocallyConstantFn) -> LocallyConstantFn:
        a, b = self._align(other)
        return LocallyConstantFn(self.p, a.level, tuple(x + y for x, y in zip(a.values, b.values)))

    def __mul__(self, other: LocallyConstantFn) -> LocallyConstantFn:
        a, b = self._align(other)
        return LocallyConstantFn(self.p, a.level, tuple(x * y for x, y in zip(a.values, b.values)))


def same_function(f: LocallyConstantFn, g: LocallyConstantFn) -> bool:
    """Equality as functions on Z_p, regardless of presentation level."""
    return f.reduced() == g.reduced()


def precompose(f: LocallyConstantFn, rho: int) -> LocallyConstantFn:
    """f(rho*x) at the same level, for any integer rho (1 and non-units included)."""
    modulus = f.p**f.level
    values = tuple(f.values[rho * j % modulus] for j in range(modulus))
    return LocallyConstantFn(f.p, f.level, values)


def beta_endo(f: LocallyConstantFn, r: int | MultiplierSpec) -> LocallyConstantFn:
    """Precompose with multiplication: (beta_r f)(x) = f(r*x).  Same level."""
    return precompose(f, multiplier_residue(r, f.p, f.level))


def alpha_endo(f: LocallyConstantFn, r: int | MultiplierSpec) -> LocallyConstantFn:
    """Transfer along multiplication: (alpha_r f)(x) = f(x/r) where r divides x, else 0.

    For r = r' * p^N the output has level m + N and is supported on the
    multiples of p^N; for a unit r (N = 0) it keeps level m.
    """
    m = Multiplier.of(r, f.p)
    level_r, modulus = m.valuation, f.p**f.level
    inv = pow(m.unit_residue(f.level), -1, modulus)
    block = f.p**level_r
    values = [ZERO] * (modulus * block)
    for j in range(modulus):
        values[j * block] = f.values[inv * j % modulus]
    return LocallyConstantFn(f.p, f.level + level_r, tuple(values))


# --- text format ----------------------------------------------------------------
#
# Functions are serialized as JSON documents {"p", "level", "values"} with
# scalar strings in canonical lowest-terms form; parse . serialize = identity.


def function_to_doc(f: LocallyConstantFn) -> dict:
    return {"p": f.p, "level": f.level, "values": [str(v) for v in f.values]}


def function_from_doc(doc: dict) -> LocallyConstantFn:
    try:
        p, level, values = doc["p"], doc["level"], doc["values"]
    except (KeyError, TypeError):
        raise ParseError("function document needs fields p, level, values") from None
    return LocallyConstantFn(p, level, tuple(Scalar.parse(v) for v in values))


def save_function(f: LocallyConstantFn, path: str | Path) -> None:
    Path(path).write_text(json.dumps(function_to_doc(f), sort_keys=True) + "\n")


def load_function(path: str | Path) -> LocallyConstantFn:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed function file: {exc}") from None
    return function_from_doc(doc)
