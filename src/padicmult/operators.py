"""Exact finite sections of operators over labeled basis index sets.

A TruncatedOp is a rectangular sparse matrix between two ordered bases whose
indices are typed labels: bilateral-window positions, cyclic positions,
non-negative positions, or digit words.  All entries are exact scalars, and
composition, adjoints, and equality are exact.

Label grammar (stable): "W:k", "C:k/n", "N:l", "D:d0.d1.d2".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union

from .errors import BasisMismatchError, ParseError
from .scalars import ONE, Scalar


@dataclass(frozen=True)
class WinZ:
    """Position k in a window of the bilateral basis of l^2(Z)."""

    k: int


@dataclass(frozen=True)
class Cyc:
    """Position k in the cyclic basis of l^2(Z/nZ)."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 <= self.k < self.n:
            raise ParseError(f"cyclic index {self.k} out of range mod {self.n}")


@dataclass(frozen=True)
class NonNeg:
    """Position l in the canonical basis of l^2(Z_{>=0})."""

    l: int

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ParseError("non-negative basis index required")


@dataclass(frozen=True)
class Word:
    """A canonical digit word: no trailing zeros except the single-digit zero word."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        if not self.digits or any(d < 0 for d in self.digits):
            raise ParseError("words need at least one digit, all non-negative")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise ParseError(f"non-canonical word (trailing zero): {self.digits}")

    def is_zero(self) -> bool:
        return self.digits == (0,)


BasisIndex = Union[WinZ, Cyc, NonNeg, Word]


def label(index: BasisIndex) -> str:
    if isinstance(index, WinZ):
        return f"W:{index.k}"
    if isinstance(index, Cyc):
        return f"C:{index.k}/{index.n}"
    if isinstance(index, NonNeg):
        return f"N:{index.l}"
    return "D:" + ".".join(str(d) for d in index.digits)


def parse_label(text: str) -> BasisIndex:
    kind, _, body = text.partition(":")
    try:
        if kind == "W":
            return WinZ(int(body))
        if kind == "C":
            k, n = body.split("/")
            return Cyc(int(k), int(n))
        if kind == "N":
            return NonNeg(int(body))
        if kind == "D":
            return Word(tuple(int(d) for d in body.split(".")))
    except ValueError:
        pass
    raise ParseError(f"malformed basis label: {text!r}")


Vector = dict[BasisIndex, Scalar]


@dataclass(frozen=True, eq=False)
class TruncatedOp:
    """A sparse exact matrix from an ordered domain basis to a codomain basis.

    ``entries`` is a read-only view of a private copy of the nonzero entries
    given, so a built operator never changes and its column index never goes
    stale.
    """

    domain: tuple[BasisIndex, ...]
    codomain: tuple[BasisIndex, ...]
    entries: Mapping[tuple[BasisIndex, BasisIndex], Scalar]

    def __post_init__(self) -> None:
        nonzero = {key: s for key, s in self.entries.items() if s}
        object.__setattr__(self, "entries", MappingProxyType(nonzero))

    @cached_property
    def _columns(self) -> dict[BasisIndex, dict[BasisIndex, Scalar]]:
        """Domain index -> {row: entry}, with an empty map for a zero column.

        Building it checks every entry against both bases, as ``build`` does.
        """
        columns: dict[BasisIndex, dict[BasisIndex, Scalar]] = {col: {} for col in self.domain}
        for (row, col), s in self.entries.items():
            try:
                columns[col][row] = s
            except KeyError:
                raise BasisMismatchError(f"entry in column {label(col)} off the domain") from None
        # one set difference reuses the row hashes the columns store; a
        # membership test per entry hashes every row again
        off = set().union(*columns.values()).difference(self.codomain)
        if off:
            raise BasisMismatchError(f"entry in row {label(off.pop())} off the codomain")
        return columns

    @classmethod
    def build(
        cls,
        domain: Iterable[BasisIndex],
        codomain: Iterable[BasisIndex],
        entries: Mapping[tuple[BasisIndex, BasisIndex], Scalar | int],
    ) -> TruncatedOp:
        domain = tuple(domain)
        codomain = tuple(codomain)
        rows, cols = set(codomain), set(domain)
        if len(rows) != len(codomain) or len(cols) != len(domain):
            raise BasisMismatchError("duplicate labels in a basis")
        clean: dict[tuple[BasisIndex, BasisIndex], Scalar] = {}
        for (row, col), value in entries.items():
            value = Scalar.of(value)
            if not value:
                continue
            if row not in rows or col not in cols:
                raise BasisMismatchError(f"entry at ({label(row)}, {label(col)}) off basis")
            clean[(row, col)] = value
        return cls(domain, codomain, clean)

    @classmethod
    def identity(cls, basis: Iterable[BasisIndex]) -> TruncatedOp:
        basis = tuple(basis)
        return cls.build(basis, basis, {(ix, ix): ONE for ix in basis})

    @classmethod
    def diagonal(
        cls, basis: Iterable[BasisIndex], value: Callable[[BasisIndex], Scalar | int]
    ) -> TruncatedOp:
        basis = tuple(basis)
        return cls.build(basis, basis, {(ix, ix): value(ix) for ix in basis})

    @classmethod
    def zero(
        cls, domain: Iterable[BasisIndex], codomain: Iterable[BasisIndex]
    ) -> TruncatedOp:
        return cls.build(domain, codomain, {})

    # -- linear algebra ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedOp):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def apply(self, index: BasisIndex) -> Vector:
        """The image of a domain basis vector, as a fresh sparse coefficient map."""
        column = self._columns.get(index)
        if column is None:
            raise BasisMismatchError(f"{label(index)} is not a domain index")
        return dict(column)

    def compose(self, other: TruncatedOp) -> TruncatedOp:
        """self after other; requires other's codomain to equal self's domain."""
        if other.codomain != self.domain:
            raise BasisMismatchError("composition bases do not match")
        columns = self._columns
        entries: dict[tuple[BasisIndex, BasisIndex], Scalar] = {}
        for (mid, col), s in other.entries.items():
            for row, t in columns[mid].items():
                key = (row, col)
                entries[key] = entries[key] + t * s if key in entries else t * s
        return TruncatedOp(other.domain, self.codomain, entries)

    def __matmul__(self, other: TruncatedOp) -> TruncatedOp:
        return self.compose(other)

    def adjoint(self) -> TruncatedOp:
        entries = {(col, row): s.conjugate() for (row, col), s in self.entries.items()}
        return TruncatedOp(self.codomain, self.domain, entries)

    def _require_same_shape(self, other: TruncatedOp) -> None:
        if self.domain != other.domain or self.codomain != other.codomain:
            raise BasisMismatchError("operator shapes do not match")

    def __add__(self, other: TruncatedOp) -> TruncatedOp:
        self._require_same_shape(other)
        entries = dict(self.entries)
        for key, s in other.entries.items():
            entries[key] = entries[key] + s if key in entries else s
        return TruncatedOp(self.domain, self.codomain, entries)

    def __sub__(self, other: TruncatedOp) -> TruncatedOp:
        return self + other.scale(-1)

    def scale(self, value: Scalar | int) -> TruncatedOp:
        value = Scalar.of(value)
        entries = {key: value * s for key, s in self.entries.items()}
        return TruncatedOp(self.domain, self.codomain, entries)

    def power(self, exponent: int) -> TruncatedOp:
        """Iterated composition of a square operator."""
        if self.domain != self.codomain:
            raise BasisMismatchError("powers need a square operator")
        if exponent < 0:
            raise ParseError("negative powers are not defined here")
        out = TruncatedOp.identity(self.domain)
        for _ in range(exponent):
            out = self @ out
        return out

    # -- basis adjustments ---------------------------------------------------

    def restricted(self, domain: Iterable[BasisIndex]) -> TruncatedOp:
        """Drop columns outside the given sub-basis."""
        domain = tuple(domain)
        keep = set(domain)
        if not keep <= set(self.domain):
            raise BasisMismatchError("restriction is not a sub-basis of the domain")
        entries = {k: s for k, s in self.entries.items() if k[1] in keep}
        return TruncatedOp(domain, self.codomain, entries)

    def extended(
        self,
        domain: Iterable[BasisIndex] | None = None,
        codomain: Iterable[BasisIndex] | None = None,
    ) -> TruncatedOp:
        """Enlarge bases (supersets only); new rows and columns are zero."""
        domain = self.domain if domain is None else tuple(domain)
        codomain = self.codomain if codomain is None else tuple(codomain)
        if not set(self.domain) <= set(domain) or not set(self.codomain) <= set(codomain):
            raise BasisMismatchError("extension must contain the original bases")
        return TruncatedOp.build(domain, codomain, self.entries)

    def range_fixed_points(self) -> tuple[BasisIndex, ...]:
        """Codomain indices on which self . self* acts as the identity.

        For the shift sections built here this is exactly the set of basis
        vectors whose adjoint image is not lost to the truncation edge.
        """
        projector = self @ self.adjoint()
        fixed = []
        for ix in self.codomain:
            if projector.apply(ix) == {ix: ONE}:
                fixed.append(ix)
        return tuple(fixed)

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        dom_pos = {ix: n for n, ix in enumerate(self.domain)}
        cod_pos = {ix: n for n, ix in enumerate(self.codomain)}
        triplets = sorted(
            ((row, col, s) for (row, col), s in self.entries.items()),
            key=lambda t: (cod_pos[t[0]], dom_pos[t[1]]),
        )
        return {
            "domain": [label(ix) for ix in self.domain],
            "codomain": [label(ix) for ix in self.codomain],
            "entries": [[label(r), label(c), str(s)] for r, c, s in triplets],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> TruncatedOp:
        try:
            domain = tuple(parse_label(t) for t in doc["domain"])
            codomain = tuple(parse_label(t) for t in doc["codomain"])
            entries = {
                (parse_label(r), parse_label(c)): Scalar.parse(s)
                for r, c, s in doc["entries"]
            }
        except (KeyError, TypeError, ValueError):
            raise ParseError("operator document needs domain, codomain, entries") from None
        return cls.build(domain, codomain, entries)
