"""Exact finite sections of operators over labeled basis index sets.

A TruncatedOp is a rectangular sparse matrix between two ordered bases whose
indices are typed labels, each an immutable tagged tuple: bilateral-window
positions, cyclic positions, non-negative positions, or digit words.  All
entries are exact scalars, and composition, adjoints, and equality are exact.

Label grammar (stable): "W:k", "C:k/n", "N:l", "D:d0.d1.d2".
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import BasisMismatchError, ParseError
from .scalars import ONE, Scalar


class _Label(tuple):
    """A basis label: the tuple (kind tag, *fields), so it hashes and compares in C.
    The int tag keeps labels of different kinds unequal."""

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...]) -> None:
        # each field is a read-only view of its place after the tag
        cls._fields = fields
        for place, name in enumerate(fields, 1):
            setattr(cls, name, property(itemgetter(place)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # through the public constructor
        return type(self), self[1:]


class WinZ(_Label, fields=("k",)):
    """Position k in a window of the bilateral basis of l^2(Z)."""

    __slots__ = ()

    def __new__(cls, k: int) -> WinZ:
        return tuple.__new__(cls, (0, k))


class Cyc(_Label, fields=("k", "n")):
    """Position k in the cyclic basis of l^2(Z/nZ)."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> Cyc:
        if n < 1 or not 0 <= k < n:
            raise ParseError(f"cyclic index {k} out of range mod {n}")
        return tuple.__new__(cls, (1, k, n))


class NonNeg(_Label, fields=("l",)):
    """Position l in the canonical basis of l^2(Z_{>=0})."""

    __slots__ = ()

    def __new__(cls, l: int) -> NonNeg:
        if l < 0:
            raise ParseError("non-negative basis index required")
        return tuple.__new__(cls, (2, l))


class Word(_Label, fields=("digits",)):
    """A canonical digit word: no trailing zeros except the single-digit zero word."""

    __slots__ = ()

    def __new__(cls, digits: Iterable[int]) -> Word:
        digits = tuple(digits)
        if not digits or any(d < 0 for d in digits):
            raise ParseError("words need at least one digit, all non-negative")
        if len(digits) > 1 and digits[-1] == 0:
            raise ParseError(f"non-canonical word (trailing zero): {digits}")
        return tuple.__new__(cls, (3, digits))

    def is_zero(self) -> bool:
        return self.digits == (0,)


BasisIndex = Union[WinZ, Cyc, NonNeg, Word]


def label(index: BasisIndex) -> str:
    """The label grammar: the letter of the kind (by its tag), then its fields."""
    if isinstance(index, Word):
        return "D:" + ".".join(map(str, index.digits))
    return "WCN"[index[0]] + ":" + "/".join(map(str, index[1:]))


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
Column = dict[int, Scalar]


class _Basis(tuple):
    """A basis: a tuple of distinct labels that carries its label -> position map.

    The map is built, and a repeated label refused, once per basis; wrapping a
    _Basis returns it unchanged, so operators built from others share their
    bases and hash no label.  A basis is immutable, map included.
    """

    def __new__(cls, labels: Iterable[BasisIndex]) -> _Basis:
        if isinstance(labels, _Basis):
            return labels
        if isinstance(labels, _Label):
            raise TypeError(f"a basis is an iterable of labels, not the label {labels!r}")
        basis = super().__new__(cls, labels)
        pos = dict(zip(basis, range(len(basis))))
        if len(pos) != len(basis):
            raise BasisMismatchError("duplicate labels in a basis")
        vars(basis)["_pos"] = pos
        return basis

    def __setattr__(self, name, value):
        raise AttributeError("a basis is immutable")

    def __delattr__(self, name):
        raise AttributeError("a basis is immutable")


def _places(part: tuple[BasisIndex, ...], basis: _Basis) -> Sequence[int]:
    """The position in basis of each label of part; none is hashed when basis starts with part."""
    if part is basis or basis[: len(part)] == part:
        return range(len(part))
    return [basis._pos[ix] for ix in part]


def _same(a: tuple[BasisIndex, ...], b: tuple[BasisIndex, ...]) -> bool:
    return a is b or a == b


# the empty column every operator may share; no column is changed once built
_EMPTY: Column = {}


def _gather(table: Sequence, places: Sequence[int]) -> tuple:
    """table[n] for each n of places, in one C-level call."""
    return itemgetter(*places)(table) if len(places) > 1 else tuple(map(table.__getitem__, places))


def _inverse(rows: Sequence[int], n: int, size: int) -> tuple[int, ...]:
    """The row map back: each of `size` rows to the position of rows that maps
    there, or to n where none does; the place past the end takes the rows that
    are `size`, the empty columns'."""
    inverse = [n] * (size + 1)
    for col, row in enumerate(rows):
        inverse[row] = col
    return tuple(inverse[:size])


def _columns_of(width: int, triplets: Iterable[tuple[int, int, Scalar]]) -> tuple[Column, ...]:
    """The `width` columns {row: entry} of (row, column, entry) triplets: entries that
    meet are summed, a sum of zero is dropped, and an untouched column is _EMPTY."""
    cols: list[Column] = [_EMPTY] * width
    for row, col, s in triplets:
        column = cols[col]
        if column is _EMPTY:
            cols[col] = column = {}
        if row in column:
            s = column[row] + s
            if not s:
                del column[row]
                continue
        column[row] = s
    return tuple(cols)


class TruncatedOp:
    """A sparse exact matrix from an ordered domain basis to a codomain basis.

    It is stored by position, between two bases that carry their label ->
    position maps, in one of two forms.  A monomial, whose columns each hold
    at most one entry with no row used twice, stores its row map ``_rows``
    (each domain position's codomain row, ``len(codomain)`` for an empty
    column) and its weights ``_weights`` (each column's entry, or ``None``
    when all are ``ONE``; the weight at an empty column is never read).
    Shift sections, every ``diagonal`` and ``identity``, and ``compose``,
    ``adjoint``, ``restricted``, ``extended`` and ``power`` of monomials are
    monomials: ``compose`` gathers the left rows and weights at the right
    rows and multiplies only where both factors carry weights, ``adjoint``
    inverts the map and conjugates the weights, and ``==`` compares the row
    maps whole and the weights at live rows.  Every other operator is
    general (``_rows`` is ``None``): one column ``{row position: entry}`` per
    domain index, nonzero entries only, which one helper builds from (row,
    column, entry) triplets for the constructor, ``from_doc``, ``+``,
    ``scale``, the adjoint and a ``compose`` with a general factor.  Each
    operator keeps only the form it was built in; a monomial's columns are
    built afresh, and never kept, for the left factor of such a ``compose``
    and for an ``==`` with a general operator.  No column is changed once
    built, so operators share columns, among them one empty column.

    Operators built from others pass their bases on and work on positions,
    so no label is hashed again; ``restricted`` composes with the 0/1 map
    from the new domain, and ``extended`` only with those of the bases that
    grow.  ``entries``, the label-keyed ``{(row, col): entry}`` view, is
    read-only and built on each read.  ``adjoint()`` and
    ``range_fixed_points()`` are computed once per operator and kept with it
    (the adjoint holds no link back, and neither is pickled).  The
    constructor ``TruncatedOp(domain, codomain, entries)`` converts each
    entry to a ``Scalar``, drops the zeros and checks every label against
    both bases at once; ``build`` is the same constructor.
    """

    domain: _Basis
    codomain: _Basis

    def __init__(
        self,
        domain: Iterable[BasisIndex],
        codomain: Iterable[BasisIndex],
        entries: Mapping[tuple[BasisIndex, BasisIndex], Scalar | int],
    ) -> None:
        dom = _Basis(domain)
        cod = dom if codomain is domain else _Basis(codomain)
        triplets = []
        for (row, col), value in entries.items():
            value = Scalar.of(value)
            if not value:
                continue
            try:
                triplets.append((cod._pos[row], dom._pos[col], value))
            except KeyError:
                raise BasisMismatchError(f"entry at ({label(row)}, {label(col)}) off basis") from None
        cols = _columns_of(len(dom), triplets)
        vars(self).update(domain=dom, codomain=cod, _cols=cols, _rows=None)

    @classmethod
    def _general(cls, domain: _Basis, codomain: _Basis, triplets: Iterable) -> TruncatedOp:
        """The general operator with the columns of checked (row, column, entry) triplets."""
        op = object.__new__(cls)
        cols = _columns_of(len(domain), triplets)
        vars(op).update(domain=domain, codomain=codomain, _cols=cols, _rows=None)
        return op

    @classmethod
    def _monomial(
        cls, domain: _Basis, codomain: _Basis, rows: tuple[int, ...], weights=None
    ) -> TruncatedOp:
        """The monomial with an injective row map and its weights (see the class docstring)."""
        op = object.__new__(cls)
        vars(op).update(domain=domain, codomain=codomain, _rows=rows, _weights=weights)
        return op

    def _columns(self) -> tuple[Column, ...]:
        """A general operator's columns, or a monomial's built afresh on each call."""
        return self._cols if self._rows is None else _columns_of(len(self.domain), self._triplets())

    def _triplets(self) -> Iterable[tuple[int, int, Scalar]]:
        """(row, column, entry) at every nonzero entry, column by column; a monomial's
        are read off its row map, so its columns are not built."""
        if self._rows is None:
            cols = self._cols
            return ((row, col, s) for col, column in enumerate(cols) for row, s in column.items())
        size, weights = len(self.codomain), self._weights or repeat(ONE)
        pairs = enumerate(zip(self._rows, weights))
        return ((row, col, s) for col, (row, s) in pairs if row != size)

    def _weights_at(self, places: Sequence[int]) -> tuple[Scalar, ...]:
        """A monomial's weights at the given domain positions."""
        return (ONE,) * len(places) if self._weights is None else _gather(self._weights, places)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedOp is immutable")

    def __delattr__(self, name):
        raise AttributeError("TruncatedOp is immutable")

    def __reduce__(self):
        # the bases and the row map and weights, or the triplets: the kept views are not pickled
        if self._rows is not None:
            return TruncatedOp._monomial, (self.domain, self.codomain, self._rows, self._weights)
        return TruncatedOp._general, (self.domain, self.codomain, tuple(self._triplets()))

    def __repr__(self) -> str:
        return (
            f"TruncatedOp(domain={self.domain!r}, codomain={self.codomain!r}, "
            f"entries={dict(self.entries)!r})"
        )

    @property
    def entries(self) -> Mapping[tuple[BasisIndex, BasisIndex], Scalar]:
        domain, codomain = self.domain, self.codomain
        entries = {(codomain[row], domain[col]): s for row, col, s in self._triplets()}
        return MappingProxyType(entries)

    @classmethod
    def build(
        cls,
        domain: Iterable[BasisIndex],
        codomain: Iterable[BasisIndex],
        entries: Mapping[tuple[BasisIndex, BasisIndex], Scalar | int],
    ) -> TruncatedOp:
        return cls(domain, codomain, entries)

    @classmethod
    def identity(cls, basis: Iterable[BasisIndex]) -> TruncatedOp:
        basis = _Basis(basis)
        return cls._monomial(basis, basis, tuple(range(len(basis))))

    @classmethod
    def diagonal(
        cls, basis: Iterable[BasisIndex], value: Callable[[BasisIndex], Scalar | int]
    ) -> TruncatedOp:
        basis = _Basis(basis)
        values = tuple(map(Scalar.of, map(value, basis)))
        size = len(basis)
        rows = tuple(n if s else size for n, s in enumerate(values))
        return cls._monomial(basis, basis, rows, values)

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
            _same(self.domain, other.domain)
            and _same(self.codomain, other.codomain)
            and self._agree(other)
        )

    def _agree(self, other: TruncatedOp, places: Sequence[int] | None = None) -> bool:
        """Whether self and other, of one shape, have equal columns at the given
        positions, or at every position when none are given."""
        general = self._rows is None or other._rows is None
        mine, theirs = (self._columns(), other._columns()) if general else (self._rows, other._rows)
        if places is not None:
            mine, theirs = _gather(mine, places), _gather(theirs, places)
        if mine != theirs:
            return False
        if general or (self._weights is None and other._weights is None):
            return True
        # the weights are read at live rows only: an empty column's weight is never read
        live = list(compress(places or range(len(mine)), map(len(self.codomain).__ne__, mine)))
        return self._weights_at(live) == other._weights_at(live)

    def apply(self, index: BasisIndex) -> Vector:
        """The image of a domain basis vector, as a fresh sparse coefficient map."""
        position = self.domain._pos.get(index)
        if position is None:
            raise BasisMismatchError(f"{label(index)} is not a domain index")
        codomain, rows = self.codomain, self._rows
        if rows is None:
            return {codomain[row]: s for row, s in self._cols[position].items()}
        row = rows[position]
        if row == len(codomain):
            return {}
        return {codomain[row]: ONE if self._weights is None else self._weights[position]}

    def _agrees_at(self, other: TruncatedOp, indices: Iterable[BasisIndex]) -> bool:
        """Whether self and other, of one shape, have equal columns at the given domain indices."""
        self._require_same_shape(other)
        try:
            places = list(map(self.domain._pos.__getitem__, indices))
        except KeyError:
            raise BasisMismatchError("compared index outside the domain") from None
        return self._agree(other, places)

    def compose(self, other: TruncatedOp) -> TruncatedOp:
        """self after other; requires other's codomain to equal self's domain."""
        if not _same(other.codomain, self.domain):
            raise BasisMismatchError("composition bases do not match")
        left, right = self._rows, other._rows
        if left is not None and right is not None:
            # each column of other goes to one row of self's domain, and on to one of self's
            # codomain; the place past the end of self's rows and weights serves empty columns
            size = len(self.codomain)
            rows = _gather((*left, size), right)
            weights = other._weights
            if self._weights is not None:
                carried = _gather((*self._weights, ONE), right)
                weights = carried if weights is None else tuple(
                    s * t if row != size else s for row, s, t in zip(rows, carried, weights)
                )
            return TruncatedOp._monomial(other.domain, self.codomain, rows, weights)
        cols = self._columns()
        products = (
            (row, col, t * s) for mid, col, s in other._triplets() for row, t in cols[mid].items()
        )
        return TruncatedOp._general(other.domain, self.codomain, products)

    def __matmul__(self, other: TruncatedOp) -> TruncatedOp:
        return self.compose(other)

    def adjoint(self) -> TruncatedOp:
        """The conjugate transpose, built on the first call and kept."""
        return self._adjoint

    @cached_property
    def _adjoint(self) -> TruncatedOp:
        # not linked back to self, which would make a reference cycle
        rows, size = self._rows, len(self.codomain)
        if rows is not None:
            # each codomain row back to its column, or past the end to an empty one
            back = _inverse(rows, len(self.domain), size)
            weights = self._weights
            if weights is not None:
                weights = tuple(map(Scalar.conjugate, _gather((*weights, ONE), back)))
            return TruncatedOp._monomial(self.codomain, self.domain, back, weights)
        flipped = ((col, row, s.conjugate()) for row, col, s in self._triplets())
        return TruncatedOp._general(self.codomain, self.domain, flipped)

    def _require_same_shape(self, other: TruncatedOp) -> None:
        if not (_same(self.domain, other.domain) and _same(self.codomain, other.codomain)):
            raise BasisMismatchError("operator shapes do not match")

    def __add__(self, other: TruncatedOp) -> TruncatedOp:
        self._require_same_shape(other)
        both = chain(self._triplets(), other._triplets())
        return TruncatedOp._general(self.domain, self.codomain, both)

    def __sub__(self, other: TruncatedOp) -> TruncatedOp:
        return self + other.scale(-1)

    def scale(self, value: Scalar | int) -> TruncatedOp:
        value = Scalar.of(value)
        scaled = ((row, col, value * s) for row, col, s in self._triplets()) if value else ()
        return TruncatedOp._general(self.domain, self.codomain, scaled)

    def power(self, exponent: int) -> TruncatedOp:
        """Iterated composition of a square operator."""
        if not _same(self.domain, self.codomain):
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
        domain = _Basis(domain)
        try:
            into = TruncatedOp._monomial(domain, self.domain, tuple(_places(domain, self.domain)))
        except KeyError:
            raise BasisMismatchError("restriction is not a sub-basis of the domain") from None
        return self @ into

    def extended(
        self,
        domain: Iterable[BasisIndex] | None = None,
        codomain: Iterable[BasisIndex] | None = None,
    ) -> TruncatedOp:
        """Enlarge bases (supersets only); new rows and columns are zero."""
        domain = _Basis(self.domain if domain is None else domain)
        codomain = _Basis(self.codomain if codomain is None else codomain)
        grow_domain, grow_codomain = not _same(domain, self.domain), not _same(codomain, self.codomain)
        try:
            rows = tuple(_places(self.codomain, codomain)) if grow_codomain else None
            places = _places(self.domain, domain) if grow_domain else None
        except KeyError:
            raise BasisMismatchError("extension must contain the original bases") from None
        out = self
        if grow_codomain:
            out = TruncatedOp._monomial(self.codomain, codomain, rows) @ out
        if grow_domain:
            # each position of the new domain back to its old one, or to the empty column
            back = _inverse(places, len(self.domain), len(domain))
            out = out @ TruncatedOp._monomial(domain, self.domain, back)
        return out

    def range_fixed_points(self) -> tuple[BasisIndex, ...]:
        """Codomain indices on which self . self* acts as the identity.

        For the shift sections built here this is exactly the set of basis
        vectors whose adjoint image is not lost to the truncation edge.
        Built on the first call and kept.
        """
        return self._range_fixed_points

    @cached_property
    def _range_fixed_points(self) -> tuple[BasisIndex, ...]:
        return (self @ self._adjoint)._identity_columns()

    def _identity_columns(self) -> tuple[BasisIndex, ...]:
        """Domain indices of a square operator whose column is their own unit vector."""
        rows, places = self._rows, range(len(self.domain))
        if rows is None:
            cols = self._cols
            fixed = [n for n in places if len(cols[n]) == 1 and cols[n].get(n) == ONE]
        else:
            fixed = [n for n in places if rows[n] == n]
            fixed = list(compress(fixed, map(ONE.__eq__, self._weights_at(fixed))))
        return _gather(self.domain, fixed)

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        domain, codomain = self.domain, self.codomain
        triplets = sorted(self._triplets())
        return {
            "domain": [label(ix) for ix in domain],
            "codomain": [label(ix) for ix in codomain],
            "entries": [
                [label(codomain[row]), label(domain[col]), str(s)] for row, col, s in triplets
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> TruncatedOp:
        try:
            domain = tuple(parse_label(t) for t in doc["domain"])
            codomain = tuple(parse_label(t) for t in doc["codomain"])
            entries = {}
            for r, c, s in doc["entries"]:
                key = (parse_label(r), parse_label(c))
                if key in entries:
                    raise ParseError(f"operator document repeats the entry at ({r}, {c})")
                entries[key] = Scalar.parse(s)
        except (KeyError, TypeError, ValueError):
            raise ParseError("operator document needs domain, codomain, entries") from None
        return cls.build(domain, codomain, entries)
