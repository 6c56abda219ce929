"""Finite event algebras over an indexed atom set.

An event is a subset of the atoms {0..n-1} of a sample space, stored as an
integer bitmask.  Python integers are unbounded, so the same representation
serves both small systems and the large arities (n1*n2, n**k) produced by
tensor composition.  Pairs of a composed space use the index convention
(i, j) -> i*n2 + j throughout the package; the JSON document format relies
on the same convention.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .errors import ArityMismatchError

# Default ceiling for exhaustive 2**n enumerations.
ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class Event:
    """A subset of the atoms of an n-atom sample space."""

    bits: int
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be non-negative")
        if self.bits < 0 or self.bits >> self.arity:
            raise ValueError(
                f"bits 0x{self.bits:x} not a subset of {{0..{self.arity - 1}}}"
            )

    @classmethod
    def from_indices(cls, indices: Iterable[int], arity: int) -> "Event":
        bits = 0
        for i in map(operator.index, indices):
            if not 0 <= i < arity:
                raise ValueError(f"atom index {i} out of range for arity {arity}")
            bits |= 1 << i
        return cls(bits, arity)

    @classmethod
    def empty(cls, arity: int) -> "Event":
        return cls(0, arity)

    @classmethod
    def full(cls, arity: int) -> "Event":
        return cls((1 << arity) - 1, arity)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.arity) if self.bits >> i & 1)

    def __contains__(self, atom: int) -> bool:
        return 0 <= atom < self.arity and bool(self.bits >> atom & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def _coerce(self, other: "Event") -> "Event":
        if not isinstance(other, Event):
            raise TypeError(f"expected Event, got {type(other).__name__}")
        if other.arity != self.arity:
            raise ArityMismatchError(
                f"events have arities {self.arity} and {other.arity}"
            )
        return other

    def __or__(self, other: "Event") -> "Event":
        return Event(self.bits | self._coerce(other).bits, self.arity)

    def __and__(self, other: "Event") -> "Event":
        return Event(self.bits & self._coerce(other).bits, self.arity)

    def __xor__(self, other: "Event") -> "Event":
        """Symmetric difference, the Z2 addition of the event algebra; ``&`` is its product."""
        return Event(self.bits ^ self._coerce(other).bits, self.arity)

    def complement(self) -> "Event":
        return Event(self.bits ^ (1 << self.arity) - 1, self.arity)

    def difference(self, other: "Event") -> "Event":
        return Event(self.bits & ~self._coerce(other).bits, self.arity)

    def isdisjoint(self, other: "Event") -> bool:
        return self.bits & self._coerce(other).bits == 0

    def issubset(self, other: "Event") -> bool:
        return self.bits & ~self._coerce(other).bits == 0

    def __repr__(self) -> str:
        members = ",".join(map(str, self.indices()))
        return f"Event({{{members}}}, arity={self.arity})"


@dataclass(frozen=True)
class ProductRectangle:
    """A product event first x second inside a composed sample space."""

    first: Event
    second: Event


def embed_product(rect: ProductRectangle) -> Event:
    """Flatten a product rectangle into an event of the composed space.

    The pair (i, j) of a rectangle with factor arities (n1, n2) occupies
    bit i*n2 + j, so each selected row i contributes the second factor's
    mask shifted into the row's block.
    """
    n1, n2 = rect.first.arity, rect.second.arity
    bits = 0
    second = rect.second.bits
    for i in rect.first.indices():
        bits |= second << (i * n2)
    return Event(bits, n1 * n2)


def rectangle_cover(
    e: Event, n1: int, n2: int, strategy: str = "rows"
) -> list[ProductRectangle]:
    """Decompose a composed-space event into pairwise disjoint rectangles.

    strategy "atoms" returns one singleton rectangle per member pair;
    strategy "rows" groups the members by first-factor atom, one rectangle
    per non-empty row.  Both covers embed back to exactly ``e``.
    """
    if e.arity != n1 * n2:
        raise ArityMismatchError(f"event arity {e.arity} != {n1}*{n2}")
    if strategy == "atoms":
        out = []
        for p in e.indices():
            i, j = divmod(p, n2)
            out.append(
                ProductRectangle(Event(1 << i, n1), Event(1 << j, n2))
            )
        return out
    if strategy == "rows":
        out = []
        row_mask = (1 << n2) - 1
        for i in range(n1):
            row = e.bits >> (i * n2) & row_mask
            if row:
                out.append(ProductRectangle(Event(1 << i, n1), Event(row, n2)))
        return out
    raise ValueError(f"unknown cover strategy {strategy!r}")

