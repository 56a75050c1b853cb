"""Exact integer vectors and matrices, and the library's value base class.

The Smith normal form and the lattice functions built on it live in
``torelli.reference``, which only the oracle imports.

Everything runs on Python's arbitrary-precision integers.  Matrices and
vectors are immutable; every operation returns a fresh value, so the whole
module is safe for concurrent use.  A ``cached_view`` takes no lock: two
threads racing its first read compute the view twice and store equal values.

The trust rule: ``IntVector(...)`` and ``IntMatrix(...)`` make every entry
an exact int, by one C-level type test or else ``operator.index``, and
check the shape; ``IntVector._of_ints`` and ``IntMatrix._of_rows`` check
nothing, and are only for values the library built from ints it had
already checked.
"""

from __future__ import annotations

import operator
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Sequence


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class cached_view:
    """A view computed on first read and stored in the instance ``__dict__``,
    where later reads find it; unlike ``functools.cached_property``, no lock."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class _Value:
    """Base of the library's immutable value classes.

    A subclass's fields are the names its own body annotates, in order.
    The constructor binds its arguments to them, each exactly once (one
    positional argument per field needs no check), or raises ``TypeError``
    naming the class; a subclass that converts or checks its arguments
    calls it from its own ``__init__``.  Equality
    (same class, equal fields), the hash of the field tuple and
    ``Name(field=value, ...)`` repr read the fields; assigning or deleting
    any attribute raises ``dataclasses.FrozenInstanceError``.  Hot
    constructors and ``cached_view``s write ``__dict__`` directly.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)
        get = operator.attrgetter(*cls._fields)  # of one name: the value itself, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __init__(self, *args, **kwargs):
        if len(args) == len(self._fields) and not kwargs:
            self.__dict__.update(zip(self._fields, args))
            return
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != self._field_set:
            raise TypeError(f"{type(self).__name__} takes each of the fields {self._fields} exactly once")
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _frozen(f"cannot delete field {name!r}")


def _frozen(message: str):
    from dataclasses import FrozenInstanceError  # only on this path: importing dataclasses is slow

    raise FrozenInstanceError(message)


class IntVector(_Value):
    """Immutable integer vector."""

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]):
        entries = tuple(entries)
        if not set(map(type, entries)) <= {int}:
            entries = tuple(map(operator.index, entries))
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _of_ints(cls, entries: Iterable[int]) -> "IntVector":
        """Wrap ints the library built itself, skipping the per-entry
        ``operator.index`` check of the public constructor."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "entries", tuple(entries))
        return vector

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __add__(self, other: "IntVector") -> "IntVector":
        if len(self) != len(other):
            raise DimensionMismatch(f"vector lengths {len(self)} != {len(other)}")
        return IntVector._of_ints(map(operator.add, self.entries, other.entries))

    def __sub__(self, other: "IntVector") -> "IntVector":
        if len(self) != len(other):
            raise DimensionMismatch(f"vector lengths {len(self)} != {len(other)}")
        return IntVector._of_ints(map(operator.sub, self.entries, other.entries))

    def __rmul__(self, scalar: int) -> "IntVector":
        scalar = operator.index(scalar)
        return IntVector._of_ints(scalar * a for a in self.entries)

    @staticmethod
    def unit(n: int, i: int) -> "IntVector":
        return IntVector._of_ints([1 if k == i else 0 for k in range(n)])

    def to_list(self) -> list[int]:
        return list(self.entries)


class IntMatrix(_Value):
    """Immutable integer matrix with explicit shape (zero dimensions allowed)."""

    entries: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    def __init__(self, rows_data: Iterable[Iterable[int]], *, cols: Optional[int] = None):
        data = tuple(map(tuple, rows_data))
        if not set(map(type, chain.from_iterable(data))) <= {int}:
            data = tuple(tuple(map(operator.index, row)) for row in data)
        if data:
            ncols = len(data[0])
            if any(len(row) != ncols for row in data):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != ncols:
                raise DimensionMismatch(f"declared cols {cols} != row length {ncols}")
        else:
            ncols = 0 if cols is None else cols
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def _of_rows(cls, rows: Iterable[Sequence[int]], cols: int) -> "IntMatrix":
        """Wrap rows of ints the library built itself, each of length
        ``cols``, skipping the public constructor's entry and shape checks."""
        matrix = object.__new__(cls)
        entries = tuple(map(tuple, rows))
        object.__setattr__(matrix, "entries", entries)
        object.__setattr__(matrix, "rows", len(entries))
        object.__setattr__(matrix, "cols", cols)
        return matrix

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._of_rows(([1 if i == j else 0 for j in range(n)] for i in range(n)), n)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        # zip of no rows yields nothing, so a 0 x n matrix lists its n empty rows
        return IntMatrix._of_rows(zip(*self.entries) if self.rows else repeat((), self.cols), self.rows)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return IntMatrix._of_rows(
            (map(operator.add, r1, r2) for r1, r2 in zip(self.entries, other.entries)), self.cols
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of_rows((map(operator.neg, row) for row in self.entries), self.cols)

    def __rmul__(self, scalar: int) -> "IntMatrix":
        scalar = operator.index(scalar)
        return IntMatrix._of_rows(((scalar * a for a in row) for row in self.entries), self.cols)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose().entries
        return IntMatrix._of_rows(
            ((sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.entries), other.cols
        )

    def apply(self, v: IntVector) -> IntVector:
        """Matrix-vector product."""
        if self.cols != len(v):
            raise DimensionMismatch(f"cannot apply {self.rows}x{self.cols} to length-{len(v)} vector")
        return IntVector._of_ints(sum(a * b for a, b in zip(row, v.entries)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]
