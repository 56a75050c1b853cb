"""Exact integer linear algebra: Smith normal form, integer solves, kernels,
and lattice equality by invariant factors.

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

import math
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

    def dot(self, other: "IntVector") -> int:
        if len(self) != len(other):
            raise DimensionMismatch(f"vector lengths {len(self)} != {len(other)}")
        return sum(a * b for a, b in zip(self.entries, other.entries))

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


class SNFResult(_Value):
    """Smith decomposition U·A·V = D with U, V unimodular and D diagonal,
    nonnegative, each diagonal entry dividing the next."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.D[i, i] for i in range(min(self.D.rows, self.D.cols))]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Compute the Smith normal form of A by one step, repeated on the
    unfinished block a[t:, t:].

    The step moves the block's smallest nonzero entry p to (t, t) and
    reduces the entries in line with p by Euclidean division: it subtracts
    x // p times p's row from each row below and times p's column from each
    later column.  A nonzero remainder is smaller than |p| and becomes the
    next pivot.  With p's row and column clear, a p that does not divide
    some entry of the block adds that entry's row to its own, and the next
    round picks a smaller pivot, or p again (the first of the smallest
    entries) and leaves a remainder in row t.  So |p| falls at least every
    second round, and the loop ends.  A p that divides the block gets its
    sign fixed, and t advances.  Swaps, sign changes and adding multiples
    of one row (column) to another keep U and V unimodular.
    """
    m, n = A.rows, A.cols
    a = [list(row) for row in A.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        cells = ((i, j) for i in range(t, m) for j in range(t, n) if a[i][j])
        pivot = min(cells, key=lambda ij: abs(a[ij[0]][ij[1]]), default=None)
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        for j in range(t + 1, n):
            q = a[t][j] // p
            if q:
                for row in a + v:
                    row[j] -= q * row[t]
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1 :]):
            continue
        if p not in (1, -1):
            fold = next((i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1 :])), None)
            if fold is not None:
                a[t] = [x + y for x, y in zip(a[t], a[fold])]
                u[t] = [x + y for x, y in zip(u[t], u[fold])]
                continue
        if p < 0:
            a[t][t] = -p
            u[t] = [-x for x in u[t]]
        t += 1
    return SNFResult(U=IntMatrix._of_rows(u, m), D=IntMatrix._of_rows(a, n), V=IntMatrix._of_rows(v, n))


def determinant(A: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = A.rows
    if n == 0:
        return 1
    a = [list(row) for row in A.entries]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def solve_integer(A: IntMatrix, b: IntVector) -> Optional[IntVector]:
    """Find an integer x with A·x = b, or None when no integer solution exists.

    Reduces through the Smith form: with U·A·V = D the system becomes
    D·y = U·b, which is solvable iff each pivot divides its right-hand side
    and the zero rows have zero right-hand side.
    """
    if A.rows != len(b):
        raise DimensionMismatch(f"matrix has {A.rows} rows, vector has length {len(b)}")
    snf = smith_normal_form(A)
    rhs = snf.U.apply(b)
    y = [0] * A.cols
    k = min(A.rows, A.cols)
    for i in range(A.rows):
        d = snf.D[i, i] if i < k else 0
        if d == 0:
            if rhs[i] != 0:
                return None
        else:
            if rhs[i] % d != 0:
                return None
            y[i] = rhs[i] // d
    return snf.V.apply(IntVector._of_ints(y))


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice {x : A·x = 0}, as matrix columns.

    The columns are taken from the unimodular V of the Smith form, so the
    basis is primitive (saturated): the kernel lattice is a direct summand
    spanned exactly by these columns.
    """
    snf = smith_normal_form(A)
    rank = snf.rank()
    return IntMatrix._of_rows((row[rank:] for row in snf.V.entries), A.cols - rank)


def lattices_equal(A: IntMatrix, B: IntMatrix) -> bool:
    """Do the columns of A and B span the same integer lattice?

    L(A) and L(B) lie in L([A | B]).  Of equal rank, the three share their
    saturation S, whose index [S : L] is the product of L's nonzero invariant
    factors; so L(A) = L(B) exactly when all three agree in rank and index.
    """
    if A.rows != B.rows:
        raise DimensionMismatch("ambient dimensions differ")
    joint = IntMatrix._of_rows(map(operator.add, A.entries, B.entries), A.cols + B.cols)
    nonzero = ([d for d in smith_normal_form(M).diagonal() if d] for M in (A, joint, B))
    return len({(len(f), math.prod(f)) for f in nonzero}) == 1
