"""The oracle's reference algebra, kept off the decider's import path.

The Smith normal form and what is built on it (integer solves, kernels,
lattice equality by invariant factors), the determinant, and the two
difference maps the paper states in closed form: the peripheral twist's
and the restriction of a diagonal map.  Only ``torelli.oracle`` and the
tests import this module, so ``analyze``, ``realize`` and ``ranks`` never
compile it; the deciders reach the same answers without it.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Optional

from torelli.criteria import DiagonalMap, delta_from_blocks
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector, _Value
from torelli.mapping_class import DifferenceMap
from torelli.realization import peripheral_class
from torelli.surface_model import HomologyModel


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


def peripheral_twist_delta(
    model: HomologyModel, j: int, subset: Iterable[int], exponent: int
) -> DifferenceMap:
    """Difference map of the peripheral twist about the union U of the chosen
    circles of component j: a -> m <a, [U]> [U], the outer product m p p^T of
    the pairings p of the two-point classes with U's 0-chain.  The two-point
    and reduced bases are dual, so p is also U's reduced class."""
    members = sorted(set(subset))
    peripheral_class(model, j, members)  # validates the subset
    u_chain = IntVector(
        1 if ji in {(j, i) for i in members} else 0 for ji in model.circle_order
    )
    p = model.k0_basis.transpose().apply(u_chain)
    return DifferenceMap(IntMatrix([exponent * x * y for y in p] for x in p), model.block_ranges)


def restriction_of_diagonal(model: HomologyModel, diagonal: DiagonalMap) -> DifferenceMap:
    """Difference map obtained by restricting a diagonal map."""
    if len(diagonal) != model.n_circles:
        raise DimensionMismatch(f"need {model.n_circles} exponents")
    blocks = {}
    for j, (first, end) in enumerate(model.chain_ranges):
        # image of o_{j,i} is e_i [C_i] - e_0 [C_0] = (e_i + e_0)[C_i] + e_0 * (others)
        base, *diag = diagonal.exponents[first:end]
        blocks[j] = IntMatrix([base + e * (r == c) for c in range(len(diag))] for r, e in enumerate(diag))
    return delta_from_blocks(model, blocks)
