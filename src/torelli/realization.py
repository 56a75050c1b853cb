"""Constructing twist words that realize prescribed difference maps.

The key fact: a twist in the subsurface about a circle homologous to a
union U of boundary circles of one complement component has difference map
a -> m <a, [U]> [U].  Over one component the matrices of these maps are
the 0/1 "indicator" symmetric matrices m(A) (ones on the rows and columns
indexed by A), and the contiguous ones m(k, l) = m({k, ..., l}) form a
basis of the lattice of symmetric integer matrices.  Expanding a prescribed
symmetric block in that basis (``sym_basis_change``, a dict from (k, l) to
its coefficient) therefore yields an explicit word of peripheral twists, and
pairing each factor with an opposite twist on the complement side gives a
word acting trivially on ambient homology: a witness that the realized
word extends to a Torelli map.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from torelli.criteria import (
    DiagonalMap,
    NotCompletelyReducible,
    NotSymmetric,
    is_completely_reducible,
    is_symmetric,
)
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector, _Value, cached_view
from torelli.mapping_class import (
    LOCUS_Q,
    DifferenceMap,
    TwistFactor,
    TwistWord,
    in_complement,
)
from torelli.surface_model import HomologyModel


def sym_basis_change(matrix: IntMatrix, size: int) -> dict[tuple[int, int], int]:
    """Expand a symmetric matrix over the contiguous-indicator basis.

    The result maps 1-based pairs (k, l) with k <= l, in lexicographic
    order, to the coefficient of m(k, l), the matrix with ones exactly on
    rows and columns k..l.  The coefficient of m(k, l) is the second difference
    c(k, l) = M[k,l] - M[k-1,l] - M[k,l+1] + M[k-1,l+1] (1-based), with
    entries outside the matrix read as 0; zero coefficients are dropped.
    Summed over k <= i and l >= j it telescopes back to M[i, j].

    The private ``_sym_coefficients`` reads them; ``realize_delta`` calls it
    on each block of a map it has tested whole, without these checks.
    """
    if (matrix.rows, matrix.cols) != (size, size):
        raise DimensionMismatch(f"expected a {size}x{size} matrix")
    if matrix.entries != tuple(zip(*matrix.entries)):
        raise NotSymmetric("matrix is not symmetric")
    return {(r + 1, c + 1): value for r, c, value in _sym_coefficients(matrix.entries, 0, size)}


def _sym_coefficients(rows: Sequence[Sequence[int]], start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """Nonzero second differences (r, c, value), r <= c in order, of the block
    [start, stop) of ``rows``, read in place, 0 outside it; no check."""
    for r in range(start, stop):
        row, up = rows[r], rows[r - 1]
        first = r == start  # the row above the block reads as 0
        here = row[r] if first else row[r] - up[r]  # M[r, c] - M[r-1, c] at c = r
        for c in range(r + 1, stop):
            right = row[c] if first else row[c] - up[c]
            if here != right:
                yield r, c - 1, here - right
            here = right
        if here:
            yield r, stop - 1, here


def peripheral_class(model: HomologyModel, j: int, subset: Iterable[int]) -> IntVector:
    """Ambient class of the union of the chosen boundary circles of
    component j (0-based circle indices; circle 0 allowed): the sum of
    their ``circle_class``es."""
    members = sorted(set(subset))
    if not members:
        raise ValueError("subset of boundary circles must be nonempty")
    if not 0 <= j < model.n_components:
        raise DimensionMismatch(f"no complement component {j}")
    first, *rest = (model.circle_class(j, i) for i in members)
    return sum(rest, first)


class Realization(_Value):
    """A realizing word plus the bi-twist witness of its Torelli extension.

    ``components[i]`` is the complement component whose circles factor i
    twists about.  The witness interleaves each factor with an opposite
    twist about the same class on that component's side, so its ambient
    action is trivial; it is built from the word on first access.
    """

    word: TwistWord
    components: tuple[int, ...]

    @cached_view
    def torelli_witness(self) -> TwistWord:
        witness = []
        for (edges, m, locus), j in zip(self.word.table, self.components):
            witness += (edges, m, locus), (edges, -m, in_complement(j))
        return TwistWord._of_table(self.word.rank, witness)


def realize_delta(model: HomologyModel, delta: DifferenceMap) -> Realization:
    """Build a subsurface word whose difference map is the given one.

    Requires the map to lie on the model's component blocks and to be
    symmetric and completely reducible.  Factors are peripheral twists
    about contiguous unions of circles, one per nonzero basis coefficient,
    components in order and index pairs lexicographic.
    ``_sym_coefficients`` reads them off the map's rows, block by block, in
    place.  The class of the union of circles k..l (k >= 1) is the constant
    interval of ones over their basis indices, so each factor stores just
    its two edges as a row of the word's table; no factor object is built.
    """
    if delta.block_ranges != model.block_ranges:
        raise DimensionMismatch("difference map lives on another configuration's blocks")
    if not is_symmetric(delta):
        raise NotSymmetric("difference map is not symmetric")
    if not is_completely_reducible(delta):
        raise NotCompletelyReducible("difference map mixes complement components")
    rows, lo = delta.matrix.entries, model.circle_block[0]  # circle p sits at lo + p
    table, components = [], []
    for j, (start, stop) in enumerate(model.block_ranges):
        for r, c, value in _sym_coefficients(rows, start, stop):  # the ones on [lo + r, lo + c + 1)
            table.append((((lo + r, 1), (lo + c + 1, -1)), value, LOCUS_Q))
        components += [j] * (len(table) - len(components))  # one entry per factor of block j
    return Realization(TwistWord._of_table(model.rank, table), tuple(components))


def build_boundary_multitwist(model: HomologyModel, exponents: DiagonalMap) -> TwistWord:
    """Word of twists about every boundary circle with the given exponents.

    Its difference map is the restriction of the diagonal map the exponents
    define, so composing with it shifts a word's difference map diagonally.
    """
    if len(exponents) != model.n_circles:
        raise DimensionMismatch(f"need {model.n_circles} exponents")
    pairs = zip(model.circle_order, exponents.exponents)
    return TwistWord([TwistFactor(model.circle_class(j, i), m, LOCUS_Q) for (j, i), m in pairs])
