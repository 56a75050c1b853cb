"""Twist words, their transvection action on homology, and difference maps.

A mapping class is given as an ordered word of twist factors; each factor
acts on ambient homology by the transvection x -> x + m <x, z> z about its
circle class z.  A word is one edge table, a row per factor (its class's run
edges, exponent and locus) in composition order, so the last row acts
first; ``TwistWord.factors`` is a view of the rows, built on first read.

For a word supported in the subsurface that fixes the image of the
subsurface homology pointwise (a weakly Torelli word), the action moves
every class by an element of the circle span, and the displacement only
depends on the Mayer-Vietoris boundary of the class.  The resulting linear
map from two-sided 0-classes to reduced circle classes is the word's
difference map; it is the complete obstruction data for the extension
questions answered in :mod:`torelli.criteria`.
"""

from __future__ import annotations

import json
from itertools import accumulate, compress
from operator import add, index
from typing import Mapping, Optional, Sequence, Union

from torelli._schema import Reader
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector, _Value, cached_view
from torelli.surface_model import HomologyModel

#: Locus of a twist factor: the subsurface, one complement component, or
#: the ambient surface.  Component indices are 0-based.
LOCUS_Q = "Q"
LOCUS_AMBIENT = "S"
Locus = Union[str, tuple[str, int]]


class LocusViolation(ValueError):
    """A factor's class lies outside the sublattice its locus permits."""


class NotWeaklyTorelli(ValueError):
    """The word moves the subsurface homology inside the ambient surface."""


class InconsistentDelta(RuntimeError):
    """The difference-map system has no solution; a model invariant broke."""


def in_complement(j: int) -> Locus:
    return ("P", j)


def _run_edges(z: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The run edges of the class z: its nonzero steps (i, z[i] - z[i-1]) for i
    in 0..len(z), z read as 0 outside it, so the union of circles k..l is two edges."""
    edges, end, value = [], 0, 0
    for i in compress(range(len(z)), z):  # walk the nonzero entries
        if i > end and value:  # zeros since the last nonzero entry
            edges.append((end, -value))
            value = 0
        if z[i] != value:
            edges.append((i, z[i] - value))
        end, value = i + 1, z[i]
    if value:
        edges.append((end, -value))
    return tuple(edges)


def _dense(rank: int, edges: tuple) -> list[int]:
    """The class of the run edges as a fresh list, written one slice per run."""
    out, value = [0] * rank, 0
    for (i, step), (j, _) in zip(edges, edges[1:]):  # the run [i, j)
        value += step
        out[i:j] = [value] * (j - i)
    return out


class TwistFactor(_Value):
    """A twist about the class z = ``curve_class`` to the power ``exponent``,
    stored as ``rank`` and the run edges of z; ``curve_class`` is the dense
    view, built on first read."""

    rank: int
    edges: tuple[tuple[int, int], ...]
    exponent: int
    locus: Locus

    def __init__(self, curve_class: IntVector, exponent: int, locus: Locus):
        z, exponent = curve_class.entries, index(exponent)  # summed into difference maps unchecked
        self.__dict__.update(rank=len(z), edges=_run_edges(z), exponent=exponent, locus=locus)

    @classmethod
    def _of_edges(cls, rank: int, edges: tuple, exponent: int, locus: Locus) -> "TwistFactor":
        """A factor from canonical edges and an int exponent; no check."""
        factor = object.__new__(cls)
        factor.__dict__.update(rank=rank, edges=edges, exponent=exponent, locus=locus)
        return factor

    @cached_view
    def curve_class(self) -> IntVector:
        return IntVector._of_ints(_dense(self.rank, self.edges))

    def __repr__(self) -> str:
        return f"TwistFactor(curve_class={self.curve_class!r}, exponent={self.exponent!r}, locus={self.locus!r})"


class TwistWord(_Value):
    """Composition-ordered twist factors (the last acts first) as one edge
    table: ``rank`` (None when empty) and ``table``, row i factor i's (run
    edges, exponent, locus).  The one field, ``factors``, views the rows as
    ``TwistFactor``s, built on first read; ``TwistWord(factors)`` fills the
    table from the factors and keeps their tuple as the view."""

    factors: tuple[TwistFactor, ...]

    def __init__(self, factors: Sequence[TwistFactor] = ()):
        factors = tuple(factors)
        rank = factors[0].rank if factors else None
        for pos, factor in enumerate(factors):
            if factor.rank != rank:
                raise DimensionMismatch(f"factor {pos}: class has length {factor.rank}, factor 0's has {rank}")
        self.__dict__.update(factors=factors, rank=rank, table=tuple((f.edges, f.exponent, f.locus) for f in factors))

    @classmethod
    def _of_table(cls, rank: int, table: Sequence[tuple[tuple, int, Locus]]) -> "TwistWord":
        """A word from rows of canonical edges, an int exponent and a locus; no check."""
        word = object.__new__(cls)
        word.__dict__.update(rank=rank if table else None, table=tuple(table))
        return word

    @cached_view
    def factors(self) -> tuple[TwistFactor, ...]:
        return tuple(TwistFactor._of_edges(self.rank, *row) for row in self.table)

    def __len__(self) -> int:
        return len(self.table)


class DifferenceMap(_Value):
    """Linear map from two-sided 0-class coordinates to reduced circle
    coordinates: a k x k ``matrix`` acting on column vectors, k the end of
    ``block_ranges``, each complement component's coordinate range."""

    matrix: IntMatrix
    block_ranges: tuple[tuple[int, int], ...]

    def __init__(self, matrix: IntMatrix, block_ranges: tuple[tuple[int, int], ...]):
        k = block_ranges[-1][1] if block_ranges else 0
        if (matrix.rows, matrix.cols) != (k, k):
            raise DimensionMismatch(f"difference map must be {k}x{k}")
        super().__init__(matrix, block_ranges)

    def block(self, j: int) -> IntMatrix:
        if not 0 <= j < len(self.block_ranges):
            raise DimensionMismatch(f"no complement component {j}")
        start, stop = self.block_ranges[j]
        return IntMatrix._of_rows((row[start:stop] for row in self.matrix.entries[start:stop]), stop - start)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __add__(self, other: "DifferenceMap") -> "DifferenceMap":
        if self.block_ranges != other.block_ranges:
            raise DimensionMismatch("difference maps live on different configurations")
        return DifferenceMap(self.matrix + other.matrix, self.block_ranges)

    def __neg__(self) -> "DifferenceMap":
        return DifferenceMap(-self.matrix, self.block_ranges)

    def to_json_dict(self) -> dict:
        return {"matrix": self.matrix.to_lists()}


def _check_locus(model: HomologyModel, z: Sequence[int], locus: Locus, position: int) -> None:
    if len(z) != model.rank:
        raise DimensionMismatch(f"factor {position}: class has length {len(z)}, model rank is {model.rank}")
    if locus == LOCUS_AMBIENT:
        return
    # A locus permits one range of handles and one slice of the circle block.
    lo, hi = model.circle_block
    if locus == LOCUS_Q:
        a, b = model.handle_ranges[0]
        where = "the subsurface image"
    elif isinstance(locus, tuple) and len(locus) == 2 and locus[0] == "P":
        j = locus[1]
        if not (0 <= j < model.n_components):
            raise LocusViolation(f"factor {position}: no complement component {j}")
        a, b = model.handle_ranges[1 + j]
        lo, hi = (lo + c for c in model.block_ranges[j])
        where = f"complement component {j}"
    else:
        raise LocusViolation(f"factor {position}: unknown locus {locus!r}")
    if any(z[:a]) or any(z[b:lo]) or any(z[hi:]):
        idx = next(i for i, x in enumerate(z) if x and not (a <= i < b or lo <= i < hi))
        raise LocusViolation(f"factor {position}: class meets {model.describe_index(idx)}, outside {where}")


def transvection_action(model: HomologyModel, word: TwistWord) -> IntMatrix:
    """Dense product of the factor transvections x -> x + m <x, z> z, in composition
    order, the fast path's reference.  Every factor's locus is checked, in word
    order; a factor with m = 0 adds no step.  The product starts at the first
    acting step, and a word with no acting factor acts as the identity."""
    n = model.rank
    result = None
    for pos, factor in enumerate(word.factors):
        z = factor.curve_class.entries
        _check_locus(model, z, factor.locus, pos)
        if factor.exponent:
            mjz = [factor.exponent * x for x in model.intersection_form.apply(factor.curve_class)]
            step = IntMatrix(([(r == c) + z[r] * mjz[c] for c in range(n)] for r in range(n)), cols=n)
            if result is None:
                result = step
            else:
                result = result * step
    return IntMatrix.identity(n) if result is None else result


def _displacements(model: HomologyModel, factors: Sequence[tuple[Sequence[int], int]]) -> list[dict[int, int]]:
    """Displacements (image minus itself) of the basis vectors under the
    factors, each a class's entries z and its exponent m in composition
    order, as rows[r][c]: nonzero coordinate r of class c's displacement.
    Factors apply last first, each as the rank-1 update x += m <x, z> z on
    all images at once.  The form is a signed permutation in the model
    basis, so <x, z> reads only the partner rows of z's support, and a
    factor costs |supp z| times their nonzeros."""
    rows: list[dict[int, int]] = [{} for _ in range(model.rank)]
    for z, m in reversed(factors):
        support = [(c, zc) for c, zc in enumerate(z) if zc]
        pairings: dict[int, int] = {}  # m <image c, z> for each basis vector c
        for c, zc in support:
            r, value = model.partner(c)
            w = m * value * zc
            pairings[r] = pairings.get(r, 0) + w  # row r of the identity
            for col, x in rows[r].items():
                pairings[col] = pairings.get(col, 0) + w * x
        for c, zc in support:
            row = rows[c]
            for col, t in pairings.items():
                row[col] = row.get(col, 0) + zc * t
                if not row[col]:
                    del row[col]
    return rows


def weakly_torelli_delta(model: HomologyModel, word: TwistWord) -> Optional[DifferenceMap]:
    """The word's difference map, or None when it is not weakly Torelli.

    Each factor must have locus Q and a class in the subsurface image: Q
    handles plus the circle block (``_check_locus`` words the error).  Each
    circle pairs only with its dual (the layout that
    ``test_partner_is_the_form_column`` checks), so a class u in the circle
    block pairs to zero with that image.  Its twist commutes with every
    factor and moves a class a by m <a, u> u (the paper's a -> m <a, [U]>
    [U]) whatever the others do.  So a factor takes one of two routes.  A
    class that is one interval [i, j) of circles of one value v (its two
    stored edges) adds m u u^T, u being its slice of the block, as m v^2 at
    the four corners of a 2D difference array that one 2D prefix sum turns
    into the matrix; every circle factor of a word the library builds is
    one.  Every other factor, a zero class or a circle class of more edges
    among them, is checked and joins one sparse pass over the basis, which
    computes any Q factor exactly.

    The corner terms move only the duals, so the pass alone gives the
    verdict: weakly Torelli when no Q handle and no circle moves, and every
    displacement must then lie in the circle span.  Dual(j, i) has boundary
    pairing_sign * o_{j,i} and every other class boundary 0, so column
    (j, i) gains the sign times the displacement of dual(j, i); the rest of
    the boundary system says no class before the duals moves.
    """
    rank, (lo, hi), s = model.rank, model.circle_block, model.pairing_sign
    k, h2 = hi - lo, model.handle_ranges[0][1]
    corners, rest = [[0] * (k + 1) for _ in range(k + 1)], []  # row and column k take the edges at hi
    for pos, (edges, m, locus) in enumerate(word.table):
        if locus != LOCUS_Q:
            got = json.dumps(_locus_to_json(locus), default=repr)
            raise LocusViolation(f'factor {pos}: locus must be "Q", got {got}')
        if len(edges) == 2 and lo <= edges[0][0] and edges[1][0] <= hi and word.rank == rank:
            (i, v), (j, _) = edges  # the interval [i, j) of one value v: m v^2 at four corners
            i, j, w = i - lo, j - lo, m * v * v
            corners[i][i] += w
            corners[j][j] += w
            corners[i][j] -= w
            corners[j][i] -= w
        else:
            z = _dense(word.rank, edges)
            _check_locus(model, z, locus, pos)
            rest.append((z, m))
    matrix, above = [], [0] * k
    for row in corners[:k]:
        above = list(map(add, above, accumulate(row)))  # map stops at column k
        matrix.append(above)
    if rest:
        rows = _displacements(model, rest)
        moved = set().union(*rows)
        if any(c < h2 or lo <= c < hi for c in moved):
            return None
        outside = [(c, r) for r, row in enumerate(rows) if not lo <= r < hi for c in row]
        if outside:
            idx, r = min(outside)
            raise NotWeaklyTorelli(
                f"displacement of {model.describe_index(idx)} leaves the circle span: "
                f"it has a nonzero coordinate at {model.describe_index(r)}"
            )
        if any(c < hi for c in moved):
            raise InconsistentDelta("difference map fails the boundary system")
        for r, row in enumerate(matrix):
            for c, x in rows[lo + r].items():
                row[c - hi] += s * x
    return DifferenceMap(IntMatrix._of_rows(matrix, k), model.block_ranges)


def is_weakly_torelli(model: HomologyModel, word: TwistWord) -> bool:
    """Does the word fix the subsurface homology image pointwise?"""
    return weakly_torelli_delta(model, word) is not None


def delta_difference(model: HomologyModel, word: TwistWord) -> DifferenceMap:
    """Difference map of a weakly Torelli word."""
    delta = weakly_torelli_delta(model, word)
    if delta is None:
        raise NotWeaklyTorelli("word does not fix the subsurface homology image")
    return delta


def concat(word_a: TwistWord, word_b: TwistWord) -> TwistWord:
    """Composition word_a after word_b; the empty word matches any rank."""
    rank = word_a.rank if word_b.rank is None else word_b.rank
    if word_a.rank not in (None, rank):
        raise DimensionMismatch("words live on different models")
    return TwistWord._of_table(rank, word_a.table + word_b.table)


def invert(word: TwistWord) -> TwistWord:
    """Formal inverse: reversed factors with negated exponents."""
    return TwistWord._of_table(word.rank, [(edges, -m, locus) for edges, m, locus in reversed(word.table)])


# -- JSON word schema --------------------------------------------------------


class WordParseError(ValueError):
    """Word JSON violates the schema."""


_READ = Reader(WordParseError)


def _locus_to_json(locus: Locus):
    if isinstance(locus, tuple) and len(locus) == 2 and locus[0] == "P":
        return {"P": locus[1]}
    return locus


def word_to_json_dict(word: TwistWord) -> dict:
    return {
        "factors": [
            {"class": _dense(word.rank, edges), "exponent": exponent, "locus": _locus_to_json(locus)}
            for edges, exponent, locus in word.table
        ]
    }


def word_from_json_dict(data: Mapping, rank: int) -> TwistWord:
    (items,) = _READ.fields(data, "word", ("factors",), what="a JSON object")
    table = []
    for pos, item in enumerate(_READ.expect(items, list, "field 'factors'", "a list")):
        cls, exponent, locus = _READ.fields(item, f"factors[{pos}]", ("class", "exponent", "locus"))
        cls = _READ.integers(cls, f"factors[{pos}].class")
        if len(cls) != rank:
            raise DimensionMismatch(f"factors[{pos}].class has length {len(cls)}, model rank is {rank}")
        exponent = _READ.integer(exponent, f"factors[{pos}].exponent")
        if isinstance(locus, Mapping) and set(locus) == {"P"}:
            locus = in_complement(_READ.integer(locus["P"], f"factors[{pos}].locus.P"))
        elif locus != LOCUS_Q and locus != LOCUS_AMBIENT:
            raise WordParseError(f'factors[{pos}].locus must be "Q", "S" or {{"P": j}}')
        table.append((_run_edges(cls.entries), exponent, locus))
    return TwistWord._of_table(rank, table)
