"""Homological model of a closed oriented surface split along a subsurface.

A configuration records the genus of the subsurface Q and, for each
component P of the complement, its genus and number of boundary circles.
From it we build an explicit basis of the first homology of the closed
surface S, the (unimodular, skew) intersection form, the classes of the
boundary circles, and the lattices that control the extension problem:

* ``k0_basis`` spans the degree-zero boundary classes that bound on both
  sides of the splitting (rank n - r for n circles and r components);
* ``boundary_matrix`` is the Mayer-Vietoris boundary map, sending an
  ambient class a to the 0-chain class sum_C <a, [C]> o_C, which
  ``boundary_matrix.apply(a)`` computes.

A model is its two inputs, the configuration and the pairing sign, so
``build_model`` only checks the sign, in O(1).  The basis layout and the
three dense matrices (the form ``intersection_form``, ``k0_basis`` and
``boundary_matrix``, O(rank^2) in time and memory) are views of the
configuration, most of them ``exactlin.cached_view``s, stored on first read
without a lock.  Only the oracle, its reference algebra in
``torelli.reference`` and the dense reference action read the dense
matrices.  Only diagnostics, the peripheral and multi-twist builders and
the oracle read the O(rank) enumerations ``labels``, ``circle_order`` and
``reduced_order``.

Basis order (used for all coordinates, including the JSON word schema):
Q-handle pairs a_0, b_0, ..., then for each component its handle pairs,
then for each component its circles 1..n_j-1, then the matching duals.
Circle 0 of each component is distinguished: its class is minus the sum
of the others, so it never appears as a basis vector.  0-chain coordinates
list circles 0..n_j-1 of each component in turn; reduced coordinates drop
circle 0.

Every position the model hands out is read from ``HomologyModel``'s
``circle_block`` [lo, hi), ``handle_ranges`` and ``chain_ranges``, the one
owner of this order.  With start_j = block_ranges[j][0], circle (j, i >= 1)
is basis index lo + start_j + i - 1, its dual hi + start_j + i - 1, its
reduced coordinate start_j + i - 1 and its 0-chain coordinate
chain_ranges[j][0] + i.

The form J (J[r][c] = <e_r, e_c>) has sign s = pairing_sign: <a, b> = s
for each handle pair and <dual, circle> = s for each circle.  So column c
of J has one nonzero entry (r, J[r][c]), which ``partner`` computes:
(a + 1, -s) for a handle at even index a, (a, s) for its partner at a + 1,
(c + k, s) for a circle c and (d - k, -s) for a dual d, k = hi - lo.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import Mapping, Sequence

from torelli._schema import Reader
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector, _Value, cached_view


class InvalidConfig(ValueError):
    """Configuration violates its structural invariants."""


_READ = Reader(InvalidConfig)


class ComplementComponent(_Value):
    genus: int
    boundary_count: int

    def __init__(self, genus: int, boundary_count: int):
        super().__init__(operator.index(genus), operator.index(boundary_count))


class SubsurfaceConfig(_Value):
    q_genus: int
    components: tuple[ComplementComponent, ...]

    def __init__(self, q_genus: int, components: Sequence[ComplementComponent]):
        super().__init__(operator.index(q_genus), tuple(components))
        if self.q_genus < 0:
            raise InvalidConfig("q_genus must be nonnegative")
        if not self.components:
            raise InvalidConfig("components must be nonempty")
        for j, comp in enumerate(self.components):
            if comp.genus < 0:
                raise InvalidConfig(f"components[{j}].genus must be nonnegative")
            if comp.boundary_count < 1:
                raise InvalidConfig(f"components[{j}].boundary_count must be positive")

    @property
    def total_boundary(self) -> int:
        return sum(c.boundary_count for c in self.components)

    @property
    def genus(self) -> int:
        """Genus of the closed surface the configuration glues up to."""
        return self.q_genus + sum(c.genus for c in self.components) + self.total_boundary - len(self.components)

    def to_json_dict(self) -> dict:
        return {
            "q_genus": self.q_genus,
            "components": [
                {"genus": c.genus, "boundary_count": c.boundary_count} for c in self.components
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "SubsurfaceConfig":
        q_genus, components = _READ.fields(data, "config", ("q_genus", "components"), what="a JSON object")
        _READ.integer(q_genus, "field 'q_genus'")
        comps = []
        for j, item in enumerate(_READ.expect(components, list, "field 'components'", "a list")):
            genus, boundary_count = _READ.fields(item, f"components[{j}]", ("genus", "boundary_count"))
            _READ.integer(genus, f"components[{j}].genus")
            _READ.integer(boundary_count, f"components[{j}].boundary_count")
            comps.append(ComplementComponent(genus, boundary_count))
        return SubsurfaceConfig(q_genus, comps)


class HomologyModel(_Value):
    """Explicit basis data for the split surface; immutable.

    The fields are the two inputs, ``config`` and ``pairing_sign``, so repr,
    equality and hash read only them.  The basis layout, its positions and
    the three dense matrices are views derived from the fields, most of
    them ``cached_view``s, stored on first read.
    """

    config: SubsurfaceConfig
    pairing_sign: int

    # -- the basis layout and its positions (see module docstring) ---------

    @cached_view
    def block_ranges(self) -> tuple[tuple[int, int], ...]:
        """Range of each component's circles 1..n_j-1 in reduced coordinates."""
        stops = tuple(accumulate(comp.boundary_count - 1 for comp in self.config.components))
        return tuple(zip((0, *stops), stops))

    @cached_view
    def rank(self) -> int:
        rank = self.handle_ranges[-1][1] + 2 * self.k0_rank
        assert rank == 2 * self.config.genus
        return rank

    @cached_view
    def labels(self) -> tuple[tuple, ...]:
        comps = self.config.components
        return (
            *((tag, i) for i in range(self.config.q_genus) for tag in ("qa", "qb")),
            *((tag, j, g) for j, comp in enumerate(comps) for g in range(comp.genus) for tag in ("pa", "pb")),
            *((tag, *ji) for tag in ("circle", "dual") for ji in self.reduced_order),
        )

    @cached_view
    def circle_order(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, i) for j, comp in enumerate(self.config.components) for i in range(comp.boundary_count))

    @cached_view
    def reduced_order(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, i) for j, comp in enumerate(self.config.components) for i in range(1, comp.boundary_count))

    @property
    def n_circles(self) -> int:
        return self.config.total_boundary

    @property
    def n_components(self) -> int:
        return len(self.config.components)

    @property
    def k0_rank(self) -> int:
        return self.block_ranges[-1][1]

    @cached_view
    def circle_block(self) -> tuple[int, int]:
        """Basis range [lo, hi) of the circles (j, i >= 1); the duals fill [hi, rank)."""
        k = self.k0_rank
        return self.rank - 2 * k, self.rank - k

    @cached_view
    def handle_ranges(self) -> tuple[tuple[int, int], ...]:
        """Basis range of the handle pairs of Q, then of each component."""
        stop = 2 * self.config.q_genus
        ranges = [(0, stop)]
        for comp in self.config.components:
            ranges.append((stop, stop + 2 * comp.genus))
            stop += 2 * comp.genus
        return tuple(ranges)

    @property
    def chain_ranges(self) -> tuple[tuple[int, int], ...]:
        """Range of each component's circles 0..n_j-1 in 0-chain coordinates."""
        return tuple((start + j, stop + j + 1) for j, (start, stop) in enumerate(self.block_ranges))

    def partner(self, c: int) -> tuple[int, int]:
        """The single nonzero entry (r, J[r][c]) of column c of the form."""
        (lo, hi), s = self.circle_block, self.pairing_sign
        if c < lo:  # handle pairs a, b sit side by side
            return (c + 1, -s) if c % 2 == 0 else (c - 1, s)
        k = hi - lo
        return (c + k, s) if c < hi else (c - k, -s)

    def describe_index(self, idx: int) -> str:
        """Basis index idx with its README name, e.g. ``basis index 2 (a_{0,0})``."""
        kind, *at = self.labels[idx]
        if kind in ("circle", "dual"):
            name = f"{'dual of ' * (kind == 'dual')}circle ({at[0]}, {at[1]})"
        else:
            name = f"{kind[1]}_{at[0]}" if kind[0] == "q" else f"{kind[1]}_{{{at[0]},{at[1]}}}"
        return f"basis index {idx} ({name})"

    def circle_class(self, j: int, i: int) -> IntVector:
        """Ambient class of circle i of component j (i = 0 is the dependent one)."""
        if not (0 <= j < self.n_components and 0 <= i < self.config.components[j].boundary_count):
            raise DimensionMismatch(f"component {j} has no circle {i}")
        start, stop = self.block_ranges[j]
        base = self.circle_block[0] + start  # basis index of circle (j, 1)
        if i >= 1:
            return IntVector.unit(self.rank, base + i - 1)
        out = [0] * self.rank
        out[base:base + stop - start] = [-1] * (stop - start)
        return IntVector(out)

    # -- dense views, built from the basis order on first access ----------

    @cached_view
    def intersection_form(self) -> IntMatrix:
        rank, (lo, hi), s = self.rank, self.circle_block, self.pairing_sign
        form = [[0] * rank for _ in range(rank)]
        for a in range(0, lo, 2):  # handle pairs a, b sit side by side
            form[a][a + 1] = s
            form[a + 1][a] = -s
        for c, d in zip(range(lo, hi), range(hi, rank)):  # circle c and its dual d
            form[d][c] = s
            form[c][d] = -s
        return IntMatrix(form, cols=rank)

    @cached_view
    def k0_basis(self) -> IntMatrix:
        # Column o_{j,i} = o_i - o_0 is +1 on circle (j, i) and -1 on circle (j, 0).
        k, rows = self.k0_rank, []
        for start, stop in self.block_ranges:
            rows.append([-int(start <= c < stop) for c in range(k)])
            rows += ([int(c == p) for c in range(k)] for p in range(start, stop))
        return IntMatrix(rows, cols=k)

    @cached_view
    def boundary_matrix(self) -> IntMatrix:
        # Row for circle C: the functional a -> <a, [C]>.  <dual, circle> is the
        # pairing sign and circle 0 is minus the others, so it is the sign times
        # C's row of k0_basis, read on the duals.
        pad, s = [0] * self.circle_block[1], self.pairing_sign
        return IntMatrix((pad + [s * x for x in row] for row in self.k0_basis.entries), cols=self.rank)

    # -- coordinate maps --------------------------------------------------

    def k0_coords(self, theta: IntVector) -> IntVector:
        """Coordinates of a 0-chain class over the two-point basis.

        Raises ValueError when the class does not bound on both sides,
        i.e. when some component's coefficients do not sum to zero.
        """
        if len(theta) != self.n_circles:
            raise DimensionMismatch(f"expected length {self.n_circles}, got {len(theta)}")
        out = []
        for j, (first, end) in enumerate(self.chain_ranges):
            total = sum(theta[first:end])
            if total != 0:
                raise ValueError(f"class does not bound on both sides (component {j} sums to {total})")
            out += theta[first + 1:end]
        return IntVector(out)

    def h1bar_from_ambient(self, v: IntVector) -> IntVector:
        """Reduced coordinates of an ambient class lying in the circle span."""
        if len(v) != self.rank:
            raise DimensionMismatch(f"expected length {self.rank}, got {len(v)}")
        lo, hi = self.circle_block
        outside = [idx for idx, x in enumerate(v) if x and not lo <= idx < hi]
        if outside:
            where = self.describe_index(outside[0])
            raise ValueError(f"class has a nonzero coordinate at {where}, not in the circle span")
        return IntVector(v[lo:hi])

    def ambient_from_h1bar(self, v: IntVector) -> IntVector:
        """Ambient class of a reduced circle class (canonical basis circles)."""
        if len(v) != self.k0_rank:
            raise DimensionMismatch(f"expected length {self.k0_rank}, got {len(v)}")
        lo, hi = self.circle_block
        return IntVector([0] * lo + list(v) + [0] * (self.rank - hi))


def build_model(config: SubsurfaceConfig, *, pairing_sign: int = 1) -> HomologyModel:
    """Construct the homology model for a configuration.

    ``pairing_sign`` flips the global sign of the intersection form.  The
    verdicts on a word of circle-span twists do not depend on it (the
    oracle's ``sign_flip_invariance``).  A word with a Q-handle coordinate
    is another product under the flip, and its verdicts can differ.
    """
    pairing_sign = operator.index(pairing_sign)
    if pairing_sign not in (1, -1):
        raise InvalidConfig("pairing_sign must be +1 or -1")
    return HomologyModel(config, pairing_sign)
