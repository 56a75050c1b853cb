"""Deciders for the extension questions, driven by a word's difference map.

Every verdict is a view of one thing: the word's difference map, or None
when the word is not weakly Torelli (``AnalysisReport``).  Each map check
reads the map's own ``block_ranges``, its component blocks.

* identity extension is Torelli  <=>  the difference map vanishes;
* some Torelli extension exists  <=>  the difference map is completely
  reducible (respects the per-component block decomposition);
* some boundary multi-twist corrects the identity extension to Torelli
  <=>  the difference map is the restriction of a diagonal map, i.e. each
  component block is a diagonal matrix plus a constant times the all-ones
  matrix.  Components with at most three boundary circles always admit
  such a restriction, which is why the three-circle guarantee holds.
"""

from __future__ import annotations

import operator
from typing import Mapping, Optional

from torelli.exactlin import DimensionMismatch, IntMatrix, _Value, cached_view
from torelli.mapping_class import (
    DifferenceMap,
    NotWeaklyTorelli,
    TwistWord,
    weakly_torelli_delta,
)
from torelli.surface_model import HomologyModel, SubsurfaceConfig


class NotSymmetric(ValueError):
    """The map fails the pairing symmetry identity."""


class NotCompletelyReducible(ValueError):
    """The map mixes distinct complement components."""


class DiagonalMap(_Value):
    """One integer exponent per boundary circle, in the model's circle order."""

    exponents: tuple[int, ...]

    def __init__(self, exponents):
        object.__setattr__(self, "exponents", tuple(map(operator.index, exponents)))

    def __len__(self) -> int:
        return len(self.exponents)

    def to_json(self) -> list[int]:
        return list(self.exponents)


def is_symmetric(delta: DifferenceMap) -> bool:
    """Pairing symmetry: <a, delta(b)> = <b, delta(a)> on all basis pairs.

    The two-point and reduced circle bases are dual under the induced
    pairing, so the identity is literal symmetry of the matrix.
    """
    entries = delta.matrix.entries
    return entries == tuple(zip(*entries))


def is_completely_reducible(delta: DifferenceMap) -> bool:
    """Does the map send each component's block into the same component,
    i.e. does every row of a component's range vanish outside that range?"""
    rows = delta.matrix.entries
    return not any(
        any(row[:start]) or any(row[stop:])
        for start, stop in delta.block_ranges
        for row in rows[start:stop]
    )


def _diagonal_exponents(blocks: tuple[IntMatrix, ...]) -> Optional[DiagonalMap]:
    """Correcting exponents for the given blocks (a restricting diagonal map's, negated), or None.

    Over a component with circles 0..n-1 the restriction of the diagonal
    map with exponents e_0..e_{n-1} has block e_0 * ones + diag(e_1..e_{n-1}),
    so a block qualifies exactly when all its off-diagonal entries agree.
    Underdetermined components (at most two circles) take e_0 = 0 for a
    canonical representative.
    """
    exponents = []
    for block in blocks:
        rows = block.entries
        base = rows[0][1] if len(rows) > 1 else 0
        if any(x != base for r, row in enumerate(rows) for x in row[:r] + row[r + 1:]):
            return None
        exponents += [-base, *(base - row[r] for r, row in enumerate(rows))]
    return DiagonalMap(exponents)


def decide_extension_by_identity(model: HomologyModel, word: TwistWord) -> bool:
    """Is the extension of the word by the identity a Torelli map?"""
    return analyze(model, word).extension_by_identity_torelli


def decide_extendable(model: HomologyModel, word: TwistWord) -> bool:
    """Does the word extend to some Torelli map of the closed surface?"""
    return analyze(model, word).extendable_to_torelli


def decide_multitwist_correctable(model: HomologyModel, word: TwistWord) -> Optional[DiagonalMap]:
    """Exponents of a boundary multi-twist making the identity extension
    Torelli, or None when no such multi-twist exists.

    The returned exponents are the correcting ones (negated diagonal
    solution): composing the word with the multi-twist they define yields
    the identity on ambient homology.
    """
    report = analyze(model, word)
    if not report.weakly_torelli:
        raise NotWeaklyTorelli("word does not fix the subsurface homology image")
    return report.multitwist_correctable


def guaranteed_correctable(config: SubsurfaceConfig) -> bool:
    """True when every component has at most three boundary circles, in
    which case extendable words are always multi-twist correctable."""
    return all(c.boundary_count <= 3 for c in config.components)


def group_ranks(config: SubsurfaceConfig) -> dict[str, int]:
    """Ranks of the two coordinate lattices and of the lattice of
    completely reducible symmetric maps between them."""
    rank = config.total_boundary - len(config.components)
    rank_dc = sum(c.boundary_count * (c.boundary_count - 1) // 2 for c in config.components)
    return {"rank_K0": rank, "rank_H1bar": rank, "rank_Dc": rank_dc}


class AnalysisReport(_Value):
    """The verdicts on a word, each a view of its difference map ``delta``,
    which is None when the word is not weakly Torelli."""

    delta: Optional[DifferenceMap]

    @property
    def weakly_torelli(self) -> bool:
        return self.delta is not None

    @cached_view
    def symmetric(self) -> bool:
        return self.weakly_torelli and is_symmetric(self.delta)

    @cached_view
    def completely_reducible(self) -> bool:
        return self.weakly_torelli and is_completely_reducible(self.delta)

    @cached_view
    def extension_by_identity_torelli(self) -> bool:
        return self.weakly_torelli and self.delta.is_zero()

    @property
    def extendable_to_torelli(self) -> bool:
        return self.completely_reducible

    @cached_view
    def component_matrices(self) -> Optional[tuple[IntMatrix, ...]]:
        """The map's component blocks when it is completely reducible, else None."""
        if not self.completely_reducible:
            return None
        return tuple(map(self.delta.block, range(len(self.delta.block_ranges))))

    @cached_view
    def multitwist_correctable(self) -> Optional[DiagonalMap]:
        """Exponents of the boundary multi-twist that corrects the identity
        extension to Torelli, as ``_diagonal_exponents`` builds them, or None."""
        blocks = self.component_matrices
        return None if blocks is None else _diagonal_exponents(blocks)

    def to_json_dict(self) -> dict:
        delta, correction, blocks = self.delta, self.multitwist_correctable, self.component_matrices
        return {
            "weakly_torelli": self.weakly_torelli,
            "delta": None if delta is None else delta.to_json_dict(),
            "symmetric": self.symmetric,
            "completely_reducible": self.completely_reducible,
            "extension_by_identity_torelli": self.extension_by_identity_torelli,
            "extendable_to_torelli": self.extendable_to_torelli,
            "multitwist_correctable": None if correction is None else correction.to_json(),
            "component_matrices": None if blocks is None else [m.to_lists() for m in blocks],
        }


def analyze(model: HomologyModel, word: TwistWord) -> AnalysisReport:
    """The report on a subsurface word: its difference map, with every
    verdict a view of it."""
    return AnalysisReport(weakly_torelli_delta(model, word))


# -- difference-map construction from block data -----------------------------


def delta_from_blocks(model: HomologyModel, blocks: Mapping[int, IntMatrix]) -> DifferenceMap:
    """Assemble a (completely reducible) difference map from per-component
    blocks, each placed as given: rows are the reduced circle classes and
    columns the two-point classes, as in the full matrix."""
    k = model.k0_rank
    matrix = [[0] * k for _ in range(k)]
    for j, block in blocks.items():
        if not (0 <= j < model.n_components):
            raise DimensionMismatch(f"no complement component {j}")
        start, stop = model.block_ranges[j]
        size = stop - start
        if (block.rows, block.cols) != (size, size):
            raise DimensionMismatch(
                f"component {j} block must be {size}x{size}, got {block.rows}x{block.cols}"
            )
        for row, block_row in zip(matrix[start:stop], block.entries):
            row[start:stop] = block_row
    return DifferenceMap(IntMatrix._of_rows(matrix, k), model.block_ranges)
