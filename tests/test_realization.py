"""Basis change for symmetric matrices, peripheral twist formula,
realization of difference maps, and boundary multi-twists."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.criteria import (
    DiagonalMap,
    NotSymmetric,
    analyze,
    delta_from_blocks,
)
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector
from torelli.mapping_class import (
    LOCUS_Q,
    TwistFactor,
    TwistWord,
    delta_difference,
    in_complement,
    transvection_action,
)
from torelli.oracle import (
    TrialPlan,
    random_config,
    random_symmetric_reducible_delta,
    reconstruct_from_coefficients,
)
from torelli.realization import (
    build_boundary_multitwist,
    peripheral_class,
    realize_delta,
    sym_basis_change,
)
from torelli.reference import peripheral_twist_delta, restriction_of_diagonal
from torelli.surface_model import ComplementComponent, SubsurfaceConfig, build_model

from test_surface_model import small_configs


def symmetric_matrices(max_size=5, bound=2):
    def build(draw_size_and_upper):
        size, upper = draw_size_and_upper
        entries = [[0] * size for _ in range(size)]
        pos = 0
        for r in range(size):
            for c in range(r, size):
                entries[r][c] = entries[c][r] = upper[pos]
                pos += 1
        return IntMatrix(entries, cols=size)

    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(
                st.integers(min_value=-bound, max_value=bound),
                min_size=size * (size + 1) // 2,
                max_size=size * (size + 1) // 2,
            ),
        ).map(build)
    )


def test_basis_change_elementary_off_diagonal():
    matrix = IntMatrix([[0, 1], [1, 0]])
    coeffs = sym_basis_change(matrix, 2)
    assert dict(coeffs.items()) == {(1, 1): -1, (1, 2): 1, (2, 2): -1}


def test_basis_change_zero():
    coeffs = sym_basis_change(IntMatrix([[0] * 3] * 3), 3)
    assert dict(coeffs.items()) == {}


def test_basis_change_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_basis_change(IntMatrix([[0, 1], [0, 0]]), 2)


@settings(max_examples=300)
@given(symmetric_matrices())
def test_basis_change_round_trip(matrix):
    coeffs = sym_basis_change(matrix, matrix.rows)
    assert reconstruct_from_coefficients(coeffs, matrix.rows) == matrix


@pytest.fixture
def four_circle_model():
    return build_model(SubsurfaceConfig(1, [ComplementComponent(1, 4)]))


def test_peripheral_delta_of_full_boundary_vanishes(four_circle_model):
    model = four_circle_model
    delta = peripheral_twist_delta(model, 0, range(4), 3)
    assert delta.is_zero()


def test_peripheral_delta_of_contiguous_subset_is_indicator(four_circle_model):
    model = four_circle_model
    for m in (-2, 1, 3):
        for (k, l) in ((1, 1), (1, 2), (2, 3), (1, 3)):
            delta = peripheral_twist_delta(model, 0, range(k, l + 1), m)
            inside = range(k, l + 1)  # 1-based rows and columns of the ones
            expected = [[m * (r in inside and c in inside) for c in range(1, 4)] for r in range(1, 4)]
            assert delta.block(0) == IntMatrix(expected)


def test_peripheral_delta_zero_exponent(four_circle_model):
    assert peripheral_twist_delta(four_circle_model, 0, [0, 2], 0).is_zero()


def test_peripheral_delta_requires_nonempty_subset(four_circle_model):
    with pytest.raises(ValueError):
        peripheral_twist_delta(four_circle_model, 0, [], 1)


def test_peripheral_class_is_sum_of_circle_classes():
    for config in small_configs():
        for sign in (1, -1):
            model = build_model(config, pairing_sign=sign)
            for j, comp in enumerate(config.components):
                circles = range(comp.boundary_count)
                for size in range(1, comp.boundary_count + 1):
                    for subset in combinations(circles, size):
                        expected = IntVector([0] * model.rank)
                        for i in subset:
                            expected = expected + model.circle_class(j, i)
                        assert peripheral_class(model, j, subset) == expected


def test_peripheral_class_rejects_missing_component(four_circle_model):
    for j in (four_circle_model.n_components, -1):
        with pytest.raises(DimensionMismatch) as info:
            peripheral_class(four_circle_model, j, [1])
        assert str(info.value) == f"no complement component {j}"
    for i in (4, -1):  # a missing circle is circle_class's error
        with pytest.raises(DimensionMismatch, match=f"^component 0 has no circle {i}$"):
            peripheral_class(four_circle_model, 0, [1, i])


def test_peripheral_delta_matches_word(four_circle_model):
    model = four_circle_model
    for subset in ([0, 1], [1], [2, 3], [0, 1, 2], [1, 3]):
        direct = peripheral_twist_delta(model, 0, subset, 2)
        word = TwistWord([TwistFactor(peripheral_class(model, 0, subset), 2, LOCUS_Q)])
        assert delta_difference(model, word).matrix == direct.matrix


def test_realize_zero_gives_empty_word(four_circle_model):
    realized = realize_delta(four_circle_model, delta_difference(four_circle_model, TwistWord()))
    assert len(realized.word) == 0
    assert len(realized.torelli_witness) == 0


def test_realize_single_indicator():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(1, 3)]))
    from torelli.criteria import delta_from_blocks

    delta = delta_from_blocks(model, {0: IntMatrix([[1, 1], [1, 1]])})
    realized = realize_delta(model, delta)
    assert len(realized.word) == 1
    factor = realized.word.factors[0]
    assert factor.exponent == 1
    assert factor.curve_class == model.circle_class(0, 1) + model.circle_class(0, 2)
    assert delta_difference(model, realized.word).matrix == delta.matrix


def test_realized_classes_are_the_peripheral_classes():
    # realize_delta writes each class as one slice and builds the witness
    # lazily; peripheral_class and the eager interleaving are the references.
    rng = random.Random(1313)
    factors = 0
    for config in small_configs():
        for sign in (1, -1):
            model = build_model(config, pairing_sign=sign)
            delta = random_symmetric_reducible_delta(model, rng)
            realized = realize_delta(model, delta)
            assert "torelli_witness" not in realized.__dict__
            intervals = [
                (j, k, l)
                for j, (start, stop) in enumerate(model.block_ranges)
                for (k, l), _ in sym_basis_change(delta.block(j), stop - start).items()
            ]
            assert len(intervals) == len(realized.word)
            eager = []
            for (j, k, l), factor in zip(intervals, realized.word.factors):
                assert factor.curve_class == peripheral_class(model, j, range(k, l + 1))
                eager.append(factor)
                eager.append(TwistFactor(factor.curve_class, -factor.exponent, in_complement(j)))
            assert realized.torelli_witness == TwistWord(eager)
            assert "torelli_witness" in realized.__dict__
            factors += len(intervals)
    assert factors > 500


def test_realize_then_analyze_at_rank_496():
    # q_genus 10 and two genus-0 components of 120 circles: blocks of size 119
    model = build_model(
        SubsurfaceConfig(10, [ComplementComponent(0, 120), ComplementComponent(0, 120)])
    )
    assert model.rank == 496
    rng = random.Random(496)

    def block(size):
        entries = [[0] * size for _ in range(size)]
        for r in range(size):
            for c in range(r, size):
                entries[r][c] = entries[c][r] = rng.choice((-1, 1))
        return IntMatrix(entries, cols=size)

    delta = delta_from_blocks(model, {0: block(119), 1: block(119)})
    word = realize_delta(model, delta).word
    assert len(word) > 8000  # most of the 2 * 7140 interval coefficients are nonzero
    assert analyze(model, word).delta == delta


def test_realization_round_trip_random():
    plan = TrialPlan(seed=31, trials=40)
    rng = random.Random(77)
    for index in range(plan.trials):
        model = build_model(random_config(plan, index))
        delta = random_symmetric_reducible_delta(model, rng)
        realized = realize_delta(model, delta)
        assert delta_difference(model, realized.word).matrix == delta.matrix
        witness = transvection_action(model, realized.torelli_witness)
        assert witness == IntMatrix.identity(model.rank)


def test_multitwist_difference_three_circles():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(1, 3)]))
    m0, m1, m2 = 2, -1, 4
    word = build_boundary_multitwist(model, DiagonalMap([m0, m1, m2]))
    delta = delta_difference(model, word)
    assert delta.block(0) == IntMatrix([[m1 + m0, m0], [m0, m2 + m0]])


def test_multitwist_with_unit_exponents_gives_ones_plus_identity():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 4)]))
    word = build_boundary_multitwist(model, DiagonalMap([1, 1, 1, 1]))
    delta = delta_difference(model, word)
    expected = IntMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert delta.block(0) == expected


def test_multitwist_zero_exponents_trivial(four_circle_model):
    model = four_circle_model
    word = build_boundary_multitwist(model, DiagonalMap([0, 0, 0, 0]))
    assert transvection_action(model, word) == IntMatrix.identity(model.rank)


def test_multitwist_matches_diagonal_restriction_random():
    plan = TrialPlan(seed=41, trials=40)
    rng = random.Random(123)
    for index in range(plan.trials):
        model = build_model(random_config(plan, index))
        exponents = DiagonalMap([rng.randint(-3, 3) for _ in range(model.n_circles)])
        word = build_boundary_multitwist(model, exponents)
        assert (
            delta_difference(model, word).matrix
            == restriction_of_diagonal(model, exponents).matrix
        )
