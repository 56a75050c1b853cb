"""Extension deciders: symmetry, reducibility, diagonal restriction, ranks."""

import pytest

from torelli.criteria import (
    DiagonalMap,
    NotCompletelyReducible,
    analyze,
    decide_extendable,
    decide_extension_by_identity,
    decide_multitwist_correctable,
    delta_from_blocks,
    diagonal_restriction,
    group_ranks,
    guaranteed_correctable,
    is_completely_reducible,
    is_symmetric,
    matrix_presentation,
    restriction_of_diagonal,
)
from torelli.exactlin import IntMatrix, IntVector
from torelli.mapping_class import (
    LOCUS_Q,
    NotWeaklyTorelli,
    TwistFactor,
    TwistWord,
    delta_difference,
    difference_map_from_matrix,
    transvection_action,
    zero_difference_map,
)
from torelli.oracle import TrialPlan, random_config, random_weakly_torelli_word
from torelli.realization import build_boundary_multitwist
from torelli.surface_model import ComplementComponent, SubsurfaceConfig, build_model


@pytest.fixture
def four_circle_model():
    return build_model(SubsurfaceConfig(1, [ComplementComponent(1, 4)]))


@pytest.fixture
def two_component_model():
    return build_model(SubsurfaceConfig(0, [ComplementComponent(0, 2), ComplementComponent(0, 2)]))


def peripheral_word(model, m):
    cls = model.circle_class(0, 0) + model.circle_class(0, 1)
    return TwistWord([TwistFactor(cls, m, LOCUS_Q)])


def test_zero_map_is_symmetric(four_circle_model):
    assert is_symmetric(four_circle_model, zero_difference_map(four_circle_model))


def test_extracted_deltas_are_symmetric():
    plan = TrialPlan(seed=3, trials=40)
    for index in range(plan.trials):
        model = build_model(random_config(plan, index))
        word = random_weakly_torelli_word(model, plan, index)
        assert is_symmetric(model, delta_difference(model, word))


def test_asymmetric_matrix_detected():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 3)]))
    delta = difference_map_from_matrix(model, IntMatrix([[0, 1], [0, 0]]))
    assert not is_symmetric(model, delta)


def test_pairing_symmetry_equals_matrix_symmetry():
    # The two-point and circle bases are dual under the induced pairing, so
    # the pairing identity must coincide with literal matrix symmetry.
    import random

    rng = random.Random(55)
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 3), ComplementComponent(1, 3)]))
    k = model.k0_rank
    for _ in range(60):
        matrix = IntMatrix(
            ([rng.randint(-3, 3) for _ in range(k)] for _ in range(k)), cols=k
        )
        delta = difference_map_from_matrix(model, matrix)
        units = [IntVector.unit(k, i) for i in range(k)]
        pairing_symmetric = all(
            model.induced_pairing(a, matrix.apply(b)) == model.induced_pairing(b, matrix.apply(a))
            for a in units
            for b in units
        )
        assert is_symmetric(model, delta) == pairing_symmetric == (matrix == matrix.transpose())


def test_single_component_always_reducible(four_circle_model):
    model = four_circle_model
    delta = difference_map_from_matrix(
        model, IntMatrix([[1, 2, 0], [2, 0, 1], [0, 1, 5]])
    )
    assert is_completely_reducible(model, delta)


def test_cross_component_entry_detected(two_component_model):
    model = two_component_model
    delta = difference_map_from_matrix(model, IntMatrix([[0, 1], [0, 0]]))
    assert not is_completely_reducible(model, delta)
    assert not decide_extendable_on_delta(model, delta)


def decide_extendable_on_delta(model, delta):
    # deciders consume only the weakly-Torelli flag and the difference map
    return is_completely_reducible(model, delta)


def test_blockwise_word_reducible(two_component_model):
    model = two_component_model
    word = TwistWord(
        [
            TwistFactor(model.circle_class(0, 1), 2, LOCUS_Q),
            TwistFactor(model.circle_class(1, 0), -1, LOCUS_Q),
        ]
    )
    assert is_completely_reducible(model, delta_difference(model, word))


def test_matrix_presentation_values(four_circle_model):
    model = four_circle_model
    assert matrix_presentation(model, zero_difference_map(model), 0) == IntMatrix.zeros(3, 3)
    delta = delta_difference(model, peripheral_word(model, 1))
    assert matrix_presentation(model, delta, 0) == IntMatrix([[0, 0, 0], [0, 1, 1], [0, 1, 1]])


def test_matrix_presentation_requires_reducible(two_component_model):
    model = two_component_model
    delta = difference_map_from_matrix(model, IntMatrix([[0, 1], [1, 0]]))
    with pytest.raises(NotCompletelyReducible):
        matrix_presentation(model, delta, 0)


def test_diagonal_restriction_of_zero(four_circle_model):
    model = four_circle_model
    restriction = diagonal_restriction(model, zero_difference_map(model))
    assert restriction == DiagonalMap([0, 0, 0, 0])


def test_diagonal_restriction_blocked_by_four_circles(four_circle_model):
    model = four_circle_model
    delta = delta_difference(model, peripheral_word(model, 1))
    assert diagonal_restriction(model, delta) is None


def test_diagonal_restriction_three_circles_unique():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(1, 3)]))
    m1, m, m2 = 4, -2, 7
    delta = delta_from_blocks(model, {0: IntMatrix([[m1, m], [m, m2]])})
    restriction = diagonal_restriction(model, delta)
    assert restriction is not None
    n0, n1, n2 = restriction.exponents
    assert (n0, n1, n2) == (m, m1 - m, m2 - m)
    assert restriction_of_diagonal(model, restriction).matrix == delta.matrix


def test_diagonal_restriction_round_trip_random():
    import random

    rng = random.Random(9)
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 3), ComplementComponent(1, 2)]))
    for _ in range(50):
        exponents = DiagonalMap([rng.randint(-4, 4) for _ in range(model.n_circles)])
        delta = restriction_of_diagonal(model, exponents)
        recovered = diagonal_restriction(model, delta)
        assert recovered is not None
        assert restriction_of_diagonal(model, recovered).matrix == delta.matrix


def test_canonical_representative_for_two_circles():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(1, 2)]))
    delta = delta_from_blocks(model, {0: IntMatrix([[5]])})
    restriction = diagonal_restriction(model, delta)
    assert restriction == DiagonalMap([0, 5])


def test_extension_by_identity_decider(four_circle_model):
    model = four_circle_model
    assert decide_extension_by_identity(model, TwistWord())
    assert not decide_extension_by_identity(model, peripheral_word(model, 1))
    full_boundary = TwistWord(
        [TwistFactor(sum_circles(model, 0), 3, LOCUS_Q)]
    )
    assert decide_extension_by_identity(model, full_boundary)


def sum_circles(model, j):
    total = IntVector.zeros(model.rank)
    for i in range(model.config.components[j].boundary_count):
        total = total + model.circle_class(j, i)
    return total


def test_extension_by_identity_equals_trivial_action():
    plan = TrialPlan(seed=17, trials=50)
    for index in range(plan.trials):
        model = build_model(random_config(plan, index))
        word = random_weakly_torelli_word(model, plan, index)
        decided = decide_extension_by_identity(model, word)
        assert decided == (transvection_action(model, word) == IntMatrix.identity(model.rank))


def test_extendable_decider(four_circle_model):
    model = four_circle_model
    assert decide_extendable(model, peripheral_word(model, 1))
    assert decide_extendable(model, TwistWord())


def test_correctable_decider(four_circle_model):
    model = four_circle_model
    assert decide_multitwist_correctable(model, TwistWord()) == DiagonalMap([0, 0, 0, 0])
    assert decide_multitwist_correctable(model, peripheral_word(model, 1)) is None
    qa_word = TwistWord([TwistFactor(model.basis_vector(("qa", 0)), 1, LOCUS_Q)])
    with pytest.raises(NotWeaklyTorelli):
        decide_multitwist_correctable(model, qa_word)


def test_correctable_round_trip_on_multitwist(four_circle_model):
    model = four_circle_model
    exponents = DiagonalMap([2, -1, 0, 3])
    word = build_boundary_multitwist(model, exponents)
    correction = decide_multitwist_correctable(model, word)
    assert correction is not None
    from torelli.mapping_class import concat

    corrected = concat(build_boundary_multitwist(model, correction), word)
    assert transvection_action(model, corrected) == IntMatrix.identity(model.rank)


def test_guaranteed_correctable():
    assert guaranteed_correctable(
        SubsurfaceConfig(0, [ComplementComponent(0, 1), ComplementComponent(2, 3)])
    )
    assert not guaranteed_correctable(SubsurfaceConfig(0, [ComplementComponent(0, 4)]))
    assert guaranteed_correctable(SubsurfaceConfig(0, [ComplementComponent(0, 1)]))


def test_group_ranks():
    assert group_ranks(SubsurfaceConfig(0, [ComplementComponent(0, 4)])) == {
        "rank_K0": 3,
        "rank_H1bar": 3,
        "rank_Dc": 6,
    }
    assert group_ranks(
        SubsurfaceConfig(1, [ComplementComponent(0, 1), ComplementComponent(2, 1)])
    ) == {"rank_K0": 0, "rank_H1bar": 0, "rank_Dc": 0}
    assert group_ranks(
        SubsurfaceConfig(0, [ComplementComponent(0, 3), ComplementComponent(0, 2)])
    ) == {"rank_K0": 3, "rank_H1bar": 3, "rank_Dc": 4}


def test_report_fields_and_implications():
    plan = TrialPlan(seed=23, trials=40)
    expected_fields = {
        "weakly_torelli",
        "delta",
        "symmetric",
        "completely_reducible",
        "extension_by_identity_torelli",
        "extendable_to_torelli",
        "multitwist_correctable",
        "component_matrices",
    }
    for index in range(plan.trials):
        model = build_model(random_config(plan, index))
        word = random_weakly_torelli_word(model, plan, index)
        report = analyze(model, word)
        data = report.to_json_dict()
        assert set(data.keys()) == expected_fields
        if report.extension_by_identity_torelli:
            assert report.extendable_to_torelli
        if report.extendable_to_torelli:
            assert report.weakly_torelli
        if report.multitwist_correctable is not None:
            assert report.extendable_to_torelli


def test_report_for_non_weakly_torelli_word(four_circle_model):
    model = four_circle_model
    word = TwistWord([TwistFactor(model.basis_vector(("qa", 0)), 1, LOCUS_Q)])
    report = analyze(model, word)
    assert not report.weakly_torelli
    assert report.delta is None
    assert not report.extendable_to_torelli
    assert report.multitwist_correctable is None
    assert report.component_matrices is None


def test_diagonal_map_exponents_must_be_integers():
    assert DiagonalMap([True, 2]).exponents == (1, 2)
    for bad in (2.7, 3.0, "3"):
        with pytest.raises(TypeError):
            DiagonalMap([0, bad])
