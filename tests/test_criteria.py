"""Extension deciders: symmetry, reducibility, diagonal restriction, ranks,
and the report whose verdicts are views of one difference map."""

import random

import pytest

from torelli import criteria
from torelli.criteria import (
    AnalysisReport,
    DiagonalMap,
    NotCompletelyReducible,
    analyze,
    decide_extendable,
    decide_extension_by_identity,
    decide_multitwist_correctable,
    delta_from_blocks,
    group_ranks,
    guaranteed_correctable,
    is_completely_reducible,
    is_symmetric,
)
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector
from torelli.mapping_class import (
    LOCUS_Q,
    DifferenceMap,
    NotWeaklyTorelli,
    TwistFactor,
    TwistWord,
    delta_difference,
    transvection_action,
)
from torelli.oracle import TrialPlan, random_config, random_weakly_torelli_word
from torelli.realization import build_boundary_multitwist, realize_delta
from torelli.reference import restriction_of_diagonal
from torelli.surface_model import ComplementComponent, SubsurfaceConfig, build_model

from test_surface_model import basis_vector, circle_index, induced_pairing, reduced_index


def zero_difference_map(model):
    k = model.k0_rank
    return DifferenceMap(IntMatrix([[0] * k] * k, cols=k), model.block_ranges)


@pytest.fixture
def four_circle_model():
    return build_model(SubsurfaceConfig(1, [ComplementComponent(1, 4)]))


@pytest.fixture
def two_component_model():
    return build_model(SubsurfaceConfig(0, [ComplementComponent(0, 2), ComplementComponent(0, 2)]))


def diagonal_solution(delta):
    """The diagonal map restricting to ``delta``, or None: the report's
    correcting multi-twist, negated."""
    correction = AnalysisReport(delta).multitwist_correctable
    return None if correction is None else -correction


def peripheral_word(model, m):
    cls = model.circle_class(0, 0) + model.circle_class(0, 1)
    return TwistWord([TwistFactor(cls, m, LOCUS_Q)])


def test_zero_map_is_symmetric(four_circle_model):
    assert is_symmetric(zero_difference_map(four_circle_model))


def test_extracted_deltas_are_symmetric():
    plan = TrialPlan(seed=3, trials=40)
    for index in range(plan.trials):
        model = build_model(random_config(plan, index))
        word = random_weakly_torelli_word(model, plan, index)
        assert is_symmetric(delta_difference(model, word))


def test_asymmetric_matrix_detected():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 3)]))
    delta = DifferenceMap(IntMatrix([[0, 1], [0, 0]]), model.block_ranges)
    assert not is_symmetric(delta)


def test_symmetry_test_matches_matrix_transpose():
    # Seeded matrices, half of them symmetrized and some of those broken in
    # one entry, against the definition M == M^T.
    rng = random.Random(808)
    outcomes = set()
    for k in range(5):
        model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, k + 1)]))
        for trial in range(30):
            entries = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            if trial % 2:
                entries = [[entries[min(r, c)][max(r, c)] for c in range(k)] for r in range(k)]
                if k and trial % 3 == 0:
                    entries[rng.randrange(k)][rng.randrange(k)] += 1
            matrix = IntMatrix(entries, cols=k)
            expected = matrix == matrix.transpose()
            assert is_symmetric(DifferenceMap(matrix, model.block_ranges)) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


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
        delta = DifferenceMap(matrix, model.block_ranges)
        units = [IntVector.unit(k, i) for i in range(k)]
        pairing_symmetric = all(
            induced_pairing(model, a, matrix.apply(b)) == induced_pairing(model, b, matrix.apply(a))
            for a in units
            for b in units
        )
        assert is_symmetric(delta) == pairing_symmetric == (matrix == matrix.transpose())


def test_single_component_always_reducible(four_circle_model):
    model = four_circle_model
    delta = DifferenceMap(IntMatrix([[1, 2, 0], [2, 0, 1], [0, 1, 5]]), model.block_ranges)
    assert is_completely_reducible(delta)


def test_cross_component_entry_detected(two_component_model):
    model = two_component_model
    delta = DifferenceMap(IntMatrix([[0, 1], [0, 0]]), model.block_ranges)
    assert not is_completely_reducible(delta)
    assert not AnalysisReport(delta).extendable_to_torelli


def test_blockwise_word_reducible(two_component_model):
    model = two_component_model
    word = TwistWord(
        [
            TwistFactor(model.circle_class(0, 1), 2, LOCUS_Q),
            TwistFactor(model.circle_class(1, 0), -1, LOCUS_Q),
        ]
    )
    assert is_completely_reducible(delta_difference(model, word))


def test_component_matrices_values(four_circle_model):
    model = four_circle_model
    assert AnalysisReport(zero_difference_map(model)).component_matrices == (IntMatrix([[0] * 3] * 3),)
    delta = delta_difference(model, peripheral_word(model, 1))
    assert AnalysisReport(delta).component_matrices == (IntMatrix([[0, 0, 0], [0, 1, 1], [0, 1, 1]]),)


def test_map_from_another_configuration_is_rejected():
    """A map built on A's blocks has B's size but not B's blocks.  The map
    checks read the map's own blocks, and realize_delta, the one entry point
    that reads a map against a model, raises rather than reading it on B."""
    a = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 3), ComplementComponent(0, 2)]))
    b = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 2), ComplementComponent(0, 3)]))
    delta = DifferenceMap(IntMatrix([[1, 0, 0], [0, 2, 3], [0, 3, 4]]), a.block_ranges)
    assert is_symmetric(delta) and not is_completely_reducible(delta)
    with pytest.raises(NotCompletelyReducible):
        realize_delta(a, delta)
    with pytest.raises(DimensionMismatch, match="another configuration"):
        realize_delta(b, delta)
    with pytest.raises(DimensionMismatch, match="difference map must be 3x3"):
        DifferenceMap(IntMatrix([[1, 0], [0, 1]]), ((0, 3),))


def test_component_matrices_require_reducible(two_component_model):
    model = two_component_model
    report = AnalysisReport(DifferenceMap(IntMatrix([[0, 1], [1, 0]]), model.block_ranges))
    assert report.symmetric and not report.completely_reducible
    assert report.component_matrices is None and report.multitwist_correctable is None


def test_diagonal_restriction_of_zero(four_circle_model):
    model = four_circle_model
    restriction = diagonal_solution(zero_difference_map(model))
    assert restriction == DiagonalMap([0, 0, 0, 0])


def test_diagonal_restriction_blocked_by_four_circles(four_circle_model):
    model = four_circle_model
    delta = delta_difference(model, peripheral_word(model, 1))
    assert AnalysisReport(delta).multitwist_correctable is None


def test_diagonal_restriction_three_circles_unique():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(1, 3)]))
    m1, m, m2 = 4, -2, 7
    delta = delta_from_blocks(model, {0: IntMatrix([[m1, m], [m, m2]])})
    restriction = diagonal_solution(delta)
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
        recovered = diagonal_solution(delta)
        assert recovered is not None
        assert restriction_of_diagonal(model, recovered).matrix == delta.matrix


def test_canonical_representative_for_two_circles():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(1, 2)]))
    delta = delta_from_blocks(model, {0: IntMatrix([[5]])})
    restriction = diagonal_solution(delta)
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
    total = IntVector([0] * model.rank)
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
    qa_word = TwistWord([TwistFactor(basis_vector(model, ("qa", 0)), 1, LOCUS_Q)])
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
    word = TwistWord([TwistFactor(basis_vector(model, ("qa", 0)), 1, LOCUS_Q)])
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


def test_block_range_is_checked(two_component_model):
    model = two_component_model
    delta = DifferenceMap(IntMatrix([[1, 0], [0, 2]]), model.block_ranges)
    assert [delta.block(j) for j in range(2)] == [IntMatrix([[1]]), IntMatrix([[2]])]
    for j in (-1, model.n_components):
        with pytest.raises(DimensionMismatch, match=f"no complement component {j}"):
            delta.block(j)


def counted_reducibility_tests(monkeypatch):
    """The list that collects one entry per call of is_completely_reducible."""
    calls = []
    original = criteria.is_completely_reducible

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(criteria, "is_completely_reducible", counted)
    return calls


def test_analyze_tests_reducibility_once(monkeypatch, two_component_model):
    model = two_component_model
    calls = counted_reducibility_tests(monkeypatch)
    word = build_boundary_multitwist(model, DiagonalMap([1, 0, 0, 2]))
    report = analyze(model, word)
    assert report.weakly_torelli and report.extendable_to_torelli
    assert report.multitwist_correctable is not None
    assert len(calls) == 1


def test_each_decider_computes_only_its_verdict(monkeypatch, two_component_model):
    model = two_component_model
    calls = counted_reducibility_tests(monkeypatch)
    word = build_boundary_multitwist(model, DiagonalMap([1, 0, 0, 2]))
    assert not decide_extension_by_identity(model, word)
    assert calls == []
    assert decide_extendable(model, word)
    assert len(calls) == 1


def test_a_report_is_its_difference_map(two_component_model):
    model = two_component_model
    assert AnalysisReport._fields == ("delta",)
    word = build_boundary_multitwist(model, DiagonalMap([1, 0, 0, 2]))
    report = analyze(model, word)
    assert vars(report) == {"delta": delta_difference(model, word)}  # no verdict is computed yet
    assert AnalysisReport(None).to_json_dict() == {
        "weakly_torelli": False,
        "delta": None,
        "symmetric": False,
        "completely_reducible": False,
        "extension_by_identity_torelli": False,
        "extendable_to_torelli": False,
        "multitwist_correctable": None,
        "component_matrices": None,
    }


def test_blocks_read_the_same_in_every_place():
    """A block is placed in the map as given, so non-symmetric blocks come
    back unchanged as the report's component matrices."""
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 3), ComplementComponent(1, 4)]))
    blocks = {0: IntMatrix([[1, 2], [0, -1]]), 1: IntMatrix([[0, 1, 0], [3, 0, 0], [0, -2, 5]])}
    delta = delta_from_blocks(model, blocks)
    for j, block in blocks.items():
        start, stop = model.block_ranges[j]
        assert [row[start:stop] for row in delta.matrix.entries[start:stop]] == list(block.entries)
    report = AnalysisReport(delta)
    assert not report.symmetric and report.completely_reducible
    assert report.component_matrices == (blocks[0], blocks[1])


# -- entry-wise reference for the block readers --------------------------------
# The report's views read the map through block_ranges slices.  These are the
# entry-by-entry definitions they replace: component labels for
# reducibility, and per-entry circle_index loops for the diagonal readers.


def reference_reducible(model, delta):
    component = [j for j, _ in model.reduced_order]
    k = model.k0_rank
    return all(
        component[r] == component[c] for r in range(k) for c in range(k) if delta.matrix[r, c]
    )


def reference_block(model, delta, j):
    n = model.config.components[j].boundary_count
    pos = [reduced_index(model, j, i) for i in range(1, n)]
    return [[delta.matrix[r, c] for c in pos] for r in pos]


def reference_diagonal_restriction(model, delta):
    if not reference_reducible(model, delta):
        return None
    exponents = [0] * model.n_circles
    for j, comp in enumerate(model.config.components):
        block = reference_block(model, delta, j)
        size = comp.boundary_count - 1
        if size == 0:
            continue
        base = block[0][1] if size > 1 else 0
        for r in range(size):
            for c in range(size):
                if r != c and block[r][c] != base:
                    return None
        exponents[circle_index(model, j, 0)] = base
        for i in range(1, comp.boundary_count):
            exponents[circle_index(model, j, i)] = block[i - 1][i - 1] - base
    return exponents


def reference_restriction_of_diagonal(model, exponents):
    k = model.k0_rank
    matrix = [[0] * k for _ in range(k)]
    for col, (j, i) in enumerate(model.reduced_order):
        base = exponents[circle_index(model, j, 0)]
        for row, (j2, i2) in enumerate(model.reduced_order):
            if j2 == j:
                matrix[row][col] = base + (exponents[circle_index(model, j, i)] if i2 == i else 0)
    return matrix


# Components of 1, 2, 3 and 4-5 circles, alone and side by side.
REFERENCE_CONFIGS = (
    SubsurfaceConfig(
        1,
        [
            ComplementComponent(0, 1),
            ComplementComponent(1, 2),
            ComplementComponent(0, 3),
            ComplementComponent(1, 4),
        ],
    ),
    SubsurfaceConfig(0, [ComplementComponent(0, 5), ComplementComponent(0, 1)]),
    SubsurfaceConfig(2, [ComplementComponent(1, 3)]),
    SubsurfaceConfig(0, [ComplementComponent(0, 2), ComplementComponent(0, 2), ComplementComponent(0, 4)]),
)


def reference_maps(model, rng):
    """Seeded maps of every shape the readers meet: restrictions of
    diagonal maps, dense maps (cross-block entries), their block-diagonal
    parts with and without one stray entry, and symmetrized parts."""
    k = model.k0_rank
    same_component = [[r[0] == c[0] for c in model.reduced_order] for r in model.reduced_order]
    for _ in range(12):
        exponents = [rng.randint(-4, 4) for _ in range(model.n_circles)]
        yield reference_restriction_of_diagonal(model, exponents)
        dense = [[rng.choice((0, 0, 1, -2)) for _ in range(k)] for _ in range(k)]
        yield dense
        block_diagonal = [
            [x if keep else 0 for x, keep in zip(row, mask)] for row, mask in zip(dense, same_component)
        ]
        yield block_diagonal
        r, c = rng.randrange(k), rng.randrange(k)
        stray = [list(row) for row in block_diagonal]
        stray[r][c] += 1
        yield stray
        yield [[x + y for x, y in zip(row, col)] for row, col in zip(block_diagonal, zip(*block_diagonal))]


def test_block_readers_match_entrywise_reference():
    import random

    rng = random.Random(20)
    for config in REFERENCE_CONFIGS:
        model = build_model(config)
        for _ in range(12):
            exponents = [rng.randint(-4, 4) for _ in range(model.n_circles)]
            expected = reference_restriction_of_diagonal(model, exponents)
            assert restriction_of_diagonal(model, DiagonalMap(exponents)).matrix.to_lists() == expected
        for matrix in reference_maps(model, rng):
            delta = DifferenceMap(IntMatrix(matrix, cols=model.k0_rank), model.block_ranges)
            report = AnalysisReport(delta)
            reducible = reference_reducible(model, delta)
            assert report.weakly_torelli
            assert report.symmetric == all(row == list(col) for row, col in zip(matrix, zip(*matrix)))
            assert report.completely_reducible == report.extendable_to_torelli == reducible
            assert report.extension_by_identity_torelli == (not any(map(any, matrix)))
            correction = report.multitwist_correctable
            expected = reference_diagonal_restriction(model, delta)
            assert (None if correction is None else [-e for e in correction.exponents]) == expected
            if reducible:
                blocks = [reference_block(model, delta, j) for j in range(model.n_components)]
                assert [m.to_lists() for m in report.component_matrices] == blocks
            else:
                assert report.component_matrices is None


def test_analyze_matches_entrywise_reference():
    import random

    rng = random.Random(21)
    for config in REFERENCE_CONFIGS:
        for sign in (1, -1):
            model = build_model(config, pairing_sign=sign)
            n = model.n_circles
            words = [
                build_boundary_multitwist(model, DiagonalMap([rng.randint(-3, 3) for _ in range(n)]))
                for _ in range(4)
            ]
            for _ in range(6):  # twists about sums of circles, often across components
                circles = [
                    model.circle_class(j, i) for j, i in model.circle_order if rng.random() < 0.4
                ]
                if circles:
                    cls = sum(circles[1:], circles[0])
                    words.append(TwistWord([TwistFactor(cls, rng.choice((-2, 1, 3)), LOCUS_Q)]))
            for word in words:
                report = analyze(model, word)
                delta = report.delta
                assert report.weakly_torelli
                reducible = reference_reducible(model, delta)
                assert report.completely_reducible == report.extendable_to_torelli == reducible
                expected = reference_diagonal_restriction(model, delta)
                correction = report.multitwist_correctable
                assert (None if correction is None else [-e for e in correction.exponents]) == expected
                if reducible:
                    blocks = [reference_block(model, delta, j) for j in range(model.n_components)]
                    assert [m.to_lists() for m in report.component_matrices] == blocks
                else:
                    assert report.component_matrices is None
