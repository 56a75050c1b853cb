"""Transvection action, weakly Torelli detection, and difference maps."""

import ast
import inspect
import random
import textwrap
from dataclasses import FrozenInstanceError
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torelli import mapping_class, realization
from torelli.criteria import (
    DiagonalMap,
    NotSymmetric,
    analyze,
    decide_multitwist_correctable,
    delta_from_blocks,
    is_completely_reducible,
)
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector
from torelli.mapping_class import (
    LOCUS_AMBIENT,
    LOCUS_Q,
    LocusViolation,
    NotWeaklyTorelli,
    _check_locus,
    TwistFactor,
    TwistWord,
    _dense,
    _displacements,
    concat,
    delta_difference,
    in_complement,
    invert,
    is_weakly_torelli,
    transvection_action,
    weakly_torelli_delta,
    word_from_json_dict,
    word_to_json_dict,
)
from torelli.oracle import (
    TrialPlan,
    random_bounding_pair_product,
    random_config,
    random_symmetric_reducible_delta,
    random_weakly_torelli_word,
    verify_all,
)
from torelli.realization import build_boundary_multitwist, realize_delta
from torelli.reference import solve_integer
from torelli.surface_model import ComplementComponent, SubsurfaceConfig, build_model

from linetrace import missed_lines
from test_surface_model import basis_vector, label_index, reference_views, small_configs


@pytest.fixture
def four_circle_model():
    return build_model(SubsurfaceConfig(1, [ComplementComponent(1, 4)]))


def test_empty_word_acts_trivially(four_circle_model):
    model = four_circle_model
    assert transvection_action(model, TwistWord()) == IntMatrix.identity(model.rank)


def test_single_transvection_displacement(four_circle_model):
    model = four_circle_model
    z = basis_vector(model, ("qb", 0))
    word = TwistWord([TwistFactor(z, 2, LOCUS_Q)])
    action = transvection_action(model, word)
    a = basis_vector(model, ("qa", 0))
    assert sum(map(mul, a, model.intersection_form.apply(z))) == 1
    assert action.apply(a) == a + 2 * z


def test_word_times_formal_inverse_is_identity(four_circle_model):
    model = four_circle_model
    word = TwistWord(
        [
            TwistFactor(basis_vector(model, ("qa", 0)), 2, LOCUS_Q),
            TwistFactor(model.circle_class(0, 1) + model.circle_class(0, 2), -1, LOCUS_Q),
            TwistFactor(basis_vector(model, ("qb", 0)), 3, LOCUS_Q),
        ]
    )
    assert transvection_action(model, concat(word, invert(word))) == IntMatrix.identity(model.rank)
    assert transvection_action(model, concat(invert(word), word)) == IntMatrix.identity(model.rank)


def test_action_is_symplectic(four_circle_model):
    model = four_circle_model
    J = model.intersection_form
    word = TwistWord(
        [
            TwistFactor(IntVector([1, -2, 0, 3, 1, 0, 0, 2, -1, 1]), 2, LOCUS_AMBIENT),
            TwistFactor(IntVector([0, 1, 1, 0, -1, 2, 0, 0, 1, 0]), -3, LOCUS_AMBIENT),
        ]
    )
    action = transvection_action(model, word)
    assert action.transpose() * J * action == J


def test_locus_violations(four_circle_model):
    model = four_circle_model
    dual = basis_vector(model, ("dual", 0, 1))
    with pytest.raises(LocusViolation):
        transvection_action(model, TwistWord([TwistFactor(dual, 1, LOCUS_Q)]))
    qa = basis_vector(model, ("qa", 0))
    with pytest.raises(LocusViolation):
        transvection_action(model, TwistWord([TwistFactor(qa, 1, in_complement(0))]))
    phandle = basis_vector(model, ("pa", 0, 0))
    # complement handles are fine in their own component, not in the subsurface
    transvection_action(model, TwistWord([TwistFactor(phandle, 1, in_complement(0))]))
    with pytest.raises(LocusViolation):
        transvection_action(model, TwistWord([TwistFactor(phandle, 1, LOCUS_Q)]))


def _without_zero_steps(word):
    return TwistWord([factor for factor in word.factors if factor.exponent])


@pytest.mark.parametrize("pairing_sign", [1, -1])
def test_zero_exponent_factors_act_as_the_identity(pairing_sign):
    plan, rng = TrialPlan(seed=30, trials=8), random.Random(30 * pairing_sign)
    counts = {"zero_factors": 0, "all_zero": 0, "zero_corrections": 0}
    for index in range(plan.trials):
        model = build_model(random_config(plan, index), pairing_sign=pairing_sign)
        seeded = random_weakly_torelli_word(model, plan, index)
        ambient = TwistWord(
            TwistFactor(IntVector(rng.randint(-2, 2) for _ in range(model.rank)), rng.randint(-1, 1), LOCUS_AMBIENT)
            for _ in range(4)
        )
        all_zero = TwistWord([TwistFactor(f.curve_class, 0, f.locus) for f in concat(ambient, seeded).factors])
        words = [seeded, ambient, concat(ambient, seeded), all_zero]
        correction = decide_multitwist_correctable(model, seeded)
        if correction is not None:
            words.append(concat(build_boundary_multitwist(model, correction), seeded))
            counts["zero_corrections"] += 0 in correction.exponents
            assert transvection_action(model, words[-1]) == IntMatrix.identity(model.rank)
        for word in words:
            assert transvection_action(model, word) == transvection_action(model, _without_zero_steps(word))
            counts["zero_factors"] += sum(m == 0 for _, m, _ in word.table)
        assert transvection_action(model, all_zero) == IntMatrix.identity(model.rank)
        counts["all_zero"] += len(all_zero) > 0
    assert min(counts.values()) > 0, counts


def test_zero_exponent_factors_are_still_checked(four_circle_model):
    model = four_circle_model
    fine = [TwistFactor(basis_vector(model, ("qa", 0)), 1, LOCUS_Q), TwistFactor(model.circle_class(0, 1), 0, LOCUS_Q)]
    phandle = TwistFactor(basis_vector(model, ("pa", 0, 0)), 0, LOCUS_Q)
    message = r"^factor 2: class meets basis index 2 \(a_\{0,0\}\), outside the subsurface image$"
    with pytest.raises(LocusViolation, match=message):
        transvection_action(model, TwistWord(fine + [phandle]))
    short = TwistFactor(IntVector([0] * (model.rank - 1)), 0, LOCUS_Q)
    message = f"^factor 0: class has length {model.rank - 1}, model rank is {model.rank}$"
    with pytest.raises(DimensionMismatch, match=message):
        transvection_action(model, TwistWord([short, short]))


def _identity_seeded_product(model, word):
    """The reference action as it stood: the product starts at the identity
    and takes I + z (m J z)^T for each factor with a nonzero exponent."""
    identity = result = IntMatrix.identity(model.rank)
    for factor in word.factors:
        if factor.exponent:
            mjz = factor.exponent * model.intersection_form.apply(factor.curve_class)
            result = result * (identity + IntMatrix([[x * y for y in mjz] for x in factor.curve_class]))
    return result


@pytest.mark.parametrize("pairing_sign", [1, -1])
def test_reference_action_matches_the_identity_seeded_product(pairing_sign):
    plan, rng = TrialPlan(seed=33, trials=6), random.Random(33 * pairing_sign)
    acting = 0
    for index in range(plan.trials):
        model = build_model(random_config(plan, index), pairing_sign=pairing_sign)

        def ambient(length, exponents=(-2, -1, 1, 2)):
            return [TwistFactor(IntVector(rng.randint(-2, 2) for _ in range(model.rank)), rng.choice(exponents),
                                LOCUS_AMBIENT) for _ in range(length)]

        inner, ends = ambient(3), ambient(2, exponents=(0,))
        words = [
            TwistWord(),
            TwistWord(ambient(3, exponents=(0,))),
            TwistWord(ambient(1)),
            TwistWord(ends[:1] + inner + ends[1:]),  # the seed is the second factor's step
            TwistWord(ambient(5, exponents=range(-2, 3))),
            random_weakly_torelli_word(model, plan, index),
            random_weakly_torelli_word(model, plan, plan.trials + index),
        ]
        for word in words:
            expected = _identity_seeded_product(model, word)
            assert transvection_action(model, word) == expected
            acting += expected != IntMatrix.identity(model.rank)
    assert acting >= 4 * plan.trials


def test_weakly_torelli_examples(four_circle_model):
    model = four_circle_model
    assert is_weakly_torelli(model, TwistWord())
    peripheral = model.circle_class(0, 0) + model.circle_class(0, 1)
    assert is_weakly_torelli(model, TwistWord([TwistFactor(peripheral, 1, LOCUS_Q)]))
    qa = basis_vector(model, ("qa", 0))
    assert not is_weakly_torelli(model, TwistWord([TwistFactor(qa, 1, LOCUS_Q)]))


def test_weakly_torelli_requires_subsurface_locus(four_circle_model):
    model = four_circle_model
    word = TwistWord([TwistFactor(model.circle_class(0, 1), 1, LOCUS_AMBIENT)])
    with pytest.raises(LocusViolation):
        is_weakly_torelli(model, word)


@pytest.mark.parametrize(
    "bad, message",
    [
        (
            ("out of Q", "P locus"),
            "factor 1: class meets basis index 8 (dual of circle (0, 2)), outside the subsurface image",
        ),
        (("P locus", "out of Q"), 'factor 1: locus must be "Q", got {"P": 0}'),
    ],
)
def test_first_bad_factor_is_reported(four_circle_model, bad, message):
    # A circle-block factor leads, so the walk has added a term before it meets the bad ones.
    model = four_circle_model
    circle = model.circle_class(0, 1)
    kinds = {
        "out of Q": TwistFactor(basis_vector(model, ("dual", 0, 2)), 1, LOCUS_Q),
        "P locus": TwistFactor(circle, 1, in_complement(0)),
    }
    word = TwistWord([TwistFactor(circle, 2, LOCUS_Q), *(kinds[kind] for kind in bad)])
    with pytest.raises(LocusViolation) as info:
        analyze(model, word)
    assert str(info.value) == message


def test_delta_of_empty_word_is_zero(four_circle_model):
    model = four_circle_model
    delta = delta_difference(model, TwistWord())
    assert delta.is_zero()
    assert delta.matrix.rows == model.k0_rank


def test_delta_of_peripheral_twist_matches_expected(four_circle_model):
    model = four_circle_model
    for m in (1, 2, 5):
        cls = model.circle_class(0, 0) + model.circle_class(0, 1)
        word = TwistWord([TwistFactor(cls, m, LOCUS_Q)])
        delta = delta_difference(model, word)
        assert delta.matrix == IntMatrix([[0, 0, 0], [0, m, m], [0, m, m]])


def test_delta_rejects_non_weakly_torelli(four_circle_model):
    model = four_circle_model
    word = TwistWord([TwistFactor(basis_vector(model, ("qa", 0)), 1, LOCUS_Q)])
    with pytest.raises(NotWeaklyTorelli):
        delta_difference(model, word)


def test_delta_additivity_and_inverse_on_random_words():
    plan = TrialPlan(seed=11, trials=60)
    for index in range(plan.trials):
        model = build_model(random_config(plan, index))
        w1 = random_weakly_torelli_word(model, plan, 2 * index)
        w2 = random_weakly_torelli_word(model, plan, 2 * index + 1)
        d1 = delta_difference(model, w1)
        d2 = delta_difference(model, w2)
        assert delta_difference(model, concat(w1, w2)).matrix == (d1 + d2).matrix
        assert delta_difference(model, invert(w1)).matrix == (-d1).matrix


def test_delta_depends_only_on_boundary(four_circle_model):
    model = four_circle_model
    plan = TrialPlan(seed=5, trials=1)
    word = random_weakly_torelli_word(model, plan, 0)
    action = transvection_action(model, word)
    a = basis_vector(model, ("dual", 0, 1)) + 2 * basis_vector(model, ("qa", 0))
    a2 = a + model.circle_class(0, 2) - 3 * basis_vector(model, ("pb", 0, 0))
    assert model.boundary_matrix.apply(a) == model.boundary_matrix.apply(a2)
    r1 = model.h1bar_from_ambient(action.apply(a) - a)
    r2 = model.h1bar_from_ambient(action.apply(a2) - a2)
    assert r1 == r2


def test_residuals_in_circle_span_iff_weakly_torelli():
    # Converse consistency: displacements of every basis class staying in
    # the circle span is exactly the weakly Torelli condition, so the two
    # detection routes inside delta extraction can never disagree.
    import random

    model = build_model(SubsurfaceConfig(2, [ComplementComponent(0, 3)]))
    rng = random.Random(321)
    q_columns = list(map(IntVector, reference_views(model)["q_image"].transpose().entries))
    for _ in range(80):
        factors = []
        for _ in range(rng.randint(1, 3)):
            cls = IntVector([0] * model.rank)
            for col in q_columns:
                cls = cls + rng.randint(-1, 1) * col
            factors.append(TwistFactor(cls, rng.randint(-2, 2), LOCUS_Q))
        word = TwistWord(factors)
        action = transvection_action(model, word)
        in_span = True
        for idx in range(model.rank):
            e = IntVector.unit(model.rank, idx)
            try:
                model.h1bar_from_ambient(action.apply(e) - e)
            except ValueError:
                in_span = False
                break
        assert in_span == is_weakly_torelli(model, word)


def test_inconsistent_system_is_reported(four_circle_model, monkeypatch):
    # The fast path reads the form's layout, not the dense boundary matrix,
    # so a zeroed boundary matrix is caught by the oracle's model and
    # functional-equation invariants; a broken layout, where a circle pairs
    # with a P handle and so moves it, breaks the boundary system itself.
    from torelli.exactlin import IntMatrix as _IM
    from torelli.mapping_class import InconsistentDelta
    from torelli.surface_model import HomologyModel

    def zeroed_boundary(config):
        model = build_model(config)  # seed the cached view with the tampered matrix
        model.__dict__["boundary_matrix"] = _IM([[0] * model.rank] * model.n_circles, cols=model.rank)
        return model

    reports = verify_all(TrialPlan(seed=4, trials=8), model_factory=zeroed_boundary)
    failing = {r["invariant"] for r in reports if r["failures"]}
    assert {"model_boundary_image", "model_adjunction", "delta_functional_equation"} <= failing

    model = four_circle_model
    circle, handle = label_index(model, ("circle", 0, 1)), label_index(model, ("pa", 0, 0))
    layout = HomologyModel.partner
    monkeypatch.setattr(
        HomologyModel, "partner", lambda self, c: (handle, 1) if c == circle else layout(self, c)
    )
    # Each class has an a_0 coordinate, so each takes the pass.  The classes
    # pair to zero, so the twists add: M = sum m z z^T is zero off its
    # circle-(0, 1) diagonal entry 2, so the Q handles stay fixed and the P
    # handle moves by 2 [circle (0, 1)], inside the circle span.
    qa, c = basis_vector(model, ("qa", 0)), model.circle_class(0, 1)
    word = TwistWord([TwistFactor(qa + c, 1, LOCUS_Q), TwistFactor(qa - c, 1, LOCUS_Q), TwistFactor(qa, -2, LOCUS_Q)])
    with pytest.raises(InconsistentDelta):
        delta_difference(model, word)
    monkeypatch.undo()
    assert delta_difference(model, word).matrix[0, 0] == 2


def test_displacement_outside_circle_span_is_reported(four_circle_model, monkeypatch):
    # A consistent layout cannot reach the circle-span guard: it needs a Q
    # handle that pairs with a dual, so that twisting about it moves the dual
    # by a multiple of the handle.
    from torelli.surface_model import HomologyModel

    model = four_circle_model
    first_dual = (model.rank - model.k0_rank, model.pairing_sign)
    layout = HomologyModel.partner
    monkeypatch.setattr(HomologyModel, "partner", lambda self, c: first_dual if c == 0 else layout(self, c))
    word = TwistWord([TwistFactor(basis_vector(model, ("qa", 0)), 1, LOCUS_Q)])
    with pytest.raises(NotWeaklyTorelli) as caught:
        delta_difference(model, word)
    assert str(caught.value) == (
        "displacement of basis index 7 (dual of circle (0, 1)) leaves the circle span: "
        "it has a nonzero coordinate at basis index 0 (a_0)"
    )


def test_locus_check_agrees_with_lattice_membership(four_circle_model):
    model = four_circle_model
    inside = model.circle_class(0, 0) + 2 * basis_vector(model, ("qa", 0))
    outside = basis_vector(model, ("dual", 0, 2))
    q_image = reference_views(model)["q_image"]
    assert solve_integer(q_image, inside) is not None
    assert solve_integer(q_image, outside) is None
    transvection_action(model, TwistWord([TwistFactor(inside, 1, LOCUS_Q)]))
    with pytest.raises(LocusViolation):
        transvection_action(model, TwistWord([TwistFactor(outside, 1, LOCUS_Q)]))


def _label_walk_violation(model, factor, position):
    """The locus check as a walk over ``model.labels``: the message of the
    first offending label, or None."""
    if factor.locus == LOCUS_Q:
        permitted = lambda label: label[0] in ("qa", "qb", "circle")  # noqa: E731
        where = "the subsurface image"
    else:
        j = factor.locus[1]
        permitted = lambda label: label[0] in ("pa", "pb", "circle") and label[1] == j  # noqa: E731
        where = f"complement component {j}"
    for idx, label in enumerate(model.labels):
        if factor.curve_class[idx] and not permitted(label):
            kind, *at = label
            if kind in ("circle", "dual"):
                name = ("dual of " if kind == "dual" else "") + f"circle ({at[0]}, {at[1]})"
            else:  # ("qa", i) is a_i, ("pb", j, g) is b_{j,g}
                name = f"{kind[1]}_{at[0]}" if len(at) == 1 else f"{kind[1]}_{{{at[0]},{at[1]}}}"
            return f"factor {position}: class meets basis index {idx} ({name}), outside {where}"
    return None


def test_locus_ranges_match_label_walk():
    configs = [  # earlier components carry handles, so the handle offsets matter
        SubsurfaceConfig(1, [ComplementComponent(1, 3), ComplementComponent(2, 2), ComplementComponent(0, 4)]),
        SubsurfaceConfig(2, [ComplementComponent(2, 1), ComplementComponent(1, 4)]),
        SubsurfaceConfig(0, [ComplementComponent(1, 2), ComplementComponent(1, 1), ComplementComponent(1, 3)]),
    ]
    rng = random.Random(4242)
    outcomes = {"raised": 0, "passed": 0}
    for config in configs:
        model = build_model(config)
        for locus in [LOCUS_Q] + [in_complement(j) for j in range(model.n_components)]:
            units = [TwistFactor(IntVector.unit(model.rank, idx), 1, locus) for idx in range(model.rank)]
            permitted = [_label_walk_violation(model, unit, 0) is None for unit in units]
            for position in range(40):
                entries = [rng.choice((-2, -1, 1, 2)) if rng.random() < 0.3 else 0 for _ in range(model.rank)]
                if position % 2:  # keep only what the locus permits, then maybe add one stray entry
                    entries = [x if ok else 0 for x, ok in zip(entries, permitted)]
                    if rng.random() < 0.5:
                        entries[rng.randrange(model.rank)] = 1
                factor = TwistFactor(IntVector(entries), 1, locus)
                expected = _label_walk_violation(model, factor, position)
                (edges, _, _), = TwistWord([factor]).table
                z = _dense(model.rank, edges)  # the class as the walk reads it off its row
                if expected is None:
                    _check_locus(model, z, locus, position)
                    outcomes["passed"] += 1
                else:
                    with pytest.raises(LocusViolation) as info:
                        _check_locus(model, z, locus, position)
                    assert str(info.value) == expected
                    outcomes["raised"] += 1
    assert min(outcomes.values()) > 50


def test_word_json_round_trip(four_circle_model):
    model = four_circle_model
    word = TwistWord(
        [
            TwistFactor(model.circle_class(0, 1), -2, LOCUS_Q),
            TwistFactor(basis_vector(model, ("pa", 0, 0)), 1, in_complement(0)),
            TwistFactor(basis_vector(model, ("qa", 0)), 3, LOCUS_AMBIENT),
        ]
    )
    data = word_to_json_dict(word)
    assert data["factors"][0]["locus"] == "Q"
    assert data["factors"][1]["locus"] == {"P": 0}
    assert data["factors"][2]["locus"] == "S"
    assert word_from_json_dict(data, model.rank) == word


def test_a_word_has_one_rank(four_circle_model):
    model = four_circle_model  # rank 10, circle block [4, 7)
    f10 = TwistFactor(model.circle_class(0, 1), 1, LOCUS_Q)
    f12 = TwistFactor(IntVector([0] * 4 + [1] + [0] * 7), 2, LOCUS_Q)  # edges in [4, 7], one class too long
    with pytest.raises(DimensionMismatch, match=r"^factor 2: class has length 12, factor 0's has 10$"):
        TwistWord([f10, f10, f12])
    with pytest.raises(DimensionMismatch, match=r"^factor 1: class has length 12, factor 0's has 10$"):
        concat(TwistWord([f10]), TwistWord([f10, f12]))
    short, long, empty = TwistWord([f10]), TwistWord([f12]), TwistWord()
    for a, b in ((short, long), (long, short)):
        with pytest.raises(DimensionMismatch, match="words live on different models"):
            concat(a, b)
    for a, b, rank in ((empty, long, 12), (long, empty, 12), (empty, empty, None), (short, short, 10)):
        word = concat(a, b)
        assert word.rank == rank and word == TwistWord(a.factors + b.factors)
    # Every factor one wrong rank: analyze still names factor 0 against the model.
    for word in (long, TwistWord([f12, f12]), concat(long, invert(long))):
        with pytest.raises(DimensionMismatch) as info:
            analyze(model, word)
        assert str(info.value) == "factor 0: class has length 12, model rank is 10"


def _table_writers(model, rng, plan, index):
    """Words from every writer of the edge table, each also parsed back."""
    realized = realize_delta(model, random_symmetric_reducible_delta(model, rng))
    seeded = random_weakly_torelli_word(model, plan, index)
    product = random_bounding_pair_product(model, rng)
    words = [seeded, product, realized.word, realized.torelli_witness, invert(product), concat(product, seeded)]
    return words + [word_from_json_dict(word_to_json_dict(word), model.rank) for word in words]


@pytest.mark.parametrize("pairing_sign", [1, -1])
def test_the_table_agrees_with_its_factor_view(pairing_sign):
    plan, rng = TrialPlan(seed=61, trials=6), random.Random(61 * pairing_sign)
    for index in range(plan.trials):
        model = build_model(random_config(plan, index), pairing_sign=pairing_sign)
        for word in _table_writers(model, rng, plan, index):
            rebuilt = TwistWord(word.factors)
            assert rebuilt == word and hash(rebuilt) == hash(word)
            assert (rebuilt.rank, rebuilt.table) == (word.rank, word.table)
            assert len(word) == len(word.factors) == len(word.table)
            assert word.rank == (model.rank if len(word) else None)
            for factor, (edges, exponent, locus) in zip(word.factors, word.table):
                assert (factor.rank, factor.edges, factor.exponent, factor.locus) == (word.rank, edges, exponent, locus)
                assert TwistFactor(factor.curve_class, exponent, locus) == factor  # the edges are canonical


def _reference_weakly_torelli_delta(model, word):
    """Dense action plus an exact solve of the boundary system over every
    basis class: the independent route the fast path must agree with."""
    action = transvection_action(model, word)
    q_columns = map(IntVector, reference_views(model)["q_image"].transpose().entries)
    if any(action.apply(col) != col for col in q_columns):
        return False, None
    k = model.k0_rank
    lhs_rows, rhs_rows = [], []
    for idx in range(model.rank):
        e = IntVector.unit(model.rank, idx)
        lhs_rows.append(model.k0_coords(model.boundary_matrix.apply(e)).to_list())
        rhs_rows.append(model.h1bar_from_ambient(action.apply(e) - e).to_list())
    lhs, rhs = IntMatrix(lhs_rows, cols=k), IntMatrix(rhs_rows, cols=k)
    rows = [solve_integer(lhs, col) for col in map(IntVector, rhs.transpose().entries)]
    assert all(row is not None for row in rows)
    return True, IntMatrix((row.to_list() for row in rows), cols=k)


def _circle_span_class(model, rng):
    cls = IntVector([0] * model.rank)
    for j, i in model.circle_order:
        cls = cls + rng.randint(-1, 1) * model.circle_class(j, i)
    return cls


@pytest.mark.parametrize("pairing_sign", [1, -1])
def test_fast_path_matches_dense_reference(pairing_sign):
    configs = [
        SubsurfaceConfig(1, [ComplementComponent(1, 4)]),
        SubsurfaceConfig(2, [ComplementComponent(0, 3), ComplementComponent(1, 3)]),
        SubsurfaceConfig(
            1, [ComplementComponent(0, 2), ComplementComponent(0, 3), ComplementComponent(1, 1)]
        ),
        SubsurfaceConfig(2, [ComplementComponent(0, 5)]),
    ]
    plan = TrialPlan(seed=29, trials=8)
    rng = random.Random(1729 * pairing_sign)
    counts = {"not_weakly_torelli": 0, "not_reducible": 0}
    for n, config in enumerate(configs):
        model = build_model(config, pairing_sign=pairing_sign)
        for index in range(plan.trials):
            seeded = random_weakly_torelli_word(model, plan, 100 * n + index)
            products = random_bounding_pair_product(model, rng)
            handle = basis_vector(model, (rng.choice(("qa", "qb")), 0))
            q_twist = TwistWord(
                [TwistFactor(handle + _circle_span_class(model, rng), rng.choice((-2, -1, 1, 2)), LOCUS_Q)]
            )
            assert _reference_weakly_torelli_delta(model, products)[0]
            interleaved = concat(products, concat(seeded, products))  # circle factors between Q-bearing ones
            for word in (seeded, products, concat(products, seeded), concat(q_twist, seeded), interleaved):
                weakly, expected = _reference_weakly_torelli_delta(model, word)
                assert is_weakly_torelli(model, word) == weakly
                if not weakly:
                    counts["not_weakly_torelli"] += 1
                    with pytest.raises(NotWeaklyTorelli):
                        delta_difference(model, word)
                    continue
                delta = delta_difference(model, word)
                assert delta.matrix == expected
                counts["not_reducible"] += not is_completely_reducible(delta)
    # the words reach both branches the seeded generator alone never does
    assert counts["not_weakly_torelli"] >= len(configs) * plan.trials
    assert counts["not_reducible"] > 0
    # Circle-block factors that are not one interval take the pass: the zero
    # class, circles {1, 3} of the 4-circle component, and the values 2 and -1.
    model = build_model(configs[0], pairing_sign=pairing_sign)
    handle = TwistWord([TwistFactor(basis_vector(model, ("qa", 0)), 1, LOCUS_Q)])
    for cls in (IntVector([0] * model.rank), model.circle_class(0, 1) + model.circle_class(0, 3),
                2 * model.circle_class(0, 1) - model.circle_class(0, 2)):
        alone = TwistWord([TwistFactor(cls, -2, LOCUS_Q)])
        moved, conjugate = concat(handle, alone), concat(handle, concat(alone, invert(handle)))
        assert len(alone.table[0][0]) != 2
        for word in (alone, moved, conjugate):
            weakly, expected = _reference_weakly_torelli_delta(model, word)
            assert is_weakly_torelli(model, word) == weakly == (word is not moved)
            if weakly:  # the handle fixes the circle class, so the conjugate acts as the class alone
                assert delta_difference(model, word).matrix == expected == delta_difference(model, alone).matrix
        assert delta_difference(model, alone).is_zero() == (not any(cls.entries))
    # Realized words on the benchmark ladder's rank 10, 16 and 28 rungs, where
    # the sparse rows stay sparse; the dense reference is O(rank^3) per
    # factor, which rules out the rank 38 and 56 rungs here.
    ladder = [
        SubsurfaceConfig(1, [ComplementComponent(1, 4)]),
        SubsurfaceConfig(2, [ComplementComponent(1, 3), ComplementComponent(0, 4)]),
        SubsurfaceConfig(2, [ComplementComponent(1, 6), ComplementComponent(1, 6)]),
    ]
    for config in ladder:
        model = build_model(config, pairing_sign=pairing_sign)
        delta = random_symmetric_reducible_delta(model, rng)
        word = realize_delta(model, delta).word
        assert _reference_weakly_torelli_delta(model, word) == (True, delta.matrix)
        assert delta_difference(model, word).matrix == delta.matrix


#: The statements of the walk that the least plan never runs, each by the
#: start of its first line, with the reason and the tier-1 test that runs it.
_UNREACHED_BY_THE_LEAST_PLAN = {
    "got = json.dumps(": "every drawn word has locus Q (test_weakly_torelli_requires_subsurface_locus)",
    "raise LocusViolation(": "the same non-Q locus",
    "return None": "no invariant draws a word that is not weakly Torelli yet (test_weakly_torelli_examples)",
    "idx, r = min(outside)": "a consistent model keeps displacements in the circle span "
                             "(test_displacement_outside_circle_span_is_reported tampers with partner)",
    "raise NotWeaklyTorelli(": "the same displacement outside the circle span",
    "raise InconsistentDelta(": "a consistent model solves the boundary system "
                                "(test_inconsistent_system_is_reported tampers with partner)",
}


def test_least_plan_reaches_both_routes_of_the_walk():
    missed = missed_lines(lambda: verify_all(TrialPlan(seed=0, trials=1)), weakly_torelli_delta, _displacements)
    lines, first = inspect.getsourcelines(weakly_torelli_delta)
    spans = {  # each allowed statement's source lines
        start: range(first + node.lineno - 1, first + node.end_lineno)
        for node in ast.walk(ast.parse(textwrap.dedent("".join(lines)))) if isinstance(node, ast.stmt)
        for start in _UNREACHED_BY_THE_LEAST_PLAN if lines[node.lineno - 1].strip().startswith(start)
    }
    assert spans.keys() == _UNREACHED_BY_THE_LEAST_PLAN.keys()
    owners = [next((start for start, span in spans.items() if line in span), None)
              for line in missed.pop("weakly_torelli_delta")]
    assert missed == {} and set(owners) == set(spans)  # the pass runs every line, the walk all but these


def _read_off(model, word):
    """The general pass's map: the sign times the duals' displacements,
    with every other basis class fixed."""
    rows = _displacements(model, [(_dense(word.rank, edges), m) for edges, m, _ in word.table])
    k = model.k0_rank
    lo, hi = model.rank - 2 * k, model.rank - k
    assert all(hi <= c for row in rows for c in row)
    return tuple(tuple(model.pairing_sign * rows[lo + r].get(hi + p, 0) for p in range(k)) for r in range(k))


@pytest.mark.parametrize("pairing_sign", [1, -1])
def test_circle_run_matches_the_general_pass(pairing_sign):
    plan = TrialPlan(seed=31, trials=1)
    rng = random.Random(3100 + pairing_sign)
    nonzero = 0
    for index, config in enumerate(small_configs()):
        model = build_model(config, pairing_sign=pairing_sign)
        exponents = DiagonalMap(rng.randint(-2, 2) for _ in range(model.n_circles))
        words = [
            TwistWord(),
            random_weakly_torelli_word(model, plan, index),
            realize_delta(model, random_symmetric_reducible_delta(model, rng)).word,
            build_boundary_multitwist(model, exponents),
        ]
        for word in words:
            delta = delta_difference(model, word)
            assert delta.matrix.entries == _read_off(model, word)
            nonzero += not delta.is_zero()
    assert nonzero > 300


# the benchmark ladder's rungs of rank 10, 16, 28, 38 and 56
LADDER = [
    SubsurfaceConfig(1, [ComplementComponent(1, 4)]),
    SubsurfaceConfig(2, [ComplementComponent(1, 3), ComplementComponent(0, 4)]),
    SubsurfaceConfig(2, [ComplementComponent(1, 6), ComplementComponent(1, 6)]),
    SubsurfaceConfig(2, [ComplementComponent(2, 8), ComplementComponent(1, 8)]),
    SubsurfaceConfig(3, [ComplementComponent(2, 12), ComplementComponent(1, 12)]),
]


def test_circle_runs_skip_the_word_pass(monkeypatch):
    calls = []

    def spy(model, factors):
        calls.append(len(factors))
        return _displacements(model, factors)

    monkeypatch.setattr(mapping_class, "_displacements", spy)
    rng = random.Random(56)
    for config in LADDER:
        model = build_model(config)
        delta = random_symmetric_reducible_delta(model, rng)
        word = realize_delta(model, delta).word
        assert analyze(model, word).delta.matrix == delta.matrix
        assert calls == []
        handle = TwistFactor(basis_vector(model, ("qa", 0)), 1, LOCUS_Q)
        assert not analyze(model, concat(TwistWord([handle]), word)).weakly_torelli
        assert calls == [1]  # only the handle takes the pass
        product = random_bounding_pair_product(model, rng)
        expected = delta_difference(model, product) + delta
        calls.clear()
        assert analyze(model, concat(product, word)).delta == expected
        assert calls == [len(product)]
        calls.clear()


@pytest.mark.parametrize("pairing_sign", [1, -1])
def test_analyze_builds_no_factor_object(monkeypatch, pairing_sign):
    rng = random.Random(59 + pairing_sign)
    cases = []
    for config in LADDER[:3]:
        model = build_model(config, pairing_sign=pairing_sign)
        delta = random_symmetric_reducible_delta(model, rng)
        product = random_bounding_pair_product(model, rng)  # Q-handle classes: they take the pass
        word = concat(product, realize_delta(model, delta).word)
        read = word_from_json_dict(word_to_json_dict(word), model.rank)
        cases.append((model, word, read, delta_difference(model, product) + delta))
    built = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TwistFactor, "__init__", spy("TwistFactor.__init__", TwistFactor.__init__))
    real_of_edges = TwistFactor._of_edges.__func__
    monkeypatch.setattr(TwistFactor, "_of_edges", classmethod(spy("TwistFactor._of_edges", real_of_edges)))
    monkeypatch.setattr(TwistWord, "__init__", spy("TwistWord.__init__", TwistWord.__init__))
    real_of_table = TwistWord._of_table.__func__
    monkeypatch.setattr(TwistWord, "_of_table", classmethod(spy("TwistWord._of_table", real_of_table)))
    for model, word, read, expected in cases:
        for w in (word, read):
            assert analyze(model, w).delta == expected
            assert "factors" not in vars(w)
    assert built == []
    assert cases[0][2].factors and set(built) == {"TwistFactor._of_edges"}  # the spies see the view's factors


def test_realize_and_analyze_build_classes_by_slices(monkeypatch):
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(realization, "peripheral_class", spy("peripheral_class", realization.peripheral_class))
    monkeypatch.setattr(mapping_class, "_displacements", spy("_displacements", _displacements))
    monkeypatch.setattr(IntVector, "__init__", spy("IntVector.__init__", IntVector.__init__))
    rng = random.Random(57)
    for config in LADDER:
        model = build_model(config)
        delta = random_symmetric_reducible_delta(model, rng)
        realized = realize_delta(model, delta)
        assert analyze(model, realized.word).delta == delta
        assert calls == [], f"rank {model.rank}: {sorted(set(calls))}"


def test_library_built_matrices_skip_the_public_checks(monkeypatch):
    rng = random.Random(58)
    cases = []
    for config in LADDER:
        model = build_model(config)
        delta = random_symmetric_reducible_delta(model, rng)
        blocks = {j: IntMatrix(delta.block(j).to_lists()) for j in range(model.n_components)}
        cases.append((model, delta, blocks))
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(IntMatrix, "__init__", spy("IntMatrix.__init__", IntMatrix.__init__))
    monkeypatch.setattr(IntVector, "__init__", spy("IntVector.__init__", IntVector.__init__))
    monkeypatch.setattr(realization, "sym_basis_change", spy("sym_basis_change", realization.sym_basis_change))
    for model, delta, blocks in cases:
        assembled = delta_from_blocks(model, blocks)
        report = analyze(model, realize_delta(model, assembled).word)
        assert report.delta == assembled == delta
        assert report.component_matrices == tuple(blocks[j] for j in range(model.n_components))
        assert calls == [], f"rank {model.rank}: {sorted(set(calls))}"
    monkeypatch.undo()
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            IntVector([0, bad])
        with pytest.raises(TypeError):
            IntMatrix([[0, 0], [bad, 0]])
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(NotSymmetric):
        realization.sym_basis_change(IntMatrix([[0, 1], [0, 0]]), 2)
    with pytest.raises(TypeError):
        TwistFactor(IntVector([0, 1]), 1.0, LOCUS_Q)


def _entrywise_sum_of_squares(model, word):
    """Sum m * u u^T over the factors entry by entry, u being each class's
    slice of the circle block: the reference for the rectangle sums."""
    k = model.k0_rank
    lo = model.rank - 2 * k
    matrix = [[0] * k for _ in range(k)]
    for factor in word.factors:
        support = [(p, x) for p, x in enumerate(factor.curve_class.entries[lo:lo + k]) if x]
        for r, x in support:
            row, mx = matrix[r], factor.exponent * x
            for p, y in support:
                row[p] += mx * y
    return tuple(map(tuple, matrix))


def _runs(values):
    """Maximal runs of one nonzero value, as (start, stop, value)."""
    runs = []
    for p, x in enumerate(values):
        if x and runs and runs[-1][1] == p and runs[-1][2] == x:
            runs[-1][1] = p + 1
        elif x:
            runs.append([p, p + 1, x])
    return runs


def _run_class(model, rng):
    """A circle-span class with several runs: weighted unions of circles,
    circle 0 (minus the whole component) among them, plus at times an
    alternating-sign pattern over the whole circle block."""
    cls = IntVector([0] * model.rank)
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(model.n_components)
        count = model.config.components[j].boundary_count
        subset = rng.sample(range(count), rng.randint(1, count))
        cls = cls + rng.choice((-2, -1, 1, 2, 3)) * realization.peripheral_class(model, j, subset)
    if rng.random() < 0.25:
        k = model.k0_rank
        lo = model.rank - 2 * k
        cls = cls + IntVector([0] * lo + [(-1) ** p for p in range(k)] + [0] * k)
    return cls


@pytest.mark.parametrize("pairing_sign", [1, -1])
def test_rectangle_sums_match_the_entrywise_sum(pairing_sign):
    configs = [
        *small_configs(),
        SubsurfaceConfig(0, [ComplementComponent(0, 9)]),
        SubsurfaceConfig(1, [ComplementComponent(1, 7), ComplementComponent(0, 6)]),
        SubsurfaceConfig(2, [ComplementComponent(0, 5), ComplementComponent(1, 1), ComplementComponent(0, 8)]),
    ]
    rng = random.Random(4100 + pairing_sign)
    shapes = {"runs": 0, "gaps": 0, "repeats": 0, "alternating": 0, "zero_exponent": 0}
    for config in configs:
        model = build_model(config, pairing_sign=pairing_sign)
        k, lo = model.k0_rank, model.rank - 2 * model.k0_rank
        for length in (0, 1, 2, 5):
            factors = [
                TwistFactor(_run_class(model, rng), rng.choice((-2, -1, 0, 1, 3)), LOCUS_Q)
                for _ in range(length)
            ]
            word = TwistWord(factors)
            assert delta_difference(model, word).matrix.entries == _entrywise_sum_of_squares(model, word)
            for factor in factors:
                u = factor.curve_class.entries[lo:lo + k]
                runs = _runs(u)
                values = [v for _, _, v in runs]
                shapes["runs"] += len(runs) >= 3
                shapes["gaps"] += any(b < c for (_, b, _), (c, _, _) in zip(runs, runs[1:]))
                shapes["repeats"] += len(set(values)) < len(values)
                shapes["alternating"] += any(v * w < 0 for v, w in zip(values, values[1:]))
                shapes["zero_exponent"] += factor.exponent == 0
    assert min(shapes.values()) >= 20, shapes


_BLOCK_CONFIGS = [  # k0_rank 2, 3, 5 and 7
    SubsurfaceConfig(0, [ComplementComponent(0, 3)]),
    SubsurfaceConfig(1, [ComplementComponent(1, 4)]),
    SubsurfaceConfig(1, [ComplementComponent(0, 3), ComplementComponent(1, 4)]),
    SubsurfaceConfig(2, [ComplementComponent(0, 5), ComplementComponent(1, 1), ComplementComponent(0, 4)]),
]


def _edge_count(u):
    return sum(a != b for a, b in zip([0, *u], [*u, 0]))


@st.composite
def _circle_block_words(draw):
    """A model at either pairing sign and a word of circle-block classes that
    mixes intervals of one value (two edges) with classes of three or more
    edges, values beyond +-1 and exponents of both signs, in any order."""
    model = build_model(draw(st.sampled_from(_BLOCK_CONFIGS)), pairing_sign=draw(st.sampled_from((1, -1))))
    k = model.k0_rank
    lo = model.rank - 2 * k
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        start, stop = sorted(draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True)))
        value = draw(st.integers(-4, 4).filter(bool))
        blocks.append([0] * start + [value] * (stop - start) + [0] * (k - stop))
    many = st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(lambda u: _edge_count(u) > 2)
    blocks += draw(st.lists(many, min_size=1, max_size=4))
    factors = [
        TwistFactor(IntVector([0] * lo + u + [0] * k), draw(st.integers(-3, 3)), LOCUS_Q)
        for u in draw(st.permutations(blocks))
    ]
    return model, TwistWord(factors)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_circle_block_words())
def test_two_edge_and_many_edge_classes_match_the_entrywise_sum(model_and_word):
    model, word = model_and_word
    assert {len(factor.edges) == 2 for factor in word.factors} == {True, False}
    assert delta_difference(model, word).matrix.entries == _entrywise_sum_of_squares(model, word)


def _classes():
    """Dense classes as runs of one value: negative runs, a nonzero first or
    last entry, gaps of zeros, the zero class, and lengths 0 and 1."""
    runs = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), max_size=6)
    return runs.map(lambda runs: [value for value, length in runs for _ in range(length)])


@settings(derandomize=True, max_examples=300)
@given(_classes())
@example([])
@example([0])
@example([2])
@example([0, 0, 0])
@example([-1, -1, 0, 2, 2, 2, 1])
def test_run_edges_agree_with_the_dense_class(z):
    factor = TwistFactor(IntVector(z), -2, LOCUS_Q)
    steps = [b - a for a, b in zip([0] + z, z + [0])]
    assert (factor.rank, factor.edges) == (len(z), tuple((i, s) for i, s in enumerate(steps) if s))
    rebuilt = TwistFactor._of_edges(factor.rank, factor.edges, -2, LOCUS_Q)
    assert "curve_class" not in vars(rebuilt)
    assert rebuilt.curve_class == IntVector(z)
    assert rebuilt == factor and hash(rebuilt) == hash(factor) and repr(rebuilt) == repr(factor)


@settings(derandomize=True, max_examples=200)
@given(
    st.integers(1, 12).flatmap(
        lambda rank: st.tuples(st.just(rank), st.lists(st.integers(0, rank), min_size=2, max_size=2, unique=True))
    ),
    st.integers(-3, 3),
    st.sampled_from([LOCUS_Q, LOCUS_AMBIENT, in_complement(1)]),
)
def test_interval_factor_matches_the_dense_one(bounds, exponent, locus):
    rank, (start, stop) = bounds[0], sorted(bounds[1])
    interval = TwistFactor._of_edges(rank, ((start, 1), (stop, -1)), exponent, locus)
    dense = TwistFactor(IntVector([0] * start + [1] * (stop - start) + [0] * (rank - stop)), exponent, locus)
    assert interval == dense and hash(interval) == hash(dense)
    assert interval.curve_class == dense.curve_class
    assert repr(interval) == repr(dense)
    for factor in (interval, dense):
        for name in ("curve_class", "edges", "exponent"):
            with pytest.raises(FrozenInstanceError):
                setattr(factor, name, 0)


def _plus_minus_one_block(rng, size):
    entries = [[0] * size for _ in range(size)]
    for r in range(size):
        for c in range(r, size):
            entries[r][c] = entries[c][r] = rng.choice((-1, 1))
    return IntMatrix(entries, cols=size)


def _ladder_and_rank_496_maps():
    """A seeded map on each ladder configuration, then the rank 496 case of
    test_realize_then_analyze_at_rank_496."""
    rng = random.Random(59)
    cases = [(model, random_symmetric_reducible_delta(model, rng)) for model in map(build_model, LADDER)]
    model = build_model(SubsurfaceConfig(10, [ComplementComponent(0, 120), ComplementComponent(0, 120)]))
    rng = random.Random(496)
    blocks = {j: _plus_minus_one_block(rng, 119) for j in range(2)}
    return cases + [(model, delta_from_blocks(model, blocks))]


def test_realized_words_never_build_a_dense_class(monkeypatch):
    cases = _ladder_and_rank_496_maps()
    dense, build = [], TwistFactor.__dict__["curve_class"].func
    written, write = [], mapping_class._dense  # a class written out from its edges

    def spy(factor):
        dense.append(factor)
        return build(factor)

    def spy_write(rank, edges):
        written.append(edges)
        return write(rank, edges)

    monkeypatch.setattr(TwistFactor, "curve_class", property(spy))
    monkeypatch.setattr(mapping_class, "_dense", spy_write)
    for model, delta in cases:
        realized = realize_delta(model, delta)
        assert analyze(model, realized.word).delta == delta
        assert analyze(model, invert(realized.word)).delta == -delta
        assert len(realized.torelli_witness) == 2 * len(realized.word)
        assert concat(realized.word, invert(realized.word)).factors[0].rank == model.rank
        with monkeypatch.context() as writer:  # the JSON writer writes each class out, as it must
            writer.setattr(mapping_class, "_dense", write)
            data = word_to_json_dict(realized.word)
        parsed = word_from_json_dict(data, model.rank)
        assert parsed == realized.word
        assert not any("curve_class" in vars(factor) for factor in parsed.factors)  # only the run edges
        assert analyze(model, parsed).delta == delta
        assert dense == written == [], f"rank {model.rank}: {len(dense) + len(written)} dense classes"
    assert len(realized.word) > 8000
    first = realized.word.factors[0]
    assert TwistFactor(first.curve_class, first.exponent, first.locus) == first
    assert (dense, written) == ([first], [first.edges])  # the spies see every read


def test_realize_analyze_and_json_build_no_factor_object(monkeypatch):
    cases = _ladder_and_rank_496_maps()
    built, init, of_edges = [], TwistFactor.__init__, TwistFactor._of_edges.__func__

    def spy_init(self, *args):
        built.append("__init__")
        init(self, *args)

    def spy_of_edges(cls, *args):
        built.append("_of_edges")
        return of_edges(cls, *args)

    monkeypatch.setattr(TwistFactor, "__init__", spy_init)
    monkeypatch.setattr(TwistFactor, "_of_edges", classmethod(spy_of_edges))
    for model, delta in cases:
        word = realize_delta(model, delta).word
        payload = analyze(model, word).to_json_dict()
        assert payload["delta"] == delta.to_json_dict() and payload["completely_reducible"]
        parsed = word_from_json_dict(word_to_json_dict(word), model.rank)
        assert analyze(model, parsed).delta == delta
        assert built == [], f"rank {model.rank}: {len(built)} factor objects"
    assert len(word) > 8000 and "factors" not in vars(word) and "factors" not in vars(parsed)
    assert len(word.factors) == len(word) and built == ["_of_edges"] * len(word)  # the spies see the view
    TwistFactor(IntVector([1]), 1, LOCUS_Q)
    assert built[-1] == "__init__"
