"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in captured output).  All comparisons are exact integer
equalities; the stated runtime ceilings are asserted where given.
"""

import random
import time
from contextlib import contextmanager
from itertools import product
from operator import mul

from torelli.criteria import (
    AnalysisReport,
    DiagonalMap,
    analyze,
    decide_extendable,
    decide_multitwist_correctable,
    group_ranks,
)
from torelli.exactlin import IntMatrix, IntVector
from torelli.mapping_class import (
    concat,
    delta_difference,
    invert,
    transvection_action,
    word_from_json_dict,
)
from torelli.oracle import (
    TrialPlan,
    paper_example_4,
    random_config,
    random_symmetric_reducible_delta,
    random_weakly_torelli_word,
    reconstruct_from_coefficients,
)
from torelli.realization import (
    build_boundary_multitwist,
    realize_delta,
    sym_basis_change,
)
from torelli.reference import determinant, kernel_basis, lattices_equal, restriction_of_diagonal
from torelli.surface_model import ComplementComponent, SubsurfaceConfig, build_model


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} PASS: {description} ({elapsed:.2f}s)")


PLAN = TrialPlan(seed=20170404, trials=200, max_q_genus=2, max_component_genus=2,
                 max_boundary_count=4, max_components=3, max_exponent=3)


def test_criterion_01_four_circle_regression():
    with criterion(1, "four-circle regression verdicts for m in {1, 2, 5}"):
        start = time.perf_counter()
        for m in (1, 2, 5):
            report = paper_example_4(m)
            assert report.weakly_torelli
            assert report.symmetric
            assert report.completely_reducible
            assert report.extendable_to_torelli
            assert not report.extension_by_identity_torelli
            assert report.multitwist_correctable is None
        assert time.perf_counter() - start < 1.0


def test_criterion_02_symmetry_of_difference_maps():
    from torelli.criteria import is_symmetric

    with criterion(2, "difference maps of 200 random weakly Torelli words are symmetric"):
        start = time.perf_counter()
        for index in range(PLAN.trials):
            model = build_model(random_config(PLAN, index))
            word = random_weakly_torelli_word(model, PLAN, index)
            assert is_symmetric(delta_difference(model, word))
        assert time.perf_counter() - start < 30.0


def test_criterion_03_functional_equation():
    with criterion(3, "displacement equals difference of boundary on every basis class"):
        for index in range(PLAN.trials):
            model = build_model(random_config(PLAN, index))
            word = random_weakly_torelli_word(model, PLAN, index)
            action = transvection_action(model, word)
            delta = delta_difference(model, word)
            for idx in range(model.rank):
                e = IntVector.unit(model.rank, idx)
                residual = action.apply(e) - e
                boundary = model.k0_coords(model.boundary_matrix.apply(e))
                assert model.h1bar_from_ambient(residual) == delta.matrix.apply(boundary)


def test_criterion_04_additivity_and_inversion():
    with criterion(4, "difference maps add under composition and negate under inversion"):
        for index in range(PLAN.trials):
            model = build_model(random_config(PLAN, index))
            w1 = random_weakly_torelli_word(model, PLAN, 2 * index)
            w2 = random_weakly_torelli_word(model, PLAN, 2 * index + 1)
            d1 = delta_difference(model, w1)
            d2 = delta_difference(model, w2)
            assert delta_difference(model, concat(w1, w2)).matrix == (d1 + d2).matrix
            assert delta_difference(model, invert(w1)).matrix == (-d1).matrix


def test_criterion_05_realization_round_trip():
    with criterion(5, "100 random symmetric reducible maps realize and round-trip"):
        rng = random.Random(5050)
        for index in range(100):
            model = build_model(random_config(PLAN, index))
            delta = random_symmetric_reducible_delta(model, rng, bound=3)
            realized = realize_delta(model, delta)
            assert delta_difference(model, realized.word).matrix == delta.matrix
            witness = transvection_action(model, realized.torelli_witness)
            assert witness == IntMatrix.identity(model.rank)


def test_criterion_06_multitwist_law():
    with criterion(6, "boundary multi-twist difference maps equal diagonal restrictions"):
        rng = random.Random(6060)
        for index in range(100):
            model = build_model(random_config(PLAN, index))
            exponents = DiagonalMap(
                [rng.randint(-3, 3) for _ in range(model.n_circles)]
            )
            word = build_boundary_multitwist(model, exponents)
            assert (
                delta_difference(model, word).matrix
                == restriction_of_diagonal(model, exponents).matrix
            )


def test_criterion_07_three_circle_guarantee():
    plan = TrialPlan(seed=PLAN.seed, trials=200, max_q_genus=2, max_component_genus=2,
                     max_boundary_count=3, max_components=3, max_exponent=3)
    with criterion(7, "on <=3-circle components, extendable iff multi-twist correctable"):
        rng = random.Random(7070)
        for index in range(plan.trials):
            model = build_model(random_config(plan, index))
            word = random_weakly_torelli_word(model, plan, index)
            extendable = decide_extendable(model, word)
            correction = decide_multitwist_correctable(model, word)
            assert extendable == (correction is not None)
            delta = random_symmetric_reducible_delta(model, rng, bound=3)
            assert AnalysisReport(delta).multitwist_correctable is not None


def test_criterion_08_model_invariants_exhaustive():
    with criterion(8, "model invariants over every config with genus<=1, circles<=4, components<=2"):
        start = time.perf_counter()
        comp_options = [
            ComplementComponent(g, n) for g in range(2) for n in range(1, 5)
        ]
        count = 0
        for h in range(2):
            for r in (1, 2):
                for comps in product(comp_options, repeat=r):
                    config = SubsurfaceConfig(h, comps)
                    model = build_model(config)
                    count += 1
                    assert abs(determinant(model.intersection_form)) == 1
                    assert model.rank == 2 * config.genus
                    # orthogonal complements of the two-sided lattice
                    fundamentals = [
                        IntVector(1 if ji[0] == j else 0 for ji in model.circle_order)
                        for j in range(model.n_components)
                    ]
                    ann_rows = IntMatrix([f.to_list() for f in fundamentals], cols=model.n_circles)
                    assert lattices_equal(kernel_basis(ann_rows), model.k0_basis)
                    assert lattices_equal(
                        kernel_basis(model.k0_basis.transpose()),
                        IntMatrix(fundamentals, cols=model.n_circles).transpose(),
                    )
                    # boundary image and adjunction
                    assert lattices_equal(model.boundary_matrix, model.k0_basis)
                    for idx in range(model.rank):
                        a = IntVector.unit(model.rank, idx)
                        boundary = model.boundary_matrix.apply(a)
                        for pos, (j, i) in enumerate(model.circle_order):
                            pairing = sum(map(mul, a, model.intersection_form.apply(model.circle_class(j, i))))
                            assert pairing == boundary[pos]  # <da, C> for the unit chain of circle C
        assert count == 2 * (8 + 64)
        assert time.perf_counter() - start < 60.0


def test_criterion_09_basis_change():
    with criterion(9, "500 random symmetric matrices of sizes 1..5 round-trip the basis change"):
        rng = random.Random(9090)
        for _ in range(500):
            size = rng.randint(1, 5)
            entries = [[0] * size for _ in range(size)]
            for r in range(size):
                for c in range(r, size):
                    entries[r][c] = entries[c][r] = rng.randint(-2, 2)
            matrix = IntMatrix(entries, cols=size)
            coeffs = sym_basis_change(matrix, size)
            assert reconstruct_from_coefficients(coeffs, size) == matrix


def test_criterion_10_ranks():
    with criterion(10, "rank of the symmetric-map lattice on one four-circle component is 6"):
        ranks = group_ranks(SubsurfaceConfig(0, [ComplementComponent(0, 4)]))
        assert ranks == {"rank_K0": 3, "rank_H1bar": 3, "rank_Dc": 6}


def test_criterion_11_bounding_pair_product_fixture():
    # B(a_0, c) B(b_0, c) B(a_0 + b_0, c)^-1 with B(z, c) = T_z T_{z+c}^-1 and
    # c = [circle (0, 1)] + [circle (1, 1)]: weakly Torelli, with an entry that
    # crosses components.  Basis: a_0, b_0, circles (0,1), (1,1), (1,2), duals.
    with criterion(11, "pinned bounding-pair product is weakly Torelli and not completely reducible"):
        config = SubsurfaceConfig.from_json_dict(
            {"q_genus": 1, "components": [{"genus": 0, "boundary_count": 2}, {"genus": 0, "boundary_count": 3}]}
        )
        model = build_model(config)
        classes_and_exponents = [
            ([1, 0, 0, 0, 0, 0, 0, 0], 1),
            ([1, 0, 1, 1, 0, 0, 0, 0], -1),
            ([0, 1, 0, 0, 0, 0, 0, 0], 1),
            ([0, 1, 1, 1, 0, 0, 0, 0], -1),
            ([1, 1, 1, 1, 0, 0, 0, 0], 1),
            ([1, 1, 0, 0, 0, 0, 0, 0], -1),
        ]
        word = word_from_json_dict(
            {"factors": [{"class": z, "exponent": m, "locus": "Q"} for z, m in classes_and_exponents]},
            model.rank,
        )
        delta = [[-2, -2, 0], [-2, -2, 0], [0, 0, 0]]
        assert analyze(model, word).to_json_dict() == {
            "weakly_torelli": True,
            "delta": {"matrix": delta},
            "symmetric": True,
            "completely_reducible": False,
            "extension_by_identity_torelli": False,
            "extendable_to_torelli": False,
            "multitwist_correctable": None,
            "component_matrices": None,
        }
        action = transvection_action(model, word)
        for idx in range(model.rank):
            e = IntVector.unit(model.rank, idx)
            boundary = model.k0_coords(model.boundary_matrix.apply(e))
            assert model.h1bar_from_ambient(action.apply(e) - e) == IntMatrix(delta).apply(boundary)
        # The sign flip is no symmetry of words with a Q-handle coordinate:
        # under pairing_sign -1 the same coordinates give the trivial map.
        flipped = build_model(config, pairing_sign=-1)
        assert analyze(flipped, word).to_json_dict() == {
            "weakly_torelli": True,
            "delta": {"matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
            "symmetric": True,
            "completely_reducible": True,
            "extension_by_identity_torelli": True,
            "extendable_to_torelli": True,
            "multitwist_correctable": [0, 0, 0, 0, 0],
            "component_matrices": [[[0]], [[0, 0], [0, 0]]],
        }
