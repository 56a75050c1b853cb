"""Model invariants: form unimodularity, rank law, pairing duality,
orthogonal complements, boundary-map image, and the adjunction identity."""

import random
import re
from operator import mul
from importlib import import_module
from itertools import product
from pathlib import Path

import pytest

from torelli.criteria import analyze, delta_from_blocks
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector
from torelli.realization import realize_delta
from torelli.reference import determinant, kernel_basis, lattices_equal, solve_integer
from torelli.surface_model import (
    ComplementComponent,
    InvalidConfig,
    SubsurfaceConfig,
    build_model,
)


# -- basis positions, read off the layout in the module docstring ---------------
# The library reads these positions from HomologyModel's ``circle_block``,
# ``handle_ranges`` and ``chain_ranges``; the tests compute them here on their
# own, so they stay an independent reference.


def circle_index(model, j, i):
    """0-chain position of circle (j, i): start_j + j + i."""
    return model.block_ranges[j][0] + j + i


def reduced_index(model, j, i):
    """Reduced position of circle (j, i >= 1): start_j + i - 1."""
    return model.block_ranges[j][0] + i - 1


def label_index(model, label):
    """Basis index of a label: circle (j, i) at rank - 2k + its reduced
    position, its dual k later, handles by their place in ``labels``."""
    if label[0] in ("circle", "dual"):
        offset = 2 * model.k0_rank if label[0] == "circle" else model.k0_rank
        return model.rank - offset + reduced_index(model, label[1], label[2])
    return model.labels.index(label)


def basis_vector(model, label):
    return IntVector.unit(model.rank, label_index(model, label))


def lift_h1bar(model, v):
    """Canonical lift of a reduced class: coefficients on circles 1..n_j-1."""
    if len(v) != model.k0_rank:
        raise DimensionMismatch(f"expected length {model.k0_rank}, got {len(v)}")
    out = []
    for start, stop in model.block_ranges:
        out += [0, *v[start:stop]]
    return IntVector(out)


def circle_pairing(model, theta, b):
    """Pairing of a 0-chain class with a circle 1-chain class: the plain sum
    of their coordinate products over the model's circles."""
    assert len(theta) == len(b) == model.n_circles
    return sum(map(mul, theta, b))


def induced_pairing(model, theta, v):
    """Pairing of a two-sided 0-class with a reduced circle class.

    Computed by lifting both, theta through the columns of ``k0_basis``;
    independent of the choice of lift of v because the two lattices
    annihilate each other.
    """
    return circle_pairing(model, model.k0_basis.apply(theta), lift_h1bar(model, v))


def small_configs(max_genus=1, max_circles=4, max_components=2):
    """Every configuration within the given bounds."""
    comp_options = [
        ComplementComponent(g, n)
        for g in range(max_genus + 1)
        for n in range(1, max_circles + 1)
    ]
    for h in range(max_genus + 1):
        for r in range(1, max_components + 1):
            for comps in product(comp_options, repeat=r):
                yield SubsurfaceConfig(h, comps)


def test_torus_example():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 2)]))
    assert model.config.genus == 1
    assert model.rank == 2
    assert model.labels == (("circle", 0, 1), ("dual", 0, 1))
    assert model.intersection_form == IntMatrix([[0, -1], [1, 0]])


def test_genus_five_example():
    model = build_model(SubsurfaceConfig(1, [ComplementComponent(1, 4)]))
    assert model.config.genus == 5
    assert model.rank == 10


def test_sphere_example():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 1)]))
    assert model.config.genus == 0
    assert model.rank == 0
    assert model.k0_rank == 0
    assert reference_views(model)["q_image"].cols == 0
    assert model.circle_class(0, 0) == IntVector([])


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        build_model(SubsurfaceConfig(0, []))
    with pytest.raises(InvalidConfig):
        build_model(SubsurfaceConfig(0, [ComplementComponent(0, 0)]))
    with pytest.raises(InvalidConfig):
        build_model(SubsurfaceConfig(-1, [ComplementComponent(0, 1)]))
    # A configuration checks itself when it is built, before any build_model.
    with pytest.raises(InvalidConfig, match="q_genus must be nonnegative"):
        SubsurfaceConfig(-1, [ComplementComponent(0, 1)])
    with pytest.raises(InvalidConfig, match="components must be nonempty"):
        SubsurfaceConfig(0, [])


def test_config_json_round_trip():
    config = SubsurfaceConfig(2, [ComplementComponent(1, 3), ComplementComponent(0, 2)])
    assert SubsurfaceConfig.from_json_dict(config.to_json_dict()) == config
    with pytest.raises(InvalidConfig):
        SubsurfaceConfig.from_json_dict({"q_genus": 0})
    with pytest.raises(InvalidConfig):
        SubsurfaceConfig.from_json_dict({"q_genus": 0, "components": [{"genus": 0}]})


def test_circle_classes_sum_to_zero_per_component():
    model = build_model(SubsurfaceConfig(1, [ComplementComponent(1, 4), ComplementComponent(0, 2)]))
    for j, comp in enumerate(model.config.components):
        total = IntVector([0] * model.rank)
        for i in range(comp.boundary_count):
            total = total + model.circle_class(j, i)
        assert not any(total)


def test_mv_boundary_of_circles_vanishes():
    model = build_model(SubsurfaceConfig(1, [ComplementComponent(1, 4)]))
    for (j, i) in model.circle_order:
        assert not any(model.boundary_matrix.apply(model.circle_class(j, i)))


def test_mv_boundary_of_dual_is_two_point_class():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 2)]))
    theta = model.boundary_matrix.apply(basis_vector(model, ("dual", 0, 1)))
    assert theta == IntVector(model.k0_basis.transpose().entries[0])


def test_mv_boundary_lands_in_two_sided_lattice():
    model = build_model(SubsurfaceConfig(1, [ComplementComponent(0, 3), ComplementComponent(1, 2)]))
    for idx in range(model.rank):
        theta = model.boundary_matrix.apply(IntVector.unit(model.rank, idx))
        assert solve_integer(model.k0_basis, theta) is not None
        model.k0_coords(theta)  # does not raise


def test_circle_pairing_duality():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 3), ComplementComponent(0, 2)]))
    n = model.n_circles
    for a in range(n):
        for b in range(n):
            value = circle_pairing(model, IntVector.unit(n, a), IntVector.unit(n, b))
            assert value == (1 if a == b else 0)


def test_two_sided_classes_annihilate_fundamental_classes():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(1, 3), ComplementComponent(0, 4)]))
    for col in map(IntVector, model.k0_basis.transpose().entries):
        for j, comp in enumerate(model.config.components):
            fundamental = IntVector(
                1 if ji[0] == j else 0 for ji in model.circle_order
            )
            assert circle_pairing(model, col, fundamental) == 0


def test_induced_pairing_examples():
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(0, 3), ComplementComponent(0, 3)]))
    k = model.k0_rank
    for pos, (j, i) in enumerate(model.reduced_order):
        for pos2, (j2, i2) in enumerate(model.reduced_order):
            value = induced_pairing(model, IntVector.unit(k, pos), IntVector.unit(k, pos2))
            assert value == (1 if (j, i) == (j2, i2) else 0)
    assert induced_pairing(model, IntVector([0] * k), IntVector.unit(k, 0)) == 0


def test_induced_pairing_independent_of_lift():
    model = build_model(SubsurfaceConfig(1, [ComplementComponent(0, 4)]))
    k = model.k0_rank
    theta = IntVector([1, -2, 3])
    v = IntVector([2, 0, -1])
    base = induced_pairing(model, theta, v)
    # Any lift differs by multiples of the component fundamental classes.
    lift = lift_h1bar(model, v)
    fundamental = IntVector([1] * model.n_circles)
    for mult in (-2, 1, 3):
        shifted = lift + mult * fundamental
        assert circle_pairing(model, model.k0_basis.apply(theta), shifted) == base


def test_project_h1bar_examples():
    # The two-point and reduced bases are dual, so k0_basis^T projects a
    # circle class to the reduced group, eliminating circle 0.
    model = build_model(SubsurfaceConfig(0, [ComplementComponent(1, 3)]))
    n, project = model.n_circles, model.k0_basis.transpose().apply
    fundamental = IntVector([1, 1, 1])
    assert not any(project(fundamental))
    assert project(IntVector.unit(n, circle_index(model, 0, 1))) == IntVector.unit(model.k0_rank, 0)
    projected_base = project(IntVector.unit(n, circle_index(model, 0, 0)))
    assert projected_base == IntVector([-1, -1])


def test_positions_agree_with_basis_order():
    for config in small_configs(max_genus=1, max_circles=4, max_components=3):
        model = build_model(config)
        for label in model.labels:
            assert label_index(model, label) == model.labels.index(label)
        for j, i in model.circle_order:
            assert circle_index(model, j, i) == model.circle_order.index((j, i))
        for j, i in model.reduced_order:
            assert reduced_index(model, j, i) == model.reduced_order.index((j, i))


def _layout_by_loops(config):
    """The model's four layout views, written as explicit loops."""
    labels = []
    for i in range(config.q_genus):
        labels.append(("qa", i))
        labels.append(("qb", i))
    for j, comp in enumerate(config.components):
        for g in range(comp.genus):
            labels.append(("pa", j, g))
            labels.append(("pb", j, g))
    for kind in ("circle", "dual"):
        for j, comp in enumerate(config.components):
            for i in range(1, comp.boundary_count):
                labels.append((kind, j, i))
    circle_order, reduced_order, block_ranges, start = [], [], [], 0
    for j, comp in enumerate(config.components):
        circle_order += [(j, i) for i in range(comp.boundary_count)]
        reduced_order += [(j, i) for i in range(1, comp.boundary_count)]
        block_ranges.append((start, start + comp.boundary_count - 1))
        start += comp.boundary_count - 1
    return tuple(labels), tuple(circle_order), tuple(reduced_order), tuple(block_ranges)


def test_layout_fields_match_explicit_loops():
    for config, sign in product(small_configs(), (1, -1)):
        model = build_model(config, pairing_sign=sign)
        fields = (model.labels, model.circle_order, model.reduced_order, model.block_ranges)
        assert fields == _layout_by_loops(config)
        assert all(type(field) is tuple for field in fields)


def test_layout_owner_matches_labels():
    for config, sign in product(small_configs(), (1, -1)):
        model = build_model(config, pairing_sign=sign)
        lo, hi = model.circle_block
        assert model.labels[lo:hi] == tuple(("circle", j, i) for j, i in model.reduced_order)
        assert model.labels[hi:] == tuple(("dual", j, i) for j, i in model.reduced_order)
        handles = [[x for x in model.labels if x[0] in ("qa", "qb")]]
        handles += [[x for x in model.labels if x[0] in ("pa", "pb") and x[1] == j] for j in range(model.n_components)]
        assert [list(model.labels[a:b]) for a, b in model.handle_ranges] == handles
        chains = [tuple((j, i) for i in range(c.boundary_count)) for j, c in enumerate(config.components)]
        assert [model.circle_order[a:b] for a, b in model.chain_ranges] == chains


# The spellings the basis layout took before one owner held it.  The rank
# law's Euler characteristic, 2 - 2 * config.q_genus - ..., counts genus and
# places nothing, so only the model's own q_genus is matched.
LAYOUT_ARITHMETIC = re.compile(r"rank - |2 \* \w+\.config\.q_genus|k0_rank \+|start \+ j\b")


def test_no_other_module_computes_a_basis_position():
    found = [
        f"{name}.py:{number}: {line.strip()}"
        for name in ("mapping_class", "realization", "criteria", "oracle", "cli")
        for number, line in enumerate(Path(import_module(f"torelli.{name}").__file__).read_text().splitlines(), 1)
        if LAYOUT_ARITHMETIC.search(line)
    ]
    assert found == [], "read these positions from HomologyModel instead"


def test_partner_is_the_form_column():
    for config, sign in product(small_configs(max_genus=1, max_circles=4, max_components=3), (1, -1)):
        model = build_model(config, pairing_sign=sign)
        assert model.pairing_sign == sign
        form = model.intersection_form.entries
        for c in range(model.rank):
            assert [(r, form[r][c]) for r in range(model.rank) if form[r][c]] == [model.partner(c)]


DENSE_VIEWS = ("intersection_form", "k0_basis", "boundary_matrix")
ENUMERATIONS = ("labels", "circle_order", "reduced_order")  # O(rank) tuples the decider never reads


def reference_views(model):
    """The model's three dense views, built from ``model.labels`` by the
    pairing rules: <a, b> = s on each handle pair, <dual, circle> = s on each
    circle, and circle 0 of a component is minus the sum of its other
    circles.  Beside them, two the library does not hold: ``q_image``, the
    unit columns of Q's handles a then b and of the circles, and
    ``circle_span``, those of the circles alone."""
    s, labels = model.pairing_sign, model.labels

    def positive(x, y):  # the ordered pairs with <x, y> = s
        return (x[0], y[0]) in (("qa", "qb"), ("pa", "pb"), ("dual", "circle")) and x[1:] == y[1:]

    def pairing(x, y):
        return s if positive(x, y) else -s if positive(y, x) else 0

    def unit_columns(cols):
        return IntMatrix(([int(x == c) for c in cols] for x in labels), cols=len(cols))

    kinds = {kind: [x for x in labels if x[0] == kind] for kind in ("qa", "qb", "circle")}
    k0_rows = [
        [int((j, i) == col) - int(i == 0 and j == col[0]) for col in model.reduced_order]
        for j, i in model.circle_order
    ]
    boundary_rows = [  # row for circle C: a -> <a, [C]>, with [C_{j,0}] = -sum of the others
        [pairing(x, ("circle", j, i)) if i else -sum(pairing(x, c) for c in kinds["circle"] if c[1] == j)
         for x in labels]
        for j, i in model.circle_order
    ]
    return {
        "intersection_form": IntMatrix([[pairing(x, y) for y in labels] for x in labels], cols=len(labels)),
        "q_image": unit_columns(kinds["qa"] + kinds["qb"] + kinds["circle"]),
        "circle_span": unit_columns(kinds["circle"]),
        "k0_basis": IntMatrix(k0_rows, cols=model.k0_rank),
        "boundary_matrix": IntMatrix(boundary_rows, cols=model.rank),
    }


def test_a_model_holds_only_its_two_inputs():
    config = SubsurfaceConfig(1, [ComplementComponent(1, 3), ComplementComponent(0, 2)])
    for sign in (1, -1):
        model = build_model(config, pairing_sign=sign)
        assert vars(model) == {"config": config, "pairing_sign": sign}
        assert not [name for name in ("genus", "q_image", "circle_span") if hasattr(model, name)]
    for sign in (0, 2, -2):
        with pytest.raises(InvalidConfig, match=r"pairing_sign must be \+1 or -1"):
            build_model(config, pairing_sign=sign)
    model = build_model(config, pairing_sign=True)  # an integer-like sign becomes the exact int
    assert type(model.pairing_sign) is int and model == build_model(config)
    assert repr(model).endswith("pairing_sign=1)")
    for sign in (-1.0, 1.0):  # as ComplementComponent(1.0, 3) does
        with pytest.raises(TypeError):
            build_model(config, pairing_sign=sign)


def test_dense_views_match_the_pairing_rules():
    configs = [*small_configs(max_genus=1, max_circles=4, max_components=3),
               *small_configs(max_genus=2, max_circles=3, max_components=1)]
    for config, sign in product(configs, (1, -1)):
        model = build_model(config, pairing_sign=sign)
        views = reference_views(model)
        for name in DENSE_VIEWS:
            assert getattr(model, name) == views[name], (config, sign, name)


def test_build_model_and_the_fast_path_build_no_dense_view():
    # rank 2016: q_genus 10 and two genus-0 components with 500 circles each
    config = SubsurfaceConfig(10, [ComplementComponent(0, 500), ComplementComponent(0, 500)])
    model = build_model(config)
    assert model.rank == 2016

    def block(entries):  # a symmetric block supported on the first two circles
        return IntMatrix([[entries.get((r, c), 0) for c in range(499)] for r in range(499)])

    blocks = {0: block({(0, 0): 2, (0, 1): -1, (1, 0): -1}), 1: block({(1, 1): 3})}
    delta = delta_from_blocks(model, blocks)
    report = analyze(model, realize_delta(model, delta).word)
    assert report.delta == delta and report.to_json_dict()["completely_reducible"]
    built = [name for name in (*DENSE_VIEWS, *ENUMERATIONS) if name in model.__dict__]
    assert built == [], f"{built} built on the O(rank) path"


def test_describe_index_uses_readme_names():
    model = build_model(SubsurfaceConfig(1, [ComplementComponent(1, 3), ComplementComponent(0, 2)]))
    names = ["a_0", "b_0", "a_{0,0}", "b_{0,0}", "circle (0, 1)", "circle (0, 2)", "circle (1, 1)",
             "dual of circle (0, 1)", "dual of circle (0, 2)", "dual of circle (1, 1)"]
    assert [model.describe_index(idx) for idx in range(model.rank)] == [
        f"basis index {idx} ({name})" for idx, name in enumerate(names)
    ]
    with pytest.raises(ValueError, match=r"nonzero coordinate at basis index 3 \(b_\{0,0\}\),"):
        model.h1bar_from_ambient(IntVector.unit(model.rank, 3))


def test_coordinate_round_trips():
    rng = random.Random(3)
    for config in small_configs(max_genus=1, max_circles=4, max_components=3):
        model = build_model(config)
        for _ in range(2):
            v = IntVector(rng.randint(-3, 3) for _ in range(model.k0_rank))
            assert model.k0_coords(model.k0_basis.apply(v)) == v
            assert model.k0_basis.transpose().apply(lift_h1bar(model, v)) == v
            assert model.h1bar_from_ambient(model.ambient_from_h1bar(v)) == v


def test_config_integers_must_be_integers():
    config = SubsurfaceConfig(True, [ComplementComponent(0, 2)])
    assert (config.q_genus, config.components[0]) == (1, ComplementComponent(0, 2))
    for bad in (2.7, 3.0, "3"):
        with pytest.raises(TypeError):
            SubsurfaceConfig(bad, [ComplementComponent(0, 2)])
        with pytest.raises(TypeError):
            ComplementComponent(bad, 2)
        with pytest.raises(TypeError):
            ComplementComponent(0, bad)
    with pytest.raises(InvalidConfig, match="must be an integer"):
        SubsurfaceConfig.from_json_dict(
            {"q_genus": 1, "components": [{"genus": 0, "boundary_count": 3.5}]}
        )


def test_out_of_range_circles_rejected():
    for config in small_configs(max_genus=0, max_circles=3, max_components=3):
        model = build_model(config)
        r = model.n_components
        bad = [(j, i) for j, comp in enumerate(config.components) for i in (-1, comp.boundary_count)]
        bad += [(r, 0), (r, 1), (-1, 0), (-1, 1)]
        for j, i in bad:
            with pytest.raises(ValueError):
                model.circle_class(j, i)


def test_unimodularity_and_rank_law_exhaustive():
    for config in small_configs(max_genus=2, max_circles=4, max_components=3):
        model = build_model(config)
        assert abs(determinant(model.intersection_form)) == 1
        assert model.rank == 2 * config.genus
        euler_closed = (
            2
            - 2 * config.q_genus
            - config.total_boundary
            + sum(2 - 2 * c.genus - c.boundary_count for c in config.components)
        )
        assert euler_closed == 2 - 2 * config.genus


def test_exhaustive_small_model_invariants():
    for config, sign in product(small_configs(max_genus=1, max_circles=3, max_components=2), (1, -1)):
        model = build_model(config, pairing_sign=sign)
        # adjunction on all basis/circle pairs
        for idx in range(model.rank):
            a = IntVector.unit(model.rank, idx)
            boundary = model.boundary_matrix.apply(a)
            for pos, (j, i) in enumerate(model.circle_order):
                chain = IntVector.unit(model.n_circles, pos)
                pairing = sum(map(mul, a, model.intersection_form.apply(model.circle_class(j, i))))
                assert pairing == circle_pairing(model, boundary, chain)
        # image of the boundary map is the whole two-sided lattice
        assert lattices_equal(model.boundary_matrix, model.k0_basis)


def test_orthogonal_complement_equalities():
    config = SubsurfaceConfig(1, [ComplementComponent(0, 3), ComplementComponent(1, 2)])
    model = build_model(config)
    n = model.n_circles
    fundamental_cols = []
    for j, comp in enumerate(config.components):
        fundamental_cols.append(IntVector(1 if ji[0] == j else 0 for ji in model.circle_order))
    fundamentals = IntMatrix(fundamental_cols, cols=n).transpose()
    annihilator_of_fundamentals = kernel_basis(
        IntMatrix([c.to_list() for c in fundamental_cols], cols=n)
    )
    assert lattices_equal(annihilator_of_fundamentals, model.k0_basis)
    annihilator_of_two_sided = kernel_basis(model.k0_basis.transpose())
    assert lattices_equal(annihilator_of_two_sided, fundamentals)
