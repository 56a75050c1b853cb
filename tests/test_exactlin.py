"""Smith form, integer solver, kernel lattice and lattice equality checks.

Every decomposition property is verified by direct multiplication, never
by trusting the algorithm's internals.
"""

import ast
from collections import Counter
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli import exactlin, reference
from torelli.exactlin import DimensionMismatch, IntMatrix, IntVector, _Value, cached_view
from torelli.reference import determinant, kernel_basis, lattices_equal, smith_normal_form, solve_integer
from torelli.surface_model import ComplementComponent, HomologyModel, SubsurfaceConfig, build_model
from linetrace import missed_lines

matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda rows: st.integers(min_value=0, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        ).map(lambda data: IntMatrix(data, cols=cols))
    )
)


def assert_smith_contract(a, snf):
    assert snf.U * a * snf.V == snf.D
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D[i, j] == 0


def test_entries_must_be_integers():
    # One exact-int type test passes plain ints through; anything else goes
    # through operator.index, which turns a bool into the exact int.
    vector, matrix = IntVector([True, 2]), IntMatrix([[3, True], [False, -1]])
    assert vector.entries == (1, 2) and matrix.entries == ((3, 1), (0, -1))
    assert {type(x) for x in (*vector, *matrix.entries[0], *matrix.entries[1])} == {int}
    assert type(IntMatrix([[False]]).entries[0][0]) is int
    for bad in (1.5, 2.7, -0.5, 3.0, "1", "3"):
        with pytest.raises(TypeError):
            IntVector([bad])
        with pytest.raises(TypeError):
            IntMatrix([[0, bad]])


def test_cached_view_stores_its_first_read():
    calls = []

    class Square(_Value):
        side: int

        @cached_view
        def area(self) -> int:
            """The side squared."""
            calls.append(self.side)
            return self.side * self.side

    view = Square.__dict__["area"]
    assert Square.area is view and view.func.__name__ == "area" and view.__doc__ == "The side squared."
    square = Square(3)
    assert vars(square) == {"side": 3}
    assert square.area == 9 and vars(square) == {"side": 3, "area": 9} and calls == [3]
    assert square.area == 9 and calls == [3]  # the second read calls nothing
    assert square == Square(3) and hash(square) == hash((3,)) and repr(square).endswith("Square(side=3)")

    model = build_model(SubsurfaceConfig(1, [ComplementComponent(1, 3), ComplementComponent(0, 2)]))
    names = ("handle_ranges", "circle_block", "block_ranges", "rank")
    assert all(type(HomologyModel.__dict__[name]) is cached_view for name in names)
    assert vars(model) == {"config": model.config, "pairing_sign": 1}
    first = [getattr(model, name) for name in names]
    assert [vars(model)[name] for name in names] == first
    assert all(getattr(model, name) is value for name, value in zip(names, first))
    assert model.handle_ranges == ((0, 2), (2, 4), (4, 4))
    assert model == build_model(model.config) and hash(model) == hash((model.config, 1))


def test_no_module_imports_cached_property():
    # functools.cached_property takes a lock on each first read; the library's
    # views are exactlin.cached_view, which does not.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(exactlin.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        and any(alias.name == "cached_property" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "cached_property"
    ]
    assert found == []


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_transpose_shapes(rows, cols):
    a = IntMatrix(([10 * r + c for c in range(cols)] for r in range(rows)), cols=cols)
    t = a.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert t.entries == tuple(tuple(a[r, c] for r in range(rows)) for c in range(cols))
    assert t.transpose() == a


def test_snf_zero_matrix():
    a = IntMatrix([[0]])
    snf = smith_normal_form(a)
    assert snf.D == IntMatrix([[0]])
    assert snf.U == IntMatrix.identity(1)
    assert snf.V == IntMatrix.identity(1)


def test_snf_identity():
    a = IntMatrix.identity(2)
    snf = smith_normal_form(a)
    assert snf.D == IntMatrix.identity(2)
    assert_smith_contract(a, snf)


def test_snf_two_by_two():
    a = IntMatrix([[2, 4], [6, 8]])
    snf = smith_normal_form(a)
    assert snf.D == IntMatrix([[2, 0], [0, 4]])
    assert_smith_contract(a, snf)


@settings(max_examples=300)
@given(matrices)
def test_snf_random(a):
    assert_smith_contract(a, smith_normal_form(a))


def test_solve_identity():
    b = IntVector([3, -7, 2])
    assert solve_integer(IntMatrix.identity(3), b) == b


def test_solve_parity_obstruction():
    assert solve_integer(IntMatrix([[2]]), IntVector([3])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_integer(IntMatrix.identity(2), IntVector([1, 2, 3]))


@settings(max_examples=200)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6),
        min_size=4,
        max_size=4,
    ),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
)
def test_solve_reconstructs_planted_solution(rows, x0_entries):
    a = IntMatrix(rows, cols=6)
    x0 = IntVector(x0_entries)
    b = a.apply(x0)
    x = solve_integer(a, b)
    assert x is not None
    assert a.apply(x) == b


@settings(max_examples=150)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=2),
        min_size=2,
        max_size=3,
    ),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=3),
)
def test_solve_negative_answers_have_no_small_solution(rows, b_entries):
    if len(rows) != len(b_entries):
        b_entries = (b_entries + [0] * len(rows))[: len(rows)]
    a = IntMatrix(rows, cols=2)
    b = IntVector(b_entries)
    if solve_integer(a, b) is None:
        for xs in product(range(-8, 9), repeat=2):
            assert a.apply(IntVector(xs)) != b


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(IntMatrix.identity(3)).cols == 0


def test_kernel_of_sum_functional():
    basis = kernel_basis(IntMatrix([[1, 1]]))
    assert basis.cols == 1
    (col,) = map(IntVector, basis.transpose().entries)
    assert col in (IntVector([1, -1]), IntVector([-1, 1]))


@settings(max_examples=200)
@given(matrices)
def test_kernel_random(a):
    basis = kernel_basis(a)
    for col in map(IntVector, basis.transpose().entries):
        assert not any(a.apply(col))
    assert basis.cols + smith_normal_form(a).rank() == a.cols
    if basis.cols:
        # Primitivity: the basis extends to a basis of the ambient lattice.
        assert all(d == 1 for d in smith_normal_form(basis).diagonal())


def test_membership_empty_basis():
    empty = IntMatrix([[], []], cols=0)
    assert solve_integer(empty, IntVector([0, 0])) is not None
    assert solve_integer(empty, IntVector([1, 0])) is None


def test_membership_index_two_sublattice():
    basis = IntMatrix([[2, 0]], cols=2).transpose()
    assert solve_integer(basis, IntVector([1, 0])) is None
    assert solve_integer(basis, IntVector([-4, 0])) is not None


@settings(max_examples=100)
@given(matrices, st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_membership_of_constructed_kernel_elements(a, coeffs):
    basis = kernel_basis(a)
    combo = IntVector([0] * a.cols)
    for i, col in enumerate(map(IntVector, basis.transpose().entries)):
        combo = combo + coeffs[i % len(coeffs)] * col
    assert solve_integer(basis, combo) is not None
    assert not any(a.apply(combo))


def _spans_equal(a, b):
    """Reference definition of lattice equality: each column of either
    matrix is an integer combination of the other's columns."""
    return all(solve_integer(b, IntVector(col)) is not None for col in a.transpose().entries) and all(
        solve_integer(a, IntVector(col)) is not None for col in b.transpose().entries
    )


LATTICE_CASES = [
    (IntMatrix([[1], [0]]), IntMatrix.identity(2), False),  # different rank
    (IntMatrix([[1], [0]]), IntMatrix([[0], [1]]), False),  # same invariant factors, different span
    (IntMatrix([[1, 0], [0, 0]]), IntMatrix([[1], [0]]), True),  # a zero column
    (IntMatrix([[2], [2]]), IntMatrix([[1], [1]]), False),  # index 2
    (IntMatrix([], cols=3), IntMatrix([], cols=1), True),  # 0 x 3
    (IntMatrix([[], []]), IntMatrix([[0], [0]]), True),  # 2 x 0, the zero lattice
    (IntMatrix([[], []]), IntMatrix([[1], [0]]), False),  # 2 x 0 against a line
    (IntMatrix([]), IntMatrix([]), True),  # 0 x 0
]


@pytest.mark.parametrize("a, b, equal", LATTICE_CASES)
def test_lattices_equal_pinned_cases(a, b, equal):
    assert _spans_equal(a, b) == equal
    assert lattices_equal(a, b) == equal
    assert lattices_equal(b, a) == equal


def test_lattice_layer_runs_every_line():
    def run():
        for a, b, _ in LATTICE_CASES:
            lattices_equal(a, b)
            _spans_equal(a, b)
            kernel_basis(a)
            kernel_basis(b)
        with pytest.raises(DimensionMismatch):
            lattices_equal(IntMatrix.identity(2), IntMatrix.identity(3))
        with pytest.raises(DimensionMismatch):
            solve_integer(IntMatrix.identity(2), IntVector([1, 2, 3]))

    assert missed_lines(run, lattices_equal, solve_integer, kernel_basis) == {}


def test_lattices_equal_takes_three_smith_forms(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(reference, "smith_normal_form", counting)
    assert lattices_equal(IntMatrix.identity(2), IntMatrix([[1, 1], [0, 1]]))
    assert len(calls) == 3


@st.composite
def lattice_pairs(draw):
    """A matrix and a second one whose columns either span the same lattice
    (unimodular column operations, permuted, duplicated or zero columns) or
    are drawn at random."""
    entry = st.integers(min_value=-3, max_value=3)
    rows = draw(st.integers(min_value=0, max_value=3))
    columns = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), max_size=3))
    a = IntMatrix(columns, cols=rows).transpose()
    if not draw(st.booleans()):
        others = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), max_size=3))
        return a, IntMatrix(others, cols=rows).transpose()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        ops = ["zero"] + ["negate", "duplicate"] * bool(columns) + ["add", "swap"] * (len(columns) > 1)
        op = draw(st.sampled_from(ops))
        i, j = draw(st.permutations(range(len(columns))))[:2] if len(columns) > 1 else (0, 0)
        if op == "zero":
            columns.append([0] * rows)
        elif op == "negate":
            columns[i] = [-x for x in columns[i]]
        elif op == "duplicate":
            columns.append(list(columns[i]))
        elif op == "add":
            k = draw(st.integers(min_value=-2, max_value=2))
            columns[j] = [y + k * x for x, y in zip(columns[i], columns[j])]
        else:
            columns[i], columns[j] = columns[j], columns[i]
    return a, IntMatrix(columns, cols=rows).transpose()


def test_lattices_equal_matches_column_definition():
    answers = Counter()

    @settings(derandomize=True, max_examples=300)
    @given(lattice_pairs())
    def check(pair):
        a, b = pair
        expected = _spans_equal(a, b)
        assert lattices_equal(a, b) == expected
        answers[expected] += 1

    check()
    assert answers[True] >= 50 and answers[False] >= 50


def test_determinant_matches_cofactor_expansion():
    a = IntMatrix([[2, -1, 3], [0, 4, 1], [-2, 5, 7]])
    expected = (
        2 * (4 * 7 - 1 * 5) - (-1) * (0 * 7 - 1 * (-2)) + 3 * (0 * 5 - 4 * (-2))
    )
    assert determinant(a) == expected
    assert determinant(IntMatrix([], cols=0)) == 1


# Each case is named after the branch of smith_normal_form it needs.
SNF_CASES = [
    ([[2, 0], [0, 3]], 2, [[1, 0], [0, 6]]),  # the fold
    ([[-3]], 1, [[3]]),  # the sign
    ([[4, 6]], 2, [[2, 0]]),  # a remainder round
    ([[0, 0], [0, 5]], 2, [[5, 0], [0, 0]]),  # the swap
    ([[6, 10], [15, 4]], 2, [[1, 0], [0, 126]]),  # row and column reductions
    ([], 3, []),  # 0 x 3
    ([[], [], []], 0, [[], [], []]),  # 3 x 0
]


@pytest.mark.parametrize("rows, cols, diagonal", SNF_CASES)
def test_snf_pinned_cases(rows, cols, diagonal):
    a = IntMatrix(rows, cols=cols)
    snf = smith_normal_form(a)
    assert snf.D == IntMatrix(diagonal, cols=cols)
    assert_smith_contract(a, snf)


def test_snf_pinned_cases_run_every_line():
    def run():
        for rows, cols, _ in SNF_CASES:
            smith_normal_form(IntMatrix(rows, cols=cols))

    assert missed_lines(run, smith_normal_form) == {}


def _integer_matrix(rows, cols):
    entry = st.integers(min_value=-30, max_value=30)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows).map(
        lambda data: IntMatrix(data, cols=cols)
    )


sizes = st.integers(min_value=1, max_value=6)
low_rank_products = st.tuples(sizes, sizes, sizes).flatmap(
    lambda mkn: st.tuples(_integer_matrix(mkn[0], mkn[1]), _integer_matrix(mkn[1], mkn[2]))
).map(lambda bc: bc[0] * bc[1])


@settings(max_examples=200)
@given(low_rank_products)
def test_snf_invariant_factors(a):
    snf = smith_normal_form(a)
    assert_smith_contract(a, snf)
    diag = snf.diagonal()
    assert diag[0] == gcd(*(x for row in a.entries for x in row))
    if a.rows == a.cols:
        assert prod(diag) == abs(determinant(a))
