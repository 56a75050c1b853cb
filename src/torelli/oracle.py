"""Randomized property harness: seeded generators plus an invariant registry.

Every invariant of the library has an entry here that re-checks it by
independent brute force on randomly drawn configurations and words.  All
randomness is derived from the plan seed, so reports are byte-identical
across runs.  Failure witnesses carry the full configuration and word so
a failing case can be re-run standalone through the command line.
"""

from __future__ import annotations

import operator
import random
from itertools import product
from typing import TYPE_CHECKING, Callable, Optional

from torelli import criteria, realization, reference
from torelli.exactlin import IntMatrix, IntVector, _Value
from torelli.mapping_class import (
    LOCUS_AMBIENT,
    LOCUS_Q,
    DifferenceMap,
    InconsistentDelta,
    NotWeaklyTorelli,
    TwistFactor,
    TwistWord,
    concat,
    delta_difference,
    invert,
    is_weakly_torelli,
    transvection_action,
    word_to_json_dict,
)
from torelli.reference import determinant, kernel_basis, lattices_equal, smith_normal_form, solve_integer
from torelli.surface_model import ComplementComponent, HomologyModel, SubsurfaceConfig, build_model

_MASK = (1 << 64) - 1


def _subseed(seed: int, *salts: int) -> int:
    x = (seed ^ 0x9E3779B97F4A7C15) & _MASK
    for s in salts:
        x = (x ^ ((s & _MASK) + 0x9E3779B97F4A7C15 + ((x << 6) & _MASK) + (x >> 2))) & _MASK
    return x


class TrialPlan(_Value):
    seed: int
    trials: int
    max_q_genus: int
    max_component_genus: int
    max_boundary_count: int
    max_components: int
    max_exponent: int

    _FLOORS = {"trials": 1, "max_q_genus": 0, "max_component_genus": 0, "max_boundary_count": 1,
               "max_components": 1, "max_exponent": 1}  # the least value of each bounded field; the seed is free
    MAX_SIZE = 2048  # at this rank and circle count, the dense views and one reference action step fit in 1 GiB

    def __init__(self, seed=0, trials=50, max_q_genus=2, max_component_genus=2, max_boundary_count=4,
                 max_components=3, max_exponent=3):
        super().__init__(*map(operator.index, (seed, trials, max_q_genus, max_component_genus, max_boundary_count,
                                               max_components, max_exponent)))
        for name, least in self._FLOORS.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        q, g, b, r = self.max_q_genus, self.max_component_genus, self.max_boundary_count, self.max_components
        if max(2 * (q + r * (g + b - 1)), r * b) > self.MAX_SIZE:  # the largest rank and circle count it may draw
            raise ValueError(f"the plan may draw a rank or a circle count over {self.MAX_SIZE}")


def random_config(plan: TrialPlan, index: int) -> SubsurfaceConfig:
    """Deterministic draw of a configuration within the plan bounds."""
    rng = random.Random(_subseed(plan.seed, 1, index))
    r = rng.randint(1, plan.max_components)
    comps = [
        ComplementComponent(
            rng.randint(0, plan.max_component_genus),
            rng.randint(1, plan.max_boundary_count),
        )
        for _ in range(r)
    ]
    return SubsurfaceConfig(rng.randint(0, plan.max_q_genus), comps)


def _random_circle_factor(model: HomologyModel, rng: random.Random, bound: int) -> TwistFactor:
    j = rng.randrange(model.n_components)
    count = model.config.components[j].boundary_count
    if rng.random() < 0.5:
        cls = model.circle_class(j, rng.randrange(count))
    else:
        subset = [i for i in range(count) if rng.random() < 0.5]
        if not subset:
            subset = [rng.randrange(count)]
        cls = realization.peripheral_class(model, j, subset)
    return TwistFactor(cls, rng.randint(-bound, bound), LOCUS_Q)


def random_weakly_torelli_word(model: HomologyModel, plan: TrialPlan, index: int) -> TwistWord:
    """Word of twists about boundary and peripheral classes.

    Such classes lie in the circle span, which pairs to zero with the whole
    subsurface image, so the word is weakly Torelli by construction.
    """
    rng = random.Random(_subseed(plan.seed, 2, index))
    length = rng.randint(0, 4)
    return TwistWord(
        [_random_circle_factor(model, rng, plan.max_exponent) for _ in range(length)]
    )


def random_bounding_pair_product(model: HomologyModel, rng: random.Random) -> TwistWord:
    """B(z1, c) B(z2, c) B(z1 + z2, c)^-1 with B(z, c) = T_z T_{z+c}^-1, for
    Q-handle classes z1, z2 and a circle-span class c.  Each B shifts the
    subsurface image by x -> x - <x, z> c and the shifts add, so the product
    is weakly Torelli; its difference map is in general not completely
    reducible (the homological shadow of bounding-pair maps)."""
    h2 = model.handle_ranges[0][1]

    def handle_class():
        return IntVector(rng.randint(-2, 2) if i < h2 else 0 for i in range(model.rank))

    c = model.ambient_from_h1bar(IntVector(rng.randint(-1, 1) for _ in range(model.k0_rank)))

    def shift(z):
        return TwistWord([TwistFactor(z, 1, LOCUS_Q), TwistFactor(z + c, -1, LOCUS_Q)])

    z1, z2 = handle_class(), handle_class()
    return concat(shift(z1), concat(shift(z2), invert(shift(z1 + z2))))


def _random_ambient_word(model: HomologyModel, rng: random.Random, bound: int) -> TwistWord:
    length = rng.randint(0, 4)
    factors = []
    for _ in range(length):
        cls = IntVector(rng.randint(-2, 2) for _ in range(model.rank))
        factors.append(TwistFactor(cls, rng.randint(-bound, bound), LOCUS_AMBIENT))
    return TwistWord(factors)


def random_symmetric_reducible_delta(
    model: HomologyModel, rng: random.Random, bound: int = 3
):
    """Blockwise-random symmetric completely reducible difference map."""
    k = model.k0_rank
    matrix = [[0] * k for _ in range(k)]
    for (start, stop) in model.block_ranges:
        for r in range(start, stop):
            for c in range(r, stop):
                value = rng.randint(-bound, bound)
                matrix[r][c] = value
                matrix[c][r] = value
    return DifferenceMap(IntMatrix(matrix, cols=k), model.block_ranges)


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 6) -> IntMatrix:
    return IntMatrix(
        ([rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)),
        cols=cols,
    )


# -- invariant registry -------------------------------------------------------

if TYPE_CHECKING:  # built at run time, typing's cache would keep every re-imported copy alive
    Check = Callable[[TrialPlan, int, Callable[[SubsurfaceConfig], HomologyModel]], Optional[dict]]


def _trial_model(plan, index, model_factory):
    """Trial ``index``'s configuration and the model ``model_factory`` builds of it."""
    config = random_config(plan, index)
    return config, model_factory(config)


def _model_witness(config: SubsurfaceConfig, **extra) -> dict:
    witness = {"config": config.to_json_dict()}
    witness.update(extra)
    return witness


def _check_smith_form(plan, index, model_factory):
    rng = random.Random(_subseed(plan.seed, 10, index))
    a = _random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
    snf = smith_normal_form(a)
    diag = snf.diagonal()
    problems = []
    if snf.U * a * snf.V != snf.D:
        problems.append("U*A*V != D")
    if any(d < 0 for d in diag):
        problems.append("negative invariant factor")
    if any(diag[i] and diag[i + 1] % diag[i] for i in range(len(diag) - 1)):
        problems.append("divisibility chain broken")
    if any(diag[i] == 0 and diag[i + 1] != 0 for i in range(len(diag) - 1)):
        problems.append("zero before nonzero factor")
    if abs(determinant(snf.U)) != 1 or abs(determinant(snf.V)) != 1:
        problems.append("transform not unimodular")
    off_diag = any(
        snf.D[i, j] != 0 for i in range(snf.D.rows) for j in range(snf.D.cols) if i != j
    )
    if off_diag:
        problems.append("D not diagonal")
    if problems:
        return {"matrix": a.to_lists(), "problems": problems}
    return None


def _box_solution(a: IntMatrix, b: IntVector) -> Optional[list[int]]:
    """The first x of the box [-6, 6]^cols, in ``product`` order, with A·x = b, or None: an exhaustive search free
    of the Smith form and of ``IntMatrix`` arithmetic, each A·x summed from its columns' multiples as plain ints."""
    box = range(-6, 7)
    multiples = [[tuple(x * c for c in column) for x in box] for column in zip(*a.entries)]
    sums = (tuple(map(sum, zip(*parts))) for parts in product(*multiples))
    return next((list(xs) for xs, ax in zip(product(box, repeat=a.cols), sums) if ax == b.entries), None)


def _check_solver(plan, index, model_factory):
    rng = random.Random(_subseed(plan.seed, 11, index))
    a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 3), bound=4)
    x0 = IntVector(rng.randint(-3, 3) for _ in range(a.cols))
    b = a.apply(x0)
    x = solve_integer(a, b)
    if x is None or a.apply(x) != b:
        return {"matrix": a.to_lists(), "rhs": b.to_list(), "problem": "solvable system missed"}
    b2 = IntVector(rng.randint(-4, 4) for _ in range(a.rows))
    missed = _box_solution(a, b2) if solve_integer(a, b2) is None else None  # refutes any small solution
    return None if missed is None else {"matrix": a.to_lists(), "rhs": b2.to_list(), "solution_missed": missed}


def _check_kernel(plan, index, model_factory):
    rng = random.Random(_subseed(plan.seed, 12, index))
    a = _random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), bound=5)
    basis = kernel_basis(a)
    problems = []
    if not (a * basis).is_zero():
        problems.append("kernel column not annihilated")
    if basis.cols + smith_normal_form(a).rank() != a.cols:
        problems.append("rank law violated")
    if any(d != 1 for d in smith_normal_form(basis).diagonal()):
        problems.append("kernel basis not primitive")
    if problems:
        return {"matrix": a.to_lists(), "problems": problems}
    return None


def _check_form_unimodular(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    problems = []
    if abs(determinant(model.intersection_form)) != 1:
        problems.append("form not unimodular")
    if model.intersection_form.transpose() != -model.intersection_form:
        problems.append("form not skew-symmetric")
    n = config.total_boundary
    euler_closed = 2 - 2 * config.q_genus - n + sum(
        2 - 2 * c.genus - c.boundary_count for c in config.components
    )
    if euler_closed != 2 - 2 * config.genus or model.rank != 2 * config.genus:
        problems.append("rank law violated")
    if problems:
        return _model_witness(config, problems=problems)
    return None


def _check_orthogonal_complements(plan, index, model_factory):
    """ker F = L(K) (F: fundamentals, K: two-sided classes); F's 0/1 rows are saturated, so ker K^T = L(F^T) too."""
    config, model = _trial_model(plan, index, model_factory)
    rows = ([int(c == j) for c, _ in model.circle_order] for j in range(model.n_components))
    fundamentals = IntMatrix(rows, cols=model.n_circles)  # row j: the fundamental class of component j
    if not lattices_equal(kernel_basis(fundamentals), model.k0_basis):
        return _model_witness(config, problem="two-sided classes != annihilator of fundamentals")
    return None


def _check_boundary_image(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    if not lattices_equal(model.boundary_matrix, model.k0_basis):
        return _model_witness(config, problem="boundary image differs from two-sided lattice")
    return None


def _check_adjunction(plan, index, model_factory):
    # <a, [C]> = <da, C> for basis classes a and circles C: with the circle classes as the columns
    # of C, row a of J*C is column a of the boundary matrix.
    config, model = _trial_model(plan, index, model_factory)
    classes = IntMatrix((model.circle_class(j, i) for j, i in model.circle_order), cols=model.rank)
    product = model.intersection_form * classes.transpose()
    for idx, (row, expected) in enumerate(zip(product.entries, model.boundary_matrix.transpose().entries)):
        for circle, x, y in zip(model.circle_order, row, expected):
            if x != y:
                return _model_witness(config, basis_index=idx, circle=list(circle), problem="adjunction identity fails")
    return None


def _check_circle_orthogonality(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    classes = IntMatrix((model.circle_class(j, i) for j, i in model.circle_order), cols=model.rank)
    if not (classes * model.intersection_form * classes.transpose()).is_zero():
        return _model_witness(config, problem="circle classes not mutually orthogonal")
    return None


def _check_symplectic(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    rng = random.Random(_subseed(plan.seed, 20, index))
    word = _random_ambient_word(model, rng, plan.max_exponent)
    action = transvection_action(model, word)
    J = model.intersection_form
    if action.transpose() * J * action != J:
        return _model_witness(config, word=word_to_json_dict(word), problem="action not symplectic")
    return None


def _check_delta_additive(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    w1 = random_weakly_torelli_word(model, plan, 2 * index)
    w2 = random_weakly_torelli_word(model, plan, 2 * index + 1)
    d1 = delta_difference(model, w1)
    d2 = delta_difference(model, w2)
    if delta_difference(model, concat(w1, w2)).matrix != (d1 + d2).matrix:
        return _model_witness(
            config,
            word1=word_to_json_dict(w1),
            word2=word_to_json_dict(w2),
            problem="difference map not additive",
        )
    if delta_difference(model, invert(w1)).matrix != (-d1).matrix:
        return _model_witness(
            config, word1=word_to_json_dict(w1), problem="difference map of inverse not negated"
        )
    return None


def _functional_equation_failure(model: HomologyModel, action: IntMatrix, delta) -> Optional[int]:
    """First basis index whose displacement under the dense action differs
    from delta applied to its boundary, or None.  A matrix takes basis vector
    idx to its column idx, read here as row idx of its transpose."""
    columns = zip(action.transpose().entries, model.boundary_matrix.transpose().entries)
    for idx, (image, boundary) in enumerate(columns):
        residual = IntVector(image) - IntVector.unit(model.rank, idx)
        coords = model.k0_coords(IntVector(boundary))
        if residual != model.ambient_from_h1bar(delta.matrix.apply(coords)):
            return idx
    return None


def _check_functional_equation(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    word = random_weakly_torelli_word(model, plan, index)
    idx = _functional_equation_failure(model, transvection_action(model, word), delta_difference(model, word))
    if idx is not None:
        return _model_witness(
            config,
            word=word_to_json_dict(word),
            basis_index=idx,
            problem="displacement != difference of boundary",
        )
    return None


def _check_well_defined(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    word = random_weakly_torelli_word(model, plan, index)
    action = transvection_action(model, word)
    rng = random.Random(_subseed(plan.seed, 21, index))
    a = IntVector(rng.randint(-2, 2) for _ in range(model.rank))
    # Same boundary: shift by a combination of boundary-less basis classes (all but the duals).
    a2 = a + IntVector(0 if kind == "dual" else rng.randint(-2, 2) for kind, *_ in model.labels)
    if model.boundary_matrix.apply(a) != model.boundary_matrix.apply(a2):
        return _model_witness(config, problem="shift unexpectedly changed the boundary")
    if action.apply(a) - a != action.apply(a2) - a2:
        return _model_witness(
            config, word=word_to_json_dict(word), problem="difference class not boundary-determined"
        )
    return None


def _check_delta_symmetric(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    word = random_weakly_torelli_word(model, plan, index)
    delta = delta_difference(model, word)
    if not criteria.is_symmetric(delta):
        return _model_witness(
            config, word=word_to_json_dict(word), delta=delta.matrix.to_lists(),
            problem="difference map not symmetric",
        )
    return None


def _check_identity_extension(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    word = random_weakly_torelli_word(model, plan, index)
    decided = criteria.decide_extension_by_identity(model, word)
    acted = transvection_action(model, word) == IntMatrix.identity(model.rank)
    if decided != acted:
        return _model_witness(
            config,
            word=word_to_json_dict(word),
            problem=f"decider says {decided}, action identity is {acted}",
        )
    return None


def _correction_failure(model: HomologyModel, word: TwistWord) -> Optional[dict]:
    """Witness fields when the word's correcting multi-twist leaves it acting, or None."""
    correction = criteria.decide_multitwist_correctable(model, word)
    if correction is None:
        return None
    corrected = concat(realization.build_boundary_multitwist(model, correction), word)
    if transvection_action(model, corrected) == IntMatrix.identity(model.rank):
        return None
    problem = "correcting multi-twist does not trivialize the action"
    return {"word": word_to_json_dict(word), "correction": correction.to_json(), "problem": problem}


def _check_correction_round_trip(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    failure = _correction_failure(model, random_weakly_torelli_word(model, plan, index))
    return None if failure is None else _model_witness(config, **failure)


def _check_three_circle_guarantee(plan, index, model_factory):
    rng = random.Random(_subseed(plan.seed, 22, index))
    small = TrialPlan(**dict(vars(plan), max_boundary_count=min(3, plan.max_boundary_count)))
    config = random_config(small, index)
    model = model_factory(config)
    word = random_weakly_torelli_word(model, small, index)
    extendable = criteria.decide_extendable(model, word)
    correction = criteria.decide_multitwist_correctable(model, word)
    if extendable != (correction is not None):
        return _model_witness(
            config, word=word_to_json_dict(word), problem="guarantee broken on a word"
        )
    delta = random_symmetric_reducible_delta(model, rng)
    if criteria.AnalysisReport(delta).multitwist_correctable is None:
        return _model_witness(
            config, delta=delta.matrix.to_lists(), problem="symmetric map without diagonal restriction"
        )
    return None


def _check_realization_round_trip(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    rng = random.Random(_subseed(plan.seed, 23, index))
    delta = random_symmetric_reducible_delta(model, rng)
    realized = realization.realize_delta(model, delta)
    if delta_difference(model, realized.word).matrix != delta.matrix:
        return _model_witness(
            config, delta=delta.matrix.to_lists(), problem="realized word has wrong difference map"
        )
    witness_action = transvection_action(model, realized.torelli_witness)
    if witness_action != IntMatrix.identity(model.rank):
        return _model_witness(
            config, delta=delta.matrix.to_lists(), problem="bi-twist witness acts nontrivially"
        )
    return None


def _check_multitwist_difference(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    rng = random.Random(_subseed(plan.seed, 24, index))
    exponents = criteria.DiagonalMap(
        [rng.randint(-plan.max_exponent, plan.max_exponent) for _ in range(model.n_circles)]
    )
    word = realization.build_boundary_multitwist(model, exponents)
    expected = reference.restriction_of_diagonal(model, exponents)
    if delta_difference(model, word).matrix != expected.matrix:
        return _model_witness(
            config, exponents=exponents.to_json(), problem="multi-twist difference map wrong"
        )
    return None


def reconstruct_from_coefficients(coeffs: dict[tuple[int, int], int], size: int) -> IntMatrix:
    """The telescoping definition of the basis change: M[i][j] is the sum of
    the coefficients c(k, l), 1-based, over k <= min(i, j) and l >= max(i, j)."""
    cells = range(1, size + 1)
    sums = ([sum(v for (k, l), v in coeffs.items() if k <= min(i, j) <= max(i, j) <= l) for j in cells] for i in cells)
    return IntMatrix(sums, cols=size)


def _check_basis_change(plan, index, model_factory):
    rng = random.Random(_subseed(plan.seed, 25, index))
    size = rng.randint(1, 5)
    entries = [[0] * size for _ in range(size)]
    for r in range(size):
        for c in range(r, size):
            entries[r][c] = entries[c][r] = rng.randint(-2, 2)
    matrix = IntMatrix(entries, cols=size)
    coeffs = realization.sym_basis_change(matrix, size)
    if reconstruct_from_coefficients(coeffs, size) != matrix:
        return {"matrix": matrix.to_lists(), "problem": "basis change does not reconstruct"}
    return None


def _check_peripheral_formula(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    rng = random.Random(_subseed(plan.seed, 26, index))
    j = rng.randrange(model.n_components)
    count = model.config.components[j].boundary_count
    subset = [i for i in range(count) if rng.random() < 0.5] or [rng.randrange(count)]
    exponent = rng.randint(-plan.max_exponent, plan.max_exponent)
    word = TwistWord([TwistFactor(realization.peripheral_class(model, j, subset), exponent, LOCUS_Q)])
    direct = reference.peripheral_twist_delta(model, j, subset, exponent)
    if delta_difference(model, word).matrix != direct.matrix:
        return _model_witness(
            config, component=j, subset=subset, problem="peripheral twist formula mismatch"
        )
    return None


def _check_sign_flip(plan, index, model_factory):
    config = random_config(plan, index)
    model = build_model(config)
    flipped = build_model(config, pairing_sign=-1)
    word = random_weakly_torelli_word(model, plan, index)
    report = criteria.analyze(model, word)
    report_flipped = criteria.analyze(flipped, word)
    if report.to_json_dict() != report_flipped.to_json_dict():
        return _model_witness(
            config, word=word_to_json_dict(word), problem="verdicts depend on the pairing sign"
        )
    return None


def _check_generators(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    word = random_weakly_torelli_word(model, plan, index)
    if not is_weakly_torelli(model, word):
        return _model_witness(
            config, word=word_to_json_dict(word), problem="generated word not weakly Torelli"
        )
    return None


def _check_bounding_pair_products(plan, index, model_factory):
    config, model = _trial_model(plan, index, model_factory)
    rng = random.Random(_subseed(plan.seed, 27, index))
    word = TwistWord()
    for _ in range(rng.randint(1, 2)):  # one circle class c per product
        word = concat(word, random_bounding_pair_product(model, rng))
    if rng.random() < 0.5:  # circle factors between Q-handle ones, at a drawn cut
        cut, circles = rng.randrange(len(word) + 1), random_weakly_torelli_word(model, plan, index)
        word = TwistWord(word.factors[:cut] + circles.factors + word.factors[cut:])
    # Under the flipped form, the word with every exponent negated acts as the word does.
    flipped = build_model(config, pairing_sign=-1)
    mirrored = TwistWord([TwistFactor(f.curve_class, -f.exponent, f.locus) for f in word.factors])
    for model, word, sign in ((model, word, {}), (flipped, mirrored, {"pairing_sign": -1})):
        witness = _model_witness(config, **sign, word=word_to_json_dict(word))
        try:
            delta = delta_difference(model, word)
        except (NotWeaklyTorelli, InconsistentDelta) as exc:
            return dict(witness, problem=f"product rejected: {exc}")
        idx = _functional_equation_failure(model, transvection_action(model, word), delta)
        if idx is not None:
            return dict(witness, basis_index=idx, problem="displacement != difference of boundary")
        owner = [j for j, _ in model.reduced_order]
        reducible = all(
            x == 0 for r, row in enumerate(delta.matrix.entries) for c, x in enumerate(row) if owner[r] != owner[c]
        )
        if criteria.analyze(model, word).completely_reducible != reducible:
            problem = f"reducibility verdict differs from the entry-wise test ({reducible})"
            return dict(witness, delta=delta.matrix.to_lists(), problem=problem)
        if not criteria.is_symmetric(delta):
            return dict(witness, delta=delta.matrix.to_lists(), problem="difference map not symmetric")
        failure = _correction_failure(model, word)
        if failure is not None:
            return dict(witness, **failure)
    return None


INVARIANTS: tuple[tuple[str, Check], ...] = (
    ("exactlin_smith_form", _check_smith_form),
    ("exactlin_solver", _check_solver),
    ("exactlin_kernel", _check_kernel),
    ("model_form_unimodular", _check_form_unimodular),
    ("model_orthogonal_complements", _check_orthogonal_complements),
    ("model_boundary_image", _check_boundary_image),
    ("model_adjunction", _check_adjunction),
    ("model_circle_orthogonality", _check_circle_orthogonality),
    ("word_symplectic", _check_symplectic),
    ("delta_additive", _check_delta_additive),
    ("delta_functional_equation", _check_functional_equation),
    ("delta_well_defined", _check_well_defined),
    ("delta_symmetric", _check_delta_symmetric),
    ("identity_extension_matches_action", _check_identity_extension),
    ("correction_round_trip", _check_correction_round_trip),
    ("three_circle_guarantee", _check_three_circle_guarantee),
    ("realization_round_trip", _check_realization_round_trip),
    ("multitwist_difference", _check_multitwist_difference),
    ("basis_change_round_trip", _check_basis_change),
    ("peripheral_twist_formula", _check_peripheral_formula),
    ("sign_flip_invariance", _check_sign_flip),
    ("generator_soundness", _check_generators),
    ("bounding_pair_products", _check_bounding_pair_products),
)


def verify_all(
    plan: TrialPlan,
    model_factory: Callable[[SubsurfaceConfig], HomologyModel] = build_model,
) -> list[dict]:
    """Run every registered invariant for ``plan.trials`` trials each.

    Returns one report per invariant: its name, the trial count, and the
    witnesses of any failures.
    """
    reports = []
    for name, check in INVARIANTS:
        failures = []
        for index in range(plan.trials):
            witness = check(plan, index, model_factory)
            if witness is not None:
                witness["trial"] = index
                failures.append(witness)
        reports.append({"invariant": name, "trials": plan.trials, "failures": failures})
    return reports


def paper_example_4(m: int):
    """Regression configuration: genus-one subsurface against a genus-one
    complement with four boundary circles, twisted about the class of the
    union of circles 0 and 1.

    For m = 0 the word acts trivially and every verdict is positive.
    """
    config = SubsurfaceConfig(1, [ComplementComponent(1, 4)])
    model = build_model(config)
    cls = model.circle_class(0, 0) + model.circle_class(0, 1)
    word = TwistWord([TwistFactor(cls, m, LOCUS_Q)])
    return criteria.analyze(model, word)
