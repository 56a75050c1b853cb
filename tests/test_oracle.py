"""Harness determinism, generator soundness, fault injection, reach, regression."""

import ast
import inspect
import itertools
import json
import random

import pytest

from linetrace import missed_lines
from torelli import criteria, mapping_class, oracle, realization, reference
from torelli.exactlin import IntMatrix, IntVector
from torelli.mapping_class import is_weakly_torelli
from torelli.oracle import (
    INVARIANTS,
    TrialPlan,
    paper_example_4,
    random_config,
    random_weakly_torelli_word,
    verify_all,
)
from torelli.surface_model import ComplementComponent, SubsurfaceConfig, build_model


def test_reports_are_deterministic():
    plan = TrialPlan(seed=12345, trials=5)
    first = json.dumps(verify_all(plan), sort_keys=True)
    second = json.dumps(verify_all(plan), sort_keys=True)
    assert first == second


def test_config_draws_are_deterministic_and_bounded():
    plan = TrialPlan(seed=7, trials=1)
    for index in range(1000):
        config = random_config(plan, index)
        assert config == random_config(plan, index)
        assert 0 <= config.q_genus <= plan.max_q_genus
        assert 1 <= len(config.components) <= plan.max_components
        for comp in config.components:
            assert 0 <= comp.genus <= plan.max_component_genus
            assert 1 <= comp.boundary_count <= plan.max_boundary_count


def test_tight_bounds_yield_unique_family():
    plan = TrialPlan(seed=0, trials=1, max_q_genus=0, max_component_genus=0,
                     max_boundary_count=1, max_components=1)
    for index in range(20):
        config = random_config(plan, index)
        assert config.to_json_dict() == {
            "q_genus": 0,
            "components": [{"genus": 0, "boundary_count": 1}],
        }


def test_generated_words_are_weakly_torelli():
    plan = TrialPlan(seed=99, trials=1)
    for index in range(100):
        model = build_model(random_config(plan, index))
        word = random_weakly_torelli_word(model, plan, index)
        assert is_weakly_torelli(model, word)
        assert word == random_weakly_torelli_word(model, plan, index)


def test_all_invariants_pass_on_correct_build():
    reports = verify_all(TrialPlan(seed=2024, trials=12))
    assert [r["invariant"] for r in reports] == [name for name, _ in INVARIANTS]
    for report in reports:
        assert report["trials"] == 12
        assert report["failures"] == []


def test_single_trial_plan_runs_one_trial_each():
    reports = verify_all(TrialPlan(seed=1, trials=1))
    assert all(r["trials"] == 1 for r in reports)


def test_invalid_plans_rejected():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        TrialPlan(trials=0)
    with pytest.raises(ValueError):
        TrialPlan(max_boundary_count=0)
    with pytest.raises(ValueError, match="max_components must be at least 1"):
        TrialPlan(max_components=0)  # a plan checks itself when it is built
    for field, value in (("trials", 2.5), ("seed", "0"), ("max_exponent", 1.5)):
        with pytest.raises(TypeError):
            TrialPlan(**{field: value})
    # The largest rank a plan may draw is 2 (q + r (g + b - 1)), and its circle count r b.
    cap = TrialPlan.MAX_SIZE
    assert cap == 2048
    TrialPlan(max_q_genus=cap // 2, max_components=1, max_component_genus=0, max_boundary_count=1)
    TrialPlan(max_q_genus=0, max_components=cap // 2, max_component_genus=0, max_boundary_count=2)
    for over in ({"max_q_genus": cap // 2 + 1, "max_components": 1, "max_component_genus": 0, "max_boundary_count": 1},
                 {"max_q_genus": 0, "max_components": 1, "max_component_genus": 0, "max_boundary_count": cap // 2 + 2},
                 {"max_q_genus": 0, "max_components": cap + 1, "max_component_genus": 0, "max_boundary_count": 1}):
        with pytest.raises(ValueError, match=f"^the plan may draw a rank or a circle count over {cap}$"):
            TrialPlan(**over)  # rank 2050, 2050 and 0; circles 1, 1026 and 2049


def test_fault_injection_breaks_adjunction():
    def tampered_factory(config):
        model = build_model(config)  # seed the cached view with the tampered matrix
        model.__dict__["intersection_form"] = -model.intersection_form
        return model

    plan = TrialPlan(seed=4, trials=8)
    reports = verify_all(plan, model_factory=tampered_factory)
    by_name = {r["invariant"]: r for r in reports}
    adjunction = by_name["model_adjunction"]
    assert adjunction["failures"], "flipped pairing must break the adjunction identity"
    witness = adjunction["failures"][0]
    assert "config" in witness and "trial" in witness


def test_example_regression_verdicts():
    for m in (1, 2, 5):
        report = paper_example_4(m)
        assert report.weakly_torelli
        assert report.symmetric
        assert report.completely_reducible
        assert report.extendable_to_torelli
        assert not report.extension_by_identity_torelli
        assert report.multitwist_correctable is None
        block = report.component_matrices[0]
        assert block.to_lists() == [[0, 0, 0], [0, m, m], [0, m, m]]


def test_example_regression_degenerate_exponent():
    report = paper_example_4(0)
    assert report.weakly_torelli
    assert report.extension_by_identity_torelli
    assert report.extendable_to_torelli
    assert report.multitwist_correctable is not None
    assert list(report.multitwist_correctable.exponents) == [0, 0, 0, 0]


# -- one fault per model invariant ------------------------------------------
# Each factory seeds a cached dense view of the model with a wrong matrix;
# the last fault patches the peripheral-twist formula instead.


def _negated_boundary(config):
    model = build_model(config)
    model.__dict__["boundary_matrix"] = -model.boundary_matrix
    return model


def _skewed_circles(config):
    """The form plus an antisymmetric +-1 between the first two basis circles."""
    model = build_model(config)
    if model.k0_rank >= 2:
        lo, rows = model.rank - 2 * model.k0_rank, model.intersection_form.to_lists()
        rows[lo][lo + 1] += 1
        rows[lo + 1][lo] -= 1
        model.__dict__["intersection_form"] = IntMatrix(rows)
    return model


def _doubled_form(config):
    model = build_model(config)
    model.__dict__["intersection_form"] = 2 * model.intersection_form
    return model


def _unit_diagonal(config):
    """The form with a 1 on its first diagonal entry: still unimodular, no longer skew."""
    model = build_model(config)
    if model.rank:
        rows = model.intersection_form.to_lists()
        rows[0][0] = 1
        model.__dict__["intersection_form"] = IntMatrix(rows)
    return model


def _doubled_k0_column(config):
    model = build_model(config)  # boundary_matrix is read from k0_basis, so it follows the fault
    if model.k0_rank:
        model.__dict__["k0_basis"] = IntMatrix([[2 * row[0], *row[1:]] for row in model.k0_basis.entries])
    return model


def _negated_peripheral_map(monkeypatch):
    original = reference.peripheral_twist_delta
    monkeypatch.setattr(reference, "peripheral_twist_delta", lambda *args: -original(*args))
    return build_model


FAULT_PLAN = TrialPlan(seed=4, trials=8)
_CONFIG = {"q_genus": 2, "components": [{"genus": 1, "boundary_count": 4}]}  # trial 0 of FAULT_PLAN

# fault: (model factory or None, failure count per invariant, the invariant it aims at, its first witness)
FAULTS = {
    "negated_boundary": (
        _negated_boundary,
        {"model_adjunction": 7, "delta_functional_equation": 3, "bounding_pair_products": 6},
        "model_adjunction", {"basis_index": 9, "circle": [0, 0], "problem": "adjunction identity fails"},
    ),
    "skewed_circles": (
        _skewed_circles,
        {"model_adjunction": 5, "model_circle_orthogonality": 5, "delta_functional_equation": 3,
         "delta_well_defined": 2, "bounding_pair_products": 5},
        "model_circle_orthogonality", {"problem": "circle classes not mutually orthogonal"},
    ),
    "doubled_form": (
        _doubled_form,
        {"model_form_unimodular": 8, "model_adjunction": 7, "delta_functional_equation": 3,
         "bounding_pair_products": 6},
        "model_form_unimodular", {"problems": ["form not unimodular"]},
    ),
    "unit_diagonal": (
        _unit_diagonal,
        {"model_form_unimodular": 8, "model_adjunction": 1, "model_circle_orthogonality": 1,
         "word_symplectic": 5, "realization_round_trip": 1, "bounding_pair_products": 6},
        "model_form_unimodular", {"problems": ["form not skew-symmetric"]},
    ),
    "doubled_k0_column": (
        _doubled_k0_column,
        {"model_orthogonal_complements": 7, "model_adjunction": 7, "delta_functional_equation": 3,
         "peripheral_twist_formula": 3, "bounding_pair_products": 6},
        "model_orthogonal_complements", {"problem": "two-sided classes != annihilator of fundamentals"},
    ),
    "negated_peripheral_map": (
        None,
        {"peripheral_twist_formula": 5},
        "peripheral_twist_formula",
        {"component": 0, "subset": [0, 1], "problem": "peripheral twist formula mismatch"},
    ),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_each_model_fault_trips_its_invariant(fault, monkeypatch):
    factory, counts, target, witness = FAULTS[fault]
    reports = verify_all(FAULT_PLAN, model_factory=factory or _negated_peripheral_map(monkeypatch))
    assert {r["invariant"]: len(r["failures"]) for r in reports if r["failures"]} == counts
    first = next(r for r in reports if r["invariant"] == target)["failures"][0]
    assert first == dict(witness, config=_CONFIG, trial=0)


def test_model_invariants_reach_every_line(monkeypatch):
    def wrong_rank(config):
        model = build_model(config)
        # one spare handle pair: the form stays unimodular and skew
        model.__dict__["rank"] = model.rank + 2
        return model

    checks = (oracle._check_form_unimodular, oracle._check_orthogonal_complements, oracle._check_adjunction,
              oracle._check_circle_orthogonality, oracle._check_peripheral_formula)

    def run():
        for factory in [build_model] + [factory for factory, *_ in FAULTS.values()]:
            factory = factory or _negated_peripheral_map(monkeypatch)  # the patch comes last and stays
            for check in checks:
                for index in range(FAULT_PLAN.trials):
                    check(FAULT_PLAN, index, factory)
        assert oracle._check_form_unimodular(FAULT_PLAN, 0, wrong_rank)["problems"] == ["rank law violated"]

    # Once the two-sided classes are the annihilator of the fundamentals, the
    # fundamentals' rows are saturated, so they are the annihilator of the
    # two-sided classes: no model reaches the second comparison's return.
    lines, first = inspect.getsourcelines(oracle._check_orthogonal_complements)
    unreachable = [first + n for n, line in enumerate(lines) if "annihilator of two-sided classes" in line]
    missed = missed_lines(run, *checks, reference.peripheral_twist_delta)
    assert missed == {"_check_orthogonal_complements": unreachable}


def test_least_plan_reaches_every_line_of_the_reference_action(monkeypatch):
    exponents, action = [], oracle.transvection_action

    def recorded(model, word):
        exponents.extend(m for _, m, _ in word.table)
        return action(model, word)

    monkeypatch.setattr(oracle, "transvection_action", recorded)
    plan = TrialPlan(seed=0, trials=1)  # the least plan: one trial of each invariant
    assert missed_lines(lambda: verify_all(plan), mapping_class.transvection_action) == {}
    assert 0 in exponents and any(exponents)  # a zero exponent skips its step; the others take the product


# -- the solver's refutation ---------------------------------------------------


def _refuting_solver(monkeypatch, refused):
    """Patch ``oracle.solve_integer`` to answer None on the calls ``refused``
    picks by their number (from 1); each solver trial calls it twice, for b
    and then for b2."""
    calls, original = itertools.count(1), oracle.solve_integer
    monkeypatch.setattr(oracle, "solve_integer", lambda a, b: None if refused(next(calls)) else original(a, b))


def test_solver_fault_trips_the_box_search(monkeypatch):
    # Every b2 is refused, so each b2 with a solution in the box is a witness.
    _refuting_solver(monkeypatch, lambda call: call % 2 == 0)
    reports = verify_all(FAULT_PLAN)
    assert {r["invariant"]: len(r["failures"]) for r in reports if r["failures"]} == {"exactlin_solver": 2}
    assert reports[1]["failures"] == [
        {"matrix": [[3, 1, -3]], "rhs": [-4], "solution_missed": [-6, -4, -6], "trial": 1},
        {"matrix": [[-1]], "rhs": [-4], "solution_missed": [4], "trial": 6},
    ]


def test_solver_check_reaches_every_line(monkeypatch):
    def run():  # no call refused, every b2 refused (2 witnesses), every call refused (each b missed)
        for refused, failing in ((lambda call: False, 0), (lambda call: call % 2 == 0, 2), (lambda call: True, 8)):
            _refuting_solver(monkeypatch, refused)
            outcomes = [oracle._check_solver(FAULT_PLAN, index, build_model) for index in range(FAULT_PLAN.trials)]
            assert sum(map(bool, outcomes)) == failing

    assert missed_lines(run, oracle._check_solver, oracle._box_solution) == {}


def _apply_loop(a, b):
    """The box search as it stood: ``IntMatrix.apply`` on each candidate of
    [-6, 6]^cols in ``product`` order; the reference for ``_box_solution``."""
    for xs in itertools.product(range(-6, 7), repeat=a.cols):
        if a.apply(IntVector(xs)) == b:
            return list(xs)
    return None


def test_box_search_matches_the_apply_loop(monkeypatch):
    rng = random.Random(2901)
    systems = []
    for cols in (1, 2, 3):  # the identity over one random row: each corner of the box is the one solution
        for corner in itertools.product((-6, 6), repeat=cols):
            rows = [[int(r == c) for c in range(cols)] for r in range(cols)]
            a = IntMatrix(rows + [[rng.randint(-4, 4) for _ in range(cols)]])
            systems.append((a, a.apply(IntVector(corner))))
    for n in range(240):  # a solution planted at a corner, in the box or just past it; or a random right side
        a = oracle._random_matrix(rng, rng.randint(1, 4), rng.randint(1, 3), bound=4)
        x = rng.choice([[-6, 6, 6], [6, -6, -6], [-6, -6, 6]]) if n % 4 == 0 else [rng.randint(-7, 7) for _ in range(3)]
        b = a.apply(IntVector(x[:a.cols])) if n % 4 < 3 else IntVector(rng.randint(-4, 4) for _ in range(a.rows))
        systems.append((a, b))
    expected = [_apply_loop(a, b) for a, b in systems]
    assert expected[:14] == [list(c) for cols in (1, 2, 3) for c in itertools.product((-6, 6), repeat=cols)]
    assert expected.count(None) > 20
    # The search trusts no IntMatrix arithmetic and no Smith form.
    for name in ("apply", "__mul__"):
        monkeypatch.setattr(IntMatrix, name, None)
    monkeypatch.setattr(oracle, "smith_normal_form", None)
    assert [oracle._box_solution(a, b) for a, b in systems] == expected


# -- the functional equation's column read -----------------------------------


def _apply_loop_failure(model, action, delta):
    """The functional-equation check as it stood: ``IntMatrix.apply`` on each
    unit vector; the reference for ``_functional_equation_failure``."""
    for idx in range(model.rank):
        e = IntVector.unit(model.rank, idx)
        residual = action.apply(e) - e
        boundary = model.k0_coords(model.boundary_matrix.apply(e))
        if residual != model.ambient_from_h1bar(delta.matrix.apply(boundary)):
            return idx
    return None


def test_functional_equation_columns_match_the_apply_loop(monkeypatch):
    cases, check = [], oracle._functional_equation_failure

    def recorded(model, action, delta):
        cases.append((model, action, delta))
        return check(model, action, delta)

    monkeypatch.setattr(oracle, "_functional_equation_failure", recorded)
    verify_all(TrialPlan(seed=0, trials=1))  # the least plan's actions
    assert len(cases) == 3
    plan = TrialPlan(seed=33, trials=1)
    for q_genus, circles in ((1, (2, 2)), (1, (3, 2))):  # ranks 6 and 8
        model = build_model(SubsurfaceConfig(q_genus, [ComplementComponent(0, b) for b in circles]))
        word = random_weakly_torelli_word(model, plan, 0)
        action, delta = mapping_class.transvection_action(model, word), mapping_class.delta_difference(model, word)
        assert not delta.is_zero()
        for r, c in itertools.product(range(model.rank), repeat=2):  # one entry raised by 1: column c fails first
            raised = action.to_lists()
            raised[r][c] += 1
            cases.append((model, IntMatrix(raised), delta))
    expected = [_apply_loop_failure(*case) for case in cases]
    assert expected == [None] * 3 + [c for n in (6, 8) for _, c in itertools.product(range(n), repeat=2)]
    assert [check(*case) for case in cases] == expected


def test_oracle_shares_no_private_helper_with_the_fast_path():
    # The oracle checks the fast path, so it must not reach it through these helpers.
    fast_path = {"partner", "_displacements", "_diagonal_exponents", "_sym_coefficients"}
    sources = [inspect.getsource(oracle), inspect.getsource(reference)]
    names = {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert "_subseed" in names and "_FLOORS" in names  # the walk sees names and attributes
    # Nor does it read any private name that the modules it checks define.
    defined = set()
    for module in (mapping_class, criteria, realization):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    private = {name for name in defined if name.startswith("_") and name != "_" and not name.endswith("__")}
    assert {"_displacements", "_of_edges", "_run_edges"} <= private
    assert not names & (fast_path | private)
