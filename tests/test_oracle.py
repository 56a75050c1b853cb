"""Harness determinism, generator soundness, fault injection, regression."""

import json

import pytest

from torelli.mapping_class import is_weakly_torelli
from torelli.oracle import (
    INVARIANTS,
    TrialPlan,
    paper_example_4,
    random_config,
    random_weakly_torelli_word,
    verify_all,
)
from torelli.surface_model import build_model


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
    with pytest.raises(ValueError):
        TrialPlan(trials=0).validate()
    with pytest.raises(ValueError):
        TrialPlan(max_boundary_count=0).validate()


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
