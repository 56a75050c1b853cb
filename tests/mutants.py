"""Hand mutants of the library, each with the tier-1 tests that must kill it.

Run from the repository root:

    python tests/mutants.py [SUBSTRING ...]

With substrings, only the rows whose names contain one of them run, and the
runner says how many it skipped; the full run, with none, is the gate.

Each row names a file under ``src/torelli``, a piece of its source text, the
text that replaces it, and the test node IDs that must fail once it does.
The runner applies one mutant at a time to a copy of ``src/`` and ``tests/``
in a temporary directory, runs the listed tests there in a child pytest, and
exits 1 when any listed test still passes.  Tier-1 does not collect this
file; ``test_mutants.py`` checks that every row's source text still occurs
exactly once, so a refactor that rewrites a mutated line must restate its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/torelli
    text: str  # occurs exactly once in the tree
    replacement: str
    killers: tuple[str, ...]  # tier-1 node IDs that must fail


MUTANTS = (
    Mutant(
        "sparse add drops the pairing sign", "mapping_class.py",
        "row[c - hi] += s * x", "row[c - hi] += x",
        (
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[-1]",
            "tests/test_oracle.py::test_all_invariants_pass_on_correct_build",
        ),
    ),
    Mutant(
        "the corner update drops the value's square", "mapping_class.py",
        "m * v * v", "m * v",
        (
            "tests/test_acceptance.py::test_criterion_03_functional_equation",
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[1]",
            "tests/test_mapping_class.py::test_two_edge_and_many_edge_classes_match_the_entrywise_sum",
        ),
    ),
    Mutant(
        "an interval's corners start one place late", "mapping_class.py",
        "i, j, w = i - lo, j - lo,", "i, j, w = i - lo + 1, j - lo,",
        (
            "tests/test_acceptance.py::test_criterion_01_four_circle_regression",
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[1]",
            "tests/test_mapping_class.py::test_two_edge_and_many_edge_classes_match_the_entrywise_sum",
        ),
    ),
    Mutant(
        "prefix sum drops the rows above", "mapping_class.py",
        "above = list(map(add, above, accumulate(row)))", "above = list(accumulate(row))",
        (
            "tests/test_acceptance.py::test_criterion_01_four_circle_regression",
            "tests/test_mapping_class.py::test_delta_of_peripheral_twist_matches_expected",
        ),
    ),
    Mutant(
        "Smith form skips the fold", "reference.py",
        "if fold is not None:", "if False:",
        (
            "tests/test_exactlin.py::test_snf_pinned_cases_run_every_line",
            "tests/test_exactlin.py::test_snf_random",
        ),
    ),
    Mutant(
        "Smith form skips the sign fix", "reference.py",
        "if p < 0:", "if False:",
        (
            "tests/test_exactlin.py::test_snf_two_by_two",
            "tests/test_exactlin.py::test_snf_pinned_cases_run_every_line",
        ),
    ),
    Mutant(
        "Smith form skips U in the row operations", "reference.py",
        "u[i] = [x - q * y for x, y in zip(u[i], u[t])]", "u[i] = u[i]",
        (
            "tests/test_exactlin.py::test_snf_two_by_two",
            "tests/test_surface_model.py::test_mv_boundary_lands_in_two_sided_lattice",
        ),
    ),
    Mutant(
        "Smith form skips V in the column operations", "reference.py",
        "for row in a + v:\n                    row[j] -= q * row[t]",
        "for row in a:\n                    row[j] -= q * row[t]",
        (
            "tests/test_exactlin.py::test_snf_two_by_two",
            "tests/test_exactlin.py::test_kernel_of_sum_functional",
        ),
    ),
    Mutant(
        "Smith form skips V in the column swap", "reference.py",
        "for row in a + v:\n            row[t], row[j] = row[j], row[t]",
        "for row in a:\n            row[t], row[j] = row[j], row[t]",
        (
            "tests/test_exactlin.py::test_snf_pinned_cases[rows2-2-diagonal2]",
            "tests/test_surface_model.py::test_orthogonal_complement_equalities",
        ),
    ),
    Mutant(
        "lattice equality drops the rank", "reference.py",
        "{(len(f), math.prod(f)) for f in nonzero}", "{math.prod(f) for f in nonzero}",
        (
            "tests/test_exactlin.py::test_lattices_equal_pinned_cases[a0-b0-False]",
            "tests/test_mapping_class.py::test_inconsistent_system_is_reported",
        ),
    ),
    Mutant(
        "lattice equality drops [A | B]", "reference.py",
        "for M in (A, joint, B))", "for M in (A, B))",
        (
            "tests/test_exactlin.py::test_lattices_equal_takes_three_smith_forms",
            "tests/test_exactlin.py::test_lattices_equal_pinned_cases[a1-b1-False]",
        ),
    ),
    Mutant(
        "lattice equality keeps the zero factors", "reference.py",
        "[d for d in smith_normal_form(M).diagonal() if d]", "[d for d in smith_normal_form(M).diagonal()]",
        (
            "tests/test_exactlin.py::test_lattices_equal_pinned_cases[a2-b2-True]",
            "tests/test_surface_model.py::test_orthogonal_complement_equalities",
        ),
    ),
    Mutant(
        "partner of a circle one place late", "surface_model.py",
        "return (c + k, s) if c < hi", "return (c + k + 1, s) if c < hi",
        (
            "tests/test_acceptance.py::test_criterion_11_bounding_pair_product_fixture",
            "tests/test_mapping_class.py::test_circle_run_matches_the_general_pass[1]",
        ),
    ),
    Mutant(
        "circle-block owner shifted by one place", "surface_model.py",
        "return self.rank - 2 * k, self.rank - k", "return self.rank - 2 * k + 1, self.rank - k + 1",
        (
            "tests/test_surface_model.py::test_layout_owner_matches_labels",
            "tests/test_surface_model.py::test_partner_is_the_form_column",
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[1]",
        ),
    ),
    Mutant(
        "partner of a dual one place late", "surface_model.py",
        "else (c - k, -s)", "else (c - k + 1, -s)",
        (
            "tests/test_surface_model.py::test_partner_is_the_form_column",
        ),
    ),
    Mutant(
        "partner flips the circle and dual signs", "surface_model.py",
        "return (c + k, s) if c < hi else (c - k, -s)",
        "return (c + k, -s) if c < hi else (c - k, s)",
        (
            "tests/test_acceptance.py::test_criterion_11_bounding_pair_product_fixture",
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[-1]",
        ),
    ),
    Mutant(
        "partner flips the handle sign", "surface_model.py",
        "return (c + 1, -s) if c % 2 == 0 else (c - 1, s)", "return (c + 1, s) if c % 2 == 0 else (c - 1, -s)",
        (
            "tests/test_acceptance.py::test_criterion_11_bounding_pair_product_fixture",
            "tests/test_surface_model.py::test_partner_is_the_form_column",
        ),
    ),
    Mutant(
        "configuration skips its q_genus test", "surface_model.py",
        "if self.q_genus < 0:", "if False:",
        (
            "tests/test_cli.py::test_reader_diagnostics_are_pinned[config-13]",
            "tests/test_surface_model.py::test_invalid_configs_rejected",
        ),
    ),
    Mutant(
        "trial plan skips its trials test", "oracle.py",
        '{"trials": 1, ', "{",
        (
            "tests/test_oracle.py::test_invalid_plans_rejected",
        ),
    ),
    Mutant(
        "the plan's rule for max_components is dropped", "oracle.py",
        '"max_components": 1, ', "",
        (
            "tests/test_cli.py::test_check_names_the_bound_that_failed[--max-components]",
            "tests/test_oracle.py::test_invalid_plans_rejected",
        ),
    ),
    Mutant(
        "build_model accepts any pairing sign", "surface_model.py",
        "if pairing_sign not in (1, -1):", "if False:",
        (
            "tests/test_surface_model.py::test_a_model_holds_only_its_two_inputs",
        ),
    ),
    Mutant(
        "difference map skips its shape test", "mapping_class.py",
        "if (matrix.rows, matrix.cols) != (k, k):", "if False:",
        (
            "tests/test_cli.py::test_reader_diagnostics_are_pinned[delta-52]",
            "tests/test_criteria.py::test_map_from_another_configuration_is_rejected",
        ),
    ),
    Mutant(
        "realize_delta skips the layout comparison", "realization.py",
        "if delta.block_ranges != model.block_ranges:", "if False:",
        (
            "tests/test_criteria.py::test_map_from_another_configuration_is_rejected",
        ),
    ),
    Mutant(
        "the pass's sparse add is dropped", "mapping_class.py",
        "row[c - hi] += s * x", "pass",
        (
            "tests/test_acceptance.py::test_criterion_11_bounding_pair_product_fixture",
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[1]",
        ),
    ),
    Mutant(
        "the circle-block sum is dropped", "mapping_class.py",
        "i, j, w = i - lo, j - lo, m * v * v", "i, j, w = i - lo, j - lo, 0",
        (
            "tests/test_acceptance.py::test_criterion_03_functional_equation",
            "tests/test_mapping_class.py::test_rectangle_sums_match_the_entrywise_sum[1]",
            "tests/test_mapping_class.py::test_two_edge_and_many_edge_classes_match_the_entrywise_sum",
        ),
    ),
    Mutant(
        "partner flips the sign of a circle's dual", "surface_model.py",
        "(c + k, s) if c < hi", "(c + k, -s) if c < hi",
        (
            "tests/test_surface_model.py::test_partner_is_the_form_column",
            "tests/test_mapping_class.py::test_circle_run_matches_the_general_pass[1]",
        ),
    ),
    Mutant(
        "the pass drops one factor", "mapping_class.py",
        "rows = _displacements(model, rest)", "rows = _displacements(model, rest[1:])",
        (
            "tests/test_mapping_class.py::test_weakly_torelli_examples",
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[-1]",
        ),
    ),
    Mutant(
        "every factor is sent to the pass", "mapping_class.py",
        "if len(edges) == 2 and lo <= edges[0][0] and edges[1][0] <= hi and word.rank == rank:",
        "if False:",
        (
            "tests/test_mapping_class.py::test_circle_runs_skip_the_word_pass",
            "tests/test_mapping_class.py::test_realized_words_never_build_a_dense_class",
        ),
    ),
    Mutant(
        "an interval that ends at the block's end takes the pass", "mapping_class.py",
        "edges[1][0] <= hi", "edges[1][0] < hi",
        (
            "tests/test_mapping_class.py::test_circle_runs_skip_the_word_pass",
            "tests/test_mapping_class.py::test_realized_words_never_build_a_dense_class",
        ),
    ),
    Mutant(
        "the route test drops its lower bound", "mapping_class.py",
        "len(edges) == 2 and lo <= edges[0][0] and", "len(edges) == 2 and",
        (
            "tests/test_mapping_class.py::test_circle_runs_skip_the_word_pass",
            "tests/test_mapping_class.py::test_weakly_torelli_examples",
        ),
    ),
    Mutant(
        "value equality skips the class check", "exactlin.py",
        "if other.__class__ is self.__class__:", "if True:",
        (
            "tests/test_values.py::test_value_semantics[IntVector]",
            "tests/test_values.py::test_value_semantics[HomologyModel]",
        ),
    ),
    Mutant(
        "value hash drops the first field", "exactlin.py",
        "return hash(self._values(self))", "return hash(self._values(self)[1:])",
        (
            "tests/test_values.py::test_value_semantics[IntMatrix]",
            "tests/test_values.py::test_value_semantics[TwistFactor]",
        ),
    ),
    Mutant(
        "frozen guard lets an assignment through", "exactlin.py",
        '_frozen(f"cannot assign to field {name!r}")', "object.__setattr__(self, name, value)",
        (
            "tests/test_values.py::test_value_semantics[TrialPlan]",
            "tests/test_mapping_class.py::test_interval_factor_matches_the_dense_one",
        ),
    ),
    Mutant(
        "oracle skips the unimodularity test", "oracle.py",
        "if abs(determinant(model.intersection_form)) != 1:", "if False:",
        (
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[doubled_form]",
        ),
    ),
    Mutant(
        "oracle skips the orthogonal-complement comparison", "oracle.py",
        "    rows = ([int(c == j) for c, _ in model.circle_order] for j in range(model.n_components))",
        "    return None",
        (
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[doubled_k0_column]",
        ),
    ),
    Mutant(
        "oracle skips the circle orthogonality test", "oracle.py",
        "if not (classes * model.intersection_form * classes.transpose()).is_zero():", "if False:",
        (
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[skewed_circles]",
        ),
    ),
    Mutant(
        "the box loses +6", "oracle.py",
        "box = range(-6, 7)", "box = range(-6, 6)",
        (
            "tests/test_oracle.py::test_box_search_matches_the_apply_loop",
        ),
    ),
    Mutant(
        "A·x skips the last column", "oracle.py",
        "for column in zip(*a.entries)]", "for column in list(zip(*a.entries))[:-1]]",
        (
            "tests/test_oracle.py::test_box_search_matches_the_apply_loop",
            "tests/test_oracle.py::test_solver_fault_trips_the_box_search",
        ),
    ),
    Mutant(
        "the box search compares the first row only", "oracle.py",
        "if ax == b.entries)", "if ax[:1] == b.entries[:1])",
        (
            "tests/test_oracle.py::test_box_search_matches_the_apply_loop",
        ),
    ),
    Mutant(
        "an unsolvable system goes unrefuted", "oracle.py",
        "_box_solution(a, b2) if solve_integer(a, b2) is None else None", "None",
        (
            "tests/test_oracle.py::test_solver_fault_trips_the_box_search",
            "tests/test_oracle.py::test_solver_check_reaches_every_line",
        ),
    ),
    Mutant(
        "the plan cap counts no circles", "oracle.py",
        "(g + b - 1)), r * b)", "(g + b - 1)), 0)",
        (
            "tests/test_cli.py::test_check_plans_over_the_cap_exit_2",
            "tests/test_oracle.py::test_invalid_plans_rejected",
        ),
    ),
    Mutant(
        "the plan cap is skipped", "oracle.py",
        "r * b) > self.MAX_SIZE:", "r * b) > self.MAX_SIZE and False:",
        (
            "tests/test_cli.py::test_check_plans_over_the_cap_exit_2",
            "tests/test_oracle.py::test_invalid_plans_rejected",
        ),
    ),
    Mutant(
        "oracle skips the peripheral-formula comparison", "oracle.py",
        "if delta_difference(model, word).matrix != direct.matrix:", "if False:",
        (
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[negated_peripheral_map]",
        ),
    ),
    Mutant(
        "value constructor skips its field-set check", "exactlin.py",
        " or values.keys() != self._field_set", "",
        (
            "tests/test_values.py::test_constructor_binds_fields[SNFResult]",
            "tests/test_values.py::test_constructor_binds_fields[HomologyModel]",
        ),
    ),
    Mutant(
        "peripheral class skips its component check", "realization.py",
        'nonempty")\n    if not 0 <= j < model.n_components:', 'nonempty")\n    if False:',
        (
            "tests/test_realization.py::test_peripheral_class_rejects_missing_component",
        ),
    ),
    Mutant(
        "trial plan skips its integer coercion", "oracle.py",
        "*map(operator.index, (seed,", "*((seed,",
        (
            "tests/test_oracle.py::test_invalid_plans_rejected",
        ),
    ),
    Mutant(
        "reducibility test skips the entries right of the block", "criteria.py",
        "any(row[:start]) or any(row[stop:])", "any(row[:start])",
        (
            "tests/test_criteria.py::test_cross_component_entry_detected",
            "tests/test_criteria.py::test_block_readers_match_entrywise_reference",
        ),
    ),
    Mutant(
        "diagonal exponents read their base from the diagonal", "criteria.py",
        "base = rows[0][1] if len(rows) > 1 else 0", "base = rows[0][0] if len(rows) > 1 else 0",
        (
            "tests/test_acceptance.py::test_criterion_07_three_circle_guarantee",
            "tests/test_criteria.py::test_diagonal_restriction_three_circles_unique",
        ),
    ),
    Mutant(
        "the correction keeps the diagonal solution's sign", "criteria.py",
        "exponents += [-base, *(base - row[r] for r, row in enumerate(rows))]",
        "exponents += [base, *(row[r] - base for r, row in enumerate(rows))]",
        (
            "tests/test_cli.py::test_pinned_stdout_for_two_component_config",
            "tests/test_criteria.py::test_correctable_round_trip_on_multitwist",
        ),
    ),
    Mutant(
        "the identity-extension view skips the zero test", "criteria.py",
        "return self.weakly_torelli and self.delta.is_zero()",
        "return self.weakly_torelli",
        (
            "tests/test_acceptance.py::test_criterion_01_four_circle_regression",
            "tests/test_criteria.py::test_extension_by_identity_decider",
        ),
    ),
    Mutant(
        "the shared second-difference reader puts each coefficient one column late", "realization.py",
        "yield r, c - 1, here - right", "yield r, c, here - right",
        (
            "tests/test_acceptance.py::test_criterion_09_basis_change",
            "tests/test_realization.py::test_basis_change_elementary_off_diagonal",
        ),
    ),
    Mutant(
        "block ranges shifted by one place", "surface_model.py",
        "return tuple(zip((0, *stops), stops))",
        "return tuple((a + 1, b + 1) for a, b in zip((0, *stops), stops))",
        (
            "tests/test_criteria.py::test_block_range_is_checked",
            "tests/test_surface_model.py::test_layout_fields_match_explicit_loops",
        ),
    ),
    Mutant(
        "diagonal exponents give up on every block of three rows with a nonzero first row", "criteria.py",
        "if any(x != base for r, row in enumerate(rows)",
        "if len(rows) > 2 and any(rows[0]) or any(x != base for r, row in enumerate(rows)",
        (
            "tests/test_criteria.py::test_block_readers_match_entrywise_reference",
            "tests/test_criteria.py::test_analyze_matches_entrywise_reference",
        ),
    ),
    Mutant(
        "the loader drops the path from schema errors", "cli.py",
        'raise _ParseFailure(f"{path}: {exc}")', "raise _ParseFailure(str(exc))",
        (
            "tests/test_cli.py::test_reader_diagnostics_are_pinned[config-0]",
            "tests/test_cli.py::test_reader_diagnostics_are_pinned[word-17]",
            "tests/test_cli.py::test_reader_diagnostics_are_pinned[delta-36]",
        ),
    ),
    Mutant(
        "the loader sends a word's dimension error to exit 2", "cli.py",
        'raise DimensionMismatch(f"{path}: {exc}")', 'raise _ParseFailure(f"{path}: {exc}")',
        (
            "tests/test_cli.py::test_class_length_error_names_the_word_file",
        ),
    ),
    Mutant(
        "check drops the exponent bound it was given", "cli.py",
        'if name not in ("command", "func")', 'if name not in ("command", "func", "max_exponent")',
        (
            "tests/test_cli.py::test_check_builds_its_plan_from_trial_plan_alone[--max-exponent]",
        ),
    ),
    Mutant(
        "the two-edge update drops one off-diagonal corner", "mapping_class.py",
        "            corners[j][i] -= w\n", "            pass\n",
        (
            "tests/test_acceptance.py::test_criterion_05_realization_round_trip",
            "tests/test_cli.py::test_pinned_stdout_for_two_component_config",
            "tests/test_mapping_class.py::test_two_edge_and_many_edge_classes_match_the_entrywise_sum",
        ),
    ),
    Mutant(
        "the cached view does not store its value", "exactlin.py",
        "value = instance.__dict__[self.name] = self.func(instance)", "value = self.func(instance)",
        (
            "tests/test_exactlin.py::test_cached_view_stores_its_first_read",
            "tests/test_realization.py::test_realized_classes_are_the_peripheral_classes",
        ),
    ),
    Mutant(
        "the exact-int test also accepts float", "exactlin.py",
        "set(map(type, entries)) <= {int}", "set(map(type, entries)) <= {int, float}",
        (
            "tests/test_exactlin.py::test_entries_must_be_integers",
            "tests/test_mapping_class.py::test_library_built_matrices_skip_the_public_checks",
        ),
    ),
    Mutant(
        "the positional fast path is taken at the wrong arity", "exactlin.py",
        "if len(args) == len(self._fields) and not kwargs:", "if len(args) >= len(self._fields) and not kwargs:",
        (
            "tests/test_values.py::test_constructor_binds_fields[SNFResult]",
            "tests/test_values.py::test_constructor_binds_fields[Realization]",
        ),
    ),
    Mutant(
        "the extendable view reads weakly Torelli", "criteria.py",
        "return self.completely_reducible", "return self.weakly_torelli",
        (
            "tests/test_criteria.py::test_cross_component_entry_detected",
            "tests/test_criteria.py::test_block_readers_match_entrywise_reference",
            "tests/test_criteria.py::test_analyze_matches_entrywise_reference",
        ),
    ),
    Mutant(
        "blocks are transposed again", "criteria.py",
        "zip(matrix[start:stop], block.entries)", "zip(matrix[start:stop], zip(*block.entries))",
        (
            "tests/test_criteria.py::test_blocks_read_the_same_in_every_place",
        ),
    ),
    Mutant(
        "the shared edge walk drops a trailing run", "mapping_class.py",
        "    if value:\n        edges.append((end, -value))\n    return tuple(edges)", "    return tuple(edges)",
        (
            "tests/test_mapping_class.py::test_run_edges_agree_with_the_dense_class",
            "tests/test_mapping_class.py::test_the_table_agrees_with_its_factor_view[1]",
            "tests/test_mapping_class.py::test_word_json_round_trip",
        ),
    ),
    Mutant(
        "invert keeps each exponent's sign", "mapping_class.py",
        "[(edges, -m, locus) for edges, m, locus in reversed(word.table)]",
        "[(edges, m, locus) for edges, m, locus in reversed(word.table)]",
        (
            "tests/test_acceptance.py::test_criterion_04_additivity_and_inversion",
            "tests/test_mapping_class.py::test_word_times_formal_inverse_is_identity",
        ),
    ),
    Mutant(
        "the walk skips the word's rank test", "mapping_class.py",
        " and word.rank == rank:", ":",
        (
            "tests/test_mapping_class.py::test_a_word_has_one_rank",
        ),
    ),
    Mutant(
        "a word of given factors skips its rank test", "mapping_class.py",
        "if factor.rank != rank:", "if False:",
        (
            "tests/test_mapping_class.py::test_a_word_has_one_rank",
        ),
    ),
    Mutant(
        "concat skips its rank comparison", "mapping_class.py",
        "if word_a.rank not in (None, rank):", "if False:",
        (
            "tests/test_mapping_class.py::test_a_word_has_one_rank",
        ),
    ),
    Mutant(
        "the reference action skips a zero step before its locus check", "mapping_class.py",
        "_check_locus(model, z, factor.locus, pos)\n        if factor.exponent:\n",
        "if factor.exponent:\n            _check_locus(model, z, factor.locus, pos)\n",
        (
            "tests/test_mapping_class.py::test_zero_exponent_factors_are_still_checked",
        ),
    ),
    Mutant(
        "the Q locus admits the complement handles", "mapping_class.py",
        "if any(z[:a]) or any(z[b:lo]) or any(z[hi:]):", "if any(z[:a]) or any(z[hi:]):",
        (
            "tests/test_cli.py::test_locus_violation_names_the_basis_index[handle]",
            "tests/test_mapping_class.py::test_locus_violations",
            "tests/test_mapping_class.py::test_zero_exponent_factors_are_still_checked",
            "tests/test_mapping_class.py::test_locus_ranges_match_label_walk",
        ),
    ),
    Mutant(
        "a complement locus reads component 0's circles", "mapping_class.py",
        "lo, hi = (lo + c for c in model.block_ranges[j])", "lo, hi = (lo + c for c in model.block_ranges[0])",
        (
            "tests/test_acceptance.py::test_criterion_05_realization_round_trip",
            "tests/test_cli.py::test_decider_commands_do_not_load_the_oracle",
            "tests/test_mapping_class.py::test_inconsistent_system_is_reported",
            "tests/test_mapping_class.py::test_locus_ranges_match_label_walk",
            "tests/test_mapping_class.py::test_least_plan_reaches_both_routes_of_the_walk",
            "tests/test_oracle.py::test_reports_are_deterministic",
            "tests/test_oracle.py::test_all_invariants_pass_on_correct_build",
            "tests/test_oracle.py::test_single_trial_plan_runs_one_trial_each",
            "tests/test_oracle.py::test_fault_injection_breaks_adjunction",
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[negated_boundary]",
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[skewed_circles]",
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[doubled_form]",
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[unit_diagonal]",
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[doubled_k0_column]",
            "tests/test_oracle.py::test_each_model_fault_trips_its_invariant[negated_peripheral_map]",
            "tests/test_oracle.py::test_least_plan_reaches_every_line_of_the_reference_action",
            "tests/test_oracle.py::test_solver_fault_trips_the_box_search",
            "tests/test_oracle.py::test_functional_equation_columns_match_the_apply_loop",
            "tests/test_realization.py::test_realization_round_trip_random",
        ),
    ),
    Mutant(
        "the class length goes unchecked", "mapping_class.py",
        "if len(z) != model.rank:", "if False:",
        (
            "tests/test_mapping_class.py::test_zero_exponent_factors_are_still_checked",
            "tests/test_mapping_class.py::test_a_word_has_one_rank",
        ),
    ),
    Mutant(
        "the reference action skips negative exponents too", "mapping_class.py",
        "if factor.exponent:", "if factor.exponent > 0:",
        (
            "tests/test_mapping_class.py::test_zero_exponent_factors_act_as_the_identity[1]",
            "tests/test_mapping_class.py::test_word_times_formal_inverse_is_identity",
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[-1]",
        ),
    ),
    Mutant(
        "the first acting step is dropped", "mapping_class.py",
        "result = step", "result = IntMatrix.identity(n)",
        (
            "tests/test_mapping_class.py::test_single_transvection_displacement",
            "tests/test_mapping_class.py::test_reference_action_matches_the_identity_seeded_product[1]",
            "tests/test_mapping_class.py::test_reference_action_matches_the_identity_seeded_product[-1]",
        ),
    ),
    Mutant(
        "the functional equation reads rows of the action", "oracle.py",
        "zip(action.transpose().entries,", "zip(action.entries,",
        (
            "tests/test_oracle.py::test_functional_equation_columns_match_the_apply_loop",
            "tests/test_oracle.py::test_all_invariants_pass_on_correct_build",
        ),
    ),
    Mutant(
        "the functional equation reads rows of the boundary matrix", "oracle.py",
        "action.transpose().entries, model.boundary_matrix.transpose().entries",
        "action.transpose().entries, model.boundary_matrix.entries",
        (
            "tests/test_oracle.py::test_functional_equation_columns_match_the_apply_loop",
            "tests/test_oracle.py::test_all_invariants_pass_on_correct_build",
        ),
    ),
    Mutant(
        "a reference step drops its exponent", "mapping_class.py",
        "mjz = [factor.exponent * x for x in", "mjz = [x for x in",
        (
            "tests/test_mapping_class.py::test_single_transvection_displacement",
            "tests/test_mapping_class.py::test_fast_path_matches_dense_reference[1]",
        ),
    ),
    Mutant(
        "the peripheral formula drops its exponent", "reference.py",
        "[exponent * x * y for y in p]", "[x * y for y in p]",
        (
            "tests/test_realization.py::test_peripheral_delta_of_contiguous_subset_is_indicator",
            "tests/test_realization.py::test_peripheral_delta_zero_exponent",
        ),
    ),
    Mutant(
        "the peripheral formula takes circle i of every component", "reference.py",
        "1 if ji in {(j, i) for i in members} else 0", "1 if ji[1] in members else 0",
        (
            "tests/test_oracle.py::test_all_invariants_pass_on_correct_build",
        ),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the row's text occurs in the whole of ``src/torelli``, or -1
    when its own file lacks it."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in (root / "src" / "torelli").glob("*.py")}
    if mutant.text not in sources.get(mutant.file, ""):
        return -1
    return sum(source.count(mutant.text) for source in sources.values())


def survivors(mutant: Mutant) -> list[str]:
    """Apply the mutant to a copy of the tree; return its listed tests that still pass."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "torelli" / mutant.file
        source = path.read_text(encoding="utf-8")
        path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *mutant.killers],
            cwd=copy, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(copy / "src")},
        )
    failed = {line.split()[1] for line in result.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    return [node for node in mutant.killers if node not in failed]


def selected(substrings: Sequence[str]) -> tuple[Mutant, ...]:
    """The rows whose names contain one of ``substrings``, in table order;
    every row when none is given."""
    return tuple(m for m in MUTANTS if not substrings or any(s in m.name for s in substrings))


def main(substrings: Sequence[str] = ()) -> int:
    start, alive, rows = time.perf_counter(), 0, selected(substrings)
    if substrings:
        names = " or ".join(map(repr, substrings))
        print(f"skipped {len(MUTANTS) - len(rows)} of {len(MUTANTS)} rows: no name contains {names}")
    if not rows:
        return 2
    for mutant in rows:
        if occurrences(mutant) != 1:
            print(f"STALE    {mutant.name}: its text does not occur exactly once")
            alive += 1
            continue
        missed = survivors(mutant)
        alive += bool(missed)
        print(f"{'SURVIVED' if missed else 'killed  '} {mutant.name}")
        for node in missed:
            print(f"    passed or not found: {node}")
    print(f"{len(rows) - alive} of {len(rows)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
