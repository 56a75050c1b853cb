"""The mutant table stays applicable: every row's source text occurs exactly
once, and every test it lists still exists."""

import ast
from pathlib import Path

from mutants import MUTANTS, ROOT, occurrences, selected


def test_every_mutant_text_occurs_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 12
    assert all(m.text != m.replacement and m.killers for m in MUTANTS)
    stale = [m.name for m in MUTANTS if occurrences(m) != 1]
    assert stale == [], "restate these rows: each text must occur once in src/torelli"


def test_every_listed_killer_is_a_test():
    defined = {
        (path.name, node.name)
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    nodes = (killer.split("::") for m in MUTANTS for killer in m.killers)
    listed = {(Path(file).name, test.split("[")[0]) for file, test in nodes}
    assert listed - defined == set()


def test_substrings_select_the_rows_whose_names_contain_one():
    assert selected(()) == MUTANTS
    equation = [m for m in MUTANTS if m.name.startswith("the functional equation reads rows")]
    assert len(equation) == 2 and selected(["functional equation reads"]) == tuple(equation)
    either = selected(["rows of the action", "first acting step", "rows of the"])  # a row matching two comes once
    assert [m.name for m in either] == [m.name for m in MUTANTS if m in equation or "first acting step" in m.name]
    assert either.index(equation[0]) > 0  # table order, not the order of the substrings
    assert selected(["no row has this name"]) == ()
