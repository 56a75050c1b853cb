"""Command-line surface: schemas, exit codes, and the analyze/realize loop."""

import ast
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli import cli

FOUR_CIRCLE_CONFIG = {"q_genus": 1, "components": [{"genus": 1, "boundary_count": 4}]}


def run_python(args):
    """``python`` in a child process that imports the same package as this one."""
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(args):
    """``torelli`` in a child process that imports the same package as this one."""
    return run_python(["-m", "torelli.cli", *args])


def run_main(capsys, args):
    """In-process ``torelli`` run: (exit code, stdout, stderr)."""
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_parse_error(capsys, args, needle):
    code, out, err = run_main(capsys, args)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and needle in err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def four_circle_class(indices):
    # ambient coordinates for the genus-five model of the four-circle example:
    # qa qb | pa pb | circle 1..3 | dual 1..3, with circle 0 = -(1+2+3)
    cls = [0] * 10
    for i in indices:
        if i == 0:
            for k in (4, 5, 6):
                cls[k] -= 1
        else:
            cls[3 + i] += 1
    return cls


def test_analyze_empty_word(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    word = write_json(tmp_path / "word.json", {"factors": []})
    result = run_cli(["analyze", "--config", config, "--word", word])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["weakly_torelli"] is True
    assert report["extension_by_identity_torelli"] is True
    assert report["extendable_to_torelli"] is True
    assert report["delta"]["matrix"] == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert report["multitwist_correctable"] == [0, 0, 0, 0]


def test_analyze_regression_fixture(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    word = write_json(
        tmp_path / "word.json",
        {"factors": [{"class": four_circle_class([0, 1]), "exponent": 1, "locus": "Q"}]},
    )
    result = run_cli(["analyze", "--config", config, "--word", word])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["weakly_torelli"] is True
    assert report["symmetric"] is True
    assert report["completely_reducible"] is True
    assert report["extendable_to_torelli"] is True
    assert report["extension_by_identity_torelli"] is False
    assert report["multitwist_correctable"] is None


def test_analyze_text_format_matches_json(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    word = write_json(
        tmp_path / "word.json",
        {"factors": [{"class": four_circle_class([0, 1]), "exponent": 2, "locus": "Q"}]},
    )
    as_json = json.loads(run_cli(["analyze", "--config", config, "--word", word]).stdout)
    as_text = run_cli(["analyze", "--config", config, "--word", word, "--format", "text"])
    assert as_text.returncode == 0
    lines = dict(
        line.split(": ", 1) for line in as_text.stdout.splitlines() if ": " in line
    )
    for field in (
        "weakly_torelli",
        "symmetric",
        "completely_reducible",
        "extension_by_identity_torelli",
        "extendable_to_torelli",
    ):
        assert lines[field] == ("true" if as_json[field] else "false")
    assert lines["multitwist_correctable"] == "none"


def test_analyze_flags_non_primitive_class(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    doubled = [2 * e for e in four_circle_class([0, 1])]
    word = write_json(
        tmp_path / "word.json",
        {"factors": [{"class": doubled, "exponent": 1, "locus": "Q"}]},
    )
    result = run_cli(["analyze", "--config", config, "--word", word])
    assert result.returncode == 0, result.stderr
    assert "non-primitive" in result.stderr
    report = json.loads(result.stdout)
    assert report["weakly_torelli"] is True


def test_non_primitive_notes_are_pinned(capsys, tmp_path):
    # contents 1, 3 (negative runs, class at the last circle), 0 (the zero class) and 2
    scaled = [3 * a - 6 * b for a, b in zip(four_circle_class([0]), four_circle_class([2, 3]))]
    classes = [four_circle_class([1]), scaled, [0] * 10, [-2 * e for e in four_circle_class([1, 2])]]
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    word = write_json(
        tmp_path / "word.json",
        {"factors": [{"class": cls, "exponent": 1, "locus": "Q"} for cls in classes]},
    )
    code, out, err = run_main(capsys, ["analyze", "--config", config, "--word", word])
    assert (code, json.loads(out)["weakly_torelli"]) == (0, True)
    assert err == (
        "note: factor 1 class is non-primitive (content 3); treated as a transvection\n"
        "note: factor 3 class is non-primitive (content 2); treated as a transvection\n"
    )


def test_analyze_rejects_ambient_factor(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    word = write_json(
        tmp_path / "word.json",
        {"factors": [{"class": four_circle_class([1]), "exponent": 1, "locus": "S"}]},
    )
    result = run_cli(["analyze", "--config", config, "--word", word])
    assert result.returncode == 3
    assert "locus" in result.stderr


@pytest.mark.parametrize(
    "locus, shown", [({"P": 0}, '{"P": 0}'), ("S", '"S"')], ids=["complement", "ambient"]
)
def test_locus_diagnostic_quotes_the_document(tmp_path, capsys, locus, shown):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    word = write_json(
        tmp_path / "word.json", {"factors": [{"class": [0] * 10, "exponent": 1, "locus": locus}]}
    )
    code, out, err = run_main(capsys, ["analyze", "--config", config, "--word", word])
    assert (code, out) == (3, "")
    assert err == f'error: factor 0: locus must be "Q", got {shown}\n'


@pytest.mark.parametrize(
    "index, shown", [(2, "a_{0,0}"), (7, "dual of circle (0, 1)")], ids=["handle", "dual"]
)
def test_locus_violation_names_the_basis_index(tmp_path, capsys, index, shown):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    cls = [int(i == index) for i in range(10)]
    word = write_json(tmp_path / "word.json", {"factors": [{"class": cls, "exponent": 1, "locus": "Q"}]})
    code, out, err = run_main(capsys, ["analyze", "--config", config, "--word", word])
    assert (code, out) == (3, "")
    where = "outside the subsurface image"
    assert err == f"error: factor 0: class meets basis index {index} ({shown}), {where}\n"


def test_class_length_error_names_the_word_file(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    word = write_json(
        tmp_path / "word.json", {"factors": [{"class": [0, 1], "exponent": 1, "locus": "Q"}]}
    )
    code, out, err = run_main(capsys, ["analyze", "--config", config, "--word", word])
    assert (code, out) == (3, "")
    assert err == f"error: {word}: factors[0].class has length 2, model rank is 10\n"


def test_analyze_parse_errors(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    bad_word = tmp_path / "word.json"
    bad_word.write_text("{not json", encoding="utf-8")
    result = run_cli(["analyze", "--config", config, "--word", str(bad_word)])
    assert result.returncode == 2

    missing_field = write_json(tmp_path / "word2.json", {"factors": [{"exponent": 1}]})
    result = run_cli(["analyze", "--config", config, "--word", missing_field])
    assert result.returncode == 2
    assert "class" in result.stderr

    wrong_length = write_json(
        tmp_path / "word4.json",
        {"factors": [{"class": [0, 1], "exponent": 1, "locus": "Q"}]},
    )
    result = run_cli(["analyze", "--config", config, "--word", wrong_length])
    assert result.returncode == 3
    assert "factors[0].class" in result.stderr

    bad_config = write_json(tmp_path / "config2.json", {"q_genus": 1})
    word = write_json(tmp_path / "word3.json", {"factors": []})
    result = run_cli(["analyze", "--config", bad_config, "--word", word])
    assert result.returncode == 2
    assert "components" in result.stderr


def test_realize_zero_delta(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    delta = write_json(tmp_path / "delta.json", {"blocks": {"0": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}})
    result = run_cli(["realize", "--config", config, "--delta", delta])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"factors": []}


def test_realize_single_indicator_block(tmp_path):
    config = write_json(
        tmp_path / "config.json", {"q_genus": 0, "components": [{"genus": 1, "boundary_count": 3}]}
    )
    delta = write_json(tmp_path / "delta.json", {"blocks": {"0": [[1, 1], [1, 1]]}})
    result = run_cli(["realize", "--config", config, "--delta", delta])
    assert result.returncode == 0, result.stderr
    word = json.loads(result.stdout)
    assert len(word["factors"]) == 1
    assert word["factors"][0]["exponent"] == 1
    assert word["factors"][0]["locus"] == "Q"


# The rank-28 ladder rung (q_genus 2, two components of genus 1 with six
# circles) and one fixed block map with a factor in each component.
LADDER_28_CONFIG = {
    "q_genus": 2,
    "components": [{"genus": 1, "boundary_count": 6}, {"genus": 1, "boundary_count": 6}],
}
LADDER_28_BLOCKS = {
    "0": [[1] * 5 for _ in range(5)],
    "1": [[-2 if r == c == 2 else 0 for c in range(5)] for r in range(5)],
}
LADDER_28_REALIZE_STDOUT = """\
{
  "factors": [
    {
      "class": [
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        1,
        1,
        1,
        1,
        1,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0
      ],
      "exponent": 1,
      "locus": "Q"
    },
    {
      "class": [
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        1,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0
      ],
      "exponent": -2,
      "locus": "Q"
    }
  ]
}
"""
LADDER_28_ANALYZE_TEXT = """\
weakly_torelli: true
symmetric: true
completely_reducible: true
extension_by_identity_torelli: false
extendable_to_torelli: true
multitwist_correctable: [-1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0]
delta:
  [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
  [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
  [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
  [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
  [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
  [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
  [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
  [0, 0, 0, 0, 0, 0, 0, -2, 0, 0]
  [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
  [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
component_matrices:
  component 0:
    [1, 1, 1, 1, 1]
    [1, 1, 1, 1, 1]
    [1, 1, 1, 1, 1]
    [1, 1, 1, 1, 1]
    [1, 1, 1, 1, 1]
  component 1:
    [0, 0, 0, 0, 0]
    [0, 0, 0, 0, 0]
    [0, 0, -2, 0, 0]
    [0, 0, 0, 0, 0]
    [0, 0, 0, 0, 0]
"""


def test_pinned_stdout_for_two_component_config(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", LADDER_28_CONFIG)
    delta = write_json(tmp_path / "delta.json", {"blocks": LADDER_28_BLOCKS})
    code, out, err = run_main(capsys, ["realize", "--config", config, "--delta", delta])
    assert (code, out, err) == (0, LADDER_28_REALIZE_STDOUT, "")
    word = tmp_path / "word.json"
    word.write_text(out, encoding="utf-8")
    args = ["analyze", "--config", config, "--word", str(word), "--format", "text"]
    assert run_main(capsys, args) == (0, LADDER_28_ANALYZE_TEXT, "")


# Edge block sizes: components of 1, 2 and 4 circles give blocks of size 0, 1
# and 3.  Basis: qa qb | pa pb | circle (1,1), (2,1), (2,2), (2,3) | duals.
EDGE_CONFIG = {
    "q_genus": 1,
    "components": [
        {"genus": 0, "boundary_count": 1},
        {"genus": 1, "boundary_count": 2},
        {"genus": 0, "boundary_count": 4},
    ],
}
EDGE_BLOCKS = {"0": [], "1": [[2]], "2": [[3, -1, -1], [-1, 0, -1], [-1, -1, 4]]}


def edge_twist(entries):
    cls = [0] * 12
    for index, value in entries.items():
        cls[index] = value
    return {"factors": [{"class": cls, "exponent": 1, "locus": "Q"}]}


# analyze --format json reports, pinned as the parsed payloads of the stdout.
EDGE_REPORTS = {
    # circle (1,1) + circle (2,1): one class across two components
    "cross": {
        "completely_reducible": False,
        "component_matrices": None,
        "delta": {"matrix": [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
        "extendable_to_torelli": False,
        "extension_by_identity_torelli": False,
        "multitwist_correctable": None,
        "symmetric": True,
        "weakly_torelli": True,
    },
    # circle (2,0) + circle (2,1) = -(circle (2,2) + circle (2,3))
    "four_circle": {
        "completely_reducible": True,
        "component_matrices": [[], [[0]], [[0, 0, 0], [0, 1, 1], [0, 1, 1]]],
        "delta": {"matrix": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]},
        "extendable_to_torelli": True,
        "extension_by_identity_torelli": False,
        "multitwist_correctable": None,
        "symmetric": True,
        "weakly_torelli": True,
    },
    "realized": {
        "completely_reducible": True,
        "component_matrices": [[], [[2]], [[3, -1, -1], [-1, 0, -1], [-1, -1, 4]]],
        "delta": {"matrix": [[2, 0, 0, 0], [0, 3, -1, -1], [0, -1, 0, -1], [0, -1, -1, 4]]},
        "extendable_to_torelli": True,
        "extension_by_identity_torelli": False,
        "multitwist_correctable": [0, 0, -2, 1, -4, -1, -5],
        "symmetric": True,
        "weakly_torelli": True,
    },
}


def test_pinned_stdout_for_edge_block_sizes(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", EDGE_CONFIG)
    delta = write_json(tmp_path / "delta.json", {"blocks": EDGE_BLOCKS})
    code, realized, err = run_main(capsys, ["realize", "--config", config, "--delta", delta])
    assert (code, err) == (0, "")
    words = {
        "cross": edge_twist({4: 1, 5: 1}),
        "four_circle": edge_twist({6: -1, 7: -1}),
        "realized": json.loads(realized),
    }
    for name, word in words.items():
        path = write_json(tmp_path / f"{name}.json", word)
        args = ["analyze", "--config", config, "--word", path, "--format", "json"]
        expected = json.dumps(EDGE_REPORTS[name], indent=2, sort_keys=True) + "\n"
        assert run_main(capsys, args) == (0, expected, ""), name


def test_realize_asymmetric_exits_4(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    delta = write_json(tmp_path / "delta.json", {"blocks": {"0": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}})
    result = run_cli(["realize", "--config", config, "--delta", delta])
    assert result.returncode == 4


def test_realize_cross_component_exits_5(tmp_path):
    config = write_json(
        tmp_path / "config.json",
        {"q_genus": 0, "components": [{"genus": 0, "boundary_count": 2}, {"genus": 0, "boundary_count": 2}]},
    )
    delta = write_json(tmp_path / "delta.json", {"matrix": [[0, 1], [1, 0]]})
    result = run_cli(["realize", "--config", config, "--delta", delta])
    assert result.returncode == 5


def test_analyze_of_realized_word_reports_same_delta(tmp_path, capsys):
    rng = random.Random(2718)
    config_payload = {"q_genus": 0, "components": [{"genus": 0, "boundary_count": 3}]}
    config = write_json(tmp_path / "config.json", config_payload)
    for trial in range(50):
        a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        block = [[a, b], [b, c]]
        delta = write_json(tmp_path / f"delta{trial}.json", {"blocks": {"0": block}})
        code, out, err = run_main(capsys, ["realize", "--config", config, "--delta", delta])
        assert code == 0, err
        word = write_json(tmp_path / f"word{trial}.json", json.loads(out))
        code, out, err = run_main(capsys, ["analyze", "--config", config, "--word", word])
        assert code == 0, err
        report = json.loads(out)
        assert report["component_matrices"] == [block]
        assert report["weakly_torelli"] is True


def test_realize_then_analyze_subprocess_smoke(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    block = [[1, -2, 0], [-2, 3, 1], [0, 1, -1]]
    delta = write_json(tmp_path / "delta.json", {"blocks": {"0": block}})
    realized = run_cli(["realize", "--config", config, "--delta", delta])
    assert realized.returncode == 0, realized.stderr
    word = write_json(tmp_path / "word.json", json.loads(realized.stdout))
    analyzed = run_cli(["analyze", "--config", config, "--word", word])
    assert analyzed.returncode == 0, analyzed.stderr
    assert json.loads(analyzed.stdout)["component_matrices"] == [block]


def test_unparseable_json_files_exit_2(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    assert_parse_error(capsys, ["analyze", "--config", config, "--word", str(deep)], "nested")
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    assert_parse_error(capsys, ["analyze", "--config", config, "--word", str(utf16)], "utf-8")
    if hasattr(sys, "get_int_max_str_digits"):  # integer literals past the parser's digit limit
        huge = tmp_path / "huge.json"
        huge.write_text('{"factors": [{"class": [' + "9" * 5000 + "]}]}", encoding="utf-8")
        assert_parse_error(capsys, ["analyze", "--config", config, "--word", str(huge)], "huge.json")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-string digit limit")
def test_outputs_past_the_digit_limit_exit_2(tmp_path, capsys):
    # Every input integer fits the limit; a sum or a difference of them does not.
    limit = sys.get_int_max_str_digits()
    big = "9" * limit
    config = write_json(tmp_path / "config.json", {"q_genus": 1, "components": [{"genus": 0, "boundary_count": 3}]})
    factor = '{"class": [0, 0, 1, 0, 0, 0], "exponent": %s, "locus": "Q"}' % big
    word = tmp_path / "word.json"
    word.write_text('{"factors": [%s]}' % ", ".join([factor] * 20), encoding="utf-8")
    # One factor of content 2: its m·v² has one digit more, and a failing run prints no note.
    doubled = tmp_path / "doubled.json"
    doubled.write_text('{"factors": [%s]}' % factor.replace("[0, 0, 1,", "[0, 0, 2,"), encoding="utf-8")
    delta = tmp_path / "delta.json"
    delta.write_text('{"blocks": {"0": [[%s, -%s], [-%s, %s]]}}' % (big, big, big, big), encoding="utf-8")
    huge = tmp_path / "huge.json"
    huge.write_text('{"q_genus": 0, "components": [{"genus": 0, "boundary_count": 1%s}]}' % ("0" * 3000),
                    encoding="utf-8")
    for args in (
        ["analyze", "--config", config, "--word", str(word)],
        ["analyze", "--config", config, "--word", str(word), "--format", "text"],
        ["analyze", "--config", config, "--word", str(doubled)],
        ["realize", "--config", config, "--delta", str(delta)],
        ["ranks", "--config", str(huge)],
    ):
        code, out, err = run_main(capsys, args)
        assert (code, out) == (2, "")
        assert err == f"error: {args[0]}: an output integer has more than {limit} digits, too many to print\n"


# A child that runs ``torelli`` in at most 1 GiB of address space, so that an
# unbounded allocation ends in a MemoryError there, not in the host's OOM killer.
LIMITED_CLI = "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); " \
    "from torelli import cli; sys.exit(cli.main(sys.argv[1:]))"


def test_configurations_over_the_cap_exit_2(tmp_path):
    # At k0_rank 99 999 the map alone would hold 10^10 entries.  The two huge genera have k0_rank 1, but
    # realize wrote a dense class of their rank: a MemoryError and an OverflowError traceback, exit 1.
    for q_genus, n, blocks, rank in ((0, 100000, {}, 199998),
                                     (10**8, 2, {"0": [[1]]}, 200000002),
                                     (10**30, 2, {"0": [[1]]}, 2 * 10**30 + 2)):
        oversized = {"q_genus": q_genus, "components": [{"genus": 0, "boundary_count": n}]}
        config = write_json(tmp_path / "config.json", oversized)
        word = write_json(tmp_path / "word.json", {"factors": []})
        delta = write_json(tmp_path / "delta.json", {"blocks": blocks})
        for args in (["analyze", "--config", config, "--word", word],
                     ["realize", "--config", config, "--delta", delta]):
            result = run_python(["-c", LIMITED_CLI, *args])
            assert (result.returncode, result.stdout) == (2, ""), result.stderr[-300:]
            assert result.stderr == f"error: {config}: rank is {rank}, over the limit of {cli.MAX_RANK}\n"
    assert cli.MAX_RANK == 4096


def test_realized_words_over_the_cap_exit_2(tmp_path, monkeypatch, capsys):
    # Rank 1024, under the rank cap: one genus-0 component of 513 circles and a seeded symmetric +-1 block
    # realize as 82 068 factors.  Writing their classes out ended in a MemoryError traceback, exit 1.
    rng, k = random.Random(0), 512
    rows = [[0] * k for _ in range(k)]
    for r in range(k):
        for c in range(r, k):
            rows[r][c] = rows[c][r] = rng.choice((-1, 1))
    config = write_json(tmp_path / "config.json", {"q_genus": 0, "components": [{"genus": 0, "boundary_count": 513}]})
    delta = write_json(tmp_path / "delta.json", {"blocks": {"0": rows}})
    result = run_python(["-c", LIMITED_CLI, "realize", "--config", config, "--delta", delta])
    assert (result.returncode, result.stdout) == (2, ""), result.stderr[-300:]
    assert result.stderr == f"error: {delta}: the realized word holds {82068 * 1024} class entries, " \
        f"over the limit of {cli.MAX_WORD_ENTRIES}\n"
    assert cli.MAX_WORD_ENTRIES == 1 << 23
    # The cap counts factors times rank and lets a word of exactly that size through: 3 factors at rank 10.
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    delta = write_json(tmp_path / "delta.json", {"blocks": {"0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}})
    monkeypatch.setattr(cli, "MAX_WORD_ENTRIES", 30)
    code, out, err = run_main(capsys, ["realize", "--config", config, "--delta", delta])
    assert (code, len(json.loads(out)["factors"]), err) == (0, 3, "")
    monkeypatch.setattr(cli, "MAX_WORD_ENTRIES", 29)
    code, out, err = run_main(capsys, ["realize", "--config", config, "--delta", delta])
    assert (code, out) == (2, "")
    assert err == f"error: {delta}: the realized word holds 30 class entries, over the limit of 29\n"


def test_check_plans_over_the_cap_exit_2():
    # The first three plans ended in a MemoryError traceback with exit 1 before the cap; the last one draws
    # ranks whose digits are past the int-to-string limit.
    for flags in (["--max-boundary-count", "1000000"],
                  ["--max-q-genus", "100000"],
                  ["--max-components", "1000000", "--max-boundary-count", "1", "--max-component-genus", "0"],
                  ["--max-components", "9" * 4000, "--max-boundary-count", "9" * 4000]):
        result = run_python(["-c", LIMITED_CLI, "check", "--trials", "1", *flags])
        assert (result.returncode, result.stdout) == (2, ""), result.stderr[-300:]
        assert result.stderr == "error: the plan may draw a rank or a circle count over 2048\n"


def test_other_value_errors_keep_their_traceback(tmp_path, monkeypatch):
    # Only the digit limit maps to exit 2; a ValueError from a fault propagates.
    config = write_json(tmp_path / "config.json", {"q_genus": 1, "components": [{"genus": 0, "boundary_count": 3}]})

    def broken(report):
        raise ValueError("not a digit-limit failure")

    monkeypatch.setattr(cli, "_report_text", broken)
    word = write_json(tmp_path / "word.json", {"factors": []})
    with pytest.raises(ValueError, match="not a digit-limit failure"):
        cli.main(["analyze", "--config", config, "--word", word, "--format", "text"])


def test_realize_rejects_ambiguous_delta_files(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    zero = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    both = write_json(tmp_path / "both.json", {"blocks": {"0": zero}, "matrix": zero})
    assert_parse_error(capsys, ["realize", "--config", config, "--delta", both], "both")
    for key in (" 0", "+0", "00", "-0", "0 ", "0x0", "\u0660"):
        delta = write_json(tmp_path / "key.json", {"blocks": {key: zero}})
        assert_parse_error(
            capsys, ["realize", "--config", config, "--delta", delta], "not a component index"
        )
    canonical = write_json(tmp_path / "canonical.json", {"blocks": {"0": zero}})
    code, out, _ = run_main(capsys, ["realize", "--config", config, "--delta", canonical])
    assert code == 0 and json.loads(out) == {"factors": []}


ZERO_BLOCK = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
FOUR_CIRCLE_WORD = {"factors": [{"class": four_circle_class([0, 1]), "exponent": 1, "locus": "Q"}]}


@pytest.mark.parametrize(
    "config, word, delta, key",
    [
        ({**FOUR_CIRCLE_CONFIG, "y": 2}, None, None, "'y'"),
        ({"q_genus": 1, "components": [{"genus": 1, "boundary_count": 4, "x": 1}]}, None, None, "'x'"),
        (FOUR_CIRCLE_CONFIG, {"factors": [], "extra": 1}, None, "'extra'"),
        (FOUR_CIRCLE_CONFIG, {"factors": [{**FOUR_CIRCLE_WORD["factors"][0], "junk": 1}]}, None, "'junk'"),
        (FOUR_CIRCLE_CONFIG, None, {"blocks": {"0": ZERO_BLOCK}, "junk": 2}, "'junk'"),
    ],
    ids=["config", "component", "word", "factor", "delta"],
)
def test_unknown_keys_exit_2(tmp_path, capsys, config, word, delta, key):
    args = ["--config", write_json(tmp_path / "config.json", config)]
    if delta is None:
        word_path = write_json(tmp_path / "word.json", word or FOUR_CIRCLE_WORD)
        args = ["analyze", *args, "--word", word_path]
    else:
        args = ["realize", *args, "--delta", write_json(tmp_path / "delta.json", delta)]
    assert_parse_error(capsys, args, f"unknown field {key}")


def test_analyze_notes_only_on_success(tmp_path, capsys):
    # non-primitive, and it meets the dual of circle 1, outside the subsurface image
    config = write_json(
        tmp_path / "config.json", {"q_genus": 1, "components": [{"genus": 0, "boundary_count": 3}]}
    )
    word = write_json(
        tmp_path / "word.json",
        {"factors": [{"class": [2, 0, 0, 0, 2, 0], "exponent": 1, "locus": "Q"}]},
    )
    code, out, err = run_main(capsys, ["analyze", "--config", config, "--word", word])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and "note:" not in err


@pytest.mark.parametrize(
    "delta, needle",
    [
        ({"blocks": {"0": [[1, 2, 3], [4, 5]]}}, "blocks[0]: ragged rows"),
        ({"matrix": 5}, "matrix must be a list of rows"),
        ({"matrix": [[1.5]]}, "matrix entries must be integers"),
    ],
)
def test_delta_matrix_errors_name_the_file(tmp_path, capsys, delta, needle):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    path = write_json(tmp_path / "delta.json", delta)
    args = ["realize", "--config", config, "--delta", path]
    assert_parse_error(capsys, args, f"error: {path}: {needle}")


# One document per diagnostic of the three readers, each with a single fault,
# and the exact stderr line and exit code it ends in.  ``{path}`` stands for
# the faulty file.  Configs run through ``ranks``, words through ``analyze``
# on FOUR_CIRCLE_CONFIG (rank 10), deltas through ``realize`` on
# DELTA_CONFIG (blocks of size 1 and 2, k0 3).
DELTA_CONFIG = {"q_genus": 0, "components": [{"genus": 0, "boundary_count": 2}, {"genus": 1, "boundary_count": 3}]}
COMPONENT = {"genus": 1, "boundary_count": 4}
FACTOR = FOUR_CIRCLE_WORD["factors"][0]
BLOCKS = {"0": [[1]], "1": [[0, 2], [2, 0]]}
READER_DIAGNOSTICS = [
    ("config", [], 2, "{path}: config must be a JSON object"),
    ("config", {"components": [COMPONENT]}, 2, "{path}: config is missing field 'q_genus'"),
    ("config", {"q_genus": 1}, 2, "{path}: config is missing field 'components'"),
    ("config", {**FOUR_CIRCLE_CONFIG, "x": 1}, 2, "{path}: config has unknown field 'x'"),
    ("config", {"q_genus": True, "components": [COMPONENT]}, 2, "{path}: field 'q_genus' must be an integer"),
    ("config", {"q_genus": 1.0, "components": [COMPONENT]}, 2, "{path}: field 'q_genus' must be an integer"),
    ("config", {"q_genus": 1, "components": {}}, 2, "{path}: field 'components' must be a list"),
    ("config", {"q_genus": 1, "components": [3]}, 2, "{path}: components[0] must be an object"),
    ("config", {"q_genus": 1, "components": [{"boundary_count": 4}]}, 2,
     "{path}: components[0] is missing field 'genus'"),
    ("config", {"q_genus": 1, "components": [COMPONENT, {"genus": 0}]}, 2,
     "{path}: components[1] is missing field 'boundary_count'"),
    ("config", {"q_genus": 1, "components": [{"genus": "1", "boundary_count": 4}]}, 2,
     "{path}: components[0].genus must be an integer"),
    ("config", {"q_genus": 1, "components": [{"genus": 1, "boundary_count": False}]}, 2,
     "{path}: components[0].boundary_count must be an integer"),
    ("config", {"q_genus": 1, "components": [{**COMPONENT, "x": 0}]}, 2,
     "{path}: components[0] has unknown field 'x'"),
    ("config", {"q_genus": -1, "components": [COMPONENT]}, 2, "{path}: q_genus must be nonnegative"),
    ("config", {"q_genus": 1, "components": []}, 2, "{path}: components must be nonempty"),
    ("config", {"q_genus": 1, "components": [{"genus": -1, "boundary_count": 4}]}, 2,
     "{path}: components[0].genus must be nonnegative"),
    ("config", {"q_genus": 1, "components": [{"genus": 1, "boundary_count": 0}]}, 2,
     "{path}: components[0].boundary_count must be positive"),
    ("word", [], 2, "{path}: word must be a JSON object"),
    ("word", {}, 2, "{path}: word is missing field 'factors'"),
    ("word", {"factors": [], "x": 1}, 2, "{path}: word has unknown field 'x'"),
    ("word", {"factors": {}}, 2, "{path}: field 'factors' must be a list"),
    ("word", {"factors": [FACTOR, 1]}, 2, "{path}: factors[1] must be an object"),
    ("word", {"factors": [{"exponent": 1, "locus": "Q"}]}, 2, "{path}: factors[0] is missing field 'class'"),
    ("word", {"factors": [{"class": FACTOR["class"], "locus": "Q"}]}, 2,
     "{path}: factors[0] is missing field 'exponent'"),
    ("word", {"factors": [{"class": FACTOR["class"], "exponent": 1}]}, 2,
     "{path}: factors[0] is missing field 'locus'"),
    ("word", {"factors": [{**FACTOR, "x": 1}]}, 2, "{path}: factors[0] has unknown field 'x'"),
    ("word", {"factors": [{**FACTOR, "class": "1"}]}, 2, "{path}: factors[0].class must be a list of integers"),
    ("word", {"factors": [{**FACTOR, "class": [0] * 9 + [True]}]}, 2,
     "{path}: factors[0].class must be a list of integers"),
    ("word", {"factors": [{**FACTOR, "class": [0] * 8 + [1.0, 0]}]}, 2,
     "{path}: factors[0].class must be a list of integers"),
    ("word", {"factors": [{**FACTOR, "class": [0] * 5 + [[1]] + [0] * 4}]}, 2,
     "{path}: factors[0].class must be a list of integers"),
    ("word", {"factors": [{**FACTOR, "class": [0, 1]}]}, 3,
     "{path}: factors[0].class has length 2, model rank is 10"),
    ("word", {"factors": [{**FACTOR, "exponent": True}]}, 2, "{path}: factors[0].exponent must be an integer"),
    ("word", {"factors": [{**FACTOR, "exponent": 1.5}]}, 2, "{path}: factors[0].exponent must be an integer"),
    ("word", {"factors": [{**FACTOR, "locus": "X"}]}, 2,
     '{path}: factors[0].locus must be "Q", "S" or {"P": j}'),
    ("word", {"factors": [{**FACTOR, "locus": {"P": 0, "x": 1}}]}, 2,
     '{path}: factors[0].locus must be "Q", "S" or {"P": j}'),
    ("word", {"factors": [{**FACTOR, "locus": {"P": "0"}}]}, 2, "{path}: factors[0].locus.P must be an integer"),
    ("delta", [], 2, "{path}: delta must be a JSON object"),
    ("delta", {"blocks": BLOCKS, "matrix": []}, 2, "{path}: delta has both 'blocks' and 'matrix'; give one"),
    ("delta", {}, 2, "{path}: delta needs a 'blocks' or 'matrix' field"),
    ("delta", {"blocks": BLOCKS, "x": 1}, 2, "{path}: delta has unknown field 'x'"),
    ("delta", {"blocks": []}, 2, "{path}: field 'blocks' must be an object"),
    ("delta", {"blocks": {"a": [[1]]}}, 2, "{path}: block key 'a' is not a component index"),
    ("delta", {"blocks": {"0": 5}}, 2, "{path}: blocks[0] must be a list of rows"),
    ("delta", {"blocks": {"0": [[1]], "1": [[0, 0], 5]}}, 2, "{path}: blocks[1] must be a list of rows"),
    ("delta", {"blocks": {"1": [[0, True], [0, 0]]}}, 2, "{path}: blocks[1] entries must be integers"),
    ("delta", {"blocks": {"1": [[0, 0], [0, "0"]]}}, 2, "{path}: blocks[1] entries must be integers"),
    ("delta", {"blocks": {"1": [[0, 0], [0]]}}, 2, "{path}: blocks[1]: ragged rows"),
    ("delta", {"blocks": {"2": [[0]]}}, 2, "{path}: no complement component 2"),
    ("delta", {"blocks": {"1": [[0]]}}, 2, "{path}: component 1 block must be 2x2, got 1x1"),
    ("delta", {"matrix": 5}, 2, "{path}: matrix must be a list of rows"),
    ("delta", {"matrix": [[0, 0, 0], [0, 0.5, 0], [0, 0, 0]]}, 2, "{path}: matrix entries must be integers"),
    ("delta", {"matrix": [[0, 0, 0], [0, 0], [0, 0, 0]]}, 2, "{path}: matrix: ragged rows"),
    ("delta", {"matrix": [[0, 0], [0, 0]]}, 2, "{path}: difference map must be 3x3"),
    ("delta", {"matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}, 4, "difference map is not symmetric"),
    ("delta", {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}, 5, "difference map mixes complement components"),
    # Two faults: every object reports its missing fields before its field types.
    ("config", {"q_genus": 1, "components": [{"genus": True}]}, 2,
     "{path}: components[0] is missing field 'boundary_count'"),
]


@pytest.mark.parametrize(
    "kind, document, code, line",
    READER_DIAGNOSTICS,
    ids=[f"{kind}-{n}" for n, (kind, *_) in enumerate(READER_DIAGNOSTICS)],
)
def test_reader_diagnostics_are_pinned(tmp_path, capsys, kind, document, code, line):
    path = write_json(tmp_path / f"{kind}.json", document)
    if kind == "config":
        args = ["ranks", "--config", path]
    elif kind == "word":
        args = ["analyze", "--config", write_json(tmp_path / "c.json", FOUR_CIRCLE_CONFIG), "--word", path]
    else:
        args = ["realize", "--config", write_json(tmp_path / "c.json", DELTA_CONFIG), "--delta", path]
    assert run_main(capsys, args) == (code, "", "error: " + line.replace("{path}", path) + "\n")


def test_reader_diagnostics_documents_are_one_fault_from_valid(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    assert run_main(capsys, ["ranks", "--config", config])[0] == 0
    word = write_json(tmp_path / "word.json", {"factors": [FACTOR]})
    assert run_main(capsys, ["analyze", "--config", config, "--word", word])[0] == 0
    config = write_json(tmp_path / "config.json", DELTA_CONFIG)
    delta = write_json(tmp_path / "delta.json", {"blocks": BLOCKS})
    assert run_main(capsys, ["realize", "--config", config, "--delta", delta])[0] == 0


# Arbitrary JSON that keeps every integer small, so no mutation asks for a
# large model (build_model allocates a dense rank x rank form).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-4, 4) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def valid_documents(rng, digits=None):
    """A configuration (genus and circle counts <= 6), a word of up to three
    twists and a delta document in block or full-matrix form.  With
    ``digits``, every factor is in Q, the delta is symmetric blocks, and each
    nonzero exponent and delta entry is +-(10**digits - 1), ``digits`` digits
    long: valid input whose sums and second differences may be longer."""

    def scaled(x):
        return x if digits is None else ((x > 0) - (x < 0)) * (10**digits - 1)

    q_genus = rng.randint(0, 2)
    comps = [(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 2))]
    config = {"q_genus": q_genus, "components": [{"genus": g, "boundary_count": n} for g, n in comps]}
    k = sum(n - 1 for _, n in comps)
    rank = 2 * (q_genus + sum(g for g, _ in comps)) + 2 * k
    q_support = list(range(2 * q_genus)) + list(range(rank - 2 * k, rank - k))  # Q handles, circles
    factors = []
    for _ in range(rng.randint(0, 3)):
        cls = [0] * rank
        for i in rng.sample(q_support, min(len(q_support), rng.randint(1, 3))):
            cls[i] = rng.randint(-2, 2)
        locus = rng.choice(["Q", "Q", "Q", "S", {"P": rng.randint(0, len(comps))}])
        factors.append({"class": cls, "exponent": scaled(rng.randint(-2, 2)),
                        "locus": locus if digits is None else "Q"})

    def square(size):  # symmetric, save for one entry now and then
        upper = {(r, c): scaled(rng.randint(-2, 2)) for r in range(size) for c in range(r, size)}
        matrix = [[upper[min(r, c), max(r, c)] for c in range(size)] for r in range(size)]
        if digits is None and size and rng.random() < 0.2:
            matrix[0][-1] += 1
        return matrix

    if digits is not None or rng.random() < 0.7:
        delta = {"blocks": {str(j): square(n - 1) for j, (_, n) in enumerate(comps)}}
    else:
        delta = {"matrix": square(k)}
    return {"config": config, "word": {"factors": factors}, "delta": delta}


def _containers(doc):
    if isinstance(doc, (dict, list)):
        yield doc
        for child in doc.values() if isinstance(doc, dict) else doc:
            yield from _containers(child)


def oversized_configs():
    """Fresh configurations past the cap on the rank that analyze and realize
    accept: one circle past it, and a genus too large for a dense class."""
    return [{"q_genus": 0, "components": [{"genus": 0, "boundary_count": cli.MAX_RANK // 2 + 2}]},
            {"q_genus": 10**8, "components": [{"genus": 0, "boundary_count": 2}]}]


# What a list of integers may hide: a bool, a float, a string, a nested list,
# or an integer too large for any machine word.
BURIED = st.sampled_from([True, False, 1.0, -2.5, "1", "", [1], [[0, [2]]], 10**200, -(10**200)])


@st.composite
def malformed_documents(draw):
    """Valid documents with up to two edits: a key dropped, a key added,
    or a value (or a whole document) swapped for arbitrary JSON.  Then,
    now and then, a value from BURIED replaces an entry in the back half
    of one of the word's or the delta's integer lists.  Or, now and then,
    valid documents whose exponents and delta entries have as many digits as
    the JSON reader takes.  Returns the documents, the name of the one that
    hides a non-integer (or None), and whether they are at the digit limit."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if hasattr(sys, "get_int_max_str_digits") and draw(st.integers(0, 9)) == 0:
        return valid_documents(rng, sys.get_int_max_str_digits()), None, True
    docs = valid_documents(rng)
    if draw(st.integers(0, 9)) == 0:
        docs["config"] = draw(st.sampled_from(oversized_configs()))
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(docs)))
        if draw(st.integers(0, 9)) == 0:
            docs[name] = draw(JSON_VALUES)
            continue
        containers = list(_containers(docs[name]))
        if not containers:
            continue
        target = draw(st.sampled_from(containers))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        edit = draw(st.sampled_from(["drop", "add", "swap"] if keys else ["add"]))
        if edit == "add" and isinstance(target, dict):
            target[draw(st.text(max_size=3))] = draw(JSON_VALUES)
        elif edit == "add":
            target.append(draw(JSON_VALUES))
        elif edit == "drop":
            del target[draw(st.sampled_from(keys))]
        else:
            target[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
    name = draw(st.sampled_from(["word", "delta", None]))
    lists = [c for c in _containers(docs.get(name)) if c and set(map(type, c)) == {int}]
    if not lists:
        return docs, None, False
    target = draw(st.sampled_from(lists))
    value = draw(BURIED)
    target[draw(st.integers(len(target) // 2, len(target) - 1))] = value
    return docs, None if type(value) is int else name, False


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
)
@given(malformed_documents())
def test_malformed_documents_end_in_a_documented_exit(edited):
    docs, poisoned, at_digit_limit = edited
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, payload in docs.items():
            paths[name] = write_json(Path(work) / f"{name}.json", payload)
        cfg = ["--config", paths["config"]]
        for reads, args in (
            ("word", ["analyze", *cfg, "--word", paths["word"]]),
            ("delta", ["realize", *cfg, "--delta", paths["delta"]]),
            ("config", ["ranks", *cfg]),
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(args)
            if docs["config"] in oversized_configs():  # unless an edit broke it
                assert code == (0 if reads == "config" else 2), args
            assert code in ((2, 3) if reads == poisoned else (0, 2, 3, 4, 5)), args
            if at_digit_limit:  # a sum past the limit is an output error, exit 2
                assert code in (0, 2), args
            if code:
                assert out.getvalue() == "", args
                assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), args
            else:
                json.loads(out.getvalue())


def test_ranks_command(tmp_path):
    config = write_json(
        tmp_path / "config.json", {"q_genus": 0, "components": [{"genus": 0, "boundary_count": 4}]}
    )
    result = run_cli(["ranks", "--config", config])
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"rank_K0": 3, "rank_H1bar": 3, "rank_Dc": 6}


def test_check_command_single_trial():
    result = run_cli(["check", "--seed", "5", "--trials", "1"])
    assert result.returncode == 0, result.stderr
    reports = json.loads(result.stdout)
    assert all(r["trials"] == 1 for r in reports)
    assert all(r["failures"] == [] for r in reports)
    again = run_cli(["check", "--seed", "5", "--trials", "1"])
    assert again.stdout == result.stdout


# Each check flag and the TrialPlan field it sets.
CHECK_FLAGS = {
    "--seed": "seed",
    "--trials": "trials",
    "--max-q-genus": "max_q_genus",
    "--max-component-genus": "max_component_genus",
    "--max-boundary-count": "max_boundary_count",
    "--max-components": "max_components",
    "--max-exponent": "max_exponent",
}


@pytest.mark.parametrize("flag", [None, *CHECK_FLAGS], ids=lambda flag: flag or "no-flags")
def test_check_builds_its_plan_from_trial_plan_alone(monkeypatch, capsys, flag):
    from torelli import oracle

    plans = []
    monkeypatch.setattr(oracle, "verify_all", lambda plan: plans.append(plan) or [])
    args = ["check"] if flag is None else ["check", flag, "7"]
    assert run_main(capsys, args) == (0, "[]\n", "")
    if flag is None:
        assert plans == [oracle.TrialPlan()]
    else:
        field = CHECK_FLAGS[flag]
        assert getattr(oracle.TrialPlan(), field) != 7
        assert plans == [oracle.TrialPlan(**{field: 7})]  # its own field, the rest TrialPlan's defaults


# Each bounded check flag and the least value its TrialPlan field takes.
CHECK_FLOORS = {
    "--trials": ("trials", 1),
    "--max-q-genus": ("max_q_genus", 0),
    "--max-component-genus": ("max_component_genus", 0),
    "--max-boundary-count": ("max_boundary_count", 1),
    "--max-components": ("max_components", 1),
    "--max-exponent": ("max_exponent", 1),
}


@pytest.mark.parametrize("flag", list(CHECK_FLOORS))
def test_check_names_the_bound_that_failed(capsys, flag):
    field, least = CHECK_FLOORS[flag]
    args = ["check", flag, str(least - 1)] + (["--trials", "1"] if flag != "--trials" else [])
    assert run_main(capsys, args) == (2, "", f"error: {field} must be at least {least}\n")


CHECK_HELP = """\
usage: torelli check [-h] [--seed SEED] [--trials TRIALS]
                     [--max-q-genus MAX_Q_GENUS]
                     [--max-component-genus MAX_COMPONENT_GENUS]
                     [--max-boundary-count MAX_BOUNDARY_COUNT]
                     [--max-components MAX_COMPONENTS]
                     [--max-exponent MAX_EXPONENT]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --trials TRIALS
  --max-q-genus MAX_Q_GENUS
  --max-component-genus MAX_COMPONENT_GENUS
  --max-boundary-count MAX_BOUNDARY_COUNT
  --max-components MAX_COMPONENTS
  --max-exponent MAX_EXPONENT
"""


def test_check_usage_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    with pytest.raises(SystemExit) as stop:
        cli.main(["check", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr() == (CHECK_HELP, "")


def test_example4_command():
    result = run_cli(["example4", "--m", "2"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["multitwist_correctable"] is None
    assert report["extendable_to_torelli"] is True
    assert report["extension_by_identity_torelli"] is False


# The decider runs without the oracle: analyze, realize and ranks load only the
# core, and check and example4 import the harness, and with it the reference
# algebra, when they run.
_DECIDER_CHILD = """
import contextlib, io, sys
from torelli import cli

config, word, delta = sys.argv[1:]
for args in (["analyze", "--config", config, "--word", word],
             ["analyze", "--config", config, "--word", word, "--format", "text"],
             ["realize", "--config", config, "--delta", delta],
             ["ranks", "--config", config]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0, args
harness = {"torelli.oracle", "torelli.reference"}
assert not harness & sys.modules.keys(), "the decider loaded the oracle or its reference algebra"
assert not {"dataclasses", "inspect"} & sys.modules.keys(), "the decider imported dataclasses or inspect"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check", "--trials", "1"]) == 0
assert harness <= sys.modules.keys()
"""


def test_decider_commands_do_not_load_the_oracle(tmp_path):
    config = write_json(tmp_path / "config.json", FOUR_CIRCLE_CONFIG)
    word = write_json(
        tmp_path / "word.json",
        {"factors": [{"class": four_circle_class([0, 1]), "exponent": 1, "locus": "Q"}]},
    )
    delta = write_json(tmp_path / "delta.json", {"blocks": {"0": [[0, 0, 0], [0, 1, 1], [0, 1, 1]]}})
    result = run_python(["-c", _DECIDER_CHILD, config, word, delta])
    assert result.returncode == 0, result.stderr


def _imports(tree, at_import_time=True):
    """Dotted names a module imports, only outside its functions (so at import
    time) unless ``at_import_time`` is false."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if at_import_time and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # the package is flat: any relative import is torelli's
            base = ".".join(filter(None, ["torelli" if node.level else "", node.module]))
            yield from (f"{base}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def _names_of(names, module):
    return {n for n in names if n == module or n.startswith(module + ".")}


def test_no_module_imports_the_oracle_at_import_time():
    # The oracle is a leaf, and its reference algebra is the oracle's alone.
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert {"oracle.py", "reference.py"} <= {path.name for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not _names_of(_imports(tree), "torelli.oracle"), path.name
        if path.name != "oracle.py":
            assert not _names_of(_imports(tree, at_import_time=False), "torelli.reference"), path.name
