"""Command-line front end.

Subcommands: analyze a word against a configuration, realize a difference
map as a word, run the randomized invariant suite, print lattice ranks,
and run the built-in four-circle regression example.

Exit codes: 0 success; 1 invariant failures from ``check``; 2 parse or
schema error, a rank over ``MAX_RANK``, or an output integer too long
to print; 3 locus or dimension violation; 4 difference map not symmetric; 5
difference map not completely reducible.  stdout carries the payload,
stderr the diagnostics.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate
from math import gcd
from typing import Mapping

from torelli._schema import Reader
from torelli.criteria import (
    NotCompletelyReducible,
    NotSymmetric,
    analyze,
    delta_from_blocks,
    group_ranks,
)
from torelli.exactlin import DimensionMismatch
from torelli.mapping_class import (
    DifferenceMap,
    LocusViolation,
    NotWeaklyTorelli,
    WordParseError,
    word_from_json_dict,
    word_to_json_dict,
)
from torelli.realization import realize_delta
from torelli.surface_model import InvalidConfig, SubsurfaceConfig, build_model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_LOCUS = 3
EXIT_NOT_SYMMETRIC = 4
EXIT_NOT_REDUCIBLE = 5

#: The largest rank ``analyze`` and ``realize`` accept.  Both build a k0_rank-square
#: map, rank >= 2 * k0_rank, and at this cap the empty word peaks under 1 GiB.
MAX_RANK = 4096


class _ParseFailure(Exception):
    pass


#: Each exception that ends a command with one ``error:`` line, and its exit code.
_EXIT_OF = {_ParseFailure: EXIT_PARSE, LocusViolation: EXIT_LOCUS, NotWeaklyTorelli: EXIT_LOCUS,
            DimensionMismatch: EXIT_LOCUS, NotSymmetric: EXIT_NOT_SYMMETRIC, NotCompletelyReducible: EXIT_NOT_REDUCIBLE}


_READ = Reader(_ParseFailure)


def _delta_from_json(data, model) -> DifferenceMap:
    if isinstance(data, Mapping) and ("blocks" in data) == ("matrix" in data):
        raise _READ.error("delta has both 'blocks' and 'matrix'; give one" if "blocks" in data
                          else "delta needs a 'blocks' or 'matrix' field")
    blocks, matrix = _READ.fields(data, "delta", ("blocks", "matrix"), required=(), what="a JSON object")
    try:
        if "matrix" in data:
            return DifferenceMap(_READ.int_rows(matrix, "matrix"), model.block_ranges)
        parsed = {}
        for key, block in _READ.expect(blocks, Mapping, "field 'blocks'", "an object").items():
            try:
                j = int(key)
                if str(j) != key:  # only canonical decimal keys, not " 0" or "+0"
                    raise ValueError
            except ValueError:
                raise _READ.error(f"block key {key!r} is not a component index")
            parsed[j] = _READ.int_rows(block, f"blocks[{key}]")
        return delta_from_blocks(model, parsed)
    except DimensionMismatch as exc:  # a block of the wrong size is a schema error
        raise _READ.error(str(exc))


def _model(data):
    model = build_model(SubsurfaceConfig.from_json_dict(data))
    if model.rank > MAX_RANK:
        raise _READ.error(f"rank is {model.rank}, over the limit of {MAX_RANK}")
    return model


def _load(path: str, parse, *args):
    """``parse(document, *args)`` of the JSON file at ``path``; each error
    names the file.  A word's class of the wrong length stays a dimension
    error (exit 3)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}")
    except RecursionError:
        raise _ParseFailure(f"{path} is nested too deeply to parse")
    except ValueError as exc:  # malformed JSON, non-UTF-8 bytes, oversized integers
        raise _ParseFailure(f"{path} is not valid JSON: {exc}")
    try:
        return parse(data, *args)
    except (_ParseFailure, InvalidConfig, WordParseError) as exc:
        raise _ParseFailure(f"{path}: {exc}")
    except DimensionMismatch as exc:
        raise DimensionMismatch(f"{path}: {exc}")


def _emit(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _report_text(report) -> str:
    data = report.to_json_dict()
    lines = []
    for field in (
        "weakly_torelli",
        "symmetric",
        "completely_reducible",
        "extension_by_identity_torelli",
        "extendable_to_torelli",
    ):
        lines.append(f"{field}: {'true' if data[field] else 'false'}")
    if data["multitwist_correctable"] is None:
        lines.append("multitwist_correctable: none")
    else:
        lines.append(f"multitwist_correctable: {data['multitwist_correctable']}")
    if data["delta"] is not None:
        lines.append("delta:")
        for row in data["delta"]["matrix"]:
            lines.append(f"  {row}")
    if data["component_matrices"] is not None:
        lines.append("component_matrices:")
        for j, block in enumerate(data["component_matrices"]):
            lines.append(f"  component {j}:")
            for row in block:
                lines.append(f"    {row}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    model = _load(args.config, _model)
    word = _load(args.word, word_from_json_dict, model.rank)
    report = analyze(model, word)
    # Rendered before the notes, so an output past the digit limit prints its error line alone.
    text = (_report_text(report) if args.format == "text"
            else json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    for pos, (edges, _, _) in enumerate(word.table):  # notes only for a word that analyze accepted
        content = gcd(*accumulate(step for _, step in edges))  # the class's run values
        if content > 1:
            print(
                f"note: factor {pos} class is non-primitive (content {content}); "
                "treated as a transvection",
                file=sys.stderr,
            )
    print(text)
    return EXIT_OK


def _cmd_realize(args) -> int:
    model = _load(args.config, _model)
    delta = _load(args.delta, _delta_from_json, model)
    realized = realize_delta(model, delta)
    _emit(word_to_json_dict(realized.word))
    return EXIT_OK


def _cmd_check(args) -> int:
    from torelli.oracle import TrialPlan, verify_all  # the harness stays off the decider's import path
    try:  # only the flags given; TrialPlan holds the defaults
        plan = TrialPlan(**{name: value for name, value in vars(args).items() if name not in ("command", "func")})
    except ValueError as exc:
        raise _ParseFailure(str(exc))
    reports = verify_all(plan)
    _emit(reports)
    failed = sum(len(r["failures"]) for r in reports)
    if failed:
        print(f"{failed} invariant failure(s)", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_ranks(args) -> int:
    config = _load(args.config, SubsurfaceConfig.from_json_dict)
    _emit(group_ranks(config))
    return EXIT_OK


def _cmd_example4(args) -> int:
    from torelli.oracle import paper_example_4
    report = paper_example_4(args.m)
    _emit(report.to_json_dict())
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torelli",
        description="Decide when subsurface twist words extend to Torelli maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a twist word")
    p_analyze.add_argument("--config", required=True, help="surface configuration JSON file")
    p_analyze.add_argument("--word", required=True, help="twist word JSON file")
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_realize = sub.add_parser("realize", help="realize a difference map as a word")
    p_realize.add_argument("--config", required=True)
    p_realize.add_argument("--delta", required=True, help="difference map JSON file")
    p_realize.set_defaults(func=_cmd_realize)

    p_check = sub.add_parser("check", help="run the randomized invariant suite", argument_default=argparse.SUPPRESS)
    for flag in ("seed", "trials", "max-q-genus", "max-component-genus", "max-boundary-count", "max-components",
                 "max-exponent"):  # each sets the TrialPlan field of its name
        p_check.add_argument(f"--{flag}", type=int)
    p_check.set_defaults(func=_cmd_check)

    p_ranks = sub.add_parser("ranks", help="print lattice ranks for a configuration")
    p_ranks.add_argument("--config", required=True)
    p_ranks.set_defaults(func=_cmd_ranks)

    p_example = sub.add_parser("example4", help="run the four-circle regression example")
    p_example.add_argument("--m", type=int, required=True, help="twist exponent")
    p_example.set_defaults(func=_cmd_example4)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_OF) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_OF.items() if isinstance(exc, kind))
    except ValueError as exc:
        # Only CPython's int-to-string digit limit, its guard against
        # quadratic-time conversion (3.10.7 on); any other ValueError is a fault.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: {args.command}: an output integer has more than {limit} digits, too many to print",
              file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
