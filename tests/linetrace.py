"""Which lines of a function ran: a stdlib reach measure for tests.

``coverage`` is not a dependency, so reach tests trace with ``sys.settrace``.
A function's lines include those of the code nested in it (generator
expressions, lambdas, inner functions).
"""

import sys
from types import CodeType


def _codes(code: CodeType) -> list[CodeType]:
    """``code`` and every code object nested in it."""
    nested = [c for c in code.co_consts if isinstance(c, CodeType)]
    return [code] + [c for n in nested for c in _codes(n)]


def _executable_lines(function) -> set[tuple[str, int]]:
    code = function.__code__
    lines = {line for c in _codes(code) for _, _, line in c.co_lines() if line is not None}
    lines.discard(code.co_firstlineno)  # the def line runs no statement
    return {(code.co_filename, line) for line in lines}


def missed_lines(run, *functions) -> dict[str, list[int]]:
    """Call ``run()`` under a line tracer and return, per function name, the
    executable lines of that function that never ran; functions that ran
    every line are left out."""
    targets = {code for f in functions for code in _codes(f.__code__)}
    ran = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code in targets else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    missed = {f.__qualname__: sorted(line for _, line in _executable_lines(f) - ran) for f in functions}
    return {name: lines for name, lines in missed.items() if lines}
