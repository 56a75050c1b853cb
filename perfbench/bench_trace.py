"""In-memory span tracing around the library's public functions.

The tracer wraps selected functions of the ``torelli`` modules from the
outside: every module attribute that *is* the original function object is
replaced by a wrapper for the duration of a ``with tracer.patched(lib):``
block, so calls made through re-exports (``cli`` importing ``analyze``,
``criteria`` importing ``is_weakly_torelli``) are caught as well.  Nothing
inside ``src/torelli`` is changed.

A span is ``(name, start, end, parent, op, size)``: ``parent`` is the index
of the enclosing span (or ``None``), ``op`` the id of the benchmark op that
caused it, and ``size`` an optional count recorded at the boundary (word
length, or the model rank for ``analyze``).  Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# (module, function, metric stem, size probe).  A size probe maps the call's
# arguments and result to a count recorded on the span.
TARGETS = (
    ("surface_model", "build_model", "surface_model.build_model", None),
    ("mapping_class", "transvection_action", "mapping_class.transvection_action",
     lambda args, result: len(args[1])),
    ("mapping_class", "is_weakly_torelli", "mapping_class.is_weakly_torelli", None),
    ("mapping_class", "delta_difference", "mapping_class.delta_difference", None),
    ("mapping_class", "word_from_json_dict", "mapping_class.word_from_json", None),
    ("mapping_class", "word_to_json_dict", "mapping_class.word_to_json", None),
    ("criteria", "analyze", "criteria.analyze", lambda args, result: args[0].rank),
    ("criteria", "is_symmetric", "criteria.is_symmetric", None),
    ("criteria", "is_completely_reducible", "criteria.is_completely_reducible", None),
    ("criteria", "diagonal_restriction", "criteria.diagonal_restriction", None),
    ("criteria", "matrix_presentation", "criteria.matrix_presentation", None),
    ("realization", "realize_delta", "realization.realize_delta",
     lambda args, result: len(result.word)),
    ("exactlin", "smith_normal_form", "exactlin.smith_normal_form", None),
    ("exactlin", "solve_integer", "exactlin.solve_integer", None),
)

DECIDERS = (
    "criteria.is_symmetric",
    "criteria.is_completely_reducible",
    "criteria.diagonal_restriction",
    "criteria.matrix_presentation",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = None

    def _open(self) -> tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, perf_counter()

    def _close(self, index: int, name: str, start: float, size=None) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent, self.op, size)

    @contextmanager
    def span(self, name: str, op):
        """Root span of one benchmark op; library spans nest under it."""
        self.op = op
        index, start = self._open()
        try:
            yield
        finally:
            self._close(index, name, start)
            self.op = None

    def _wrap(self, name, fn, probe):
        def traced(*args, **kwargs):
            index, start = self._open()
            size = None
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    size = probe(args, result)
                return result
            finally:
                self._close(index, name, start, size)

        return traced

    @contextmanager
    def patched(self, lib):
        """Swap every traced function for its wrapper in all torelli modules."""
        swaps = []
        for module_name, attr, name, probe in TARGETS:
            original = getattr(getattr(lib, module_name), attr, None)
            if original is None:
                continue  # function gone in this version: its metrics read 0
            wrapper = self._wrap(name, original, probe)
            for module in lib.all_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        swaps.append((module, key, original))
        try:
            yield
        finally:
            for module, key, original in swaps:
                setattr(module, key, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, size) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op, "size": size}
                ) + "\n")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_table(spans) -> dict:
    """Per-layer figures derived from a finished span list.

    Times are mean inclusive milliseconds per call unless stated otherwise;
    a layer the workload never calls reads 0.
    """
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for index, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent is not None:
            children.setdefault(parent, []).append(index)

    def dur(index: int) -> float:
        return (spans[index][2] - spans[index][1]) * 1e3

    def mean_ms(name: str) -> float:
        return _mean(dur(i) for i in by_name.get(name, ()))

    def child_ms(index: int, names=None) -> float:
        return sum(
            dur(c) for c in children.get(index, ()) if names is None or spans[c][0] in names
        )

    table = {f"{name}_ms": mean_ms(name) for _, _, name, _ in TARGETS if name not in DECIDERS}

    deltas = by_name.get("mapping_class.delta_difference", ())
    table["mapping_class.delta_solve_ms"] = _mean(
        dur(i) - child_ms(i, {"mapping_class.transvection_action"}) for i in deltas
    )
    table["mapping_class.word_factors"] = _mean(
        spans[i][5] for i in by_name.get("mapping_class.transvection_action", ())
    )
    table["realization.realized_factors"] = _mean(
        spans[i][5] for i in by_name.get("realization.realize_delta", ())
    )

    analyses = by_name.get("criteria.analyze", ())
    table["criteria.deciders_ms"] = _mean(child_ms(i, set(DECIDERS)) for i in analyses)
    actions_under = {i: 0 for i in analyses}
    for i in by_name.get("mapping_class.transvection_action", ()):
        ancestor = spans[i][3]
        while ancestor is not None and ancestor not in actions_under:
            ancestor = spans[ancestor][3]
        if ancestor is not None:
            actions_under[ancestor] += 1
    table["criteria.action_calls_per_analyze"] = _mean(actions_under.values())
    action_ms = table["mapping_class.transvection_action_ms"]
    table["criteria.analyze_over_action"] = (
        table["criteria.analyze_ms"] / action_ms if action_ms else 0.0
    )

    table["cli.overhead_ms"] = _mean(
        dur(i) - child_ms(i) for i in by_name.get("cli.main", ())
    )

    per_rank: dict[int, list[float]] = {}
    for i in analyses:
        root = i
        while spans[root][3] is not None:
            root = spans[root][3]
        if spans[root][0] == "ladder":
            per_rank.setdefault(spans[i][5], []).append(dur(i))
    for rank, values in per_rank.items():
        table[f"ladder.r{rank}.analyze_ms"] = _mean(values)
    for name, indices in by_name.items():
        if name.startswith("oracle."):
            table[f"{name}_ms"] = _mean(dur(i) for i in indices)
    return table
