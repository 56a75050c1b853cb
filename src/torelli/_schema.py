"""The one shape validator of the JSON documents: config, word and delta.
Integer lists pass one C-level type test (``bool`` is its own type), then
``_of_ints`` or ``_of_rows`` wraps them without a second check."""

from itertools import chain
from typing import Callable, Mapping

from torelli.exactlin import IntMatrix, IntVector


class Reader:
    """Shape checks that raise ``error(message)`` on the first failure; each
    message names its place in the document's own terms."""

    def __init__(self, error: Callable[[str], Exception]):
        self.error = error

    def fields(self, data, name: str, names: tuple, required=None, what="an object") -> list:
        """The values of ``names`` (None when absent) of an object with every
        ``required`` field (by default all of them) and no other key."""
        self.expect(data, Mapping, name, what)
        for field in names if required is None else required:
            if field not in data:
                raise self.error(f"{name} is missing field '{field}'")
        for key in data:
            if key not in names:
                raise self.error(f"{name} has unknown field {key!r}")
        return [data.get(field) for field in names]

    def expect(self, value, kind: type, label: str, what: str):
        if not isinstance(value, kind):
            raise self.error(f"{label} must be {what}")
        return value

    def integer(self, value, label: str) -> int:
        if type(value) is not int:
            raise self.error(f"{label} must be an integer")
        return value

    def integers(self, value, label: str) -> IntVector:
        if not isinstance(value, list) or not set(map(type, value)) <= {int}:
            raise self.error(f"{label} must be a list of integers")
        return IntVector._of_ints(value)

    def int_rows(self, value, label: str) -> IntMatrix:
        if not isinstance(value, list) or not set(map(type, value)) <= {list}:
            raise self.error(f"{label} must be a list of rows")
        if not set(map(type, chain.from_iterable(value))) <= {int}:
            raise self.error(f"{label} entries must be integers")
        if len(set(map(len, value))) > 1:
            raise self.error(f"{label}: ragged rows")
        return IntMatrix._of_rows(value, len(value[0]) if value else 0)
