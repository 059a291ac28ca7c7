"""Record shapes: each key of a JSON object mapped to the kind of JSON
value it holds. Every reader of a ttpmine file and both config classes
declare theirs and call `check_record`. Kinds test exact Python types,
as `json` decodes them: a bool is no int, and an int is a number."""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple


class Kind(NamedTuple):
    name: str  # as an error names it: "a string"
    types: frozenset  # the exact Python types of its values
    check: Callable[[object], bool] | None = None  # a further test of such a value


def _plural(kind: Kind) -> str:
    """'a list of strings' -> 'lists of strings'."""
    head, of, tail = kind.name.split(" ", 1)[1].partition(" of ")
    return f"{head}s{of}{tail}"


def _each(kind: Kind) -> Callable:
    types, check = kind.types, kind.check
    if check is None:
        return lambda values: set(map(type, values)) <= types
    return lambda values: set(map(type, values)) <= types and all(map(check, values))


def list_of(kind: Kind) -> Kind:
    return Kind(f"a list of {_plural(kind)}", frozenset({list}), _each(kind))


def object_of(kind: Kind) -> Kind:
    each = _each(kind)
    return Kind(f"an object of {_plural(kind)}", frozenset({dict}), lambda v: each(v.values()))


STRING = Kind("a string", frozenset({str}))
STRING_OR_NULL = Kind("a string or null", frozenset({str, type(None)}))
INT = Kind("an integer", frozenset({int}))
# An int too large for a float raises OverflowError here.
NUMBER = Kind("a finite number", frozenset({int, float}), math.isfinite)
BOOL = Kind("a boolean", frozenset({bool}))
LIST = Kind("a list", frozenset({list}))
OBJECT = Kind("an object", frozenset({dict}))
STRINGS = list_of(STRING)


def check_object(record, where: str = "") -> None:
    """ValueError, prefixed with `where`, unless `record` is a JSON object."""
    if type(record) is not dict:
        raise ValueError(f"{where}expected an object, got {record!r:.40}")


def check_record(record, shape: Mapping[str, Kind], where: str = "") -> None:
    """ValueError, prefixed with `where`, unless `record` is a JSON object
    with exactly the keys of `shape`, each value of its key's kind. It
    names the first key missing, else unknown (sorted), else mistyped."""
    check_object(record, where)
    if record.keys() != shape.keys():
        missing = [key for key in shape if key not in record]
        key = missing[0] if missing else min(record.keys() - shape.keys())
        raise ValueError(f"{where}{'missing' if missing else 'unknown'} key {key!r}")
    for key, (name, types, check) in shape.items():
        value = record[key]
        if type(value) not in types or (check is not None and not check(value)):
            raise ValueError(f"{where}{key} must be {name}, got {value!r:.40}")
