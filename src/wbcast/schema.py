"""Report-schema fields, each Draft-7 fragment built together with its check.

Five constructors return a ``Field``: its ``schema`` is the JSON-schema
fragment a report publishes, and its ``check`` decides an instance exactly as
jsonschema's Draft-7 validator decides that fragment.  A bool is neither a
``number`` nor an ``integer``, an integral float is an ``integer``,
``pattern`` is ``re.search`` on strings only, bounds apply to non-bool
numbers only (so NaN passes them), and ``const`` tells ``True`` from ``1``.
A fragment carries only the rules its constructor implements, so a rule
that no constructor checks fails where the field is built.
"""

from __future__ import annotations

import numbers
import operator
import re
from typing import Any, Callable, NamedTuple

DRAFT7 = "http://json-schema.org/draft-07/schema#"


class SchemaFailure(Exception):
    """The first rule an instance broke.  ``path`` is built leaf first as the
    failure travels up to the root; ``str`` names the JSON path and the rule
    (``$.runs[0].p1: 0 is less than or equal to the minimum of 0``)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.path: list[str | int] = []

    def __str__(self) -> str:
        where = "$"
        for part in reversed(self.path):
            if isinstance(part, int):
                where += f"[{part}]"
            elif part.isidentifier():
                where += f".{part}"
            else:
                where += f"[{part!r}]"
        return f"{where}: {self.args[0]}"


Check = Callable[[Any], None]


class Field(NamedTuple):
    """A schema fragment and the check that decides it: ``check`` raises
    ``SchemaFailure`` on an instance the fragment rejects."""

    schema: dict
    check: Check


def _show(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _not_of_type(value: Any, name: str) -> SchemaFailure:
    return SchemaFailure(f"{_show(value)} is not of type {name!r}")


# ---------------------------------------------------------------------------
# Types, as jsonschema's Draft-7 type checker


def _is_number(value: Any) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Number)


def _is_integer(value: Any) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


# Each type's predicate, and the exact types that pass it without a call.
_TYPES: dict[str, tuple[tuple[type, ...], Callable[[Any], bool]]] = {
    "boolean": ((bool,), lambda v: isinstance(v, bool)),
    "integer": ((int,), _is_integer),
    "number": ((float, int), _is_number),
    "object": ((dict,), lambda v: isinstance(v, dict)),
    "string": ((str,), lambda v: isinstance(v, str)),
}


# ---------------------------------------------------------------------------
# The rules ``typed`` takes


def _pattern(pattern: str) -> Check:
    search = re.compile(pattern).search

    def check(value):
        if isinstance(value, str) and not search(value):
            raise SchemaFailure(f"{_show(value)} does not match {pattern!r}")

    return check


def _bound(fails: Callable[[Any, Any], bool], words: str) -> Callable[[Any], Check]:
    """A bound that fails on the comparison jsonschema makes, so NaN passes."""

    def rule(bound):
        def check(value):
            if (type(value) is float or _is_number(value)) and fails(value, bound):
                raise SchemaFailure(f"{_show(value)} is {words} {bound!r}")

        return check

    return rule


_RULES: dict[str, Callable[[Any], Check]] = {
    "pattern": _pattern,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "greater than or equal to the maximum of"),
}


# ---------------------------------------------------------------------------
# Constructors


def typed(name: str, **rules: Any) -> Field:
    """A value of JSON type ``name`` (not ``array``: see ``array``) that
    obeys ``rules``, each a keyword of ``_RULES``; any other name or keyword
    raises ``KeyError``."""
    fast, predicate = _TYPES[name]
    checks = tuple(_RULES[keyword](value) for keyword, value in rules.items())

    def check(value):
        if type(value) not in fast and not predicate(value):
            raise _not_of_type(value, name)
        for rule in checks:
            rule(value)

    return Field({"type": name, **rules}, check)


def enum(*strings: str) -> Field:
    """One of ``strings``."""
    if not all(isinstance(s, str) for s in strings):
        raise TypeError(f"enum takes strings, got {strings!r}")
    allowed = frozenset(strings)
    message = f" is not one of {list(strings)!r}"

    def check(value):
        if not (isinstance(value, str) and value in allowed):
            raise SchemaFailure(_show(value) + message)

    return Field({"enum": list(strings)}, check)


def const(number: Any) -> Field:
    """Exactly ``number``; as in JSON, ``1.0`` equals ``1`` and ``True`` does
    not."""

    def check(value):
        if not (value == number and isinstance(value, bool) == isinstance(number, bool)):
            raise SchemaFailure(f"{number!r} was expected, got {_show(value)}")

    return Field({"const": number}, check)


def array(items: Field, *, minItems: int = 0, maxItems: int | None = None) -> Field:
    """A list of ``minItems`` to ``maxItems`` values, each of them ``items``."""
    schema: dict = {"type": "array", "items": items.schema}
    if minItems:
        schema["minItems"] = minItems
    if maxItems is not None:
        schema["maxItems"] = maxItems
    item = items.check

    def check(value):
        if not isinstance(value, list):
            raise _not_of_type(value, "array")
        if len(value) < minItems:
            raise SchemaFailure(f"array of {len(value)} items is too short (minItems {minItems})")
        if maxItems is not None and len(value) > maxItems:
            raise SchemaFailure(f"array of {len(value)} items is too long (maxItems {maxItems})")
        for index, element in enumerate(value):
            try:
                item(element)
            except SchemaFailure as failure:
                failure.path.append(index)
                raise

    return Field(schema, check)


def closed(properties: dict[str, Field], required: list[str] | None = None) -> Field:
    """An object with no keys but those of ``properties``; all of them are
    required unless ``required`` names a subset."""
    required = list(properties) if required is None else required
    required_keys = frozenset(required)
    checks = {key: field.check for key, field in properties.items()}
    schema = {
        "type": "object",
        "required": required,
        "properties": {key: field.schema for key, field in properties.items()},
        "additionalProperties": False,
    }

    def check(value):
        if not isinstance(value, dict):
            raise _not_of_type(value, "object")
        if not value.keys() >= required_keys:
            missing = next(key for key in required if key not in value)
            raise SchemaFailure(f"{missing!r} is a required property")
        for key, item in value.items():
            sub = checks.get(key)
            if sub is None:
                extras = sorted(k for k in value if k not in checks)
                verb = "was" if len(extras) == 1 else "were"
                shown = ", ".join(repr(k) for k in extras)
                raise SchemaFailure(
                    f"Additional properties are not allowed ({shown} {verb} unexpected)"
                )
            try:
                sub(item)
            except SchemaFailure as failure:
                failure.path.append(key)
                raise

    return Field(schema, check)
