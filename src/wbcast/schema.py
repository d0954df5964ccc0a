"""A compiler from the Draft-7 JSON-schema subset that reports use to plain
Python checks.

``compile_schema`` walks a schema once and returns a function that checks an
instance against it.  It implements exactly the keywords listed in
``KEYWORDS``, with jsonschema's Draft-7 semantics: a bool is neither a
``number`` nor an ``integer``, an integral float is an ``integer``, ``pattern``
is ``re.search`` on strings only, bounds apply to non-bool numbers only (so
NaN passes them), and ``enum``/``const`` tell ``True`` from ``1``.  Any other
keyword raises ``SchemaError`` at compile time, so a schema can never carry a
constraint that is silently skipped.
"""

from __future__ import annotations

import numbers
import re
from typing import Any, Callable

DRAFT7 = "http://json-schema.org/draft-07/schema#"

KEYWORDS = frozenset(
    {
        "$schema", "type", "enum", "const", "pattern",
        "minimum", "exclusiveMinimum", "exclusiveMaximum",
        "required", "properties", "additionalProperties",
        "items", "minItems", "maxItems",
    }
)


class SchemaError(ValueError):
    """The schema uses a keyword or a keyword value the compiler does not
    implement."""


class _Failure:
    """The first rule an instance broke; ``path`` is built leaf first as the
    failure travels up to the root."""

    __slots__ = ("message", "path")

    def __init__(self, message: str) -> None:
        self.message = message
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
        return f"{where}: {self.message}"


Check = Callable[[Any], "_Failure | None"]


def _show(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


# ---------------------------------------------------------------------------
# Types and equality, as jsonschema's Draft-7 type checker and ``equal``


def _is_number(value: Any) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Number)


def _is_integer(value: Any) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


# Each type's predicate, and the exact types that pass it without a call.
_TYPES: dict[str, tuple[tuple[type, ...], Callable[[Any], bool]]] = {
    "array": ((list,), lambda v: isinstance(v, list)),
    "boolean": ((bool,), lambda v: isinstance(v, bool)),
    "integer": ((int,), _is_integer),
    "number": ((float, int), _is_number),
    "object": ((dict,), lambda v: isinstance(v, dict)),
    "string": ((str,), lambda v: isinstance(v, str)),
}

_TRUE, _FALSE = object(), object()


def _unbool(value: Any) -> Any:
    return _TRUE if value is True else _FALSE if value is False else value


def _equal(value: Any, scalar: Any) -> bool:
    """jsonschema's ``equal`` for a scalar schema value."""
    if value is scalar:
        return True
    if isinstance(value, str) or isinstance(scalar, str):
        return value == scalar
    return _unbool(value) == _unbool(scalar)


# ---------------------------------------------------------------------------
# One check per keyword


def _type_check(name: Any) -> Check:
    if not isinstance(name, str) or name not in _TYPES:
        raise SchemaError(f"unsupported type {name!r}")
    (fast, predicate), message = _TYPES[name], f" is not of type {name!r}"

    def check(value):
        if type(value) in fast or predicate(value):
            return None
        return _Failure(_show(value) + message)

    return check


def _scalars(keyword: str, values: list) -> None:
    for value in values:
        if not (value is None or isinstance(value, (str, bool, int, float))):
            raise SchemaError(f"{keyword} value {value!r} is not a scalar")


def _enum_check(values: Any) -> Check:
    if not isinstance(values, list) or not values:
        raise SchemaError("enum must be a non-empty list")
    _scalars("enum", values)
    strings = frozenset(v for v in values if isinstance(v, str))
    all_strings = len(strings) == len(values)

    def check(value):
        if type(value) is str and all_strings:
            if value in strings:
                return None
        elif any(_equal(value, v) for v in values):
            return None
        return _Failure(f"{_show(value)} is not one of {values!r}")

    return check


def _const_check(const: Any) -> Check:
    _scalars("const", [const])

    def check(value):
        if _equal(value, const):
            return None
        return _Failure(f"{const!r} was expected, got {_show(value)}")

    return check


def _pattern_check(pattern: Any) -> Check:
    if not isinstance(pattern, str):
        raise SchemaError("pattern must be a string")
    search = re.compile(pattern).search

    def check(value):
        if not isinstance(value, str) or search(value):
            return None
        return _Failure(f"{_show(value)} does not match {pattern!r}")

    return check


def _bound_check(keyword: str, bound: Any) -> Check:
    if not _is_number(bound):
        raise SchemaError(f"{keyword} must be a number")
    # Each bound fails on the comparison jsonschema makes, so NaN passes.
    fails, words = {
        "minimum": (lambda v: v < bound, "less than the minimum of"),
        "exclusiveMinimum": (lambda v: v <= bound, "less than or equal to the minimum of"),
        "exclusiveMaximum": (lambda v: v >= bound, "greater than or equal to the maximum of"),
    }[keyword]

    def check(value):
        if (type(value) is float or _is_number(value)) and fails(value):
            return _Failure(f"{_show(value)} is {words} {bound!r}")
        return None

    return check


def _count(keyword: str, value: Any) -> int:
    if not _is_integer(value) or value < 0:
        raise SchemaError(f"{keyword} must be a non-negative integer")
    return int(value)


def _array_check(schema: dict) -> Check:
    items = _compile(schema["items"]) if "items" in schema else None
    low = _count("minItems", schema.get("minItems", 0))
    high = _count("maxItems", schema["maxItems"]) if "maxItems" in schema else None

    def check(value):
        if not isinstance(value, list):
            return None
        if len(value) < low:
            return _Failure(f"array of {len(value)} items is too short (minItems {low})")
        if high is not None and len(value) > high:
            return _Failure(f"array of {len(value)} items is too long (maxItems {high})")
        if items is not None:
            for index, item in enumerate(value):
                failure = items(item)
                if failure is not None:
                    failure.path.append(index)
                    return failure
        return None

    return check


def _object_check(schema: dict) -> Check:
    required = schema.get("required", [])
    if not isinstance(required, list) or not all(isinstance(k, str) for k in required):
        raise SchemaError("required must be a list of strings")
    properties = schema.get("properties", {})
    if not isinstance(properties, dict):
        raise SchemaError("properties must be an object")
    additional = schema.get("additionalProperties", True)
    if type(additional) is not bool:
        raise SchemaError("additionalProperties must be a boolean")
    closed = not additional
    checks = {key: _compile(sub) for key, sub in properties.items()}
    required_keys = frozenset(required)

    def check(value):
        if not isinstance(value, dict):
            return None
        if not value.keys() >= required_keys:
            missing = next(key for key in required if key not in value)
            return _Failure(f"{missing!r} is a required property")
        for key, item in value.items():
            sub = checks.get(key)
            if sub is None:
                if closed:
                    extras = sorted(k for k in value if k not in checks)
                    verb = "was" if len(extras) == 1 else "were"
                    shown = ", ".join(repr(k) for k in extras)
                    return _Failure(
                        f"Additional properties are not allowed ({shown} {verb} unexpected)"
                    )
                continue
            failure = sub(item)
            if failure is not None:
                failure.path.append(key)
                return failure
        return None

    return check


# ---------------------------------------------------------------------------
# Compiler


def _valid(value: Any) -> None:
    return None


def _compile(schema: Any) -> Check:
    if not isinstance(schema, dict):
        raise SchemaError(f"a schema must be an object, got {schema!r}")
    unknown = sorted(set(schema) - KEYWORDS)
    if unknown:
        raise SchemaError(f"unsupported schema keyword(s): {', '.join(unknown)}")
    if "$schema" in schema and schema["$schema"] != DRAFT7:
        raise SchemaError(f"unsupported $schema {schema['$schema']!r}")

    checks = []
    if "type" in schema:
        checks.append(_type_check(schema["type"]))
    if "const" in schema:
        checks.append(_const_check(schema["const"]))
    if "enum" in schema:
        checks.append(_enum_check(schema["enum"]))
    if "pattern" in schema:
        checks.append(_pattern_check(schema["pattern"]))
    for keyword in ("minimum", "exclusiveMinimum", "exclusiveMaximum"):
        if keyword in schema:
            checks.append(_bound_check(keyword, schema[keyword]))
    if schema.keys() & {"items", "minItems", "maxItems"}:
        checks.append(_array_check(schema))
    if schema.keys() & {"required", "properties", "additionalProperties"}:
        checks.append(_object_check(schema))

    if not checks:
        return _valid
    if len(checks) == 1:
        return checks[0]

    def check_all(value):
        for check in checks:
            failure = check(value)
            if failure is not None:
                return failure
        return None

    return check_all


def compile_schema(schema: dict) -> Callable[[Any], str | None]:
    """Compile ``schema`` once; the result maps an instance to ``None`` when
    it is valid, else to a message naming the JSON path of the first failing
    value and the rule it broke (``$.runs[0].p1: 0 is less than or equal to
    the minimum of 0``).  Raises ``SchemaError`` on any unsupported keyword."""
    check = _compile(schema)

    def first_error(instance: Any) -> str | None:
        failure = check(instance)
        return None if failure is None else str(failure)

    return first_error
