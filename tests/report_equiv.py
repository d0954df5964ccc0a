"""Report equivalence within a float tolerance.

``compare_reports(a, b, atol)`` compares two rendered reports of one format:
json, csv or text, told apart by their first characters.  Every key, its
order, string, boolean and integer must be equal; floats must agree within
``atol``, ``ATOL_ALGEBRA`` by default.  It returns the largest float
deviation and where it occurred, and raises ``ReportMismatch`` naming the
first place where the reports differ otherwise or a float is off by more
than ``atol``.  A change that moves floats in their last bits (another
arithmetic order, say) states its tolerance with this, not with a rounding
rule.

- json is parsed with ``json.loads``; a place is a path such as
  ``$.runs[3].pairs[0].w3``, and each container's type and keys are
  compared as they stand, so a reordered key differs.
- csv is read cell by cell; a place is a row and its column.
- text is read line by line as its numbers and the text between them; a
  place is a line and the ordinal of a number on it.  Runs of whitespace
  count as one space, and whitespace next to a number not at all, since
  text columns are padded to the width of their numbers.

In csv cells and text, a number without a point or an exponent is an
integer; a float that prints as an integer is still compared as a float
when the other report prints it with a point.
"""

from __future__ import annotations

import csv
import json
import re
from typing import Iterator, NamedTuple

from wbcast.registers import ATOL_ALGEBRA

# A number that does not continue a word or a dotted version such as v0.1.0.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_INTEGER = re.compile(r"[-+]?\d+")


class ReportMismatch(AssertionError):
    """Two reports differ beyond the float tolerance."""


class Deviation(NamedTuple):
    value: float
    where: str | None


def _number(token: str) -> int | float:
    return int(token) if _INTEGER.fullmatch(token) else float(token)


def _cell(cell: str) -> int | float | str:
    return _number(cell) if _NUMBER.fullmatch(cell) else cell


def _json_leaves(value, where: str = "$") -> Iterator[tuple[str, object]]:
    if isinstance(value, dict):
        yield where, ("object", tuple(value))
        for key, item in value.items():
            yield from _json_leaves(item, f"{where}.{key}")
    elif isinstance(value, list):
        yield where, ("array", len(value))
        for i, item in enumerate(value):
            yield from _json_leaves(item, f"{where}[{i}]")
    else:
        yield where, value


def _csv_leaves(text: str) -> Iterator[tuple[str, object]]:
    rows = csv.reader(text.splitlines())
    header = next(rows, [])
    yield "header", tuple(header)
    for r, row in enumerate(rows, start=1):
        yield f"row {r}", len(row)
        for column, cell in zip(header, row):
            yield f"row {r}, {column}", _cell(cell)


def _text_leaves(text: str) -> Iterator[tuple[str, object]]:
    lines = text.splitlines()
    yield "lines", len(lines)
    for n, line in enumerate(lines, start=1):
        pieces = _NUMBER.split(line)
        numbers = _NUMBER.findall(line)
        yield f"line {n}", tuple(" ".join(piece.split()) for piece in pieces)
        for k, token in enumerate(numbers, start=1):
            yield f"line {n}, number {k}", _number(token)


def _leaves(report: str) -> Iterator[tuple[str, object]]:
    if report.startswith("{"):
        return _json_leaves(json.loads(report))
    if report.startswith("wbcast report"):
        return _text_leaves(report)
    return _csv_leaves(report)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_reports(a: str, b: str, atol: float = ATOL_ALGEBRA) -> Deviation:
    """The largest float deviation between reports ``a`` and ``b`` and where
    it occurred (``Deviation(0.0, None)`` if no float differs).

    Raises ``ReportMismatch`` at the first place where anything but a float
    differs, or a float differs by more than ``atol`` (a NaN always does).
    """
    largest = Deviation(0.0, None)
    leaves_b = _leaves(b)
    for where, x in _leaves(a):
        where_b, y = next(leaves_b, (None, None))
        if where_b != where:
            raise ReportMismatch(f"{where} in the first report, {where_b} in the second")
        if _is_number(x) and _is_number(y) and (isinstance(x, float) or isinstance(y, float)):
            deviation = abs(float(x) - float(y))
            if not deviation <= atol:
                raise ReportMismatch(f"{where}: {x!r} and {y!r} differ by {deviation:.3g} > {atol:g}")
            if deviation > largest.value:
                largest = Deviation(deviation, where)
        elif type(x) is not type(y) or x != y:
            raise ReportMismatch(f"{where}: {x!r} and {y!r}")
    extra = next(leaves_b, None)
    if extra is not None:
        raise ReportMismatch(f"{extra[0]} only in the second report")
    return largest
