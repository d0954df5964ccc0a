"""The report-schema checks against jsonschema as an independent oracle.

Each ``wbcast.schema`` field builds a Draft-7 fragment together with its own
check.  Here ``jsonschema.Draft7Validator`` decides the same reports,
mutations of them, a grid of awkward values for each constructor form the
report tables use, and single-rule cases: the two must agree on every accept
or reject.  The
metaschema check of each mode's schema runs here too, not at run time.
"""

from __future__ import annotations

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from wbcast.cloner import MachineBranch
from wbcast.protocol import WParams
from wbcast.registers import InvariantViolation
from wbcast.report import (
    MODES,
    RunRequest,
    report_schema,
    run_background,
    run_branches,
    run_single,
    run_sweep,
    validate_report,
)
from wbcast.schema import SchemaFailure, array, closed, const, enum, typed

SRC = Path(__file__).resolve().parents[1] / "src"
UUU = MachineBranch.from_string("UUU")
UNIFORM = WParams.normalized(1.0, 1.0, 1.0)

REPLACEMENTS = [True, 0, 1.0, -0.0, math.nan, math.inf, -math.inf, 10**30, "x", None, [], {}]


@pytest.fixture(scope="module")
def reports() -> dict[str, dict]:
    return {
        "single": run_single(
            RunRequest(mode="single", params=UNIFORM, branch1=UUU, branch2=UUU)
        ),
        "branches": run_branches(RunRequest(mode="branches", params=UNIFORM)),
        "sweep": run_sweep(RunRequest(mode="sweep", sweep_count=2, seed=0)),
        "background": run_background(RunRequest(mode="background", grid=100)),
    }


@pytest.fixture(scope="module")
def oracles() -> dict[str, jsonschema.Draft7Validator]:
    return {mode: jsonschema.Draft7Validator(report_schema(mode)) for mode in MODES}


def _accepted(report: dict) -> bool:
    try:
        validate_report(report)
    except InvariantViolation as exc:
        assert str(exc).startswith("report failed schema validation: $")
        return False
    return True


def _paths(node, prefix=()):
    """Every path in ``node``, except that only the first and the last item
    of an array are entered: the items of one array share one schema."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*prefix, key))
    elif isinstance(node, list):
        for index in sorted({0, len(node) - 1} if node else set()):
            yield from _paths(node[index], (*prefix, index))


def _at(report: dict, path: tuple):
    node = report
    for part in path:
        node = node[part]
    return node


def _edit(node, path: tuple, edit):
    """A copy of ``node`` with ``edit`` applied to the container at
    ``path``; only the containers along the path are copied."""
    node = copy.copy(node)
    if path:
        node[path[0]] = _edit(node[path[0]], path[1:], edit)
    else:
        edit(node)
    return node


def _replaced(report: dict, path: tuple, value) -> tuple[str, dict]:
    def put(parent):
        parent[path[-1]] = copy.deepcopy(value)

    return f"{path} = {value!r}", _edit(report, path[:-1], put)


def _mutations(report: dict, max_depth: int | None = None):
    """(label, mutated report): every value replaced by each of REPLACEMENTS,
    every key deleted and one extra key added to every object, at every path
    up to ``max_depth`` keys deep."""
    for path in _paths(report):
        if max_depth is not None and len(path) > max_depth:
            continue
        if path:
            for value in REPLACEMENTS:
                yield _replaced(report, path, value)
            if isinstance(path[-1], str):
                yield f"del {path}", _edit(report, path[:-1], lambda p: p.pop(path[-1]))
        if isinstance(_at(report, path), dict):
            yield f"{path} + extra key", _edit(report, path, lambda p: p.update(zz_extra=1))


def _disagreements(oracle, cases) -> list[str]:
    found = []
    for label, report in cases:
        if _accepted(report) != oracle.is_valid(report):
            found.append(f"{label}: oracle says {oracle.is_valid(report)}")
    return found


@pytest.mark.parametrize("mode", MODES)
def test_schema_passes_the_draft7_metaschema(mode):
    jsonschema.Draft7Validator.check_schema(report_schema(mode))


@pytest.mark.parametrize("mode", MODES)
def test_valid_reports_accepted_by_both(mode, reports, oracles):
    assert oracles[mode].is_valid(reports[mode])
    assert _accepted(reports[mode])


def test_protocol_modes_share_one_run_schema():
    # So mutating the single run covers the runs of branches and sweep too.
    runs = [report_schema(mode)["properties"]["runs"] for mode in ("single", "branches", "sweep")]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("mode", MODES)
def test_every_mutation_decided_as_the_oracle_decides(mode, reports, oracles):
    report = copy.deepcopy(reports[mode])
    # One run (two background rows) keeps the mutation count small; the
    # schema puts no bound on the number of runs.
    report["runs"] = report["runs"][: 2 if mode == "background" else 1]
    # The runs and the summary rows of branches and sweep have the schema and
    # the shape of those of single, so only their request blocks and top-level
    # keys are mutated.
    cases = list(_mutations(report, None if mode in ("single", "background") else 2))
    assert len(cases) > 50
    assert _disagreements(oracles[mode], cases) == []


def test_targeted_mutations_decided_as_the_oracle_decides(reports, oracles):
    single, background = reports["single"], reports["background"]
    run = single["runs"][0]
    single_cases = [
        # A run of the wrong kind for the mode.
        _replaced(single, ("runs",), [*single["runs"], background["runs"][0]]),
        # Out-of-range probabilities.
        *(_replaced(single, ("runs", 0, "p1"), v) for v in (0, 0.0, -1e-300, 5e-324, 2.0)),
        # Over-long and short arrays.
        _replaced(single, ("runs", 0, "pairs"), run["pairs"][:10]),
        _replaced(single, ("runs", 0, "pairs"), [*run["pairs"], run["pairs"][0]]),
        _replaced(single, ("runs", 0, "five_qubit", "eigenvalues"), [0.0] * 31),
        _replaced(single, ("runs", 0, "five_qubit", "eigenvalues"), [0.0] * 33),
        _replaced(single, ("runs", 0, "five_qubit", "labels"), ["a"] * 4),
        _replaced(single, ("runs", 0, "five_qubit", "labels"), ["a"] * 6),
        _replaced(single, ("runs",), []),
        # Patterns, integral floats, bools as numbers and other request fields.
        *(_replaced(single, ("runs", 0, "branches", "round1"), v) for v in ("UDX", "UUUU", "uuu")),
        *(_replaced(single, ("runs", 0, "pairs", 0, "pair"), v) for v in ("10", "1", "xx15")),
        *(_replaced(single, ("runs", 0, "index"), v) for v in (3.0, 3.5, -1, False)),
        *(_replaced(single, ("schema_version",), v) for v in (1, 1.0, True, 2)),
        _replaced(single, ("request", "sweep_count"), 0),
        _replaced(single, ("request", "grid"), 99.0),
        _replaced(single, ("request", "mode"), "sweep"),
    ]
    background_cases = [
        _replaced(background, ("runs",), [*background["runs"], run]),
        *(
            _replaced(background, ("runs", 0, "alpha_sq"), v)
            for v in (0, 1, 1.0, -0.5, 1.5, 5e-324, 1 - 2**-53)
        ),
    ]
    assert _disagreements(oracles["single"], single_cases) == []
    assert _disagreements(oracles["background"], background_cases) == []
    accepted = [label for label, report in single_cases + background_cases if _accepted(report)]
    assert accepted == [
        "('runs', 0, 'p1') = 5e-324",
        "('runs', 0, 'p1') = 2.0",
        "('runs',) = []",
        "('runs', 0, 'index') = 3.0",
        "('schema_version',) = 1",
        "('schema_version',) = 1.0",
        "('request', 'mode') = 'sweep'",
        "('runs', 0, 'alpha_sq') = 5e-324",
        "('runs', 0, 'alpha_sq') = 0.9999999999999999",
    ]


# ---------------------------------------------------------------------------
# The constructors themselves

# Instances on which the Draft-7 type, bound, pattern and equality rules are
# easiest to get wrong.
GRID = [
    True, False, 0, 1.0, 2.5, -0.0, math.nan, math.inf, -math.inf, 10**30,
    "x", "UUD", None, [], ["x", "y", "z"], {}, {"a": 1},
]

# Each constructor form the report tables use.
FIELDS = {
    "number": typed("number"),
    "number_minimum": typed("number", minimum=0),
    "number_exclusiveMinimum": typed("number", exclusiveMinimum=0),
    "number_exclusive_range": typed("number", exclusiveMinimum=0, exclusiveMaximum=1),
    "integer_minimum": typed("integer", minimum=1),
    # Unanchored at the start, so re.match would reject "UUD" where re.search
    # accepts it.
    "patterned_string": typed("string", pattern="D$"),
    "boolean": typed("boolean"),
    "open_object": typed("object"),
    "enum": enum("x", "y"),
    "const": const(1),
    "sized_array": array(typed("string"), minItems=1, maxItems=3),
    "closed_object": closed({"a": typed("integer"), "b": typed("string")}, ["a"]),
}


def _field_accepts(field, instance) -> bool:
    try:
        field.check(instance)
    except SchemaFailure:
        return False
    return True


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_field_decides_as_jsonschema(field):
    oracle = jsonschema.Draft7Validator(field.schema)
    oracle.check_schema(field.schema)
    decisions = [(instance, _field_accepts(field, instance)) for instance in GRID]
    assert decisions == [(instance, oracle.is_valid(instance)) for instance in GRID]


# Single-rule cases, each on the constructor form that carries the rule.
@pytest.mark.parametrize(
    ("schema", "instance"),
    [
        (typed("number"), True),
        (typed("integer"), False),
        (typed("integer"), 2.0),
        (typed("integer"), 2.5),
        (typed("number"), math.nan),
        (typed("number", minimum=0), math.nan),
        (typed("number", exclusiveMinimum=0), True),
        (typed("number", exclusiveMaximum=1), "2"),
        (typed("string", pattern="^a"), 1),
        (typed("string", pattern="b"), "abc"),
        (const(1), True),
        (const(1), 1.0),
        # enum takes strings only, so JSON equality of 0 is checked on const.
        (const(0), False),
        (const(0), -0.0),
        (closed({"a": typed("string")}), ["a"]),
        (array(typed("string"), minItems=1), {}),
    ],
)
def test_semantics_match_jsonschema(schema, instance):
    expected = jsonschema.Draft7Validator(schema.schema).is_valid(instance)
    assert _field_accepts(schema, instance) == expected


def test_unchecked_rules_fail_where_the_field_is_built():
    with pytest.raises(KeyError):
        typed("number", maximum=1)
    with pytest.raises(KeyError):
        typed("array")
    with pytest.raises(TypeError):
        enum("x", 0)
    with pytest.raises(AttributeError):
        closed({"a": {"type": "string"}})


def test_cli_import_leaves_jsonschema_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, wbcast.cli; print('jsonschema' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.strip() == "False"
