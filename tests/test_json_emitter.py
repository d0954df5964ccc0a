"""The JSON emitter against its oracle, ``json.dumps(..., indent=2)``.

``_dumps`` walks only the nested levels of a value and hands every
container without nested containers to CPython's C encoder; ``render_json``
writes a report's header, each record and its summary with it.  The text
must be exactly what the pure-Python encoder writes, for reports of every
mode and for arbitrary JSON trees, and the CLI must write exactly that text.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbcast.cli import _request_from_args, build_parser, main
from wbcast.report import RUNNERS, _dumps, collect, render, render_json


def _oracle(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


def _tree_text(value) -> str:
    return _dumps(value, 0) + "\n"


def _report(argv: list[str]) -> dict:
    request = _request_from_args(build_parser().parse_args(argv))
    return collect(RUNNERS[request.mode](request))


ZERO_TRIPLE = ["branches", "--alpha", "1", "--beta", "0", "--gamma", "0"]

MODE_ARGS = {
    "single": ["single", "--alpha", "0.6", "--beta", "0.6", "--gamma", "0.52915",
               "--branch1", "DUD", "--branch2", "UDU"],
    "branches": ["branches", "--alpha", "0.112120", "--beta", "0.972414", "--gamma", "0.204548"],
    "branches-zero-amplitudes": ZERO_TRIPLE,
    "sweep": ["sweep", "--sweep", "20", "--seed", "4"],
    "background": ["background", "--grid", "150"],
}


@pytest.mark.parametrize("argv", MODE_ARGS.values(), ids=MODE_ARGS.keys())
def test_report_text_equals_the_oracle(argv):
    report = _report(argv)
    assert render_json(report) == _oracle(report)
    chunks: list[str] = []
    assert render_json(report, chunks.append) is None
    assert "".join(chunks) == _oracle(report)
    # One string for the header, one per record and one for the summary.
    assert len(chunks) == len(report["runs"]) + 2


def test_zero_amplitude_report_covers_the_optional_fields():
    report = _report(ZERO_TRIPLE)
    runs = report["runs"]
    assert all("note" in run for run in runs)
    assert any("p1_fraction" in run and "p2_fraction" in run for run in runs)
    # No computed run agrees with the paper on all 11 pairs, so an empty
    # disagreeing_pairs list is made here.
    runs[0]["paper_agreement"].update(agree=11, disagree=0, disagreeing_pairs=[])
    assert render_json(report) == _oracle(report)
    assert '"disagreeing_pairs": []\n' in render_json(report)


# Keys and strings with JSON's own punctuation, non-ASCII and control
# characters.
_TEXT = st.text(st.sampled_from('{}[]",:\n\\\t\x00\x1f é€😀') | st.characters(), max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**100)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e16, 5e-324, 1e-7, 123456789012345.6])
    | _TEXT
)


def _trees(scalars):
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(_TEXT, children, max_size=5),
        max_leaves=15,
    )


@settings(max_examples=80, deadline=None)
@given(_trees(_SCALARS))
@example({})
@example([[], {}, [[{}]], {"a": {"b": []}}])
@example({"": [{"x": {}}, [], 2**64, -0.0, None, True]})
def test_any_json_tree_equals_the_oracle(tree):
    assert _tree_text(tree) == _oracle(tree)


@settings(max_examples=40, deadline=None)
@given(_trees(_SCALARS | st.sampled_from([math.nan, math.inf, -math.inf])))
def test_non_finite_values_raise_as_the_oracle_does(tree):
    try:
        want = _oracle(tree)
    except ValueError:
        with pytest.raises(ValueError):
            _tree_text(tree)
    else:
        assert _tree_text(tree) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: x,
        lambda x: [x],
        lambda x: {"a": x},
        lambda x: {"a": [1, {"b": x}]},
        lambda x: {"a": [1, {"b": [2.5, x]}], "c": {}},
        lambda x: [{"p": 1.0}, {"q": [[x]]}],
    ],
    ids=["top", "list", "dict", "depth-2", "depth-3-scalar-list", "nested-lists"],
)
def test_non_finite_value_raises_at_any_depth(place, bad):
    with pytest.raises(ValueError):
        _tree_text(place(bad))


@pytest.mark.parametrize("tree", [{"a": [object()]}, {"a": {"b": 1}, "c": object()}])
def test_unserializable_value_raises_as_the_oracle_does(tree):
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        _oracle(tree)
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        _tree_text(tree)


CLI_ARGS = {
    "sweep": ["sweep", "--sweep", "3", "--seed", "1"],
    "background": ["background", "--grid", "100"],
    "branches-zero-amplitudes": ZERO_TRIPLE,
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv", CLI_ARGS.values(), ids=CLI_ARGS.keys())
def test_cli_writes_the_rendered_bytes(argv, fmt, tmp_path, capsysbinary):
    argv = [*argv, "--format", fmt]
    want = render(_report(argv), fmt).encode("utf-8")

    assert main(argv) == 0
    assert capsysbinary.readouterr().out == want

    target = tmp_path / "report"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == want
    assert capsysbinary.readouterr().out == b""
