"""The report comparator of ``tests/report_equiv.py`` on real reports.

Each report of a few requests is compared with itself in every format, so
every field of every mode parses and the comparator is reflexive.  Edited
copies of a small report show what it accepts and what it refuses: a float
moved within ``atol`` is returned with its place, and a float moved beyond
it, a flipped classification or a reordered key fails.
"""

from __future__ import annotations

import copy

import pytest

from report_equiv import Deviation, ReportMismatch, compare_reports
from wbcast.protocol import WParams
from wbcast.registers import ATOL_ALGEBRA
from wbcast.report import FORMATS, RUNNERS, RunRequest, collect, render

REQUESTS = {
    "branches-uniform": RunRequest(mode="branches", params=WParams.normalized(1, 1, 1)),
    "branches-zero-amplitudes": RunRequest(mode="branches", params=WParams(0.6, 0.8, 0.0)),
    "sweep-seed-0": RunRequest(mode="sweep", sweep_count=150, seed=0),
    "sweep-seed-7": RunRequest(mode="sweep", sweep_count=150, seed=7),
    "background-100": RunRequest(mode="background", grid=100),
    "background-1000": RunRequest(mode="background", grid=1000),
}


@pytest.fixture(scope="module")
def small() -> dict:
    return collect(RUNNERS["sweep"](RunRequest(mode="sweep", sweep_count=2, seed=0)))


@pytest.mark.parametrize("name", REQUESTS)
def test_every_report_equals_itself_in_every_format(name):
    report = collect(RUNNERS[REQUESTS[name].mode](REQUESTS[name]))
    for fmt in FORMATS:
        text = render(report, fmt)
        assert compare_reports(text, text) == Deviation(0.0, None), fmt


def _moved(report: dict, by: float) -> dict:
    moved = copy.deepcopy(report)
    moved["runs"][1]["pairs"][2]["w3"] += by
    return moved


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_float_within_atol_is_returned_with_its_place(small, fmt):
    deviation = compare_reports(render(small, fmt), render(_moved(small, ATOL_ALGEBRA / 2), fmt))
    assert 0 < deviation.value <= ATOL_ALGEBRA
    assert deviation.where == {
        "json": "$.runs[1].pairs[2].w3",
        "csv": "row 14, w3",
        "text": "line 27, number 3",  # run 1 starts on line 21; its third pair row
    }[fmt]


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_float_beyond_atol_fails(small, fmt):
    with pytest.raises(ReportMismatch, match="differ by"):
        compare_reports(render(small, fmt), render(_moved(small, 10 * ATOL_ALGEBRA), fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_flipped_classification_fails(small, fmt):
    flipped = copy.deepcopy(small)
    flipped["runs"][0]["pairs"][5]["classification"] = "SEPARABLE"
    with pytest.raises(ReportMismatch, match="ENTANGLED"):
        compare_reports(render(small, fmt), render(flipped, fmt))


def test_a_reordered_key_fails(small):
    text = render(small, "json")
    run = small["runs"][0]
    reordered = {**small, "runs": [{"p2": run["p2"], **run}, *small["runs"][1:]]}
    with pytest.raises(ReportMismatch, match=r"\$\.runs\[0\]"):
        compare_reports(text, render(reordered, "json"))


def test_reordered_columns_and_lines_fail(small):
    header, first = render(small, "csv").splitlines(keepends=True)[:2]
    swapped = [",".join(reversed(line.rstrip("\r\n").split(","))) + "\r\n" for line in (header, first)]
    with pytest.raises(ReportMismatch, match="header"):
        compare_reports(header + first, "".join(swapped))
    lines = render(small, "text").splitlines(keepends=True)
    lines[9], lines[10] = lines[10], lines[9]  # two pair rows of run 0
    with pytest.raises(ReportMismatch, match="line 10"):
        compare_reports(render(small, "text"), "".join(lines))


def test_a_missing_record_fails(small):
    shorter = {**small, "runs": small["runs"][:1]}
    for fmt in FORMATS:
        with pytest.raises(ReportMismatch):
            compare_reports(render(small, fmt), render(shorter, fmt))
