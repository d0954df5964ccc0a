"""Tests for report assembly, the JSON schema, rendering and the CLI."""

from __future__ import annotations

import copy
import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import stat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbcast import cli as cli_module
from wbcast import report as report_module
from wbcast.cli import main
from wbcast.cloner import ImpossibleBranchError, MachineBranch
from wbcast.protocol import PAPER_CLAIMS, WParams, two_qubit_broadcasts
from wbcast.registers import InvariantViolation
from wbcast.report import (
    RUNNERS,
    RunRequest,
    _rounded,
    fraction_note,
    format15,
    render,
    render_csv,
    render_json,
    render_text,
    run_background,
    run_branches,
    run_single,
    run_sweep,
    sweep_params,
    validate_report,
)

UUU = MachineBranch.from_string("UUU")
UNIFORM = WParams.normalized(1.0, 1.0, 1.0)

PAIR_ORDER = ["15", "58", "16", "69", "86", "17", "14", "25", "28", "36", "39"]
LOCAL_KEYS = ["17", "14", "25", "28", "36", "39"]


@pytest.fixture(scope="module")
def single_report():
    request = RunRequest(mode="single", params=UNIFORM, branch1=UUU, branch2=UUU)
    return run_single(request)


@pytest.fixture(scope="module")
def branches_report():
    request = RunRequest(mode="branches", params=UNIFORM)
    return run_branches(request)


@pytest.fixture(scope="module")
def background_report():
    request = RunRequest(mode="background", grid=100)
    return run_background(request)


class TestRunRequest:
    def test_mode_and_format_validated(self):
        with pytest.raises(ValueError, match="mode"):
            RunRequest(mode="wat")
        with pytest.raises(ValueError, match="format"):
            RunRequest(mode="background", grid=100, fmt="yaml")

    def test_single_requires_params_and_branches(self):
        with pytest.raises(ValueError, match="alpha"):
            RunRequest(mode="single", branch1=UUU, branch2=UUU)
        with pytest.raises(ValueError, match="requires branch2"):
            RunRequest(mode="single", params=UNIFORM, branch1=UUU)

    def test_sweep_requires_count_and_seed(self):
        with pytest.raises(ValueError, match="count"):
            RunRequest(mode="sweep", sweep_count=0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            RunRequest(mode="sweep", sweep_count=5)
        with pytest.raises(ValueError, match="minimum of 0"):
            RunRequest(mode="sweep", sweep_count=5, seed=-1)

    def test_background_requires_grid(self):
        with pytest.raises(ValueError, match="grid"):
            RunRequest(mode="background", grid=99)


class TestNumericFormatting:
    def test_round15_fixes_serialization_precision(self):
        x = 1 / 3
        assert format15(x) == "0.333333333333333"
        assert _rounded(["x"], [x]) == [float("0.333333333333333")]
        assert _rounded(["x"], _rounded(["x"], [x])) == _rounded(["x"], [x])

    def test_fraction_notes(self):
        assert fraction_note(4 / 27) == "4/27"
        assert fraction_note(2 / 9) == "2/9"
        assert fraction_note(0.12345678901) is None


RUNNER_REQUESTS = [
    RunRequest(mode="single", params=UNIFORM, branch1=UUU, branch2=UUU),
    RunRequest(mode="branches", params=UNIFORM),
    RunRequest(mode="sweep", sweep_count=2, seed=0),
    RunRequest(mode="background", grid=100),
]


@pytest.mark.parametrize("request_", RUNNER_REQUESTS, ids=lambda r: r.mode)
def test_runner_returns_the_report_keys_in_report_order(request_):
    report = RUNNERS[request_.mode](request_)
    keys = ["version", "schema_version", "request", "runs", "summary"]
    assert list(report) == keys
    whole = report_module.collect(report)
    assert list(whole) == keys
    assert list(report_module.report_schema(request_.mode)["properties"]) == keys
    validate_report(whole)


class TestSingleReport:
    def test_envelope(self, single_report):
        assert set(single_report) == {
            "version", "schema_version", "request", "runs", "summary",
        }
        assert single_report["schema_version"] == 1
        request = single_report["request"]
        assert request["mode"] == "single"
        assert request["branch1"] == "UUU"
        assert request["branch2"] == "UUU"
        assert request["apply_unitaries"] is True
        assert request["alpha"] == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_probabilities_with_fraction_notes(self, single_report):
        record = single_report["runs"][0]
        assert record["p1"] == pytest.approx(4 / 27, abs=1e-12)
        assert record["p2"] == pytest.approx(2 / 9, abs=1e-12)
        assert record["p1_fraction"] == "4/27"
        assert record["p2_fraction"] == "2/9"
        assert record["joint_probability"] == pytest.approx(8 / 243, abs=1e-12)

    def test_five_qubit_block(self, single_report):
        five = single_report["runs"][0]["five_qubit"]
        assert five["labels"] == ["1", "5", "6", "8", "9"]
        assert five["trace"] == pytest.approx(1.0, abs=1e-12)
        assert len(five["eigenvalues"]) == 32
        assert sum(five["eigenvalues"]) == pytest.approx(1.0, abs=1e-10)
        assert 0 < five["purity"] <= 1

    def test_pair_rows(self, single_report):
        rows = single_report["runs"][0]["pairs"]
        assert [r["pair"] for r in rows] == PAIR_ORDER
        for row in rows:
            if row["pair"] in LOCAL_KEYS:
                assert row["kind"] == "local"
                assert row["paper_claim"] == "SEPARABLE"
                assert row["classification"] == "ENTANGLED"
                assert row["agrees_with_paper"] is False
            else:
                assert row["kind"] == "nonlocal"
                assert row["paper_claim"] == "ENTANGLED"
                assert row["classification"] == "ENTANGLED"
                assert row["agrees_with_paper"] is True
            assert row["negativity"] >= 0
            assert (row["classification"] == "ENTANGLED") == (row["w4"] < 0)

    def test_agreement_tally(self, single_report):
        record = single_report["runs"][0]
        assert record["broadcast_ok"] is False
        assert record["degenerate_input"] is False
        assert "note" not in record
        agreement = record["paper_agreement"]
        assert agreement["agree"] == 5
        assert agreement["disagree"] == 6
        assert agreement["disagreeing_pairs"] == LOCAL_KEYS

    def test_summary(self, single_report):
        summary = single_report["summary"]
        assert summary["runs"] == 1
        assert summary["broadcast_ok_count"] == 0
        by_pair = {row["pair"]: row for row in summary["pair_agreement"]}
        assert by_pair["15"]["agree"] == 1
        assert by_pair["17"]["disagree"] == 1
        assert by_pair["17"]["entangled_count"] == 1

    def test_degenerate_input_noted(self):
        request = RunRequest(
            mode="single",
            params=WParams(1.0, 0.0, 0.0),
            branch1=UUU,
            branch2=UUU,
        )
        record = run_single(request)["runs"][0]
        assert record["degenerate_input"] is True
        assert "note" in record
        verdicts = {r["pair"]: r["classification"] for r in record["pairs"]}
        assert verdicts["69"] == "ENTANGLED"
        for key in ("15", "58", "16", "86"):
            assert verdicts[key] == "SEPARABLE"


class TestSchema:
    def test_valid_reports_pass(self, single_report, background_report):
        validate_report(single_report)
        validate_report(background_report)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.update(schema_version=2),
            lambda r: r.update(extra="x"),
            lambda r: r["request"].update(mode="wat"),
            lambda r: r["runs"][0].update(surprise=1),
            lambda r: r["runs"][0]["pairs"][0].update(classification="MAYBE"),
            lambda r: r["runs"][0]["pairs"][0].update(negativity=-0.25),
            lambda r: r["runs"][0]["pairs"].pop(),
            lambda r: r["runs"][0]["five_qubit"]["eigenvalues"].pop(),
            lambda r: r["runs"][0].pop("broadcast_ok"),
        ],
    )
    def test_mutations_rejected(self, single_report, mutate):
        bad = copy.deepcopy(single_report)
        mutate(bad)
        with pytest.raises(InvariantViolation, match="schema"):
            validate_report(bad)

    @pytest.mark.parametrize(
        ("mutate", "message"),
        [
            (
                lambda r: r["runs"][0]["pairs"][0].update(classification="MAYBE"),
                "$.runs[0].pairs[0].classification: 'MAYBE' is not one of "
                "['SEPARABLE', 'ENTANGLED']",
            ),
            (
                lambda r: r["runs"][0].pop("broadcast_ok"),
                "$.runs[0]: 'broadcast_ok' is a required property",
            ),
            (
                lambda r: r.update(extra="x"),
                "$: Additional properties are not allowed ('extra' was unexpected)",
            ),
            # A report naming no mode fails at its request.
            (lambda r: r.pop("request"), "$: 'request' is a required property"),
            (lambda r: r.update(request=[]), "$.request: [] is not of type 'object'"),
            (
                lambda r: r["request"].update(mode="wat"),
                "$.request.mode: 'wat' is not one of "
                "['single', 'branches', 'sweep', 'background']",
            ),
            (
                lambda r: r["request"].update(mode=[]),
                "$.request.mode: [] is not one of ['single', 'branches', 'sweep', 'background']",
            ),
        ],
    )
    def test_failure_names_path_and_rule(self, single_report, mutate, message):
        bad = copy.deepcopy(single_report)
        mutate(bad)
        with pytest.raises(InvariantViolation) as exc:
            validate_report(bad)
        assert str(exc.value) == f"report failed schema validation: {message}"

    @pytest.mark.parametrize(("report", "shown"), [([], "[]"), (None, "None"), ("x", "'x'")])
    def test_non_object_report_rejected(self, report, shown):
        with pytest.raises(InvariantViolation) as exc:
            validate_report(report)
        assert str(exc.value) == (
            f"report failed schema validation: $: {shown} is not of type 'object'"
        )

    def test_runs_checked_against_their_mode_schema(
        self, single_report, background_report
    ):
        # Each mode's runs are checked against that mode's run schema only,
        # so a run of the other kind is rejected.
        mixed = copy.deepcopy(single_report)
        mixed["runs"].append(copy.deepcopy(background_report["runs"][0]))
        with pytest.raises(InvariantViolation, match="schema"):
            validate_report(mixed)
        mixed = copy.deepcopy(background_report)
        mixed["runs"].append(copy.deepcopy(single_report["runs"][0]))
        with pytest.raises(InvariantViolation, match="schema"):
            validate_report(mixed)


class TestBranchesReport:
    def test_all_64_combinations(self, branches_report):
        runs = branches_report["runs"]
        assert len(runs) == 64
        assert [r["index"] for r in runs] == list(range(64))
        assert runs[0]["branches"] == {"round1": "UUU", "round2": "UUU"}
        assert runs[1]["branches"] == {"round1": "UUU", "round2": "UUD"}
        assert runs[8]["branches"] == {"round1": "UUD", "round2": "UUU"}
        assert runs[63]["branches"] == {"round1": "DDD", "round2": "DDD"}

    def test_probability_total(self, branches_report):
        assert branches_report["summary"]["probability_total"] == pytest.approx(
            1.0, abs=1e-10
        )

    def test_summary_is_complete_once_the_runs_are_read(self):
        report = RUNNERS["branches"](RunRequest(mode="branches", params=UNIFORM))
        # The total is known only once the last record has passed.
        assert "probability_total" not in report["summary"]
        whole = report_module.collect(report)
        assert whole["summary"]["probability_total"] == pytest.approx(1.0, abs=1e-10)

    def test_summary_counts(self, branches_report):
        summary = branches_report["summary"]
        assert summary["runs"] == 64
        by_pair = {row["pair"]: row for row in summary["pair_agreement"]}
        assert by_pair["15"]["runs"] == 64
        assert by_pair["17"]["disagree"] > 0

    def test_csv_layout(self, branches_report):
        text = render_csv(branches_report)
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1 + 64 * 11
        assert rows[0][0] == "run_index"
        assert rows[0][-1] == "broadcast_ok"
        assert all(len(row) == len(rows[0]) for row in rows)
        assert rows[1][9] == "15"
        assert {row[18] for row in rows[1:]} <= {"true", "false"}


class TestPaperComparison:
    """A report's comparison with the paper follows from its pair rows."""

    @settings(max_examples=4, deadline=None)
    @given(
        st.tuples(*[st.floats(0.0, 1.0)] * 3)
        .filter(lambda v: max(v) >= 0.01)
        .map(lambda v: WParams.normalized(*v))
    )
    @example(WParams(0.6, 0.8, 0.0))
    def test_rows_counts_and_summary_agree(self, params):
        report = run_branches(RunRequest(mode="branches", params=params))
        for record in report["runs"]:
            rows = record["pairs"]
            assert [row["pair"] for row in rows] == PAIR_ORDER
            for row in rows:
                assert row["paper_claim"] == PAPER_CLAIMS[row["pair"]]
                assert row["agrees_with_paper"] == (row["classification"] == row["paper_claim"])
            disagreeing = [row["pair"] for row in rows if not row["agrees_with_paper"]]
            assert record["paper_agreement"] == {
                "agree": 11 - len(disagreeing),
                "disagree": len(disagreeing),
                "disagreeing_pairs": disagreeing,
            }
            assert record["broadcast_ok"] == (len(disagreeing) == 0)
        for i, row in enumerate(report["summary"]["pair_agreement"]):
            assert row["agree"] + row["disagree"] == row["runs"] == 64
            agree = sum(record["pairs"][i]["agrees_with_paper"] for record in report["runs"])
            assert row["agree"] == agree


class TestSweep:
    def test_draws_are_deterministic_and_floored(self):
        first = sweep_params(20, seed=7)
        second = sweep_params(20, seed=7)
        assert [p.as_tuple() for p in first] == [p.as_tuple() for p in second]
        for p in first:
            assert min(p.as_tuple()) >= 0.05
            assert sum(v * v for v in p.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_reports_are_byte_identical_for_same_seed(self):
        request = RunRequest(mode="sweep", sweep_count=3, seed=5)
        a = render_json(run_sweep(request))
        b = render_json(run_sweep(request))
        assert a == b
        other = render_json(run_sweep(RunRequest(mode="sweep", sweep_count=3, seed=6)))
        assert a != other

    def test_record_params_vary(self):
        report = run_sweep(RunRequest(mode="sweep", sweep_count=3, seed=5))
        triples = {
            (r["params"]["alpha"], r["params"]["beta"], r["params"]["gamma"])
            for r in report["runs"]
        }
        assert len(triples) == 3
        for record in report["runs"]:
            assert record["branches"] == {"round1": "UUU", "round2": "UUU"}


class TestBackgroundReport:
    def test_rows_and_interval(self, background_report):
        rows = background_report["runs"]
        assert len(rows) == 100
        assert rows[0]["alpha_sq"] == pytest.approx(1 / 101, abs=1e-12)
        assert rows[-1]["alpha_sq"] == pytest.approx(100 / 101, abs=1e-12)
        interval = background_report["summary"]["interval"]
        offset = math.sqrt(39) / 16
        assert interval["lower"] == pytest.approx(0.5 - offset, abs=1e-6)
        assert interval["upper"] == pytest.approx(0.5 + offset, abs=1e-6)

    def test_classification_flips_at_interval(self, background_report):
        interval = background_report["summary"]["interval"]
        # The clone-clone pair has its own (wider) separability band, with
        # endpoints at 1/2 -+ sqrt(3)/4; outside it the roles invert.
        local_band = (0.5 - math.sqrt(3) / 4, 0.5 + math.sqrt(3) / 4)
        for row in background_report["runs"]:
            inside = interval["lower"] < row["alpha_sq"] < interval["upper"]
            assert (row["nonlocal_classification"] == "ENTANGLED") == inside
            local_inside = local_band[0] < row["alpha_sq"] < local_band[1]
            assert (row["local_classification"] == "SEPARABLE") == local_inside
            if inside:
                assert row["local_classification"] == "SEPARABLE"

    def test_csv_layout(self, background_report):
        rows = list(csv.reader(io.StringIO(render_csv(background_report))))
        assert len(rows) == 101
        assert rows[0] == [
            "alpha_sq",
            "nonlocal_min_pt_eigenvalue",
            "local_min_pt_eigenvalue",
            "nonlocal_classification",
            "local_classification",
            "interval_lower",
            "interval_upper",
        ]
        assert rows[1][-2] == rows[100][-2]

    def test_text_summary_line(self, background_report):
        text = render_text(background_report)
        assert "non-local pair inseparable for alpha_sq in" in text


class TestTextRendering:
    def test_single_run_text(self, single_report):
        text = render_text(single_report)
        assert "mode: single" in text
        assert "(= 4/27)" in text
        assert "(= 2/9)" in text
        assert "broadcast_ok: false" in text
        # six local pairs disagree in the run block and again in the summary
        assert text.count("DISAGREES") == 12
        assert "paper claims comparison:" in text

    def test_csv_and_json_carry_identical_numbers(self, single_report):
        json_rows = single_report["runs"][0]["pairs"]
        csv_rows = list(csv.DictReader(io.StringIO(render_csv(single_report))))
        assert len(csv_rows) == 11
        for json_row, csv_row in zip(json_rows, csv_rows):
            assert csv_row["pair"] == json_row["pair"]
            assert float(csv_row["min_pt_eigenvalue"]) == json_row["min_pt_eigenvalue"]
            assert float(csv_row["w4"]) == json_row["w4"]

    def test_render_dispatch(self, single_report):
        assert render(single_report, "json") == render_json(single_report)
        assert render(single_report, "csv") == render_csv(single_report)
        assert render(single_report, "text") == render_text(single_report)
        with pytest.raises(ValueError):
            render(single_report, "yaml")

    def test_json_round_trips(self, single_report):
        text = render_json(single_report)
        assert text.endswith("\n")
        assert json.loads(text) == single_report


ARGS_SINGLE = [
    "single",
    "--alpha", "0.5774", "--beta", "0.5774", "--gamma", "0.5774",
]


class TestCli:
    def test_single_to_stdout(self, capsys):
        assert main(ARGS_SINGLE) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["request"]["mode"] == "single"
        assert report["request"]["alpha"] == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert report["runs"][0]["p1_fraction"] == "4/27"

    def test_out_file_and_text_format(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(ARGS_SINGLE + ["--format", "text", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert "broadcast_ok: false" in data.decode("utf-8")

    def test_no_unitaries_flag(self, capsys):
        assert main(ARGS_SINGLE + ["--no-unitaries"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["request"]["apply_unitaries"] is False
        assert report["runs"][0]["apply_unitaries"] is False

    def test_branch_selection(self, capsys):
        assert main(ARGS_SINGLE + ["--branch1", "DUD", "--branch2", "UDU"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runs"][0]["branches"] == {"round1": "DUD", "round2": "UDU"}

    def test_sweep_csv(self, capsys):
        assert main(["sweep", "--sweep", "2", "--seed", "3", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 + 2 * 11

    def test_sweep_deterministic_across_invocations(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["sweep", "--sweep", "2", "--seed", "9", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_amplitudes_exit_2(self, capsys):
        code = main(["single", "--alpha", "0.9", "--beta", "0.9", "--gamma", "0.9"])
        assert code == 2
        assert "unit vector" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, capsys):
        assert main(["sweep", "--sweep", "2", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_overflowing_amplitudes_exit_2(self, capsys):
        code = main(["single", "--alpha", "1e200", "--beta", "1e200", "--gamma", "0"])
        assert code == 2
        assert "unit vector" in capsys.readouterr().err

    def test_unwritable_out_path_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "report.json"
        code = main(ARGS_SINGLE + ["--out", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_empty_out_path_exit_2(self, capsys):
        # An empty path names no file; the report goes nowhere, stdout included.
        assert main(ARGS_SINGLE + ["--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wbcast: --out takes a file path, got an empty one\n"
        assert "stdout" not in captured.err

    def test_bad_branch_string_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(ARGS_SINGLE + ["--branch1", "XXX"])
        assert exc.value.code == 2

    def test_small_grid_exit_2(self, capsys):
        assert main(["background", "--grid", "50"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_impossible_branch_exit_3(self, capsys, monkeypatch):
        def boom(request):
            raise ImpossibleBranchError("branch has zero probability")

        monkeypatch.setitem(RUNNERS, "single", boom)
        assert main(ARGS_SINGLE) == 3
        assert "zero probability" in capsys.readouterr().err

    def test_invariant_violation_exit_4(self, capsys, monkeypatch):
        def boom(request):
            raise InvariantViolation("synthetic failure")

        monkeypatch.setitem(RUNNERS, "single", boom)
        assert main(ARGS_SINGLE) == 4
        assert "synthetic failure" in capsys.readouterr().err

    def test_non_finite_report_value_exit_4(self, capsys, monkeypatch):
        def nan_broadcasts(alpha_sqs):
            return [
                dataclasses.replace(
                    result,
                    local_verdict=dataclasses.replace(
                        result.local_verdict, min_pt_eigenvalue=math.nan
                    ),
                )
                for result in two_qubit_broadcasts(alpha_sqs)
            ]

        monkeypatch.setattr(report_module, "two_qubit_broadcasts", nan_broadcasts)
        assert main(["background", "--grid", "100"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'local_min_pt_eigenvalue' is not finite (nan)" in captured.err

    @staticmethod
    def _break_transcripts(monkeypatch, breaker):
        run_protocols = report_module.run_protocols

        def broken_run_protocols(configs):
            return map(breaker, run_protocols(configs))

        monkeypatch.setattr(report_module, "run_protocols", broken_run_protocols)

    def test_non_finite_eigenvalue_exit_4(self, capsys, monkeypatch):
        class NanSpectrum:
            """A five-qubit state whose eighth eigenvalue reads NaN."""

            def __init__(self, five):
                self._five = five

            def __getattr__(self, name):
                return getattr(self._five, name)

            def eigenvalues(self):
                spectrum = self._five.eigenvalues().copy()
                spectrum[7] = math.nan
                return spectrum

        self._break_transcripts(
            monkeypatch,
            lambda t: dataclasses.replace(t, five_qubit=NanSpectrum(t.five_qubit)),
        )
        assert main(ARGS_SINGLE) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'eigenvalues' is not finite (nan)" in captured.err

    def test_non_finite_pair_witness_exit_4(self, capsys, monkeypatch):
        def nan_w3(transcript):
            pairs = dict(transcript.pairs)
            pairs["86"] = dataclasses.replace(pairs["86"], w3=math.nan)
            return dataclasses.replace(transcript, pairs=pairs)

        self._break_transcripts(monkeypatch, nan_w3)
        assert main(["sweep", "--sweep", "3", "--seed", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'w3' is not finite (nan)" in captured.err

    BRANCHES = ["branches", "--alpha", "0.6", "--beta", "0.48", "--gamma", "0.64"]

    def _double_last_p2(self, monkeypatch):
        """Double p2 of the DDD/DDD run, so that the 64 joint probabilities
        sum to 1.0123..., which the branches total refuses."""

        def doubled(transcript):
            config = transcript.config
            if str(config.branch1) == str(config.branch2) == "DDD":
                return dataclasses.replace(transcript, p2=2 * transcript.p2)
            return transcript

        self._break_transcripts(monkeypatch, doubled)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_failed_probability_total_exit_4(self, fmt, tmp_path, capsys, monkeypatch):
        self._double_last_p2(monkeypatch)
        assert main(self.BRANCHES + ["--format", fmt]) == 4
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "branch probabilities sum to 1.0123" in captured.err
        # Every record was written before the total failed; no summary was.
        out = captured.out
        if fmt == "json":
            assert out.count('\n      "index": ') == 64
            assert '"summary"' not in out and '"runs": [' in out
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) == 1 + 64 * 11
            assert rows[-1][:6] == ["63", "0.6", "0.48", "0.64", "DDD", "DDD"]
        else:
            assert sum(line.startswith("run ") for line in out.splitlines()) == 64
            assert "broadcast_ok: " in out.splitlines()[-1]
            assert "paper claims comparison:" not in out
        # --out is replaced only by a whole report.
        target = tmp_path / "report"
        assert main(self.BRANCHES + ["--format", fmt, "--out", str(target)]) == 4
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "branch probabilities sum to" in captured.err

    SWEEP_20 = ["sweep", "--sweep", "20", "--seed", "0"]

    @classmethod
    def _fail_at_record(cls, monkeypatch, code: int, index: int = 9) -> None:
        """Make a sweep fail after its first records: record ``index`` breaks
        (exit 3 or 4), or the first write after 4 KiB have been written finds
        the disk full (exit 2), however the text is cut into writes."""
        if code == 2:
            render = cli_module.render
            written = 0

            def full_disk_render(stream, fmt, write):
                def write_until_full(text):
                    nonlocal written
                    if written >= 4096:
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                    written += len(text)
                    write(text)

                render(stream, fmt, write_until_full)

            monkeypatch.setattr(cli_module, "render", full_disk_render)
            return
        seen = itertools.count()

        def breaker(transcript):
            if next(seen) != index:
                return transcript
            if code == 3:
                raise ImpossibleBranchError("branch has zero probability")
            pairs = dict(transcript.pairs)
            pairs["86"] = dataclasses.replace(pairs["86"], w3=math.nan)
            return dataclasses.replace(transcript, pairs=pairs)

        cls._break_transcripts(monkeypatch, breaker)

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("code", [2, 3, 4])
    def test_failed_run_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys, code, existing):
        target = tmp_path / "report.json"
        if existing:
            target.write_text("an earlier report\n")
        self._fail_at_record(monkeypatch, code)
        assert main(self.SWEEP_20 + ["--out", str(target)]) == code
        # No partial report and no temporary file; an earlier file is untouched.
        assert list(tmp_path.iterdir()) == ([target] if existing else [])
        if existing:
            assert target.read_text() == "an earlier report\n"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1

    def test_out_is_replaced_whole(self, tmp_path, capsysbinary):
        assert main(self.SWEEP_20) == 0
        want = capsysbinary.readouterr().out
        target = tmp_path / "report.json"
        target.write_text("an earlier report\n")
        assert main(self.SWEEP_20 + ["--out", str(target)]) == 0
        assert target.read_bytes() == want
        assert list(tmp_path.iterdir()) == [target]

    def test_new_out_file_gets_the_mode_open_gives(self, tmp_path):
        umask = os.umask(0o027)
        try:
            opened = tmp_path / "opened.txt"
            open(opened, "w").close()
            target = tmp_path / "report.json"
            assert main(ARGS_SINGLE + ["--out", str(target)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode) == 0o640

    def test_existing_out_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("an earlier report\n")
        target.chmod(0o604)
        assert main(ARGS_SINGLE + ["--out", str(target)]) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o604
        assert json.loads(target.read_text())["request"]["mode"] == "single"

    def test_json_refuses_non_finite_values(self, single_report):
        broken = copy.deepcopy(single_report)
        broken["runs"][0]["p1"] = math.inf
        with pytest.raises(ValueError):
            render_json(broken)
