"""Tests of the benchmark itself (not of wbcast).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
from run import call_main, tail  # noqa: E402
from spans import Span, Target, Tracer, lookup, patched, self_times  # noqa: E402

SMALL_ARGV = [
    ("sweep", "--sweep", "4", "--seed", "3"),
    ("branches", "--alpha", "0.6", "--beta", "0.6", "--gamma", "0.52915", "--format", "csv"),
    ("branches", "--alpha", "1", "--beta", "0", "--gamma", "0", "--format", "text"),
    ("background", "--grid", "100"),
]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("parent", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        Span("grandchild", 2.5, 4.0, 2),  # covered by b, not by parent directly
        Span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 1.5, 1.5, 3.0])


def test_tracer_records_nesting_and_self_time():
    tracer = Tracer()
    inner = tracer.timed(lambda: None, "inner")
    outer = tracer.timed(lambda: [inner(), inner()], "outer")
    outer()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(
        tracer.spans[0].duration - tracer.spans[1].duration - tracer.spans[2].duration
    )


@pytest.mark.parametrize("argv", SMALL_ARGV, ids=lambda a: a[0] + "-" + a[-1])
def test_traced_report_is_byte_identical_and_names_are_restored(argv):
    originals = [lookup(t) for t in layers.TARGETS]
    plain = call_main(argv)
    tracer = Tracer()
    with patched(tracer, layers.TARGETS) as absent:
        traced = call_main(argv)
    assert absent == []
    assert plain[0] == traced[0] == 0
    assert traced[1] == plain[1]
    assert [lookup(t) for t in layers.TARGETS] == originals
    assert layers.call_values(tracer)["cli.main_s"] > 0


def test_names_are_restored_when_the_traced_call_raises():
    originals = [lookup(t) for t in layers.TARGETS]
    with pytest.raises(RuntimeError):
        with patched(Tracer(), layers.TARGETS):
            raise RuntimeError("boom")
    assert [lookup(t) for t in layers.TARGETS] == originals


def test_missing_function_is_reported_absent_instead_of_crashing():
    gone = [
        Target("wbcast.report", "run_protocol_removed", span="protocol.run_protocol"),
        Target("wbcast.no_such_module", "anything", span="protocol.pair_verdicts"),
    ]
    targets = gone + [t for t in layers.TARGETS
                      if t.metric not in ("protocol.run_protocol", "protocol.pair_verdicts")]
    tracer = Tracer()
    with patched(tracer, targets) as absent:
        code, _, _ = call_main(SMALL_ARGV[0])
    assert code == 0
    assert absent == gone
    assert lookup(gone[0]) is None
    missing = layers.absent_metrics(targets, absent)
    assert {"protocol.runs", "protocol.run_protocol_s", "protocol.pair_verdicts_s"} <= missing
    assert "registers.eigvalsh_calls" not in missing
    values = layers.call_values(tracer)
    assert "protocol.runs" not in values
    assert values["registers.eigvalsh_calls"] > 0


def test_counts_match_the_known_work_of_one_protocol_run():
    tracer = Tracer()
    with patched(tracer, layers.TARGETS):
        call_main(("sweep", "--sweep", "1", "--seed", "0"))
    values = layers.call_values(tracer)
    assert values["protocol.runs"] == 1
    assert values["separability.ppt_verdict_calls"] == 11
    assert values["registers.operator_checks"] == 12
    assert values["registers.eigvalsh_calls"] == 25


def test_seed_fixes_the_invocations():
    for workload in workloads.WORKLOADS:
        head = [inv for inv, _ in zip(workloads.invocations(workload, 5), range(40))]
        again = [inv for inv, _ in zip(workloads.invocations(workload, 5), range(40))]
        other = [inv for inv, _ in zip(workloads.invocations(workload, 6), range(40))]
        assert head == again != other
        assert all(inv.key in workloads.load_digests() for inv in head)


def test_output_check_catches_a_changed_report():
    inv = workloads.branches_invocation(workloads.BOUNDARY_TRIPLE, "json")
    code, out, _ = call_main(inv.argv)
    digests = workloads.load_digests()
    assert code == 0
    assert workloads.check_output(inv, out, digests) == []
    broken = out.replace(b'"probability_total": 1.0', b'"probability_total": 0.99')
    problems = workloads.check_output(inv, broken, digests)
    assert any("digest" in p for p in problems)
    assert any("probability_total" in p for p in problems)


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(40)]
    value, percentile = tail(values)
    assert value == 29.0
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(75.0)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("workload, trace, section", [
    ("branches", 0, "end_to_end"),
    ("background", 1, "per_layer"),
])
def test_result_line_reports_exactly_the_declared_metrics(capsys, workload, trace, section):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
