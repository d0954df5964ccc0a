"""The per-layer metrics of wbcast: which names to wrap, and what each
traced ``wbcast.cli.main`` call yields for every module (layer).

A metric is ``absent`` when no target feeding it exists any more (say, after
a function is renamed or a batched engine replaces it); it is reported as
such instead of failing the run.
"""

from __future__ import annotations

from collections import Counter

from spans import Target, Tracer, has_ancestor, self_times

MODES = ("single", "branches", "sweep", "background")


def _amplitude_bytes(tracer: Tracer, args: tuple, result) -> None:
    # Computed, not measured: 16 bytes per complex amplitude read or written.
    tracer.counts["registers.amplitude_bytes"] += 16 * (args[0].amps.size + result.amps.size)


TARGETS = [
    Target("wbcast.cli", "main", span="cli.main"),
    *(Target("wbcast.report.RUNNERS", mode, span="report.runner") for mode in MODES),
    Target("wbcast.report", "validate_report", span="report.validate_report"),
    Target("wbcast.report", "render_json", span="report.render_json"),
    Target("wbcast.report", "render_csv", span="report.render_csv"),
    Target("wbcast.report", "render_text", span="report.render_text"),
    Target("wbcast.report", "run_protocol", span="protocol.run_protocol"),
    Target("wbcast.report", "two_qubit_broadcast", span="protocol.two_qubit_broadcast"),
    Target("wbcast.report", "locate_broadcast_interval", span="protocol.locate_broadcast_interval"),
    Target("wbcast.protocol", "round_one", span="protocol.round_one"),
    Target("wbcast.protocol", "round_two", span="protocol.round_two"),
    Target("wbcast.protocol", "branch_select", span="protocol.branch_select"),
    Target("wbcast.protocol", "apply_local_unitaries", span="protocol.apply_local_unitaries"),
    Target("wbcast.protocol", "five_qubit_state", span="protocol.five_qubit_state"),
    Target("wbcast.protocol", "pair_verdicts", span="protocol.pair_verdicts"),
    # The bisection in locate_broadcast_interval looks the function up here.
    Target("wbcast.protocol", "two_qubit_broadcast", span="protocol.two_qubit_broadcast"),
    Target("wbcast.protocol", "clone_qubit", span="cloner.clone_qubit"),
    Target("wbcast.protocol", "measure_machines", span="cloner.measure_machines"),
    Target("wbcast.protocol", "ppt_verdict", span="separability.ppt_verdict"),
    Target("wbcast.protocol", "partial_trace", span="registers.partial_trace"),
    Target("wbcast.protocol", "apply_to_targets", span="registers.apply_to_targets",
           on_return=_amplitude_bytes),
    Target("wbcast.cloner", "apply_to_targets", span="registers.apply_to_targets",
           on_return=_amplitude_bytes),
    Target("wbcast.registers.DensityMatrix", "validate", count="registers.validate_calls"),
    Target("wbcast.registers.Operator", "__post_init__", count="registers.operator_checks"),
    Target("numpy.linalg", "eigvalsh", count="registers.eigvalsh_calls"),
]

# (metric, unit, kind, sources).  Kinds: "time" and "self" sum span durations
# and self times, "calls" counts spans, "count" reads a counter, "under"
# counts spans of sources[0] inside a span of sources[1], and "ratio" divides
# a counter by a span count.
SPAN_METRICS = [
    ("cli.main_s", "s", "time", ("cli.main",)),
    ("report.runner_s", "s", "time", ("report.runner",)),
    ("report.runner_self_s", "s", "self", ("report.runner",)),
    ("report.validate_s", "s", "time", ("report.validate_report",)),
    ("report.validate_calls", "count", "calls", ("report.validate_report",)),
    ("report.render_json_s", "s", "time", ("report.render_json",)),
    ("report.render_csv_s", "s", "time", ("report.render_csv",)),
    ("report.render_text_s", "s", "time", ("report.render_text",)),
    ("protocol.runs", "count", "calls", ("protocol.run_protocol",)),
    ("protocol.run_protocol_s", "s", "time", ("protocol.run_protocol",)),
    ("protocol.run_protocol_self_s", "s", "self", ("protocol.run_protocol",)),
    ("protocol.round_one_s", "s", "time", ("protocol.round_one",)),
    ("protocol.round_two_s", "s", "time", ("protocol.round_two",)),
    ("protocol.branch_select_s", "s", "time", ("protocol.branch_select",)),
    ("protocol.apply_local_unitaries_s", "s", "time", ("protocol.apply_local_unitaries",)),
    ("protocol.five_qubit_state_s", "s", "time", ("protocol.five_qubit_state",)),
    ("protocol.pair_verdicts_s", "s", "time", ("protocol.pair_verdicts",)),
    ("protocol.two_qubit_broadcast_s", "s", "time", ("protocol.two_qubit_broadcast",)),
    ("protocol.locate_broadcast_interval_s", "s", "time", ("protocol.locate_broadcast_interval",)),
    ("protocol.bisection_points", "count", "under",
     ("protocol.two_qubit_broadcast", "protocol.locate_broadcast_interval")),
    ("cloner.clone_qubit_s", "s", "time", ("cloner.clone_qubit",)),
    ("cloner.clone_qubit_calls", "count", "calls", ("cloner.clone_qubit",)),
    ("cloner.measure_machines_s", "s", "time", ("cloner.measure_machines",)),
    ("separability.ppt_verdict_s", "s", "time", ("separability.ppt_verdict",)),
    ("separability.ppt_verdict_calls", "count", "calls", ("separability.ppt_verdict",)),
    ("registers.partial_trace_s", "s", "time", ("registers.partial_trace",)),
    ("registers.partial_trace_calls", "count", "calls", ("registers.partial_trace",)),
    ("registers.apply_to_targets_s", "s", "time", ("registers.apply_to_targets",)),
    ("registers.apply_to_targets_calls", "count", "calls", ("registers.apply_to_targets",)),
    ("registers.validate_calls", "count", "count", ("registers.validate_calls",)),
    ("registers.operator_checks", "count", "count", ("registers.operator_checks",)),
    ("registers.eigvalsh_calls", "count", "count", ("registers.eigvalsh_calls",)),
    ("registers.eigvalsh_per_verdict", "ratio", "ratio",
     ("registers.eigvalsh_calls", "separability.ppt_verdict")),
    ("registers.amplitude_bytes", "B", "count",
     ("registers.amplitude_bytes", "registers.apply_to_targets")),
]

# Counters written by an ``on_return`` hook; the span they hang on is listed
# as a second source of their metric.
HOOK_COUNTERS = {"registers.amplitude_bytes"}

def absent_metrics(targets: list[Target], absent_targets: list[Target]) -> set[str]:
    """Metrics with a source that none of the patched targets provides."""
    present = {t.metric for t in targets if t not in absent_targets} | HOOK_COUNTERS
    return {name for name, _, _, sources in SPAN_METRICS if not set(sources) <= present}


def call_values(tracer: Tracer) -> dict[str, float]:
    """Every span metric for one traced call.  A metric that reads zero (its
    layer was not reached) is left out, so that medians are taken over the
    calls that exercised it."""
    spans = tracer.spans
    total: Counter[str] = Counter()
    own: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span, self_time in zip(spans, self_times(spans)):
        total[span.name] += span.duration
        own[span.name] += self_time
        calls[span.name] += 1
    by_kind = {"time": total, "self": own, "calls": calls}
    values = {}
    for name, _, kind, sources in SPAN_METRICS:
        head = sources[0]
        if kind == "count":
            value = tracer.counts[head]
        elif kind == "ratio":
            value = tracer.counts[head] / calls[sources[1]] if calls[sources[1]] else 0
        elif kind == "under":
            value = sum(
                1 for i, span in enumerate(spans)
                if span.name == head and has_ancestor(spans, i, sources[1])
            )
        else:
            value = by_kind[kind][head]
        if value:
            values[name] = float(value)
    return values


def parse_importtime(stderr: str, modules: tuple[str, ...]) -> dict[str, float]:
    """Cumulative seconds of each module's import from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2].strip()
        if name in modules and name not in out:
            try:
                out[name] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return out
