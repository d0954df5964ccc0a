"""Every name the per-layer benchmark wraps still resolves.

``perfbench/layers.py`` lists the functions it traces where their callers
look them up (``wbcast.protocol.measure_machines``,
``wbcast.report.run_protocol``, ...).  A refactor that drops or renames one
of them turns its layer rows into "not exercised" without failing any run,
so tier-1 checks the list here.  A name that still resolves but is no longer
called blanks its rows the same way, so tier-1 also traces one call of each
workload's kind and checks that every row it reached stays reached.  The
benchmark's modules are imported, not changed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def benchmark_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return layers, spans


def test_every_traced_name_resolves(benchmark_modules):
    layers, spans = benchmark_modules
    missing = [target.label for target in layers.TARGETS if spans.lookup(target) is None]
    assert missing == []


# Layer rows that no workload reaches with the names as they are traced
# today: the stacked pipeline calls neither the one-run stages nor
# ``ppt_verdict``, the CLI checks each report part with its own field rather
# than ``validate_report``, and a warm run builds no ``Operator`` and
# validates no ``DensityMatrix``.  Each is a gap of the benchmark's target
# list, not of the program.
KNOWN_BLIND = {
    "report.validate_report",
    "protocol.run_protocol",
    "protocol.round_one",
    "protocol.round_two",
    "protocol.branch_select",
    "cloner.measure_machines",
    "separability.ppt_verdict",
    "registers.validate_calls",
    "registers.operator_checks",
}

WORKLOAD_CALLS = [
    ["sweep", "--sweep", "8"],
    *(["branches", "--alpha", "0.6", "--beta", "0.48", "--gamma", "0.64", "--format", fmt]
      for fmt in ("json", "csv", "text")),
    ["background", "--grid", "100"],
]


def test_every_reached_layer_stays_reached(benchmark_modules, capsys):
    """A traced name that still resolves but is no longer called leaves its
    rows blank; only the rows known to be blank may read so."""
    layers, spans = benchmark_modules
    from wbcast import cli

    cli.main(WORKLOAD_CALLS[0])  # warm caches, untraced
    tracer = spans.Tracer()
    with spans.patched(tracer, layers.TARGETS) as absent:
        # Looked up in the block, where the tracer has wrapped it.
        codes = [cli.main(argv) for argv in WORKLOAD_CALLS]
    capsys.readouterr()
    assert codes == [0] * len(WORKLOAD_CALLS)
    assert absent == []
    recorded = {span.name for span in tracer.spans} | {
        name for name, count in tracer.counts.items() if count
    }
    never = {target.metric for target in layers.TARGETS} - recorded
    assert never <= KNOWN_BLIND, sorted(never - KNOWN_BLIND)
