"""Every name the per-layer benchmark wraps still resolves.

``perfbench/layers.py`` lists the functions it traces where their callers
look them up (``wbcast.protocol.measure_machines``,
``wbcast.report.run_protocol``, ...).  A refactor that drops or renames one
of them turns its layer rows into "not exercised" without failing any run,
so tier-1 checks the list here.  The benchmark's modules are imported, not
changed.
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
