"""Wasted work, measured in counts rather than time.

A warm ``run_protocol`` call must not re-check any constant operator, and
must compute at most four spectra: the five-qubit state's (read again by the
report), one stack for the eleven pair states and one for their partial
transposes.  A sweep runs in stacks of runs: three spectra per stack, not
per run.  A ``two_qubit_broadcast`` call computes at most two spectra,
and the bisection of ``locate_broadcast_interval`` evaluates each point once.
The background grid runs in stacks: two spectra per stack, not per point,
with memory bounded by the stack size, not the grid size.  These counts
repeat exactly, unlike timings.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from wbcast import protocol
from wbcast.cloner import MachineBranch
from wbcast.protocol import (
    BROADCAST_STACK_POINTS,
    PROTOCOL_STACK_RUNS,
    ProtocolConfig,
    WParams,
    run_protocol,
    run_protocols,
    two_qubit_broadcast,
    two_qubit_broadcasts,
)
from wbcast.registers import Operator
from wbcast.report import RunRequest, run_background, run_sweep, sweep_params

UUU = MachineBranch.from_string("UUU")


def _count_eigvalsh(monkeypatch) -> Counter[str]:
    counts: Counter[str] = Counter()
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return counts


def _count_operator_checks(monkeypatch, counts: Counter[str]) -> None:
    post_init = Operator.__post_init__

    def counting_post_init(self):
        counts["operator_checks"] += 1
        post_init(self)

    monkeypatch.setattr(Operator, "__post_init__", counting_post_init)


def test_warm_run_repeats_no_check(monkeypatch):
    config = ProtocolConfig(WParams.normalized(1.0, 2.0, 3.0), UUU, UUU)
    run_protocol(config)  # fills the operator and wire-plan caches

    counts = _count_eigvalsh(monkeypatch)
    _count_operator_checks(monkeypatch, counts)
    transcript = run_protocol(config)
    transcript.five_qubit.eigenvalues()  # as the report reads it

    assert counts["operator_checks"] == 0
    assert counts["eigvalsh"] <= 4


def test_sweep_computes_three_spectra_per_stack(monkeypatch):
    request = RunRequest(mode="sweep", sweep_count=150, seed=0)
    run_sweep(request)  # fills the operator and wire-plan caches

    counts = _count_eigvalsh(monkeypatch)
    _count_operator_checks(monkeypatch, counts)
    run_sweep(request)

    # The five-qubit states, the pair states and their partial transposes.
    assert counts["eigvalsh"] <= 3 * math.ceil(150 / PROTOCOL_STACK_RUNS)
    assert counts["operator_checks"] == 0


def test_sweep_memory_is_bounded_by_the_stack():
    configs = [ProtocolConfig(p, UUU, UUU) for p in sweep_params(150, 0)]
    list(run_protocols(configs[:PROTOCOL_STACK_RUNS]))  # fills the caches

    tracemalloc.start()
    try:
        transcripts = list(run_protocols(configs))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(transcripts) == len(configs)
    # About 0.75 MiB; an operator application that keeps its contraction
    # alive while the result is copied reaches about 1.25 MiB.
    assert peak - retained < 2**20


def test_background_point_computes_two_spectra(monkeypatch):
    two_qubit_broadcast(0.3)  # fills the operator and wire-plan caches
    counts = _count_eigvalsh(monkeypatch)
    two_qubit_broadcast(0.3)
    assert counts["eigvalsh"] <= 2


def test_bisection_evaluates_each_point_once(monkeypatch):
    points = []
    broadcast = protocol.two_qubit_broadcast

    def recording_broadcast(alpha_sq):
        points.append(alpha_sq)
        return broadcast(alpha_sq)

    monkeypatch.setattr(protocol, "two_qubit_broadcast", recording_broadcast)
    lower, upper = protocol.locate_broadcast_interval()
    assert (lower.hex(), upper.hex()) == ("0x1.c147cfac3b4b3p-4", "0x1.c7d7060a7896ap-1")
    assert len(points) == len(set(points)) == 60


def test_background_grid_computes_two_spectra_per_stack(monkeypatch):
    request = RunRequest(mode="background", grid=1050)
    run_background(request)  # fills the operator and wire-plan caches

    counts = _count_eigvalsh(monkeypatch)
    _count_operator_checks(monkeypatch, counts)
    run_background(request)

    stacks = math.ceil(1050 / BROADCAST_STACK_POINTS)
    # Two per grid stack, and two per point for the 60 bisection points.
    assert counts["eigvalsh"] <= 2 * stacks + 120
    assert counts["operator_checks"] == 0


def test_grid_memory_is_bounded_by_the_stack():
    points = [i / 10_001 for i in range(1, 10_001)]
    two_qubit_broadcasts(points[:10])  # fills the operator and wire-plan caches

    tracemalloc.start()
    try:
        results = two_qubit_broadcasts(points)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == len(points)
    assert peak - retained < 2**20


@pytest.mark.parametrize("bad", [1.0, math.nan])
def test_grid_is_validated_before_any_point_runs(monkeypatch, bad):
    clonings = []
    clone_qubit = protocol.clone_qubit

    def recording_clone_qubit(*args):
        clonings.append(args)
        return clone_qubit(*args)

    monkeypatch.setattr(protocol, "clone_qubit", recording_clone_qubit)
    grid = [0.2] + [0.5] * BROADCAST_STACK_POINTS + [bad]
    with pytest.raises(ValueError, match="alpha_sq"):
        two_qubit_broadcasts(grid)
    assert clonings == []
