"""Wasted work, measured in counts rather than time.

A warm ``run_protocol`` call must not re-check any constant operator, and
must compute at most four spectra: the five-qubit state's (read again by the
report), one stack for the eleven pair states and one for their partial
transposes.  A ``two_qubit_broadcast`` call computes at most two spectra,
and the bisection of ``locate_broadcast_interval`` evaluates each point once.
These counts repeat exactly, unlike timings.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from wbcast import protocol
from wbcast.cloner import MachineBranch
from wbcast.protocol import ProtocolConfig, WParams, run_protocol, two_qubit_broadcast
from wbcast.registers import Operator

UUU = MachineBranch.from_string("UUU")


def _count_eigvalsh(monkeypatch) -> Counter[str]:
    counts: Counter[str] = Counter()
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return counts


def test_warm_run_repeats_no_check(monkeypatch):
    config = ProtocolConfig(WParams.normalized(1.0, 2.0, 3.0), UUU, UUU)
    run_protocol(config)  # fills the operator and wire-plan caches

    counts = _count_eigvalsh(monkeypatch)
    post_init = Operator.__post_init__

    def counting_post_init(self):
        counts["operator_checks"] += 1
        post_init(self)

    monkeypatch.setattr(Operator, "__post_init__", counting_post_init)
    transcript = run_protocol(config)
    transcript.five_qubit.eigenvalues()  # as the report reads it

    assert counts["operator_checks"] == 0
    assert counts["eigvalsh"] <= 4


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
