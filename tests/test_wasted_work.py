"""Wasted work on the protocol path, measured in counts rather than time.

A warm ``run_protocol`` call must not re-check any constant operator, and
must compute at most four spectra: the five-qubit state's (read again by the
report), one stack for the eleven pair states and one for their partial
transposes.  These counts repeat exactly, unlike timings.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from wbcast.cloner import MachineBranch
from wbcast.protocol import ProtocolConfig, WParams, run_protocol
from wbcast.registers import Operator

UUU = MachineBranch.from_string("UUU")


def test_warm_run_repeats_no_check(monkeypatch):
    config = ProtocolConfig(WParams.normalized(1.0, 2.0, 3.0), UUU, UUU)
    run_protocol(config)  # fills the operator and wire-plan caches

    counts: Counter[str] = Counter()
    post_init = Operator.__post_init__
    eigvalsh = np.linalg.eigvalsh

    def counting_post_init(self):
        counts["operator_checks"] += 1
        post_init(self)

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(Operator, "__post_init__", counting_post_init)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    transcript = run_protocol(config)
    transcript.five_qubit.eigenvalues()  # as the report reads it

    assert counts["operator_checks"] == 0
    assert counts["eigvalsh"] <= 4
