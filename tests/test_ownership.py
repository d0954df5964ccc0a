"""Who owns an array.

A caller's array handed to ``StateVector`` or ``DensityMatrix`` is copied,
so writing to it afterwards changes no state.  ``partial_trace`` and
``partial_traces`` hand out views of their own fresh reductions, made
read-only in place rather than copied, and leave the state they read as it
was; every array a transcript exposes is read-only all the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from wbcast.cloner import MachineBranch
from wbcast.protocol import ProtocolConfig, WParams, run_protocols
from wbcast.registers import DensityMatrix, QubitLabel, StateVector, partial_trace

D = QubitLabel.data
UUU = MachineBranch.from_string("UUU")


def _rho() -> np.ndarray:
    return np.array([[0.75, 0.25j], [-0.25j, 0.25]], dtype=complex)


def test_a_state_copies_the_callers_amplitudes():
    amps = np.array([0.6, 0.8j], dtype=complex)
    state = StateVector((D(1),), amps)
    amps[:] = 0.0
    assert state.amps.tolist() == [0.6, 0.8j]
    assert not state.amps.flags.writeable


def test_a_density_matrix_copies_the_callers_matrix():
    rho = _rho()
    state = DensityMatrix((D(1),), rho)
    rho[:] = 0.0
    assert state.rho.tolist() == _rho().tolist()
    assert not state.rho.flags.writeable


def test_a_partial_trace_is_read_only_and_leaves_the_state_as_it_was():
    amps = np.array([0.5, 0.5j, 0.5, 0.5j], dtype=complex)
    state = StateVector((D(1), D(2)), amps)
    rho = partial_trace(state, {D(2)})
    assert rho.rho.tolist() == [[0.5, -0.5j], [0.5j, 0.5]]
    for array in (rho.rho, rho.eigenvalues()):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert state.amps.tolist() == amps.tolist() == [0.5, 0.5j, 0.5, 0.5j]


def test_every_array_of_a_transcript_is_read_only():
    configs = [
        ProtocolConfig(WParams.normalized(1.0, 2.0, 3.0), UUU, UUU),
        ProtocolConfig(WParams.normalized(3.0, 1.0, 2.0), UUU, UUU),
    ]
    for transcript in run_protocols(configs):
        exposed = {
            "final amplitudes": transcript.stages["final"].amps,
            "five-qubit rho": transcript.five_qubit.rho,
            "five-qubit spectrum": transcript.five_qubit.eigenvalues(),
        }
        for what, array in exposed.items():
            assert not array.flags.writeable, what
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
