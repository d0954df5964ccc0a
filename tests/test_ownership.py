"""Who owns an array.

A caller's array handed to ``StateVector``, ``DensityMatrix`` or
``DensityMatrix.stack`` is copied, so writing to it afterwards changes no
state.  ``partial_traces`` hands out views of its own fresh reduced stack,
made read-only in place rather than copied; every array a transcript
exposes is read-only all the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from wbcast.cloner import MachineBranch
from wbcast.protocol import ProtocolConfig, WParams, run_protocols
from wbcast.registers import DensityMatrix, QubitLabel, StateVector

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


def test_a_density_stack_copies_the_callers_stack():
    rhos = np.stack([_rho(), _rho().conj()])
    states = DensityMatrix.stack((D(1),), rhos, str)
    rhos[:] = 0.0
    assert [s.rho.tolist() for s in states] == [_rho().tolist(), _rho().conj().tolist()]
    assert all(not s.rho.flags.writeable for s in states)


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
