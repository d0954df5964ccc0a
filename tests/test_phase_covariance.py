"""Phases on the W amplitudes change no probability and no spectrum.

Multiplying alpha, beta and gamma by phases is a diagonal one-wire unitary
on each party's original qubit (up to a global phase).  The Buzek-Hillery
machine is covariant, so such a unitary passes through it as U (x) U (x) U*
on the original, the clone and the machine; it commutes with the up/down
measurement of the machine, and the dressing stage keeps it one-wire.  So
the final state of a complex W-type input differs from that of its moduli
by one-wire unitaries alone: both branch probabilities, the partial-
transpose spectra of all 36 wire pairs and the five-qubit spectrum are
those of the real-amplitude run, on all 64 branch pairs.  ``WParams`` is
real, so the input is built here; no stored answer is needed.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from wbcast.cloner import BRANCH_ORDER
from wbcast.protocol import (
    WParams,
    apply_local_unitaries,
    branch_select,
    five_qubit_state,
    prepare_w,
    round_one,
    round_two,
)
from wbcast.registers import (
    ATOL_ALGEBRA,
    QubitLabel,
    StateVector,
    partial_trace_stack,
    partial_transpose_stack,
)

MODULI = WParams(0.6, 0.48, 0.64)
PAIRS = tuple(itertools.combinations(range(1, 10), 2))
PHASE_SEEDS = (1, 2)


def _observables(initial: StateVector) -> tuple[np.ndarray, ...]:
    """p1 and p2 of each of the 64 branch pairs, the partial-transpose spectra
    of all 36 wire pairs of each final state (shape (64, 36, 4)) and each
    five-qubit spectrum (shape (64, 32)), from the stage functions."""
    p1, p2, finals = [], [], []
    cloned = round_one(initial)
    for branch1 in BRANCH_ORDER:
        selected, q1 = branch_select(cloned, branch1)
        recloned = round_two(selected)
        for branch2 in BRANCH_ORDER:
            final, q2 = branch_select(recloned, branch2)
            finals.append(apply_local_unitaries(final))
            p1.append(q1)
            p2.append(q2)
    stack = StateVector(finals[0].labels, np.stack([final.amps for final in finals]))
    keeps = [(QubitLabel.data(a), QubitLabel.data(b)) for a, b in PAIRS]
    rhos = partial_trace_stack(stack, keeps, lambda i: f"pair {PAIRS[i % len(PAIRS)]}")
    spectra = np.linalg.eigvalsh(partial_transpose_stack(rhos)).reshape(len(finals), len(PAIRS), 4)
    fives = five_qubit_state(stack, lambda i: f"branch pair {i}")
    five_spectra = np.stack([five.eigenvalues() for five in fives])
    return np.array(p1), np.array(p2), spectra, five_spectra


@pytest.fixture(scope="module")
def moduli_run():
    return _observables(prepare_w(MODULI))


@pytest.mark.parametrize("seed", PHASE_SEEDS)
def test_amplitude_phases_keep_probabilities_and_spectra(moduli_run, seed):
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, 3))
    real = prepare_w(MODULI)
    amps = real.amps.copy()
    amps[[0b001, 0b010, 0b100]] *= phases
    # The phases reach the state, which is complex beyond a global phase.
    assert np.ptp(np.angle(amps[[0b001, 0b010, 0b100]])) > 1e-3
    phased = _observables(StateVector(real.labels, amps))
    for name, want, got in zip(("p1", "p2", "pair spectra", "five-qubit spectra"),
                               moduli_run, phased, strict=True):
        assert np.max(np.abs(want - got)) <= ATOL_ALGEBRA, name
