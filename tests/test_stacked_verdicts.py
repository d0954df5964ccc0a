"""The stacked verdict path against the pair-by-pair one.

``pair_verdicts`` validates and classifies all eleven pair reductions of a
run as one stack, and ``two_qubit_broadcast`` does the same with its two
pairs; ``ppt_verdict`` runs the same code on a stack of one.  The paths must
agree bit for bit on every field, on every branch pair and grid point.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from wbcast.cloner import BRANCH_ORDER
from wbcast.cloner import CloneAssignment, clone_qubit
from wbcast.protocol import (
    ALL_PAIRS,
    WParams,
    apply_local_unitaries,
    branch_select,
    pair_key,
    pair_verdicts,
    prepare_w,
    round_one,
    round_two,
    two_qubit_broadcast,
)
from wbcast.registers import (
    InvariantViolation,
    QubitLabel,
    StateVector,
    check_density_stack,
    partial_trace,
)
from wbcast.report import sweep_params
from wbcast.separability import PairVerdict, ppt_verdict

D = QubitLabel.data
M = QubitLabel.machine

TRIPLES = [*sweep_params(3, seed=2008), WParams(1.0, 0.0, 0.0)]


def _finals(params: WParams):
    """(branch1, branch2, final state) for all 64 branch pairs."""
    cloned1 = round_one(prepare_w(params))
    for branch1 in BRANCH_ORDER:
        cloned2 = round_two(branch_select(cloned1, branch1)[0])
        for branch2 in BRANCH_ORDER:
            yield branch1, branch2, apply_local_unitaries(branch_select(cloned2, branch2)[0])


def _assert_identical(stacked: PairVerdict, single: PairVerdict, where: str) -> None:
    for field in dataclasses.fields(PairVerdict):
        a, b = getattr(stacked, field.name), getattr(single, field.name)
        assert a == b, f"{where}: {field.name} {a!r} != {b!r}"
        if isinstance(a, float):
            assert a.hex() == b.hex(), f"{where}: {field.name} differs in sign of zero"


@pytest.mark.parametrize("params", TRIPLES, ids=lambda p: "%.4f,%.4f,%.4f" % p.as_tuple())
def test_stacked_verdicts_equal_pair_by_pair(params):
    for branch1, branch2, final in _finals(params):
        stacked = pair_verdicts(final)
        assert list(stacked) == [pair_key(p) for p in ALL_PAIRS]
        for a, b in ALL_PAIRS:
            key = pair_key((a, b))
            single = ppt_verdict(partial_trace(final, {D(a), D(b)}))
            _assert_identical(stacked[key], single, f"{branch1}/{branch2} pair {key}")


@pytest.mark.parametrize("alpha_sq", [1e-6, 0.05, 0.1, 0.25, 0.5, 0.8, 0.9, 1 - 1e-6])
def test_background_verdicts_equal_pair_by_pair(alpha_sq):
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = np.sqrt(alpha_sq)
    amps[0b11] = np.sqrt(1.0 - alpha_sq)
    state = StateVector((D(1), D(2)), amps)
    state = clone_qubit(state, CloneAssignment(D(1), D(4), M("A", 1)))
    state = clone_qubit(state, CloneAssignment(D(2), D(5), M("B", 1)))

    result = two_qubit_broadcast(alpha_sq)
    for stacked, (a, b) in (
        (result.nonlocal_verdict, (1, 5)),
        (result.local_verdict, (1, 4)),
    ):
        single = ppt_verdict(partial_trace(state, {D(a), D(b)}))
        _assert_identical(stacked, single, f"alpha_sq={alpha_sq!r} pair {a}{b}")


def _valid_two_qubit_states(count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(5)
    states = []
    for _ in range(count):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = z @ z.conj().T
        states.append(rho / np.trace(rho).real)
    return states


class TestStackFailuresNameTheirMember:
    NAMES = ("pair 15", "pair 58", "pair 16", "pair 69")

    def test_non_psd_member(self):
        stack = _valid_two_qubit_states(4)
        stack[2] = np.diag([0.6, 0.6, 0.1, -0.3]).astype(complex)
        with pytest.raises(InvariantViolation, match=r"pair 16 has eigenvalue -3\.000e-01"):
            check_density_stack(np.stack(stack), self.NAMES)

    def test_non_hermitian_member(self):
        stack = _valid_two_qubit_states(4)
        stack[1] = stack[1].copy()
        stack[1][0, 3] += 1e-6
        with pytest.raises(InvariantViolation, match=r"pair 58 not Hermitian \(dev 1\.000e-06\)"):
            check_density_stack(np.stack(stack), self.NAMES)

    def test_trace_member(self):
        stack = _valid_two_qubit_states(4)
        stack[3] = 2 * stack[3]
        with pytest.raises(InvariantViolation, match=r"pair 69 trace off by 1\.000e\+00"):
            check_density_stack(np.stack(stack), self.NAMES)

    def test_nan_member(self):
        # NaN fails every comparison, so each check is written to fail on it;
        # the stack never reaches eigvalsh.
        stack = _valid_two_qubit_states(4)
        stack[3] = np.full((4, 4), np.nan, dtype=complex)
        with pytest.raises(InvariantViolation, match=r"pair 69 not Hermitian \(dev nan\)"):
            check_density_stack(np.stack(stack), self.NAMES)

    def test_valid_stack_returns_each_spectrum(self):
        stack = np.stack(_valid_two_qubit_states(4))
        spectra = check_density_stack(stack, self.NAMES)
        for rho, spectrum in zip(stack, spectra):
            assert spectrum.tobytes() == np.linalg.eigvalsh(rho).tobytes()
