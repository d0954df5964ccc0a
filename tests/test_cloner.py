"""Tests for the symmetric 1 -> 2 cloning stage and machine measurements."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wbcast.cloner import (
    BRANCH_ORDER,
    MIN_BRANCH_PROBABILITY,
    CloneAssignment,
    ImpossibleBranchError,
    MachineBranch,
    bh_isometry,
    clone_qubit,
    measure_machines,
)
from wbcast.protocol import WParams, branch_select, prepare_w, round_one
from wbcast.registers import InvariantViolation, QubitLabel, StateVector, partial_trace

from oracles import branch_probability, clone_block, kron_all, random_pure_state

D = QubitLabel.data
M = QubitLabel.machine

ROOT23 = math.sqrt(2.0 / 3.0)
ROOT16 = math.sqrt(1.0 / 6.0)


def _clone_single(amplitudes) -> StateVector:
    """Clone qubit 1 of a single-qubit state into (1, 2) with machine MA1."""
    s = StateVector((D(1),), np.asarray(amplitudes, dtype=complex))
    return clone_qubit(s, CloneAssignment(D(1), D(2), M("A", 1)))


class TestIsometry:
    def test_matrix_entries(self):
        m = bh_isometry().matrix
        assert m.shape == (8, 2)
        # column for |0>: sqrt(2/3)|00 up> + 1/sqrt6 (|01> + |10>) |down>
        expected0 = np.zeros(8)
        expected0[0b000] = ROOT23
        expected0[0b011] = ROOT16
        expected0[0b101] = ROOT16
        expected1 = np.zeros(8)
        expected1[0b111] = ROOT23
        expected1[0b010] = ROOT16
        expected1[0b100] = ROOT16
        assert np.allclose(m[:, 0], expected0, atol=1e-15)
        assert np.allclose(m[:, 1], expected1, atol=1e-15)

    def test_is_isometry(self):
        m = bh_isometry().matrix
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    def test_matches_bruteforce_columns(self):
        m = bh_isometry().matrix
        assert np.allclose(m[:, 0], clone_block(0), atol=1e-15)
        assert np.allclose(m[:, 1], clone_block(1), atol=1e-15)


class TestCloneQuality:
    def test_source_marginal_for_basis_input(self):
        out = _clone_single([1.0, 0.0])
        rho = partial_trace(out, {D(1)}).rho
        assert np.allclose(rho, np.diag([5 / 6, 1 / 6]), atol=1e-12)

    def test_universal_shrinking_on_random_inputs(self):
        # Both output marginals must equal 2/3 |phi><phi| + 1/6 I for every
        # input |phi>, i.e. fidelity 5/6 independent of the state.
        rng = np.random.default_rng(42)
        for _ in range(25):
            phi = random_pure_state(rng, 2)
            out = _clone_single(phi)
            proj = np.outer(phi, phi.conj())
            want = (2 / 3) * proj + np.eye(2) / 6
            for wire in (D(1), D(2)):
                marg = partial_trace(out, {wire}).rho
                assert np.max(np.abs(marg - want)) < 1e-12
                fidelity = np.real(phi.conj() @ marg @ phi)
                assert fidelity == pytest.approx(5 / 6, abs=1e-12)

    def test_clone_symmetry(self):
        rng = np.random.default_rng(43)
        phi = random_pure_state(rng, 2)
        out = _clone_single(phi)
        rho_a = partial_trace(out, {D(1)}).rho
        rho_b = partial_trace(out, {D(2)}).rho
        assert np.allclose(rho_a, rho_b, atol=1e-12)

    def test_acts_only_on_source_wire(self):
        s = StateVector.basis((D(1), D(3)), "01")
        out = clone_qubit(s, CloneAssignment(D(1), D(2), M("A", 1)))
        assert out.labels == (D(1), D(2), D(3), M("A", 1))
        # spectator qubit 3 still set in every contributing ket
        marg = partial_trace(out, {D(3)}).rho
        assert np.allclose(marg, np.diag([0, 1]), atol=1e-12)

    def test_assignment_requires_distinct_wires(self):
        with pytest.raises(ValueError):
            CloneAssignment(D(1), D(1), M("A", 1))
        with pytest.raises(ValueError):
            CloneAssignment(D(1), D(2), D(2))


class TestBranches:
    def test_branch_order(self):
        assert tuple(str(b) for b in BRANCH_ORDER) == (
            "UUU", "UUD", "UDD", "UDU", "DUU", "DUD", "DDU", "DDD",
        )
        assert len(set(BRANCH_ORDER)) == 8

    def test_from_string(self):
        b = MachineBranch.from_string("UDU")
        assert b.bits == (0, 1, 0)
        assert str(b) == "UDU"

    @pytest.mark.parametrize("bad", ["", "UU", "UUUU", "UUX", "uud"])
    def test_from_string_rejects(self, bad):
        with pytest.raises(ValueError):
            MachineBranch.from_string(bad)

    def test_outcome_bits(self):
        assert MachineBranch.from_string("UUU").bits == (0, 0, 0)
        assert MachineBranch.from_string("DDD").bits == (1, 1, 1)


def _three_clones(amps3):
    """Clone each qubit of a 3-qubit state on wires 1,2,3 into 4,5,6."""
    s = StateVector((D(1), D(2), D(3)), np.asarray(amps3, dtype=complex))
    for src, cln, party in ((1, 4, "A"), (2, 5, "B"), (3, 6, "C")):
        s = clone_qubit(s, CloneAssignment(D(src), D(cln), M(party, 1)))
    return s


class TestMeasureMachines:
    MACHINES = (M("A", 1), M("B", 1), M("C", 1))

    def test_probability_of_all_up_on_w_state(self):
        w = np.zeros(8)
        w[0b001] = w[0b010] = w[0b100] = 1 / math.sqrt(3)
        full = _three_clones(w)
        post, prob = measure_machines(full, MachineBranch.from_string("UUU"), self.MACHINES)
        assert prob == pytest.approx(4 / 27, abs=1e-12)
        assert post.labels == (D(1), D(2), D(3), D(4), D(5), D(6))
        assert abs(np.linalg.norm(post.amps) - 1.0) < 1e-12

    def test_probabilities_match_bruteforce(self):
        rng = np.random.default_rng(44)
        amps3 = random_pure_state(rng, 8)
        full = _three_clones(amps3)
        machine_pos = [full.labels.index(m) for m in self.MACHINES]
        for branch in BRANCH_ORDER:
            want = branch_probability(full.amps, machine_pos, branch.bits)
            if want < MIN_BRANCH_PROBABILITY:
                with pytest.raises(ImpossibleBranchError):
                    measure_machines(full, branch, self.MACHINES)
                continue
            _, prob = measure_machines(full, branch, self.MACHINES)
            assert prob == pytest.approx(want, abs=1e-12)

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(45)
        full = _three_clones(random_pure_state(rng, 8))
        total = 0.0
        for branch in BRANCH_ORDER:
            try:
                _, prob = measure_machines(full, branch, self.MACHINES)
            except ImpossibleBranchError:
                continue
            total += prob
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_all_down_on_pure_one_input(self):
        # |111> source: every machine sees "down" with weight 2/3 each... but
        # correlations matter; the exact value for DDD comes out of the oracle.
        full = _three_clones([0, 0, 0, 0, 0, 0, 0, 1.0])
        machine_pos = [full.labels.index(m) for m in self.MACHINES]
        want = branch_probability(full.amps, machine_pos, [1, 1, 1])
        _, prob = measure_machines(full, MachineBranch.from_string("DDD"), self.MACHINES)
        assert prob == pytest.approx(want, abs=1e-12)
        assert prob == pytest.approx((2 / 3) ** 3, abs=1e-12)

    def test_impossible_branch_raises(self):
        # No cloning performed: machines in |000> can never read "down".
        s = StateVector.basis((D(1), *self.MACHINES), "0000")
        with pytest.raises(ImpossibleBranchError):
            measure_machines(s, MachineBranch.from_string("UUD"), self.MACHINES)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_non_finite_probability_is_an_invariant_failure(self, amplitude):
        # Not an impossible branch (exit 3): the state itself is broken.
        s = StateVector((D(1), *self.MACHINES), np.full(16, amplitude, dtype=complex))
        with pytest.raises(InvariantViolation, match="branch UUD has probability"):
            measure_machines(s, MachineBranch.from_string("UUD"), self.MACHINES)

    def test_stack_is_refused(self):
        # A stack's members are measured by run_protocols, each on its own
        # branch; measure_machines and branch_select take one state.
        one = round_one(prepare_w(WParams.normalized(1.0, 1.0, 1.0)))
        stack = StateVector(one.labels, np.stack([one.amps, one.amps]))
        uuu = MachineBranch.from_string("UUU")
        refusal = "measure_machines takes a single state, not a stack of 2"
        with pytest.raises(ValueError, match=refusal):
            measure_machines(stack, uuu, self.MACHINES)
        with pytest.raises(ValueError, match=refusal):
            branch_select(stack, uuu)

    def test_requires_three_distinct_machines(self):
        s = StateVector.basis((D(1), *self.MACHINES), "0000")
        with pytest.raises(ValueError):
            measure_machines(
                s, MachineBranch.from_string("UUU"), (M("A", 1), M("A", 1), M("B", 1))
            )
