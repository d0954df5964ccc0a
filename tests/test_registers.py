"""Tests for the labeled register linear algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wbcast.registers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    InvariantViolation,
    Operator,
    QubitLabel,
    StateVector,
    apply_to_targets,
    canonical_order,
    partial_trace,
    partial_transpose_stack,
)

from oracles import dense_partial_trace, random_pure_state, random_unitary

D = QubitLabel.data
M = QubitLabel.machine


def _bell_state(l1, l2) -> StateVector:
    return StateVector((l1, l2), np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def _random_state(rng, labels) -> StateVector:
    return StateVector(tuple(labels), random_pure_state(rng, 2 ** len(labels)))


class TestLabels:
    def test_data_and_machine_labels(self):
        assert D(1).name == "1" and D(1).is_data
        assert D(9).index == 9
        m = M("B", 2)
        assert m.name == "MB2" and m.is_machine
        assert m.party == "B" and m.round_no == 2

    @pytest.mark.parametrize("bad", ["0", "10", "MA3", "MD1", "x", "", "M1A"])
    def test_bad_labels_rejected(self, bad):
        with pytest.raises(ValueError):
            QubitLabel(bad)

    def test_canonical_order(self):
        labels = [M("C", 1), D(9), M("A", 2), D(1), M("B", 1), D(4)]
        assert [l.name for l in canonical_order(labels)] == [
            "1", "4", "9", "MB1", "MC1", "MA2",
        ]

    def test_wrong_kind_accessors(self):
        with pytest.raises(ValueError):
            _ = D(3).party
        with pytest.raises(ValueError):
            _ = M("A", 1).index


class TestStateVector:
    def test_basis_and_amplitude(self):
        s = StateVector.basis((D(1), D(2)), "10")
        assert s.amplitude("10") == 1
        assert s.amplitude("01") == 0
        assert s.amplitude("01", order=(D(2), D(1))) == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateVector((D(1), D(1)), np.zeros(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StateVector((D(1),), np.zeros(4))

    def test_amplitudes_frozen(self):
        s = StateVector.basis((D(1),), "0")
        with pytest.raises(ValueError):
            s.amps[0] = 5.0

    def test_permutation_roundtrip_bit_exact(self):
        rng = np.random.default_rng(11)
        labels = (D(2), D(5), M("A", 1), D(1))
        s = _random_state(rng, labels)
        shuffled = (D(1), M("A", 1), D(2), D(5))
        back = s.permuted(shuffled).permuted(labels)
        assert np.array_equal(back.amps, s.amps)

    def test_normalized(self):
        s = StateVector((D(1),), np.array([3.0, 4.0]))
        n = s.normalized()
        assert abs(n.norm() - 1.0) < 1e-12
        with pytest.raises(ValueError):
            StateVector((D(1),), np.zeros(2)).normalized()


# |0> -> |00>, |1> -> |11>: one qubit in, the input and a fresh copy out.
_COPY_ISOMETRY = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)


class TestApplyToTargets:
    def test_sigma_y_on_zero(self):
        s = StateVector.basis((D(1),), "0")
        out = apply_to_targets(s, Operator(PAULI_Y), (D(1),))
        assert out.amplitude("1") == pytest.approx(1j)

    def test_acts_on_named_wire_only(self):
        s = StateVector.basis((D(1), D(2)), "00")
        out = apply_to_targets(s, Operator(PAULI_X), (D(2),))
        assert out.amplitude("01") == 1

    def test_two_qubit_unitary_with_reversed_targets(self):
        # CNOT with control listed second: |01> (order 1,2) must flip qubit 1.
        cnot = Operator(
            np.array(
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex,
            )
        )
        s = StateVector.basis((D(1), D(2)), "01")
        out = apply_to_targets(s, cnot, (D(2), D(1)))
        assert out.amplitude("11") == 1

    def test_result_sorted_canonically(self):
        s = StateVector.basis((D(2), D(1)), "01")
        out = apply_to_targets(s, Operator(np.eye(2)), (D(2),))
        assert out.labels == (D(1), D(2))
        assert out.amplitude("10") == 1

    def test_norm_preserved_by_random_unitaries(self):
        rng = np.random.default_rng(5)
        labels = (D(1), D(2), D(3))
        for _ in range(10):
            s = _random_state(rng, labels)
            op = Operator(random_unitary(rng, 4))
            out = apply_to_targets(s, op, (D(3), D(1)))
            assert abs(out.norm() - 1.0) < 1e-12

    def test_isometry_grows_register(self):
        iso = Operator(_COPY_ISOMETRY)
        s = StateVector.basis((D(1),), "1")
        out = apply_to_targets(s, iso, (D(1),), fresh=(D(2),))
        assert out.labels == (D(1), D(2))
        assert out.amplitude("11") == 1

    def test_fresh_label_count_must_match_operator(self):
        s = StateVector.basis((D(1),), "1")
        iso = Operator(_COPY_ISOMETRY)
        for fresh in ((), (D(2), D(3))):
            with pytest.raises(ValueError, match="needs 1 fresh labels"):
                apply_to_targets(s, iso, (D(1),), fresh=fresh)
        with pytest.raises(ValueError, match="needs 0 fresh labels but 1 given"):
            apply_to_targets(s, Operator(PAULI_X), (D(1),), fresh=(D(2),))

    def test_fresh_label_collision_rejected(self):
        iso = Operator(_COPY_ISOMETRY)
        s = StateVector.basis((D(1), D(2)), "10")
        with pytest.raises(ValueError, match="2"):
            apply_to_targets(s, iso, (D(1),), fresh=(D(2),))

    def test_duplicate_fresh_labels_rejected(self):
        iso = Operator(np.eye(8)[:, :2])  # one qubit in, three out
        s = StateVector.basis((D(1),), "1")
        with pytest.raises(ValueError, match="duplicate fresh"):
            apply_to_targets(s, iso, (D(1),), fresh=(D(2), D(2)))

    def test_unknown_target_rejected(self):
        s = StateVector.basis((D(1),), "0")
        with pytest.raises(ValueError, match="not in register"):
            apply_to_targets(s, Operator(PAULI_X), (D(2),))

    def test_failed_plan_raises_on_every_call(self):
        # Wire plans are cached, failed ones are not: the same bad call
        # raises again, and a good call on the same layout still works.
        s = StateVector.basis((D(1), D(2)), "10")
        for _ in range(3):
            with pytest.raises(ValueError, match="duplicate target"):
                apply_to_targets(s, Operator(np.eye(4)), (D(1), D(1)))
        out = apply_to_targets(s, Operator(PAULI_X), (D(1),))
        assert out.amplitude("00") == 1

    def test_failed_fresh_label_plan_raises_on_every_call(self):
        iso = Operator(_COPY_ISOMETRY)
        s = StateVector.basis((D(1), D(2)), "10")
        for _ in range(3):
            with pytest.raises(ValueError, match="already in register"):
                apply_to_targets(s, iso, (D(1),), fresh=(D(2),))
        out = apply_to_targets(s, iso, (D(1),), fresh=(D(3),))
        assert out.labels == (D(1), D(2), D(3))
        assert out.amplitude("101") == 1


class TestOperator:
    def test_non_isometry_rejected(self):
        with pytest.raises(ValueError, match="isometry"):
            Operator(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"not an isometry \(max \|M\^dag M - I\| = nan\)"):
            Operator(np.full((2, 2), np.nan))

    def test_pauli_matrices_are_unitary(self):
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            op = Operator(pauli)
            assert op.n_in == op.n_out == 1


class TestPartialTrace:
    def test_keep_all_gives_projector(self):
        rng = np.random.default_rng(7)
        s = _random_state(rng, (D(1), D(2)))
        rho = partial_trace(s, {D(1), D(2)})
        assert np.allclose(rho.rho, np.outer(s.amps, s.amps.conj()), atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        rho = partial_trace(_bell_state(D(1), D(2)), {D(1)})
        assert np.allclose(rho.rho, np.eye(2) / 2, atol=1e-12)

    def test_matches_bruteforce_on_random_states(self):
        rng = np.random.default_rng(13)
        labels = (D(1), D(2), D(3), D(4))
        for keep_positions in ([0], [1, 3], [0, 2], [0, 1, 2], [2]):
            s = _random_state(rng, labels)
            kept_labels = {labels[p] for p in keep_positions}
            got = partial_trace(s, kept_labels)
            want = dense_partial_trace(s.amps, sorted(keep_positions))
            assert np.allclose(got.rho, want, atol=1e-12)

    def test_invariant_under_unitary_outside_kept_set(self):
        rng = np.random.default_rng(19)
        labels = (D(1), D(2), D(3), D(4))
        s = _random_state(rng, labels)
        before = partial_trace(s, {D(1), D(2)})
        op = Operator(random_unitary(rng, 4))
        t = apply_to_targets(s, op, (D(3), D(4)))
        after = partial_trace(t, {D(1), D(2)})
        assert np.max(np.abs(after.rho - before.rho)) < 1e-12

    def test_output_labels_canonical(self):
        rng = np.random.default_rng(23)
        s = _random_state(rng, (D(5), D(1), M("A", 1)))
        rho = partial_trace(s, {M("A", 1), D(5)})
        assert rho.labels == (D(5), M("A", 1))

    def test_errors(self):
        s = StateVector.basis((D(1), D(2)), "00")
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(s, set())
        for _ in range(2):  # a failed plan is never cached
            with pytest.raises(ValueError, match="3"):
                partial_trace(s, {D(3)})


def _pt(rho: DensityMatrix, wire: QubitLabel) -> np.ndarray:
    """Partial transpose of a two-qubit state over one named wire."""
    return partial_transpose_stack(rho.rho[None], rho.labels.index(wire))[0]


class TestPartialTranspose:
    def test_bell_spectrum(self):
        rho = partial_trace(_bell_state(D(1), D(2)), {D(1), D(2)})
        pt = _pt(rho, D(2))
        assert np.allclose(
            np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
        )

    def test_product_state_stays_positive(self):
        rho = partial_trace(StateVector.basis((D(1), D(2)), "01"), {D(1), D(2)})
        for wire in (D(1), D(2)):
            eigs = np.linalg.eigvalsh(_pt(rho, wire))
            assert eigs.min() > -1e-12

    def test_diagonal_unchanged(self):
        rng = np.random.default_rng(29)
        s = _random_state(rng, (D(1), D(2)))
        rho = partial_trace(s, {D(1), D(2)})
        pt = _pt(rho, D(2))
        assert np.allclose(np.diagonal(pt), np.diagonal(rho.rho), atol=1e-15)

    def test_both_wires_give_transposed_spectra(self):
        rng = np.random.default_rng(31)
        s = _random_state(rng, (D(1), D(2)))
        rho = partial_trace(s, {D(1), D(2)})
        e1 = np.linalg.eigvalsh(_pt(rho, D(1)))
        e2 = np.linalg.eigvalsh(_pt(rho, D(2)))
        assert np.allclose(e1, e2, atol=1e-12)


class TestDensityMatrix:
    def test_invariants_enforced(self):
        labels = (D(1),)
        with pytest.raises(InvariantViolation, match="Hermitian"):
            DensityMatrix(labels, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(InvariantViolation, match="trace"):
            DensityMatrix(labels, np.eye(2))
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            DensityMatrix(labels, np.array([[1.5, 0], [0, -0.5]]))

    def test_element_and_reordered(self):
        rho = partial_trace(StateVector.basis((D(1), D(2)), "01"), {D(1), D(2)})
        assert rho.element("01", "01") == 1
        flipped = rho.reordered((D(2), D(1)))
        assert flipped.element("10", "10") == 1
        assert rho.element("10", "10", order=(D(2), D(1))) == 1

    def test_purity_and_eigenvalues(self):
        rho = partial_trace(_bell_state(D(1), D(2)), {D(2)})
        assert rho.purity() == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(rho.eigenvalues(), [0.5, 0.5], atol=1e-12)

    def test_eigenvalues_are_the_validated_spectrum(self):
        rng = np.random.default_rng(41)
        rho = partial_trace(_random_state(rng, (D(1), D(2), D(3))), {D(1), D(3)})
        eigs = rho.eigenvalues()
        assert eigs.tobytes() == np.linalg.eigvalsh(rho.rho).tobytes()
        assert eigs.tobytes() == rho.validate().tobytes()
        assert not eigs.flags.writeable
