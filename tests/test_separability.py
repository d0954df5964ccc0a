"""Tests for the two-qubit Peres-Horodecki classifier and witness values."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from wbcast.registers import (
    DensityMatrix,
    InvariantViolation,
    QubitLabel,
)
from wbcast.separability import (
    ENTANGLED,
    SEPARABLE,
    PairVerdict,
    _w_stack,
    ppt_verdict,
    ppt_verdicts,
)

from oracles import (
    min_pt_eigenvalue,
    partial_transpose_second,
    random_product_mixture,
    random_two_qubit_dm,
    random_unitary,
)

D = QubitLabel.data
LABELS = (D(1), D(2))


def _dm(matrix) -> DensityMatrix:
    return DensityMatrix(LABELS, np.asarray(matrix, dtype=complex))


def _bell_dm() -> DensityMatrix:
    amps = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return _dm(np.outer(amps, amps.conj()))


class TestKnownStates:
    def test_product_basis_state(self):
        v = ppt_verdict(_dm(np.diag([1.0, 0, 0, 0])))
        assert v.classification == SEPARABLE
        assert v.negativity == 0.0
        assert v.min_pt_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert v.w3 == pytest.approx(0.0, abs=1e-12)
        assert v.w4 == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        v = ppt_verdict(_bell_dm())
        assert v.classification == ENTANGLED
        assert v.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert v.negativity == pytest.approx(0.5, abs=1e-12)
        # PT spectrum is {-1/2, 1/2, 1/2, 1/2}: W4 = -1/16, W3 = 1/8 * 1/2... =
        # product of the three eigenvalues of the leading minor; just check W4.
        assert v.w4 == pytest.approx(-1 / 16, abs=1e-12)
        assert v.w4 < 0

    def test_maximally_mixed(self):
        v = ppt_verdict(_dm(np.eye(4) / 4))
        assert v.classification == SEPARABLE
        assert v.min_pt_eigenvalue == pytest.approx(0.25, abs=1e-12)
        assert v.w3 == pytest.approx((1 / 4) ** 3, abs=1e-15)
        assert v.w4 == pytest.approx((1 / 4) ** 4, abs=1e-15)

    def test_werner_family(self):
        # w * |Phi+><Phi+| + (1-w)/4 * I: entangled exactly for w > 1/3, with
        # negativity max(0, (3w-1)/4).
        bell = _bell_dm().rho
        for w in np.linspace(0.0, 1.0, 21):
            rho = _dm(w * bell + (1 - w) * np.eye(4) / 4)
            v = ppt_verdict(rho)
            want_neg = max(0.0, (3 * w - 1) / 4)
            assert v.negativity == pytest.approx(want_neg, abs=1e-10)
            if w > 1 / 3 + 1e-6:
                assert v.classification == ENTANGLED
            elif w < 1 / 3 - 1e-6:
                assert v.classification == SEPARABLE


class TestAgainstBruteforce:
    def test_min_eigenvalue_matches_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            rho = random_two_qubit_dm(rng)
            v = ppt_verdict(_dm(rho))
            assert v.min_pt_eigenvalue == pytest.approx(
                min_pt_eigenvalue(rho), abs=1e-10
            )

    def test_w4_sign_equivalence(self):
        # For two qubits the PT has at most one negative eigenvalue, so
        # det(PT) < 0  <=>  min eigenvalue < 0  <=>  negativity > 0.
        rng = np.random.default_rng(102)
        samples = [random_two_qubit_dm(rng) for _ in range(200)]
        samples += [random_product_mixture(rng) for _ in range(100)]
        seen_entangled = seen_separable = 0
        for rho in samples:
            v = ppt_verdict(_dm(rho))
            if v.min_pt_eigenvalue < -1e-8:
                assert v.w4 < 0
                assert v.negativity > 0
                assert v.classification == ENTANGLED
                seen_entangled += 1
            elif v.min_pt_eigenvalue > 1e-8:
                assert v.w4 > 0
                assert v.negativity == 0.0
                assert v.classification == SEPARABLE
                seen_separable += 1
        # the sample must actually exercise both sides
        assert seen_entangled > 20
        assert seen_separable > 20

    def test_w_determinants_match_numpy_on_oracle_pt(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            rho = random_two_qubit_dm(rng)
            pt = partial_transpose_second(rho)
            v = ppt_verdict(_dm(rho))
            assert v.w3 == pytest.approx(np.linalg.det(pt[:3, :3]).real, abs=1e-12)
            assert v.w4 == pytest.approx(np.linalg.det(pt).real, abs=1e-12)

    def test_product_mixtures_have_zero_negativity(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            rho = random_product_mixture(rng)
            v = ppt_verdict(_dm(rho))
            assert v.classification == SEPARABLE
            assert v.negativity == 0.0

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(105)
        for _ in range(40):
            rho = random_two_qubit_dm(rng)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            a = ppt_verdict(_dm(rho))
            b = ppt_verdict(_dm(rotated))
            assert b.min_pt_eigenvalue == pytest.approx(a.min_pt_eigenvalue, abs=1e-10)
            assert b.negativity == pytest.approx(a.negativity, abs=1e-10)
            assert b.classification == a.classification


class TestVerdictFields:
    def test_fields_are_the_ppt_result_alone(self):
        names = [field.name for field in dataclasses.fields(PairVerdict)]
        assert names == ["min_pt_eigenvalue", "w3", "w4", "negativity", "classification"]

    def test_is_frozen(self):
        v = ppt_verdict(_bell_dm())
        assert isinstance(v, PairVerdict)
        with pytest.raises(AttributeError):
            v.classification = SEPARABLE

    def test_errors(self):
        with pytest.raises(ValueError, match="two-qubit"):
            ppt_verdict(DensityMatrix((D(1),), np.eye(2) / 2))

    def test_nan_witness_rejected(self):
        pts = np.stack([np.eye(4, dtype=complex) / 4, np.full((4, 4), np.nan, dtype=complex)])
        with np.errstate(invalid="ignore"):  # det warns on NaN input
            with pytest.raises(InvariantViolation, match="W3 of 58 has imaginary residue nan"):
                _w_stack(pts, ("15", "58").__getitem__)

    @pytest.mark.parametrize(
        "residues, message",
        [
            # Entry (3, 3) lies outside the W3 minor, entry (0, 0) inside it.
            ({5: (3, 3), 7: (0, 0)}, r"W4 of m5 has imaginary residue 1\.56\de-03"),
            ({5: (0, 0), 7: (3, 3)}, r"W3 of m5 has imaginary residue 6\.25\de-03"),
        ],
    )
    def test_residue_names_the_first_failing_member(self, residues, message):
        pts = np.stack([np.eye(4, dtype=complex) / 4] * 8)
        for member, entry in residues.items():
            pts[member][entry] += 0.1j
        names = [f"m{i}" for i in range(8)]
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            _w_stack(pts, names.__getitem__)
        w3, w4 = _w_stack(pts[:5], names.__getitem__)
        assert np.allclose(w3, 1 / 64) and np.allclose(w4, 1 / 256)

    def test_only_the_failing_member_is_named(self):
        # Member 2's W3 has an imaginary residue; only member 2 is named.
        rhos = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        rhos[2][0, 0] += 0.1j
        asked = []

        def name(i):
            asked.append(i)
            return f"m{i}"

        with pytest.raises(InvariantViolation, match="^W3 of m2 has imaginary residue"):
            ppt_verdicts(rhos, name)
        assert asked == [2]
