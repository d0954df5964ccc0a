"""End-to-end tests of the three-party broadcasting pipeline."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcast import protocol
from wbcast.cloner import BRANCH_ORDER, MachineBranch
from wbcast.protocol import (
    ALL_PAIRS,
    LOCAL_PAIRS,
    NONLOCAL_PAIRS,
    PAPER_CLAIMS,
    ROUND_ONE_ASSIGNMENTS,
    ROUND_TWO_ASSIGNMENTS,
    ProtocolConfig,
    WParams,
    apply_local_unitaries,
    branch_select,
    five_qubit_state,
    locate_broadcast_interval,
    pair_key,
    pair_verdicts,
    prepare_w,
    round_one,
    round_two,
    run_protocol,
    run_protocols,
    two_qubit_broadcast,
)
from wbcast.registers import QubitLabel, StateVector, partial_trace
from wbcast.separability import ENTANGLED, SEPARABLE

from oracles import (
    branch_probability,
    clone_block,
    dense_partial_trace,
    kron_all,
    min_pt_eigenvalue,
    nine_qubit_closed_form,
    permute_bits,
    random_w_direction,
)

D = QubitLabel.data

UUU = MachineBranch.from_string("UUU")
UNIFORM = WParams.normalized(1.0, 1.0, 1.0)
SKEWED = WParams(0.6, -0.48, 0.64)

# Positive directions with every normalized component at least 0.05.
INTERIOR_TRIPLES = (
    st.tuples(*[st.floats(0.05, 1.0)] * 3)
    .map(lambda v: WParams.normalized(*v))
    .filter(lambda p: min(p.as_tuple()) >= 0.05)
)


def _selected_state(params: WParams, branch1=UUU, branch2=UUU):
    s1, p1 = branch_select(round_one(prepare_w(params)), branch1)
    s2, p2 = branch_select(round_two(s1), branch2)
    return s2, p1, p2


class TestWParams:
    def test_exact_tuple_kept(self):
        p = WParams(0.6, -0.48, 0.64)
        assert p.as_tuple() == (0.6, -0.48, 0.64)

    def test_slightly_off_norm_is_renormalized(self):
        a = 1 / math.sqrt(3)
        p = WParams(a, a, a + 1e-7)
        total = sum(v * v for v in p.as_tuple())
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_far_off_norm_rejected(self):
        with pytest.raises(ValueError, match="far from 1"):
            WParams(0.6, 0.6, 0.6)
        # four-digit rounding of 1/sqrt(3) is already out of tolerance
        with pytest.raises(ValueError):
            WParams(0.5774, 0.5774, 0.5774)

    def test_normalized_accepts_any_direction(self):
        p = WParams.normalized(3.0, 4.0, 12.0)
        assert p.as_tuple() == pytest.approx((3 / 13, 4 / 13, 12 / 13), abs=1e-15)
        with pytest.raises(ValueError):
            WParams.normalized(0.0, 0.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            WParams(float("nan"), 1.0, 0.0)

    def test_zero_components(self):
        assert WParams(1.0, 0.0, 0.0).zero_components() == ("beta", "gamma")
        assert UNIFORM.zero_components() == ()


class TestPrepareW:
    def test_amplitudes(self):
        s = prepare_w(SKEWED)
        assert s.labels == (D(1), D(2), D(3))
        assert s.amplitude("001") == pytest.approx(0.6)
        assert s.amplitude("010") == pytest.approx(-0.48)
        assert s.amplitude("100") == pytest.approx(0.64)
        assert s.amplitude("000") == 0
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


class TestRoundOne:
    def test_matches_kron_oracle(self):
        # Build the cloned state independently: each initial basis ket maps to
        # the kron of per-party cloner columns over wires (1,4,MA)(2,5,MB)(3,6,MC),
        # then reorder to the canonical wire order.
        rng = np.random.default_rng(210)
        for _ in range(10):
            a, b, g = random_w_direction(rng)
            got = round_one(prepare_w(WParams(a, b, g)))
            assert [l.name for l in got.labels] == [
                "1", "2", "3", "4", "5", "6", "MA1", "MB1", "MC1",
            ]
            want = np.zeros(512, dtype=complex)
            for coeff, bits in ((a, (0, 0, 1)), (b, (0, 1, 0)), (g, (1, 0, 0))):
                want += coeff * kron_all(*(clone_block(bit) for bit in bits))
            want = permute_bits(want, [0, 3, 6, 1, 4, 7, 2, 5, 8])
            assert np.max(np.abs(got.amps - want)) < 1e-12

    def test_register_guard(self):
        with pytest.raises(ValueError, match="round_one"):
            round_one(StateVector.basis((D(1), D(2)), "00"))
        with pytest.raises(ValueError, match="round_two"):
            round_two(prepare_w(UNIFORM))


class TestBranchSelection:
    def test_round1_probabilities_match_bruteforce(self):
        rng = np.random.default_rng(211)
        cloned = round_one(prepare_w(WParams(*random_w_direction(rng))))
        machine_pos = [6, 7, 8]
        total = 0.0
        for branch in BRANCH_ORDER:
            want = branch_probability(cloned.amps, machine_pos, branch.bits)
            selected, prob = branch_select(cloned, branch)
            assert prob == pytest.approx(want, abs=1e-12)
            assert selected.labels == tuple(D(i) for i in range(1, 7))
            total += prob
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_all_up_probability_is_parameter_free(self):
        rng = np.random.default_rng(212)
        for _ in range(5):
            params = WParams(*random_w_direction(rng))
            _, p1 = branch_select(round_one(prepare_w(params)), UUU)
            assert p1 == pytest.approx(4 / 27, abs=1e-12)

    def test_all_up_selected_state_shape(self):
        # After the first selection the six wires carry one-hot kets only:
        # amplitude c/sqrt(2) on the original and on its clone, for each
        # component c of the initial state.
        rng = np.random.default_rng(213)
        a, b, g = random_w_direction(rng)
        selected, _ = branch_select(round_one(prepare_w(WParams(a, b, g))), UUU)
        inv_root2 = 1 / math.sqrt(2)
        expected = np.zeros(64, dtype=complex)
        for qubit, coeff in ((3, a), (6, a), (2, b), (5, b), (1, g), (4, g)):
            expected[1 << (6 - qubit)] = coeff * inv_root2
        assert np.max(np.abs(selected.amps - expected)) < 1e-12

    def test_round2_all_up_probability(self):
        rng = np.random.default_rng(214)
        for _ in range(5):
            params = WParams(*random_w_direction(rng))
            _, _, p2 = _selected_state(params)
            assert p2 == pytest.approx(2 / 9, abs=1e-12)

    def test_round2_state_matches_closed_form(self):
        rng = np.random.default_rng(215)
        directions = [random_w_direction(rng) for _ in range(5)]
        directions.append(SKEWED.as_tuple())
        for a, b, g in directions:
            selected, _, _ = _selected_state(WParams(a, b, g))
            assert selected.labels == tuple(D(i) for i in range(1, 10))
            want = nine_qubit_closed_form(a, b, g)
            assert np.max(np.abs(selected.amps - want)) < 1e-12

    def test_degenerate_all_down_probability(self):
        # A pure |001> input: two "0" sources read down with weight 1/3 each,
        # the "1" source with weight 2/3.
        cloned = round_one(prepare_w(WParams(1.0, 0.0, 0.0)))
        _, prob = branch_select(cloned, MachineBranch.from_string("DDD"))
        assert prob == pytest.approx(2 / 27, abs=1e-12)

    def test_joint_probabilities_sum_to_one(self):
        tally = 0.0
        for b1, b2 in itertools.product(BRANCH_ORDER, repeat=2):
            _, p1, p2 = _selected_state(SKEWED, b1, b2)
            tally += p1 * p2
        assert tally == pytest.approx(1.0, abs=1e-10)

    def test_guard_requires_machine_wires(self):
        with pytest.raises(ValueError, match="machine"):
            branch_select(prepare_w(UNIFORM), UUU)


class TestUnitaryStage:
    def test_basis_ket_mappings(self):
        # X on 4 and 7, Y on 2 and 3.  On the all-zero background the two Y
        # factors contribute i*i = -1.
        s = StateVector.basis(tuple(D(i) for i in range(1, 10)), "000000001")
        out = apply_local_unitaries(s)
        assert out.amplitude("011100101") == pytest.approx(-1.0, abs=1e-15)

        # heavy ket of the third component: qubit 1 set, Y factors again -1
        s = StateVector.basis(tuple(D(i) for i in range(1, 10)), "100000000")
        out = apply_local_unitaries(s)
        assert out.amplitude("111100100") == pytest.approx(-1.0, abs=1e-15)

        # heavy ket of the first component: qubit 3 set, so one Y acts on |1>
        # and the signs cancel: i * (-i) = +1.
        s = StateVector.basis(tuple(D(i) for i in range(1, 10)), "001000000")
        out = apply_local_unitaries(s)
        assert out.amplitude("010100100") == pytest.approx(1.0, abs=1e-15)

    def test_final_amplitudes_at_uniform(self):
        selected, _, _ = _selected_state(UNIFORM)
        final = apply_local_unitaries(selected)
        heavy = 2 / math.sqrt(18)
        light = 1 / math.sqrt(18)
        assert final.amplitude("111100100") == pytest.approx(-heavy, abs=1e-12)
        assert final.amplitude("010100100") == pytest.approx(heavy, abs=1e-12)
        assert final.amplitude("001100100") == pytest.approx(heavy, abs=1e-12)
        # the dressed light kets all come out negative
        assert final.amplitude("011100101") == pytest.approx(-light, abs=1e-12)
        assert final.amplitude("011000100") == pytest.approx(-light, abs=1e-12)
        assert abs(np.linalg.norm(final.amps) - 1.0) < 1e-12

    def test_relative_sign_within_third_component_group(self):
        # The qubit-1 ket and the qubit-4/7 kets of the same group keep a
        # positive relative sign after dressing.
        selected, _, _ = _selected_state(UNIFORM)
        final = apply_local_unitaries(selected)
        heavy = final.amplitude("111100100")
        light = final.amplitude("011000100")
        assert (heavy / light).real > 0

    def test_is_an_involution(self):
        selected, _, _ = _selected_state(SKEWED)
        twice = apply_local_unitaries(apply_local_unitaries(selected))
        assert np.max(np.abs(twice.amps - selected.amps)) < 1e-15

    def test_register_guard(self):
        with pytest.raises(ValueError, match="apply_local_unitaries"):
            apply_local_unitaries(prepare_w(UNIFORM))

    @settings(max_examples=60, deadline=None)
    @given(INTERIOR_TRIPLES, st.sampled_from(BRANCH_ORDER), st.sampled_from(BRANCH_ORDER))
    def test_verdicts_do_not_depend_on_the_stage(self, params, branch1, branch2):
        # Each dressing unitary acts on one wire, so it leaves every pair's PT
        # spectrum and determinant unchanged; W3, a minor, changes and is left
        # out.
        on = run_protocol(ProtocolConfig(params, branch1, branch2, apply_unitaries=True))
        off = run_protocol(ProtocolConfig(params, branch1, branch2, apply_unitaries=False))
        assert list(on.pairs) == list(off.pairs)
        for key, a in on.pairs.items():
            b = off.pairs[key]
            assert a.classification == b.classification, key
            assert a.min_pt_eigenvalue == pytest.approx(b.min_pt_eigenvalue, abs=1e-12), key
            assert a.negativity == pytest.approx(b.negativity, abs=1e-12), key
            assert a.w4 == pytest.approx(b.w4, abs=1e-12), key


class TestFiveQubitState:
    def test_labels_trace_and_validity(self):
        selected, _, _ = _selected_state(UNIFORM)
        rho = five_qubit_state(apply_local_unitaries(selected))
        assert [l.name for l in rho.labels] == ["1", "5", "6", "8", "9"]
        assert np.trace(rho.rho).real == pytest.approx(1.0, abs=1e-12)
        rho.validate()

    def test_independent_of_dressing_stage(self):
        rng = np.random.default_rng(216)
        for _ in range(3):
            selected, _, _ = _selected_state(WParams(*random_w_direction(rng)))
            plain = five_qubit_state(selected)
            dressed = five_qubit_state(apply_local_unitaries(selected))
            assert np.max(np.abs(plain.rho - dressed.rho)) < 1e-12

    def test_ground_population_closed_form(self):
        rng = np.random.default_rng(217)
        for _ in range(5):
            a, b, g = random_w_direction(rng)
            selected, _, _ = _selected_state(WParams(a, b, g))
            rho = five_qubit_state(apply_local_unitaries(selected))
            want = (4 * a * a + 4 * b * b + 2 * g * g) / 6
            assert rho.element("00000", "00000").real == pytest.approx(
                want, abs=1e-12
            )

    def test_cross_party_coherence_closed_form(self):
        rng = np.random.default_rng(218)
        for _ in range(5):
            a, b, g = random_w_direction(rng)
            selected, _, _ = _selected_state(WParams(a, b, g))
            rho = five_qubit_state(apply_local_unitaries(selected))
            got = rho.element("00001", "10000")
            assert got == pytest.approx(a * g / 3, abs=1e-12)

    def test_matches_bruteforce_reduction(self):
        a, b, g = SKEWED.as_tuple()
        selected, _, _ = _selected_state(SKEWED)
        rho = five_qubit_state(apply_local_unitaries(selected))
        # oracle: reduce the closed-form nine-qubit state over positions
        # {0, 4, 5, 7, 8} = wires 1, 5, 6, 8, 9
        want = dense_partial_trace(nine_qubit_closed_form(a, b, g), [0, 4, 5, 7, 8])
        assert np.max(np.abs(rho.rho - want)) < 1e-12


def _final_state(params: WParams) -> StateVector:
    selected, _, _ = _selected_state(params)
    return apply_local_unitaries(selected)


def _pair_state(state: StateVector, key: str):
    """Reduced state of the pair named like '15', in canonical wire order."""
    return partial_trace(state, {D(int(key[0])), D(int(key[1]))})


def test_pair_tables_by_lab():
    """Which lab holds each reported pair's wires, derived here from the
    clone assignments: wires 1, 2 and 3 start in labs A, B and C, and each
    clone belongs to the party whose machine made it.  Three of the five
    pairs the paper calls non-local cross labs; (5,8) and (6,9) do not."""
    lab = {D(1): "A", D(2): "B", D(3): "C"}
    for assignment in (*ROUND_ONE_ASSIGNMENTS, *ROUND_TWO_ASSIGNMENTS):
        party = assignment.machine.name[1]
        assert lab[assignment.source] == party, "a party clones only its own wires"
        lab[assignment.clone] = party
    assert set(lab) == {D(i) for i in range(1, 10)}

    def crosses(pair):
        return lab[D(pair[0])] != lab[D(pair[1])]

    assert [pair for pair in NONLOCAL_PAIRS if crosses(pair)] == [(1, 5), (1, 6), (8, 6)]
    assert [pair for pair in NONLOCAL_PAIRS if not crosses(pair)] == [(5, 8), (6, 9)]
    assert (lab[D(5)], lab[D(8)], lab[D(6)], lab[D(9)]) == ("B", "B", "C", "C")
    assert not any(crosses(pair) for pair in LOCAL_PAIRS)


class TestPairVerdicts:
    def test_report_order_keys(self):
        verdicts = pair_verdicts(_final_state(UNIFORM))
        assert list(verdicts) == [
            "15", "58", "16", "69", "86", "17", "14", "25", "28", "36", "39",
        ]
        assert set(PAPER_CLAIMS) == set(verdicts)

    def test_pair_15_closed_form(self):
        rng = np.random.default_rng(219)
        for _ in range(5):
            a, b, g = random_w_direction(rng)
            rho = _pair_state(_final_state(WParams(a, b, g)), "15").rho
            want = np.zeros((4, 4), dtype=complex)
            want[0, 0] = a * a + 5 * b * b / 6 + g * g / 3
            want[1, 1] = b * b / 6
            want[2, 2] = 2 * g * g / 3
            want[1, 2] = want[2, 1] = b * g / 3
            assert np.max(np.abs(rho - want)) < 1e-12

    def test_uniform_pair_15_minimum_eigenvalue(self):
        v = pair_verdicts(_final_state(UNIFORM))["15"]
        half_trace = 13 / 18
        want = half_trace - math.sqrt(half_trace**2 + 4 / 81)
        assert v.min_pt_eigenvalue == pytest.approx(want / 2, abs=1e-12)
        assert v.classification == ENTANGLED

    @pytest.mark.parametrize(
        "key,coherence",
        [
            ("58", lambda a, b, g: b * b / 6),
            ("16", lambda a, b, g: a * g / 3),
            ("69", lambda a, b, g: a * a / 6),
            ("86", lambda a, b, g: a * b / 6),
        ],
    )
    def test_nonlocal_coherences(self, key, coherence):
        a, b, g = SKEWED.as_tuple()
        rho = _pair_state(_final_state(SKEWED), key)
        got = rho.element("01", "10")
        assert got == pytest.approx(coherence(a, b, g), abs=1e-12)

    @pytest.mark.parametrize(
        "key,coherence",
        [
            ("17", lambda a, b, g: g * g / 3),
            ("14", lambda a, b, g: g * g / 3),
            ("25", lambda a, b, g: b * b / 3),
            ("28", lambda a, b, g: b * b / 3),
            ("36", lambda a, b, g: a * a / 3),
            ("39", lambda a, b, g: a * a / 3),
        ],
    )
    def test_local_coherences(self, key, coherence):
        # Read off the undressed state: the dressing stage rotates the second
        # wire of every in-lab pair, moving this element around (without
        # changing the partial-transpose spectrum).
        a, b, g = SKEWED.as_tuple()
        selected, _, _ = _selected_state(SKEWED)
        rho = _pair_state(selected, key)
        got = rho.element("01", "10")
        assert got == pytest.approx(coherence(a, b, g), abs=1e-12)

    def test_min_eigenvalues_match_bruteforce(self):
        # dual route: reduce the closed-form nine-qubit state by hand and
        # diagonalize its partial transpose independently.
        rng = np.random.default_rng(220)
        a, b, g = random_w_direction(rng)
        amps = nine_qubit_closed_form(a, b, g)
        verdicts = pair_verdicts(_final_state(WParams(a, b, g)))
        for pair in ALL_PAIRS:
            lo = sorted(pair)
            rho = dense_partial_trace(amps, [lo[0] - 1, lo[1] - 1])
            want = min_pt_eigenvalue(rho)
            got = verdicts[pair_key(pair)].min_pt_eigenvalue
            assert got == pytest.approx(want, abs=1e-10), pair

    def test_generic_parameters_break_local_separability(self):
        verdicts = pair_verdicts(_final_state(UNIFORM))
        for pair in NONLOCAL_PAIRS:
            v = verdicts[pair_key(pair)]
            assert PAPER_CLAIMS[pair_key(pair)] == ENTANGLED
            assert v.classification == PAPER_CLAIMS[pair_key(pair)]
        for pair in LOCAL_PAIRS:
            v = verdicts[pair_key(pair)]
            assert v.classification == ENTANGLED
            assert PAPER_CLAIMS[pair_key(pair)] == SEPARABLE
            assert v.classification != PAPER_CLAIMS[pair_key(pair)]

    @pytest.mark.parametrize(
        "params,entangled_nonlocal",
        [
            ((1.0, 0.0, 0.0), {"69"}),
            ((0.0, 1.0, 0.0), {"58"}),
            ((0.0, 0.0, 1.0), set()),
            ((0.0, 0.6, 0.8), {"15", "58"}),
            ((0.6, 0.0, 0.8), {"16", "69"}),
            ((0.6, 0.8, 0.0), {"58", "69", "86"}),
        ],
    )
    def test_zeroed_components_switch_pairs_off(self, params, entangled_nonlocal):
        verdicts = pair_verdicts(_final_state(WParams(*params)))
        got = {
            pair_key(p)
            for p in NONLOCAL_PAIRS
            if verdicts[pair_key(p)].classification == ENTANGLED
        }
        assert got == entangled_nonlocal

    @pytest.mark.parametrize(
        "params,entangled_local",
        [
            ((1.0, 0.0, 0.0), {"36", "39"}),
            ((0.0, 1.0, 0.0), {"25", "28"}),
            ((0.0, 0.0, 1.0), {"17", "14"}),
        ],
    )
    def test_zeroed_components_switch_local_pairs(self, params, entangled_local):
        verdicts = pair_verdicts(_final_state(WParams(*params)))
        got = {
            pair_key(p)
            for p in LOCAL_PAIRS
            if verdicts[pair_key(p)].classification == ENTANGLED
        }
        assert got == entangled_local

    # On UUU/UUU, W4 of pair ij is -m/1296 for a monomial m in (alpha, beta,
    # gamma): (coefficient, exponents) by pair.
    UUU_W4_MONOMIALS = {
        "15": (16, (0, 4, 4)),
        "58": (1, (0, 8, 0)),
        "16": (16, (4, 0, 4)),
        "69": (1, (8, 0, 0)),
        "86": (1, (4, 4, 0)),
        "17": (16, (0, 0, 8)),
        "14": (16, (0, 0, 8)),
        "25": (16, (0, 8, 0)),
        "28": (16, (0, 8, 0)),
        "36": (16, (8, 0, 0)),
        "39": (16, (8, 0, 0)),
    }

    @staticmethod
    def _rational_points() -> list[tuple[Fraction, ...]]:
        """Every cyclic rotation of five Pythagorean quadruples, and two
        boundary triples."""
        quadruples = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (2, 6, 9, 11), (4, 4, 7, 9))
        points = [
            tuple(Fraction(v[(k + i) % 3], d) for i in range(3))
            for *v, d in quadruples
            for k in range(3)
        ]
        return [*points, (Fraction(0), Fraction(3, 5), Fraction(4, 5)), (Fraction(1), 0, 0)]

    @pytest.mark.parametrize("apply_unitaries", [True, False], ids=["dressed", "undressed"])
    def test_uuu_w4_closed_forms(self, apply_unitaries):
        points = self._rational_points()
        configs = [
            ProtocolConfig(WParams(*map(float, point)), UUU, UUU, apply_unitaries)
            for point in points
        ]
        for point, transcript in zip(points, run_protocols(configs), strict=True):
            for key, verdict in transcript.pairs.items():
                coefficient, exponents = self.UUU_W4_MONOMIALS[key]
                m = coefficient * math.prod(x**e for x, e in zip(point, exponents))
                where = f"pair {key} at {point}"
                if m:
                    assert verdict.w4 == pytest.approx(-m / 1296, rel=1e-13, abs=0), where
                    assert verdict.classification == ENTANGLED, where
                else:
                    assert verdict.w4 == 0.0, where
                    assert verdict.classification == SEPARABLE, where


class TestTranscript:
    def test_full_run_at_uniform(self):
        t = run_protocol(ProtocolConfig(UNIFORM, UUU, UUU))
        assert t.p1 == pytest.approx(4 / 27, abs=1e-12)
        assert t.p2 == pytest.approx(2 / 9, abs=1e-12)
        assert list(t.stages) == ["final"]
        assert t.stages["final"].n_qubits == 9
        assert len(t.pairs) == 11

    def test_dressing_flag_changes_final_stage_only(self):
        on = run_protocol(ProtocolConfig(UNIFORM, UUU, UUU, apply_unitaries=True))
        off = run_protocol(ProtocolConfig(UNIFORM, UUU, UUU, apply_unitaries=False))
        assert not np.allclose(
            on.stages["final"].amps, off.stages["final"].amps, atol=1e-6
        )
        assert np.max(np.abs(on.five_qubit.rho - off.five_qubit.rho)) < 1e-12
        for key, verdict in on.pairs.items():
            assert verdict.classification == off.pairs[key].classification


class TestTwoQubitBroadcast:
    def test_balanced_input(self):
        out = two_qubit_broadcast(0.5)
        assert out.nonlocal_verdict.min_pt_eigenvalue == pytest.approx(
            -1 / 12, abs=1e-12
        )
        assert out.nonlocal_verdict.classification == ENTANGLED
        assert out.local_verdict.min_pt_eigenvalue == pytest.approx(1 / 6, abs=1e-12)
        assert out.local_verdict.classification == SEPARABLE

    def test_skewed_input_loses_nonlocal_entanglement(self):
        out = two_qubit_broadcast(0.05)
        assert out.nonlocal_verdict.classification == SEPARABLE
        out = two_qubit_broadcast(0.97)
        assert out.nonlocal_verdict.classification == SEPARABLE

    def test_interval_endpoints(self):
        lower, upper = locate_broadcast_interval()
        offset = math.sqrt(39) / 16
        assert lower == pytest.approx(0.5 - offset, abs=1e-8)
        assert upper == pytest.approx(0.5 + offset, abs=1e-8)
        assert lower + upper == pytest.approx(1.0, abs=1e-8)

    def test_interval_endpoints_sit_within_the_fixed_width(self):
        # Each endpoint is the midpoint of a final bracket at most 1e-9 wide,
        # so the verdict changes within 1e-9 on either side of it.
        lower, upper = locate_broadcast_interval()
        for endpoint, outside in ((lower, -1.0), (upper, 1.0)):
            out = two_qubit_broadcast(endpoint + outside * 1e-9)
            inside = two_qubit_broadcast(endpoint - outside * 1e-9)
            assert out.nonlocal_verdict.classification == SEPARABLE
            assert inside.nonlocal_verdict.classification == ENTANGLED

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
    def test_domain_enforced(self, bad):
        with pytest.raises(ValueError):
            two_qubit_broadcast(bad)

    def test_bisection_stops_at_adjacent_floats(self):
        # A zero tolerance can never be met; the bisection must stop once the
        # midpoint rounds onto an endpoint.
        root = protocol._bisect_sign_change(lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.0)
        assert abs(root - 0.3) <= math.ulp(0.3)
