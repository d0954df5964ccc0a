"""The stacked paths against the one-at-a-time ones.

``pair_verdicts`` validates and classifies all eleven pair reductions of a
run as one stack, and ``two_qubit_broadcasts`` does the same with the two
pairs of every point in a stack of grid points; ``ppt_verdict`` runs the
same code on a stack of one.  ``run_protocols`` carries whole runs through
the stage functions in stacks, each member on its own params and branches;
``run_protocol`` is the stack of one, and the unbatched stage composition of
``_finals`` stays the reference for the final states.  The paths must agree
bit for bit on every field, on every branch pair, draw and grid point.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from wbcast.cloner import BRANCH_ORDER
from wbcast.cloner import CloneAssignment, clone_qubit
from wbcast import protocol
from wbcast.protocol import (
    ALL_PAIRS,
    BROADCAST_STACK_POINTS,
    PROTOCOL_STACK_RUNS,
    ProtocolConfig,
    Transcript,
    WParams,
    apply_local_unitaries,
    branch_select,
    pair_key,
    pair_verdicts,
    prepare_w,
    round_one,
    round_two,
    run_protocol,
    run_protocols,
    two_qubit_broadcast,
    two_qubit_broadcasts,
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


def _finals(params: WParams, apply_unitaries: bool = True):
    """(branch1, branch2, final state) for all 64 branch pairs."""
    cloned1 = round_one(prepare_w(params))
    for branch1 in BRANCH_ORDER:
        cloned2 = round_two(branch_select(cloned1, branch1)[0])
        for branch2 in BRANCH_ORDER:
            selected = branch_select(cloned2, branch2)[0]
            yield branch1, branch2, (
                apply_local_unitaries(selected) if apply_unitaries else selected
            )


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


def _assert_same_run(stacked: Transcript, alone: Transcript) -> None:
    config = stacked.config
    where = f"{config.params.as_tuple()} {config.branch1}/{config.branch2}"
    assert stacked.config == alone.config
    assert (stacked.p1.hex(), stacked.p2.hex()) == (alone.p1.hex(), alone.p2.hex()), where
    assert stacked.stages["final"].labels == alone.stages["final"].labels
    assert stacked.stages["final"].amps.tobytes() == alone.stages["final"].amps.tobytes(), where
    assert stacked.five_qubit.labels == alone.five_qubit.labels
    assert stacked.five_qubit.rho.tobytes() == alone.five_qubit.rho.tobytes(), where
    assert (
        stacked.five_qubit.eigenvalues().tobytes() == alone.five_qubit.eigenvalues().tobytes()
    ), where
    assert list(stacked.pairs) == list(alone.pairs) == [pair_key(p) for p in ALL_PAIRS]
    for key, verdict in stacked.pairs.items():
        _assert_identical(verdict, alone.pairs[key], f"{where} pair {key}")
    assert stacked.broadcast_ok == alone.broadcast_ok


@pytest.mark.parametrize(
    "params, apply_unitaries",
    [*((p, True) for p in TRIPLES), (WParams(1.0, 0.0, 0.0), False)],
    ids=lambda v: "%.4f,%.4f,%.4f" % v.as_tuple() if isinstance(v, WParams) else f"unitaries={v}",
)
def test_stacked_runs_equal_one_run_at_a_time(params, apply_unitaries):
    finals = list(_finals(params, apply_unitaries))
    configs = [ProtocolConfig(params, b1, b2, apply_unitaries) for b1, b2, _ in finals]
    transcripts = list(run_protocols(configs))
    assert [t.config for t in transcripts] == configs
    for transcript, (_, _, final) in zip(transcripts, finals, strict=True):
        _assert_same_run(transcript, run_protocol(transcript.config))
        # The unbatched stage composition is the reference for the state.
        assert transcript.stages["final"].amps.tobytes() == final.amps.tobytes()


def test_sweep_runs_in_stacks_with_a_partial_last_one(monkeypatch):
    uuu = BRANCH_ORDER[0]
    configs = [ProtocolConfig(p, uuu, uuu) for p in sweep_params(150, 0)]
    sizes = []
    stack = protocol._protocol_stack

    def recording_stack(members):
        sizes.append(len(members))
        return stack(members)

    monkeypatch.setattr(protocol, "_protocol_stack", recording_stack)
    transcripts = run_protocols(configs)
    assert sizes == [], "no stack runs before the first transcript is asked for"
    transcripts = list(transcripts)
    assert sizes == [PROTOCOL_STACK_RUNS] * 18 + [150 - 18 * PROTOCOL_STACK_RUNS]
    for transcript, config in zip(transcripts, configs, strict=True):
        _assert_same_run(transcript, run_protocol(config))


def test_stacked_runs_share_apply_unitaries():
    uuu = BRANCH_ORDER[0]
    params = WParams(1.0, 0.0, 0.0)
    mixed = [ProtocolConfig(params, uuu, uuu, True), ProtocolConfig(params, uuu, uuu, False)]
    with pytest.raises(ValueError, match="apply_unitaries"):
        run_protocols(mixed)  # checked before any stack runs
    assert list(run_protocols([])) == []


def test_non_finite_member_names_its_run(monkeypatch):
    uuu = BRANCH_ORDER[0]
    configs = [ProtocolConfig(p, uuu, uuu) for p in sweep_params(PROTOCOL_STACK_RUNS, 0)]
    prepare = protocol.prepare_w

    def broken_prepare_w(params):
        state = prepare(params)
        amps = state.amps.copy()
        amps[5, 0b001] = np.nan
        return StateVector(state.labels, amps)

    monkeypatch.setattr(protocol, "prepare_w", broken_prepare_w)
    alpha, beta, gamma = configs[5].params.as_tuple()
    want = f"UUU of UUU/UUU at (alpha, beta, gamma)=({alpha!r}, {beta!r}, {gamma!r})"
    with pytest.raises(InvariantViolation) as failure:
        list(run_protocols(configs))
    assert want in str(failure.value)
    assert "has probability nan" in str(failure.value)


def _broadcast_pair_by_pair(alpha_sq: float) -> tuple[PairVerdict, PairVerdict]:
    """The unbatched reference: one point through the labeled pipeline, each
    pair traced and classified on its own."""
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = np.sqrt(alpha_sq)
    amps[0b11] = np.sqrt(1.0 - alpha_sq)
    state = StateVector((D(1), D(2)), amps)
    state = clone_qubit(state, CloneAssignment(D(1), D(4), M("A", 1)))
    state = clone_qubit(state, CloneAssignment(D(2), D(5), M("B", 1)))
    return tuple(ppt_verdict(partial_trace(state, {D(a), D(b)})) for a, b in ((1, 5), (1, 4)))


def _grid(points: int) -> list[float]:
    return [i / (points + 1) for i in range(1, points + 1)]


@pytest.mark.parametrize(
    "alpha_sqs",
    [
        *(pytest.param([a], id=str(a)) for a in (1e-6, 0.05, 0.1, 0.25, 0.5, 0.8, 0.9, 1 - 1e-6)),
        # Two full stacks and a short one, and the report's --grid 1000.
        pytest.param(_grid(2 * BROADCAST_STACK_POINTS + 3), id="two-stacks-and-3"),
        pytest.param(_grid(1000), id="grid-1000"),
    ],
)
def test_background_verdicts_equal_pair_by_pair(alpha_sqs):
    results = (
        [two_qubit_broadcast(alpha_sqs[0])]
        if len(alpha_sqs) == 1
        else two_qubit_broadcasts(alpha_sqs)
    )
    assert len(results) == len(alpha_sqs)
    for alpha_sq, result in zip(alpha_sqs, results):
        assert result.alpha_sq.hex() == alpha_sq.hex()
        for stacked, single, key in zip(
            (result.nonlocal_verdict, result.local_verdict),
            _broadcast_pair_by_pair(alpha_sq),
            ("15", "14"),
        ):
            _assert_identical(stacked, single, f"alpha_sq={alpha_sq!r} pair {key}")


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
