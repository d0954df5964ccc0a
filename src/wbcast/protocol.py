"""Three-party secret broadcasting of a five-qubit entangled state.

Alice prepares a W-type state a|001> + b|010> + c|100> on qubits (1, 2, 3) and
hands 2 to Bob and 3 to Charlie.  Each party clones their qubit with a
Buzek-Hillery machine twice (round one: 1->4, 2->5, 3->6; round two: 4->7,
5->8, 6->9), measuring the machine wires after each round and exchanging the
outcomes classically.  The object of interest is the reduced state of qubits
(1, 5, 8, 6, 9) and the separability pattern of its qubit pairs, which this
module computes and checks against the published claims for the protocol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .cloner import (
    CloneAssignment,
    MachineBranch,
    clone_qubit,
    measure_machines,
)
from .registers import (
    PAULI_X,
    PAULI_Y,
    DensityMatrix,
    InvariantViolation,
    Operator,
    QubitLabel,
    StateVector,
    apply_to_targets,
    partial_trace,
    partial_trace_stack,
    partial_traces,
)
from .separability import ENTANGLED, SEPARABLE, PairVerdict, ppt_verdicts
# Not called here; kept because perfbench/layers.py traces wbcast.protocol.ppt_verdict.
from .separability import ppt_verdict

_D = QubitLabel.data
_M = QubitLabel.machine

ROUND_ONE_ASSIGNMENTS = (
    CloneAssignment(_D(1), _D(4), _M("A", 1)),
    CloneAssignment(_D(2), _D(5), _M("B", 1)),
    CloneAssignment(_D(3), _D(6), _M("C", 1)),
)
ROUND_TWO_ASSIGNMENTS = (
    CloneAssignment(_D(4), _D(7), _M("A", 2)),
    CloneAssignment(_D(5), _D(8), _M("B", 2)),
    CloneAssignment(_D(6), _D(9), _M("C", 2)),
)

# Pair tables, in report order.  The first five span two parties (the
# broadcast payload), the last six live inside a single party's lab.
NONLOCAL_PAIRS = ((1, 5), (5, 8), (1, 6), (6, 9), (8, 6))
LOCAL_PAIRS = ((1, 7), (1, 4), (2, 5), (2, 8), (3, 6), (3, 9))
ALL_PAIRS = NONLOCAL_PAIRS + LOCAL_PAIRS

PAPER_CLAIMS: dict[str, str] = {
    **{f"{a}{b}": ENTANGLED for a, b in NONLOCAL_PAIRS},
    **{f"{a}{b}": SEPARABLE for a, b in LOCAL_PAIRS},
}

def pair_key(pair: tuple[int, int]) -> str:
    return f"{pair[0]}{pair[1]}"


@dataclass(frozen=True)
class WParams:
    """Real amplitudes (alpha, beta, gamma) of the shared W-type state.

    A squared norm within 1e-9 of 1 is kept as given, one within 1e-6 is
    renormalized, and anything farther off is rejected.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        values = (self.alpha, self.beta, self.gamma)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("amplitudes must be finite real numbers")
        norm_sq = sum(v * v for v in values)
        dev = abs(norm_sq - 1.0)
        if dev > 1e-6:
            raise ValueError(
                f"alpha^2 + beta^2 + gamma^2 = {norm_sq:.9f}, too far from 1"
            )
        if dev > 1e-9:
            scale = math.sqrt(norm_sq)
            object.__setattr__(self, "alpha", self.alpha / scale)
            object.__setattr__(self, "beta", self.beta / scale)
            object.__setattr__(self, "gamma", self.gamma / scale)

    @classmethod
    def normalized(cls, alpha: float, beta: float, gamma: float) -> "WParams":
        """Build from any non-null direction, normalizing exactly."""
        norm = math.sqrt(alpha * alpha + beta * beta + gamma * gamma)
        if not math.isfinite(norm) or norm < 1e-12:
            raise ValueError("amplitudes must form a nonzero finite vector")
        return cls(alpha / norm, beta / norm, gamma / norm)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)

    def zero_components(self) -> tuple[str, ...]:
        names = ("alpha", "beta", "gamma")
        return tuple(n for n, v in zip(names, self.as_tuple()) if v == 0.0)


@dataclass(frozen=True)
class ProtocolConfig:
    params: WParams
    branch1: MachineBranch
    branch2: MachineBranch
    apply_unitaries: bool = True


@dataclass(frozen=True)
class Transcript:
    """Record of one protocol run.  ``stages`` holds the final nine-qubit
    state under ``"final"``; the announced outcomes are the config's branches."""

    config: ProtocolConfig
    stages: dict[str, StateVector]
    p1: float
    p2: float
    five_qubit: DensityMatrix
    pairs: dict[str, PairVerdict]
    broadcast_ok: bool


def prepare_w(params: WParams | Sequence[WParams]) -> StateVector:
    """The initial three-qubit state alpha|001> + beta|010> + gamma|100>,
    or a stack of them for a sequence of params."""
    single = isinstance(params, WParams)
    triples = [params.as_tuple()] if single else [p.as_tuple() for p in params]
    amps = np.zeros((len(triples), 8), dtype=complex)
    amps[:, [0b001, 0b010, 0b100]] = triples
    return StateVector((_D(1), _D(2), _D(3)), amps[0] if single else amps)


_ROUND_ONE_WIRES = frozenset(_D(i) for i in (1, 2, 3))
_ROUND_TWO_WIRES = frozenset(_D(i) for i in range(1, 7))
_DATA_WIRES = frozenset(_D(i) for i in range(1, 10))
_FIVE_QUBIT_WIRES = frozenset(_D(i) for i in (1, 5, 8, 6, 9))


def _require_register(
    state: StateVector, expected: frozenset[QubitLabel], stage: str
) -> None:
    if set(state.labels) != expected:
        raise ValueError(f"{stage} expects register {sorted(l.name for l in expected)}")


def round_one(state: StateVector) -> StateVector:
    """Clone qubits 1, 2, 3 onto 4, 5, 6 with machines MA1, MB1, MC1."""
    _require_register(state, _ROUND_ONE_WIRES, "round_one")
    for assignment in ROUND_ONE_ASSIGNMENTS:
        state = clone_qubit(state, assignment)
    return state


def round_two(state: StateVector) -> StateVector:
    """Clone qubits 4, 5, 6 onto 7, 8, 9 with machines MA2, MB2, MC2."""
    _require_register(state, _ROUND_TWO_WIRES, "round_two")
    for assignment in ROUND_TWO_ASSIGNMENTS:
        state = clone_qubit(state, assignment)
    return state


def branch_select(
    state: StateVector,
    branch: MachineBranch | Sequence[MachineBranch],
    names: Sequence[str] | None = None,
) -> tuple[StateVector, float | np.ndarray]:
    """Measure whichever round's machine wires are present and drop them.
    A stack takes one branch per member (see ``measure_machines``)."""
    machines = [l for l in state.labels if l.is_machine]
    rounds = {l.round_no for l in machines}
    if len(machines) != 3 or len(rounds) != 1:
        raise ValueError("register must hold exactly one round's machine wires")
    round_no = rounds.pop()
    ordered = tuple(_M(party, round_no) for party in ("A", "B", "C"))
    return measure_machines(state, branch, ordered, names)


_SIGMA_X = Operator(PAULI_X)
_SIGMA_Y = Operator(PAULI_Y)

# Wire dressing applied after the second selection: bit flips on Alice's
# clones, sigma_y on Bob's and Charlie's originals.  Every dressed wire is
# traced out of the five-qubit state, so downstream verdicts do not depend on
# whether this stage runs; it only rewrites the discarded qubits.
_UNITARY_STAGE = (
    (_SIGMA_X, _D(4)),
    (_SIGMA_X, _D(7)),
    (_SIGMA_Y, _D(2)),
    (_SIGMA_Y, _D(3)),
)


def apply_local_unitaries(state: StateVector) -> StateVector:
    """Apply the local dressing stage (X on 4 and 7, Y on 2 and 3)."""
    _require_register(state, _DATA_WIRES, "apply_local_unitaries")
    for op, wire in _UNITARY_STAGE:
        state = apply_to_targets(state, op, (wire,))
    return state


def five_qubit_state(
    state: StateVector, names: Sequence[str] | None = None
) -> DensityMatrix | list[DensityMatrix]:
    """Reduced state of qubits (1, 5, 8, 6, 9), the broadcast payload.

    A stack of states gives one state per member, all checked as one stack
    (``names[i]`` naming member i); each keeps its spectrum."""
    _require_register(state, _DATA_WIRES, "five_qubit_state")
    if state.amps.ndim == 1:
        return partial_trace(state, _FIVE_QUBIT_WIRES)
    return partial_traces(
        state, _FIVE_QUBIT_WIRES, [f"five-qubit state of {name}" for name in names]
    )


_PAIR_KEYS = tuple(pair_key(pair) for pair in ALL_PAIRS)
_PAIR_LABELS = tuple((_D(a), _D(b)) for a, b in ALL_PAIRS)
_PAIR_NAMES = tuple(f"pair {key}" for key in _PAIR_KEYS)


def pair_verdicts(
    state: StateVector, names: Sequence[str] | None = None
) -> dict[str, PairVerdict] | list[dict[str, PairVerdict]]:
    """Separability verdicts for all reported pairs, keyed in report order.

    The eleven reductions are validated together and classified together:
    one stacked spectrum for the state checks, one for the partial
    transposes.  A stack of states gives one mapping per member, and all
    ``11 * k`` pairs share the two spectra; ``names[i]`` names member i.
    """
    _require_register(state, _DATA_WIRES, "pair_verdicts")
    if state.amps.ndim == 1:
        pair_names: Sequence[str] = _PAIR_NAMES
    else:
        pair_names = [f"{pair} of {name}" for name in names for pair in _PAIR_NAMES]
    verdicts = ppt_verdicts(partial_trace_stack(state, _PAIR_LABELS, pair_names), pair_names)
    runs = [
        dict(zip(_PAIR_KEYS, verdicts[start:start + len(_PAIR_KEYS)]))
        for start in range(0, len(verdicts), len(_PAIR_KEYS))
    ]
    return runs[0] if state.amps.ndim == 1 else runs


def broadcast_verdict(pairs: Mapping[str, PairVerdict]) -> bool:
    """True when every pair's classification is the paper's claim for it
    (cross-party pairs entangled, in-lab pairs separable), the stated
    success condition for the broadcast."""
    missing = [key for key in PAPER_CLAIMS if key not in pairs]
    if missing:
        raise ValueError(f"missing pair verdicts: {', '.join(missing)}")
    return all(pairs[key].classification == claim for key, claim in PAPER_CLAIMS.items())


# Runs carried through the pipeline per stack.  A member peaks at about
# 210 KiB (the twelve-qubit register of round two is 64 KiB per array), so
# the stack size bounds the memory of a run list of any length.
PROTOCOL_STACK_RUNS = 8


def _run_name(config: ProtocolConfig) -> str:
    alpha, beta, gamma = config.params.as_tuple()
    return (
        f"{config.branch1}/{config.branch2} at (alpha, beta, gamma)="
        f"({alpha!r}, {beta!r}, {gamma!r})"
    )


def run_protocols(configs: Sequence[ProtocolConfig]) -> Iterator[Transcript]:
    """``run_protocol`` of every config, in order.

    The configs are checked first: all must share ``apply_unitaries``.  The
    runs then go through the stage functions in stacks of
    ``PROTOCOL_STACK_RUNS``, each member on its own params and branches, and
    are yielded one stack at a time, so a caller that keeps only what it
    needs holds one stack of transcripts at most.  Per stack, the five-qubit
    states are checked as one stack and the eleven pairs of every member as
    another.  Each amplitude is one product whatever the stack size, so every
    transcript equals the one-run pipeline bit for bit.
    """
    configs = list(configs)
    if len({config.apply_unitaries for config in configs}) > 1:
        raise ValueError("all configs of one call must share apply_unitaries")
    stacks = (
        configs[start:start + PROTOCOL_STACK_RUNS]
        for start in range(0, len(configs), PROTOCOL_STACK_RUNS)
    )
    return itertools.chain.from_iterable(map(_protocol_stack, stacks))


def _protocol_stack(configs: Sequence[ProtocolConfig]) -> list[Transcript]:
    names = [_run_name(config) for config in configs]
    w = prepare_w([config.params for config in configs])
    selected1, p1 = branch_select(round_one(w), [c.branch1 for c in configs], names)
    selected2, p2 = branch_select(round_two(selected1), [c.branch2 for c in configs], names)
    final = apply_local_unitaries(selected2) if configs[0].apply_unitaries else selected2

    fives = five_qubit_state(final, names)
    verdicts = pair_verdicts(final, names)
    return [
        Transcript(
            config=config,
            stages={"final": StateVector(final.labels, amps)},
            p1=float(p1_i),
            p2=float(p2_i),
            five_qubit=five,
            pairs=pairs,
            broadcast_ok=broadcast_verdict(pairs),
        )
        for config, amps, p1_i, p2_i, five, pairs in zip(
            configs, final.amps, p1, p2, fives, verdicts, strict=True
        )
    ]


def run_protocol(config: ProtocolConfig) -> Transcript:
    """Execute both cloning rounds on the selected branches and analyze the
    result: ``run_protocols`` of one config."""
    return next(run_protocols([config]))


@dataclass(frozen=True)
class TwoQubitBroadcast:
    """Verdicts for cloning both halves of alpha|00> + beta|11>."""

    alpha_sq: float
    nonlocal_verdict: PairVerdict
    local_verdict: PairVerdict


# The non-local and the local pair of the two-qubit broadcast, checked and
# classified as one stack like the eleven pairs of ``pair_verdicts``.
_BROADCAST_PAIRS = ((_D(1), _D(5)), (_D(1), _D(4)))
_BROADCAST_KEYS = ("15", "14")

# Grid points run through the pipeline per stack.  A fixed size bounds the
# memory of a grid of any length: one stack of a whole 1099-point grid raised
# the peak RSS of a background run by about 6 MiB (18%).
BROADCAST_STACK_POINTS = 128


def two_qubit_broadcasts(alpha_sqs: Sequence[float]) -> list[TwoQubitBroadcast]:
    """``two_qubit_broadcast`` of every point, in order.

    Every point is validated before any is computed.  The points then run
    through the labeled pipeline in stacks of ``BROADCAST_STACK_POINTS``:
    per stack, two clonings, one partial-trace stack and one verdict stack.
    Each amplitude is one product whatever the stack size, so every result
    equals the one-point pipeline bit for bit.
    """
    for alpha_sq in alpha_sqs:
        if not (0.0 < alpha_sq < 1.0):
            raise ValueError(f"alpha_sq must lie strictly between 0 and 1, got {alpha_sq!r}")
    results: list[TwoQubitBroadcast] = []
    for start in range(0, len(alpha_sqs), BROADCAST_STACK_POINTS):
        results.extend(_broadcast_stack(alpha_sqs[start:start + BROADCAST_STACK_POINTS]))
    return results


def _broadcast_stack(alpha_sqs: Sequence[float]) -> list[TwoQubitBroadcast]:
    squares = np.array(alpha_sqs, dtype=float)
    amps = np.zeros((len(squares), 4), dtype=complex)
    amps[:, 0b00] = np.sqrt(squares)
    amps[:, 0b11] = np.sqrt(1.0 - squares)
    state = StateVector((_D(1), _D(2)), amps)
    state = clone_qubit(state, CloneAssignment(_D(1), _D(4), _M("A", 1)))
    state = clone_qubit(state, CloneAssignment(_D(2), _D(5), _M("B", 1)))

    names = [
        f"pair {key} at alpha_sq={alpha_sq!r}" for alpha_sq in alpha_sqs for key in _BROADCAST_KEYS
    ]
    rhos = partial_trace_stack(state, _BROADCAST_PAIRS, names)
    verdicts = ppt_verdicts(rhos, names)
    return [
        TwoQubitBroadcast(alpha_sq=alpha_sq, nonlocal_verdict=nonlocal_v, local_verdict=local_v)
        for alpha_sq, nonlocal_v, local_v in zip(
            alpha_sqs, verdicts[0::2], verdicts[1::2], strict=True
        )
    ]


def two_qubit_broadcast(alpha_sq: float) -> TwoQubitBroadcast:
    """Clone each qubit of alpha|00> + beta|11> once and test two output pairs.

    Both machine wires are traced out without measurement.  The non-local pair
    is (original A, clone B) = (1, 5); the local pair is (original A, clone A)
    = (1, 4).  This is ``two_qubit_broadcasts`` of one point.
    """
    return two_qubit_broadcasts([alpha_sq])[0]


def _bisect_sign_change(f, lo: float, hi: float, f_lo: float, xtol: float) -> float:
    """Locate a sign change of f on [lo, hi] by bisection, stopping at width
    xtol or once no float lies strictly between lo and hi."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Each bisection runs on one half of (0, 1), cut 1e-6 short of the domain's end.
_BRACKET_EDGE = 1e-6
_BRACKET_WIDTH = 0.5 - _BRACKET_EDGE


def locate_broadcast_interval(xtol: float = 1e-9) -> tuple[float, float]:
    """Endpoints in alpha^2 between which the non-local pair is entangled.

    ``xtol`` must be positive and narrower than a bracket; a wider one would
    return the bracket midpoints without bisecting."""
    if not 0.0 < xtol < _BRACKET_WIDTH:  # NaN fails too
        raise ValueError(
            f"xtol must be positive and below the bracket width {_BRACKET_WIDTH!r}, got {xtol!r}"
        )

    def f(a2: float) -> float:
        return two_qubit_broadcast(a2).nonlocal_verdict.min_pt_eigenvalue

    center = 0.5
    f_center = f(center)
    if f_center >= 0.0:
        raise InvariantViolation("expected entanglement at alpha^2 = 1/2")
    lower = _bisect_sign_change(f, _BRACKET_EDGE, center, f(_BRACKET_EDGE), xtol)
    upper = _bisect_sign_change(f, center, 1.0 - _BRACKET_EDGE, f_center, xtol)
    return lower, upper
