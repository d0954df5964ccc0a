"""Buzek-Hillery 1-to-2 universal cloning machine and machine-wire measurement.

The cloner maps one qubit onto (source, clone, machine):

    |0> -> sqrt(2/3) |00>|up>  + sqrt(1/6) (|01> + |10>) |down>
    |1> -> sqrt(2/3) |11>|down> + sqrt(1/6) (|01> + |10>) |up>

with the machine basis encoded as up = |0>, down = |1>.  Both clones carry the
input state with fidelity 5/6 regardless of the input, and measuring the
machine wires in the up/down basis selects a branch of the protocol.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .registers import InvariantViolation, Operator, QubitLabel, StateVector, apply_to_targets

# A branch with squared projection norm below this is treated as impossible.
MIN_BRANCH_PROBABILITY = 1e-14


class ImpossibleBranchError(Exception):
    """Requested measurement branch has (numerically) zero probability."""


class MachineOutcome(enum.Enum):
    UP = "U"
    DOWN = "D"

    @property
    def bit(self) -> int:
        return 0 if self is MachineOutcome.UP else 1

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MachineBranch:
    """One joint outcome of the three parties' machine measurements."""

    alice: MachineOutcome
    bob: MachineOutcome
    charlie: MachineOutcome

    @classmethod
    def from_string(cls, text: str) -> "MachineBranch":
        if len(text) != 3 or any(c not in "UD" for c in text):
            raise ValueError(f"bad branch {text!r}, expected three of U/D like 'UUD'")
        return cls(*(MachineOutcome(c) for c in text))

    @property
    def outcomes(self) -> tuple[MachineOutcome, MachineOutcome, MachineOutcome]:
        return (self.alice, self.bob, self.charlie)

    def __str__(self) -> str:
        return "".join(o.value for o in self.outcomes)


# Fixed enumeration order used everywhere branches are listed or reported.
BRANCH_ORDER = tuple(
    MachineBranch.from_string(s)
    for s in ("UUU", "UUD", "UDD", "UDU", "DUU", "DUD", "DDU", "DDD")
)


@dataclass(frozen=True)
class CloneAssignment:
    """Names the source wire, the fresh clone wire and the fresh machine wire."""

    source: QubitLabel
    clone: QubitLabel
    machine: QubitLabel

    def __post_init__(self) -> None:
        wires = (self.source, self.clone, self.machine)
        if len(set(wires)) != 3:
            raise ValueError("clone assignment wires must be distinct")


@functools.cache
def bh_isometry() -> Operator:
    """The cloning isometry from 1 qubit to 3 wires (source, clone, machine).
    Built and checked once; every call returns the same immutable operator."""
    heavy = math.sqrt(2.0 / 3.0)
    light = math.sqrt(1.0 / 6.0)
    m = np.zeros((8, 2), dtype=complex)
    # Output basis order (source, clone, machine), machine bit 0 = up.
    m[0b000, 0] = heavy
    m[0b011, 0] = light
    m[0b101, 0] = light
    m[0b111, 1] = heavy
    m[0b010, 1] = light
    m[0b100, 1] = light
    return Operator(m)


def clone_qubit(state: StateVector, assignment: CloneAssignment) -> StateVector:
    """Clone one wire of the register, growing it by a clone and a machine wire."""
    a = assignment
    return apply_to_targets(state, bh_isometry(), (a.source,), (a.clone, a.machine))


def measure_machines(
    state: StateVector,
    branch: MachineBranch | Sequence[MachineBranch],
    machines: Sequence[QubitLabel],
    names: Sequence[str] | None = None,
) -> tuple[StateVector, float | np.ndarray]:
    """Project the three machine wires onto a branch and drop them.

    Returns the renormalized post-measurement state and the branch probability
    (the squared projection norm before renormalization).  A probability below
    ``MIN_BRANCH_PROBABILITY`` raises ``ImpossibleBranchError``; a NaN or
    infinite one means the state itself is broken and raises
    ``InvariantViolation``.

    A stack of k states takes one branch per member and returns the stack of
    post-measurement states with an array of k probabilities; each member
    is projected on its own branch and renormalized by its own probability.
    ``names[i]``, if given, names member i in an error.  One state is
    measured as the stack of one.
    """
    machines = tuple(machines)
    if len(machines) != 3 or len(set(machines)) != 3:
        raise ValueError("exactly three distinct machine wires are required")
    single = state.amps.ndim == 1
    branches = (branch,) if single else tuple(branch)
    amps = state.amps[None] if single else state.amps
    k = len(amps)
    if len(branches) != k:
        raise ValueError(f"{len(branches)} branches given for a stack of {k} states")

    # Member i keeps the entries with its own branch's bits on the machine
    # axes; the batch index and the bit indices broadcast to k picks.
    index: list = [np.arange(k)] + [slice(None)] * state.n_qubits
    for machine, outcomes in zip(machines, zip(*(b.outcomes for b in branches))):
        index[1 + state.axis(machine)] = np.array([o.bit for o in outcomes])
    sub = amps.reshape((k,) + (2,) * state.n_qubits)[tuple(index)].reshape(k, -1)

    probabilities = np.sum(np.abs(sub) ** 2, axis=1)
    for failure, bad in (
        (InvariantViolation, ~np.isfinite(probabilities)),
        (ImpossibleBranchError, ~(probabilities >= MIN_BRANCH_PROBABILITY)),
    ):
        for i in np.flatnonzero(bad):
            where = "" if names is None else f" of {names[i]}"
            raise failure(f"branch {branches[i]}{where} has probability {probabilities[i]:.3e}")
    post = sub / np.sqrt(probabilities)[:, None]
    remaining = tuple(l for l in state.labels if l not in machines)
    if single:
        return StateVector(remaining, post[0]), float(probabilities[0])
    return StateVector(remaining, post), probabilities
