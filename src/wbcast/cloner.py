"""Buzek-Hillery 1-to-2 universal cloning machine and machine-wire measurement.

The cloner maps one qubit onto (source, clone, machine):

    |0> -> sqrt(2/3) |00>|up>  + sqrt(1/6) (|01> + |10>) |down>
    |1> -> sqrt(2/3) |11>|down> + sqrt(1/6) (|01> + |10>) |up>

with the machine basis encoded as up = |0>, down = |1>.  Both clones carry the
input state with fidelity 5/6 regardless of the input, and measuring the
machine wires in the up/down basis selects a branch of the protocol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .registers import InvariantViolation, Naming, Operator, QubitLabel, StateVector
from .registers import apply_to_targets

# A branch with squared projection norm below this is treated as impossible.
MIN_BRANCH_PROBABILITY = 1e-14


class ImpossibleBranchError(Exception):
    """Requested measurement branch has (numerically) zero probability."""


@dataclass(frozen=True)
class MachineBranch:
    """One joint outcome of the three parties' machine measurements: Alice's,
    Bob's and Charlie's letters in turn, U for up (bit 0) or D for down (bit 1)."""

    letters: str

    def __post_init__(self) -> None:
        text = self.letters
        if not (isinstance(text, str) and len(text) == 3 and set(text) <= set("UD")):
            raise ValueError(f"bad branch {text!r}, expected three of U/D like 'UUD'")

    @classmethod
    def from_string(cls, text: str) -> "MachineBranch":
        return cls(text)

    @property
    def bits(self) -> tuple[int, int, int]:
        return tuple(int(c == "D") for c in self.letters)

    def __str__(self) -> str:
        return self.letters


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


def project_machines(
    state: StateVector, machines: Sequence[QubitLabel], bits: Sequence[Sequence[int]]
) -> StateVector:
    """Keep, of member i of a stack, the entries with bit ``bits[j][i]`` on
    ``machines[j]``, and drop those wires.  The stack that remains is not
    renormalized: each entry is copied, never recomputed."""
    stack = state.tensor()
    k = len(stack)
    # The batch index and the bit indices broadcast to k picks.
    index: list = [np.arange(k)] + [slice(None)] * state.n_qubits
    for machine, column in zip(machines, bits):
        index[1 + state.axis(machine)] = np.asarray(column)
    remaining = tuple(l for l in state.labels if l not in machines)
    return StateVector(remaining, stack[tuple(index)].reshape(k, -1))


def renormalize_branches(
    state: StateVector,
    branches: Sequence[MachineBranch],
    name: Naming | None = None,
) -> tuple[StateVector, np.ndarray]:
    """A projected stack renormalized member by member, with the array of its
    branch probabilities (the squared norms before renormalization).

    A probability below ``MIN_BRANCH_PROBABILITY``, read at call time, raises
    ``ImpossibleBranchError``; a NaN or infinite one means the state itself
    is broken and raises ``InvariantViolation``.  Each names its member's
    branch, and ``name(i)``, if given, too.
    """
    probabilities = np.sum(np.abs(state.amps) ** 2, axis=1)
    for failure, bad in (
        (InvariantViolation, ~np.isfinite(probabilities)),
        (ImpossibleBranchError, ~(probabilities >= MIN_BRANCH_PROBABILITY)),
    ):
        for i in np.flatnonzero(bad):
            where = "" if name is None else f" of {name(i)}"
            raise failure(f"branch {branches[i]}{where} has probability {probabilities[i]:.3e}")
    return StateVector(state.labels, state.amps / np.sqrt(probabilities)[:, None]), probabilities


def measure_machines(
    state: StateVector, branch: MachineBranch, machines: Sequence[QubitLabel]
) -> tuple[StateVector, float]:
    """Project the three machine wires of one state onto a branch and drop
    them: the renormalized state and the branch probability (the squared
    projection norm before renormalization), failing as
    ``renormalize_branches`` does.  A stack is refused; ``run_protocols``
    measures its members, each on its own branch."""
    machines = tuple(machines)
    if len(machines) != 3 or len(set(machines)) != 3:
        raise ValueError("exactly three distinct machine wires are required")
    state._require_single("measure_machines")
    projected = project_machines(state, machines, [[bit] for bit in branch.bits])
    post, probabilities = renormalize_branches(projected, [branch])
    return StateVector(post.labels, post.amps[0]), float(probabilities[0])
