"""Dense complex linear algebra over labeled qubit registers.

A register is an ordered tuple of distinct wire labels.  Amplitudes are stored
flat, with the first listed label as the most significant bit, so a basis
string written in register order maps directly onto an array index.  Canonical
storage order is ascending data label with machine wires last; any other
printed ordering is a view produced by ``permuted``/``reordered``, never a
second storage format.  All values are immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Tolerance policy: 1e-12 for algebraic identities (norms, isometry checks,
# Hermiticity), 1e-10 for positive-semidefinite / zero classification.
ATOL_ALGEBRA = 1e-12
ATOL_PSD = 1e-10

# Wire plans (label checks, axes, permutations) are cached per label layout;
# the protocol uses a few dozen layouts, so this bound is never reached there.
_PLAN_CACHE_SIZE = 256

PARTIES = ("A", "B", "C")


class InvariantViolation(Exception):
    """A constructed value failed one of its defining numerical invariants."""


@dataclass(frozen=True)
class QubitLabel:
    """A register wire: a data qubit "1".."9" or a machine wire "M<party><round>"."""

    name: str

    def __post_init__(self) -> None:
        n = self.name
        is_data = len(n) == 1 and n.isdigit() and n != "0"
        is_machine = len(n) == 3 and n[0] == "M" and n[1] in PARTIES and n[2] in "12"
        if not (is_data or is_machine):
            raise ValueError(f"bad qubit label {n!r}")

    @classmethod
    def data(cls, index: int) -> "QubitLabel":
        return cls(str(index))

    @classmethod
    def machine(cls, party: str, round_no: int) -> "QubitLabel":
        return cls(f"M{party}{round_no}")

    @property
    def is_machine(self) -> bool:
        return self.name[0] == "M"

    @property
    def is_data(self) -> bool:
        return not self.is_machine

    @property
    def index(self) -> int:
        if self.is_machine:
            raise ValueError(f"{self.name} is not a data wire")
        return int(self.name)

    @property
    def party(self) -> str:
        if self.is_data:
            raise ValueError(f"{self.name} is not a machine wire")
        return self.name[1]

    @property
    def round_no(self) -> int:
        if self.is_data:
            raise ValueError(f"{self.name} is not a machine wire")
        return int(self.name[2])

    @property
    def sort_key(self) -> tuple:
        if self.is_machine:
            return (1, self.round_no, self.party)
        return (0, self.index, "")

    def __lt__(self, other: "QubitLabel") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return self.name


def canonical_order(labels: Iterable[QubitLabel]) -> tuple[QubitLabel, ...]:
    """Sort wires into canonical storage order (data ascending, machines last)."""
    return tuple(sorted(labels, key=lambda l: l.sort_key))


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateVector:
    """Pure state of a labeled register, stored as a flat amplitude array.

    ``amps`` has shape ``(2**n,)``, or ``(k, 2**n)`` for a stack of k states
    on the same wires.  ``tensor``, ``apply_to_targets``,
    ``partial_trace_stack``, ``partial_traces`` and ``measure_machines`` keep
    that leading batch axis in front; the per-state readers (``norm``,
    ``permuted``, ``amplitude``, ``partial_trace``) take a single state and
    reject a stack by name.
    """

    labels: tuple[QubitLabel, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in register: {self._names(labels)}")
        amps = _freeze(self.amps)
        if amps.ndim not in (1, 2) or amps.shape[-1] != 2 ** len(labels):
            raise ValueError(
                f"amplitude array of shape {amps.shape} does not fit "
                f"{len(labels)} qubits"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amps", amps)

    @staticmethod
    def _names(labels: Iterable[QubitLabel]) -> str:
        return ",".join(str(l) for l in labels)

    @classmethod
    def basis(cls, labels: Sequence[QubitLabel], bits: str) -> "StateVector":
        """Computational basis state |bits> in the given label order."""
        labels = tuple(labels)
        if len(bits) != len(labels):
            raise ValueError("bit string length does not match register size")
        amps = np.zeros(2 ** len(labels), dtype=complex)
        amps[int(bits, 2) if bits else 0] = 1.0
        return cls(labels, amps)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def _require_single(self, reader: str) -> None:
        if self.amps.ndim != 1:
            raise ValueError(f"{reader} takes a single state, not a stack of {len(self.amps)}")

    def norm(self) -> float:
        if self.amps.ndim != 1:
            raise ValueError("a stack of states has no single norm")
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < ATOL_ALGEBRA:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.labels, self.amps / n)

    def axis(self, label: QubitLabel) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label} not in register {self._names(self.labels)}") from None

    def tensor(self) -> np.ndarray:
        """Amplitudes with one axis per wire, after any batch axis."""
        return self.amps.reshape(self.amps.shape[:-1] + (2,) * self.n_qubits)

    def permuted(self, order: Sequence[QubitLabel]) -> "StateVector":
        """View of the same state with wires listed in a different order."""
        self._require_single("permuted")
        order = tuple(order)
        if set(order) != set(self.labels) or len(order) != len(self.labels):
            raise ValueError("permutation must list exactly the register labels")
        perm = [self.labels.index(l) for l in order]
        return StateVector(order, self.tensor().transpose(perm).reshape(-1))

    def amplitude(self, bits: str, order: Sequence[QubitLabel] | None = None) -> complex:
        """Amplitude of |bits>, read in the given label order (default: storage order)."""
        self._require_single("amplitude")
        view = self if order is None else self.permuted(order)
        if len(bits) != view.n_qubits:
            raise ValueError("bit string length does not match register size")
        return complex(view.amps[int(bits, 2) if bits else 0])


@dataclass(frozen=True)
class Operator:
    """A checked isometry matrix of shape (2**n_out, 2**n_in), n_out >= n_in,
    with M^dagger M = identity; square operators are therefore unitary.
    The wires it reads and writes are named where it is applied."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _freeze(self.matrix)
        rows, cols = m.shape
        n_out, n_in = int(np.log2(rows)), int(np.log2(cols))
        if 2 ** n_out != rows or 2 ** n_in != cols or rows < cols:
            raise ValueError(f"operator shape {m.shape} is not a qubit isometry shape")
        gram = m.conj().T @ m
        dev = float(np.max(np.abs(gram - np.eye(cols))))
        if not dev <= ATOL_ALGEBRA:  # NaN fails too
            raise ValueError(f"matrix is not an isometry (max |M^dag M - I| = {dev:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def n_in(self) -> int:
        return self.matrix.shape[1].bit_length() - 1

    @property
    def n_out(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of a labeled register; Hermitian, unit trace, PSD by construction.

    ``DensityMatrix(labels, rho)`` is ``DensityMatrix.stack`` of one matrix:
    the one check computes the spectrum, and the state keeps it.
    """

    labels: tuple[QubitLabel, ...]
    rho: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name = "wires " + StateVector._names(self.labels)
        (checked,) = DensityMatrix.stack(self.labels, np.asarray(self.rho)[None], (name,))
        for attr in ("labels", "rho", "_spectrum"):
            object.__setattr__(self, attr, getattr(checked, attr))

    @classmethod
    def stack(
        cls, labels: Sequence[QubitLabel], rhos: np.ndarray, names: Sequence[str]
    ) -> list["DensityMatrix"]:
        """One state per matrix of a stack (shape (k, d, d)) on the same wires.

        The stack is checked once by ``check_density_stack`` (``names[i]``
        naming member i), and each member keeps its row of the spectra, so
        no member is checked again.
        """
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in register")
        rhos = _freeze(rhos)
        dim = 2 ** len(labels)
        if rhos.ndim != 3 or rhos.shape[1:] != (dim, dim):
            raise ValueError(f"matrix shape {rhos.shape[1:]} does not fit {len(labels)} qubits")
        spectra = check_density_stack(rhos, names)
        spectra.setflags(write=False)
        members = []
        for rho, spectrum in zip(rhos, spectra):
            member = object.__new__(cls)
            for attr, value in (("labels", labels), ("rho", rho), ("_spectrum", spectrum)):
                object.__setattr__(member, attr, value)
            members.append(member)
        return members

    def validate(self) -> np.ndarray:
        """Re-check Hermiticity, unit trace and positivity; raise on failure.
        Returns the ascending spectrum."""
        name = "wires " + StateVector._names(self.labels)
        return check_density_stack(self.rho[None], (name,))[0]

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, computed once when the state was validated."""
        return self._spectrum

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def reordered(self, order: Sequence[QubitLabel]) -> "DensityMatrix":
        """View of the same state with wires listed in a different order."""
        order = tuple(order)
        if set(order) != set(self.labels) or len(order) != len(self.labels):
            raise ValueError("permutation must list exactly the register labels")
        n = self.n_qubits
        perm = [self.labels.index(l) for l in order]
        t = self.rho.reshape((2,) * (2 * n))
        t = t.transpose(perm + [p + n for p in perm])
        return DensityMatrix(order, t.reshape(2 ** n, 2 ** n))

    def element(
        self, bra: str, ket: str, order: Sequence[QubitLabel] | None = None
    ) -> complex:
        """Matrix element <bra|rho|ket> with bit strings read in the given order."""
        view = self if order is None else self.reordered(order)
        if len(bra) != view.n_qubits or len(ket) != view.n_qubits:
            raise ValueError("bit string length does not match register size")
        return complex(view.rho[int(bra, 2) if bra else 0, int(ket, 2) if ket else 0])


def check_density_stack(rhos: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a stack of density
    matrices (shape (k, d, d)) and return their ascending spectra (k, d).

    The first failing member is named in the InvariantViolation, together
    with the size of its deviation.  Every check is written so that NaN
    fails it.
    """
    herm_dev = np.max(np.abs(rhos - rhos.conj().swapaxes(-1, -2)), axis=(-2, -1))
    for i in np.flatnonzero(~(herm_dev <= ATOL_ALGEBRA)):
        raise InvariantViolation(
            f"density matrix of {names[i]} not Hermitian (dev {herm_dev[i]:.3e})"
        )
    trace_dev = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    for i in np.flatnonzero(~(trace_dev <= ATOL_ALGEBRA)):
        raise InvariantViolation(
            f"density matrix of {names[i]} trace off by {trace_dev[i]:.3e}"
        )
    spectra = np.linalg.eigvalsh(rhos)
    low = np.min(spectra, axis=-1)
    for i in np.flatnonzero(~(low >= -ATOL_PSD)):
        raise InvariantViolation(
            f"density matrix of {names[i]} has eigenvalue {low[i]:.3e} < -{ATOL_PSD}"
        )
    return spectra


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _apply_plan(
    labels: tuple[QubitLabel, ...],
    targets: tuple[QubitLabel, ...],
    fresh: tuple[QubitLabel, ...],
    n_in: int,
    n_out: int,
    batch: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[QubitLabel, ...]]:
    """Label checks, target axes, transpose order and result labels of one
    operator application to a state with ``batch`` (0 or 1) leading batch
    axes.  They depend on the label tuples only; a failing plan raises and
    is therefore never cached."""
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target labels")
    for t in targets:
        if t not in labels:
            raise ValueError(f"target {t} not in register")
    if len(targets) != n_in:
        raise ValueError(
            f"operator acts on {n_in} qubits but {len(targets)} targets given"
        )
    if len(fresh) != n_out - n_in:
        raise ValueError(
            f"operator needs {n_out - n_in} fresh labels but {len(fresh)} given"
        )
    if len(set(fresh)) != len(fresh):
        raise ValueError("duplicate fresh labels")
    for l in fresh:
        if l in labels:
            raise ValueError(f"fresh output label {l} already in register")

    spectators = tuple(l for l in labels if l not in targets)
    target_axes = tuple(batch + labels.index(t) for t in targets)
    labels_after = targets + fresh + spectators
    perm = sorted(range(len(labels_after)), key=lambda i: labels_after[i].sort_key)
    # tensordot yields the operator's n_out output axes, then the state's
    # untouched axes: the batch axis, if any, before the spectators.
    order = tuple(range(n_out, n_out + batch)) + tuple(
        i if i < n_out else i + batch for i in perm
    )
    return target_axes, order, tuple(labels_after[i] for i in perm)


def apply_to_targets(
    state: StateVector,
    op: Operator,
    targets: Sequence[QubitLabel],
    fresh: Sequence[QubitLabel] = (),
) -> StateVector:
    """Apply an operator to named wires, identity elsewhere.

    The operator reads ``targets`` and writes ``targets + fresh``: a unitary
    takes no fresh labels and replaces the targets in place, and an isometry
    from n_in to n_out qubits takes n_out - n_in fresh labels, none of them
    already in the register.  The result is re-sorted to canonical label
    order.  A stack of states (amplitudes of shape ``(k, 2**n)``) gives a
    stack, each member equal to the operator applied to that member alone.
    """
    n_in, n_out = op.n_in, op.n_out
    target_axes, order, new_labels = _apply_plan(
        state.labels, tuple(targets), tuple(fresh), n_in, n_out, state.amps.ndim - 1
    )
    m = op.matrix.reshape((2,) * (n_out + n_in))
    out = np.tensordot(m, state.tensor(), axes=(list(range(n_out, n_out + n_in)), target_axes))
    amps = out.transpose(order).reshape(state.amps.shape[:-1] + (-1,))
    # Release the contraction before the constructor copies: otherwise three
    # output-sized arrays are alive at once.
    del out
    return StateVector(new_labels, amps)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _trace_plan(
    labels: tuple[QubitLabel, ...], keep: frozenset[QubitLabel], batch: int
) -> tuple[tuple[QubitLabel, ...], tuple[int, ...]]:
    """Kept labels in canonical order, and the axis order that puts the
    ``batch`` (0 or 1) leading batch axes first, then the kept axes (in that
    order), then the traced ones."""
    if not keep:
        raise ValueError("must keep at least one qubit")
    for l in keep:
        if l not in labels:
            raise ValueError(f"label {l} not in register")
    kept = canonical_order(keep)
    kept_axes = tuple(labels.index(l) for l in kept)
    traced_axes = tuple(i for i in range(len(labels)) if labels[i] not in keep)
    return kept, tuple(range(batch)) + tuple(batch + i for i in kept_axes + traced_axes)


def _reduced_matrix(state: StateVector, axes: tuple[int, ...], k: int) -> np.ndarray:
    """Symmetrised reduced matrix over the first k wire axes of the given
    order, one per state of a stack."""
    m = state.tensor().transpose(axes).reshape(state.amps.shape[:-1] + (2 ** k, -1))
    rho = m @ m.conj().swapaxes(-1, -2)
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def partial_trace(state: StateVector, keep: Iterable[QubitLabel]) -> DensityMatrix:
    """Reduced density matrix over the kept wires, labels in canonical order."""
    state._require_single("partial_trace")
    kept, axes = _trace_plan(state.labels, frozenset(keep), 0)
    return DensityMatrix(kept, _reduced_matrix(state, axes, len(kept)))


def partial_traces(
    state: StateVector, keep: Iterable[QubitLabel], names: Sequence[str]
) -> list[DensityMatrix]:
    """``partial_trace`` of each member of a stack of states, checked as one
    stack (``names[i]`` naming member i); each state keeps its spectrum."""
    if state.amps.ndim != 2:
        raise ValueError("partial_traces takes a stack of states")
    kept, axes = _trace_plan(state.labels, frozenset(keep), 1)
    return DensityMatrix.stack(kept, _reduced_matrix(state, axes, len(kept)), names)


def partial_trace_stack(
    state: StateVector, keeps: Sequence[Iterable[QubitLabel]], names: Sequence[str]
) -> np.ndarray:
    """Reduced density matrices over several kept sets of one size, each in
    canonical label order, stacked (shape (K, d, d)) and validated together.

    A stack of k states gives one point-major stack of shape (k*K, d, d):
    member i*K + j is kept set j of state i.  ``names`` labels each member
    in error messages.
    """
    batch = state.amps.ndim - 1
    rhos = []
    for keep in keeps:
        kept, axes = _trace_plan(state.labels, frozenset(keep), batch)
        rhos.append(_reduced_matrix(state, axes, len(kept)))
    d = rhos[0].shape[-1]
    stack = np.stack(rhos, axis=-3).reshape(-1, d, d)
    check_density_stack(stack, names)
    return stack


def partial_transpose_stack(rhos: np.ndarray, wire: int = 1) -> np.ndarray:
    """Partial transposes of a stack of two-qubit matrices (shape (k, 4, 4))
    over storage wire 0 or 1."""
    t = rhos.reshape(-1, 2, 2, 2, 2)
    out = t.transpose(0, 1, 4, 3, 2) if wire == 1 else t.transpose(0, 3, 2, 1, 4)
    return out.reshape(-1, 4, 4)

