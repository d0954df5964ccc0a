"""Peres-Horodecki separability tests for two-qubit states.

For two qubits the partial transpose criterion is decisive: a state is
entangled exactly when its partial transpose has a negative eigenvalue.  The
determinant witnesses W3 (leading 3x3 principal minor of the partial
transpose) and W4 (its full determinant) are reported alongside for
comparison with published tables, but classification always follows the
minimum partial-transpose eigenvalue.  A verdict depends on the state alone;
comparing it with the published claims is the report's business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registers import (
    ATOL_PSD,
    DensityMatrix,
    InvariantViolation,
    Naming,
    partial_transpose_stack,
)

SEPARABLE = "SEPARABLE"
ENTANGLED = "ENTANGLED"

# Partial-transpose eigenvalues above this are treated as nonnegative.
ENTANGLEMENT_THRESHOLD = -ATOL_PSD


@dataclass(frozen=True)
class PairVerdict:
    """Separability verdict for one two-qubit state, with witness values attached."""

    min_pt_eigenvalue: float
    w3: float
    w4: float
    negativity: float
    classification: str


def _w_stack(pts: np.ndarray, name: Naming) -> tuple[np.ndarray, np.ndarray]:
    """(W3, W4) of each partial transpose in a stack, real parts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.stack((np.linalg.det(pts[:, :3, :3]), np.linalg.det(pts)), axis=-1)
    # det gives NaN for some finite matrices with subnormal entries, as a
    # 1e-154 amplitude makes; both minors are Hermitian, so each determinant
    # is then the product of its eigenvalues.  A NaN entry stays NaN.
    lost = np.isnan(w).any(axis=-1) & np.isfinite(pts).all(axis=(-2, -1))
    if lost.any():
        w[lost, 0] = np.prod(np.linalg.eigvalsh(pts[lost, :3, :3]), axis=-1)
        w[lost, 1] = np.prod(np.linalg.eigvalsh(pts[lost]), axis=-1)
    # Row-major order: the first failing member, and W3 before W4 within it.
    for flat in np.flatnonzero(~(np.abs(w.imag) <= ATOL_PSD)):  # NaN fails too
        member, witness = divmod(int(flat), 2)
        raise InvariantViolation(
            f"W{witness + 3} of {name(member)} has imaginary residue "
            f"{w.imag.flat[flat]:.3e}"
        )
    return w[:, 0].real, w[:, 1].real


def ppt_verdicts(rhos: np.ndarray, name: Naming) -> list[PairVerdict]:
    """Classify a stack of two-qubit states (shape (k, 4, 4), ``name(i)``
    naming member i in error messages) by the sign of each minimum partial
    transpose eigenvalue.  One stacked eigvalsh and two stacked determinants
    serve the whole stack.

    The stack must already have passed ``check_density_stack``.  A partial
    transpose only permutes matrix entries, so the partial transpose of a
    stack checked as Hermitian is Hermitian to the same tolerance and is
    not checked again.
    """
    pts = partial_transpose_stack(rhos)
    eigs = np.linalg.eigvalsh(pts)
    w3, w4 = _w_stack(pts, name)
    # PT eigenvalues inside the PSD band count as zero, so separable states
    # report a negativity of exactly 0.0 rather than rounding noise.
    negs = np.where(eigs < ENTANGLEMENT_THRESHOLD, -eigs, 0.0).sum(axis=-1)
    return [
        PairVerdict(
            min_pt_eigenvalue=float(min_eig),
            w3=float(w3_i),
            w4=float(w4_i),
            negativity=float(neg),
            classification=ENTANGLED if min_eig < ENTANGLEMENT_THRESHOLD else SEPARABLE,
        )
        for min_eig, w3_i, w4_i, neg in zip(eigs[:, 0], w3, w4, negs)
    ]


def ppt_verdict(rho: DensityMatrix) -> PairVerdict:
    """Classify a two-qubit state by the sign of its minimum PT eigenvalue."""
    if rho.n_qubits != 2:
        raise ValueError("separability tests apply to two-qubit states only")
    return ppt_verdicts(rho.rho[None], lambda _: "pair " + "".join(map(str, rho.labels)))[0]
