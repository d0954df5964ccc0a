"""Peres-Horodecki separability tests for two-qubit states.

For two qubits the partial transpose criterion is decisive: a state is
entangled exactly when its partial transpose has a negative eigenvalue.  The
determinant witnesses W3 (leading 3x3 principal minor of the partial
transpose) and W4 (its full determinant) are reported alongside for
comparison with published tables, but classification always follows the
minimum partial-transpose eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .registers import (
    ATOL_PSD,
    DensityMatrix,
    InvariantViolation,
    QubitLabel,
    hermitian_spectrum,
    partial_transpose_stack,
)

SEPARABLE = "SEPARABLE"
ENTANGLED = "ENTANGLED"

# Partial-transpose eigenvalues above this are treated as nonnegative.
ENTANGLEMENT_THRESHOLD = -ATOL_PSD


@dataclass(frozen=True)
class PairVerdict:
    """Separability verdict for one qubit pair, with witness values attached."""

    pair: tuple[QubitLabel, QubitLabel]
    min_pt_eigenvalue: float
    w3: float
    w4: float
    negativity: float
    classification: str
    paper_claim: str | None = None
    agrees_with_paper: bool | None = None

    @property
    def pair_key(self) -> str:
        return "".join(str(l) for l in self.pair)


def _w_stack(pts: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(W3, W4) of each partial transpose in a stack, real parts."""
    w3 = np.linalg.det(pts[:, :3, :3])
    w4 = np.linalg.det(pts)
    for i, name in enumerate(names):
        for witness, value in (("W3", w3[i]), ("W4", w4[i])):
            if not abs(value.imag) <= ATOL_PSD:  # NaN fails too
                raise InvariantViolation(
                    f"{witness} of {name} has imaginary residue {value.imag:.3e}"
                )
    return w3.real, w4.real


def ppt_verdicts(
    rhos: np.ndarray,
    pairs: Sequence[tuple[QubitLabel, QubitLabel]],
    paper_claims: Sequence[str | None],
) -> list[PairVerdict]:
    """Classify a stack of two-qubit states (shape (k, 4, 4), each in storage
    order, ``pairs[i]`` naming member i) by the sign of each minimum partial
    transpose eigenvalue.  One stacked eigvalsh and two stacked determinants
    serve the whole stack."""
    for claim in paper_claims:
        if claim not in (None, SEPARABLE, ENTANGLED):
            raise ValueError(f"bad claim {claim!r}")
    pts = partial_transpose_stack(rhos)
    eigs = hermitian_spectrum(pts)
    w3, w4 = _w_stack(pts, ["".join(str(l) for l in pair) for pair in pairs])
    # PT eigenvalues inside the PSD band count as zero, so separable states
    # report a negativity of exactly 0.0 rather than rounding noise.
    negs = np.where(eigs < ENTANGLEMENT_THRESHOLD, -eigs, 0.0).sum(axis=-1)
    verdicts = []
    for i, (pair, claim) in enumerate(zip(pairs, paper_claims)):
        min_eig = float(eigs[i, 0])
        classification = ENTANGLED if min_eig < ENTANGLEMENT_THRESHOLD else SEPARABLE
        verdicts.append(
            PairVerdict(
                pair=(pair[0], pair[1]),
                min_pt_eigenvalue=min_eig,
                w3=float(w3[i]),
                w4=float(w4[i]),
                negativity=float(negs[i]),
                classification=classification,
                paper_claim=claim,
                agrees_with_paper=None if claim is None else (classification == claim),
            )
        )
    return verdicts


def ppt_verdict(
    rho: DensityMatrix,
    pair: tuple[QubitLabel, QubitLabel] | None = None,
    paper_claim: str | None = None,
) -> PairVerdict:
    """Classify a two-qubit state by the sign of its minimum PT eigenvalue."""
    if rho.n_qubits != 2:
        raise ValueError("separability tests apply to two-qubit states only")
    if pair is None:
        pair = (rho.labels[0], rho.labels[1])
    if set(pair) != set(rho.labels):
        raise ValueError("pair names must match the state's labels")
    return ppt_verdicts(rho.rho[None], (pair,), (paper_claim,))[0]
