"""The protocol treats its three parties alike, on all 64 branch pairs.

In alpha|001> + beta|010> + gamma|100> on wires (1, 2, 3), Alice holds wire 1
and amplitude gamma, Bob wire 2 and beta, Charlie wire 3 and alpha; each
party's clones follow their original (Alice 1, 4, 7; Bob 2, 5, 8; Charlie 3,
6, 9) and each reads their own letter of a branch.  Relabeling the parties
by a permutation therefore maps every run onto the run whose amplitudes and
branch letters are permuted the same way: both branch probabilities are
equal, and each wire pair's partial-transpose spectrum equals that of its
image pair.  The dressing stage (sigma_x on 4 and 7, sigma_y on 2 and 3) is
not party-symmetric, but it is made of one-wire unitaries, which keep every
pair's partial-transpose spectrum, so spectra are compared, not matrices.
No stored answer is needed: a branch letter read for the wrong party, a
clone assignment wrong for one party, or a reduction that mixes up two labs
breaks the map.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from wbcast.cloner import BRANCH_ORDER, MachineBranch
from wbcast.protocol import ProtocolConfig, WParams, run_protocols
from wbcast.registers import (
    ATOL_ALGEBRA,
    QubitLabel,
    StateVector,
    partial_trace_stack,
    partial_transpose_stack,
)

PARTIES = "ABC"
WIRES = {"A": (1, 4, 7), "B": (2, 5, 8), "C": (3, 6, 9)}
# Each party's place in (alpha, beta, gamma).
AMPLITUDE = {"A": 2, "B": 1, "C": 0}
PAIRS = tuple(itertools.combinations(range(1, 10), 2))
POINTS = (WParams(0.48, 0.6, 0.64), WParams.normalized(1.0, 2.0, 3.0))
CONFIGS = [
    ProtocolConfig(params, branch1, branch2)
    for params in POINTS
    for branch1 in BRANCH_ORDER
    for branch2 in BRANCH_ORDER
]


def _permuted(config: ProtocolConfig, image: dict[str, str]) -> ProtocolConfig:
    """The run in which party ``image[p]`` holds what party p held in ``config``."""
    values = config.params.as_tuple()
    amplitudes = [0.0] * 3
    for party in PARTIES:
        amplitudes[AMPLITUDE[image[party]]] = values[AMPLITUDE[party]]

    def branch(old: MachineBranch) -> MachineBranch:
        letters = dict(zip((image[party] for party in PARTIES), old.letters))
        return MachineBranch("".join(letters[party] for party in PARTIES))

    return ProtocolConfig(WParams(*amplitudes), branch(config.branch1), branch(config.branch2))


def _observables(configs: list[ProtocolConfig]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p1 and p2 of each run, and the partial-transpose spectra of all 36
    wire pairs of its final state (shape (runs, 36, 4))."""
    transcripts = run_protocols(configs)
    finals = [t.stages["final"] for t in transcripts]
    stack = StateVector(finals[0].labels, np.stack([final.amps for final in finals]))
    keeps = [(QubitLabel.data(a), QubitLabel.data(b)) for a, b in PAIRS]
    rhos = partial_trace_stack(stack, keeps, lambda i: f"pair {PAIRS[i % len(PAIRS)]}")
    spectra = np.linalg.eigvalsh(partial_transpose_stack(rhos)).reshape(len(configs), len(PAIRS), 4)
    p1 = np.array([t.p1 for t in transcripts])
    p2 = np.array([t.p2 for t in transcripts])
    return p1, p2, spectra


@pytest.fixture(scope="module")
def unpermuted():
    return _observables(CONFIGS)


@pytest.mark.parametrize("images", ["".join(p) for p in itertools.permutations(PARTIES)])
def test_party_permutation_maps_probabilities_and_pair_spectra(unpermuted, images):
    # ``images`` lists the images of A, B and C: "ACB" swaps Bob and Charlie,
    # which is swapping alpha and beta.
    image = dict(zip(PARTIES, images))
    wire_image = {
        wire: WIRES[image[party]][role]
        for party in PARTIES
        for role, wire in enumerate(WIRES[party])
    }
    image_pair = [PAIRS.index(tuple(sorted((wire_image[a], wire_image[b])))) for a, b in PAIRS]

    p1, p2, spectra = unpermuted
    q1, q2, mapped = _observables([_permuted(config, image) for config in CONFIGS])
    assert np.max(np.abs(p1 - q1)) <= ATOL_ALGEBRA
    assert np.max(np.abs(p2 - q2)) <= ATOL_ALGEBRA
    assert np.max(np.abs(spectra - mapped[:, image_pair])) <= ATOL_ALGEBRA
