"""Three-party broadcasting of a five-qubit entangled state from W-type states.

The package simulates two rounds of Buzek-Hillery cloning on a shared W-type
state, reduces the result to the five broadcast qubits and their pairs, and
classifies each pair with the Peres-Horodecki criterion, comparing the
verdicts against the published claims for the protocol.
"""

__version__ = "0.1.0"

from .cloner import (
    BRANCH_ORDER,
    CloneAssignment,
    ImpossibleBranchError,
    MachineBranch,
    bh_isometry,
    clone_qubit,
    measure_machines,
)
from .registers import (
    DensityMatrix,
    InvariantViolation,
    Operator,
    QubitLabel,
    StateVector,
    apply_to_targets,
    canonical_order,
    partial_trace,
)
from .separability import (
    ENTANGLED,
    SEPARABLE,
    PairVerdict,
    ppt_verdict,
)
from .protocol import (
    ALL_PAIRS,
    LOCAL_PAIRS,
    NONLOCAL_PAIRS,
    PAPER_CLAIMS,
    ProtocolConfig,
    Transcript,
    TwoQubitBroadcast,
    WParams,
    apply_local_unitaries,
    branch_select,
    five_qubit_state,
    locate_broadcast_interval,
    pair_verdicts,
    prepare_w,
    round_one,
    round_two,
    run_protocol,
    two_qubit_broadcast,
)

__all__ = [
    "__version__",
    "ALL_PAIRS",
    "BRANCH_ORDER",
    "CloneAssignment",
    "DensityMatrix",
    "ENTANGLED",
    "ImpossibleBranchError",
    "InvariantViolation",
    "LOCAL_PAIRS",
    "MachineBranch",
    "NONLOCAL_PAIRS",
    "Operator",
    "PAPER_CLAIMS",
    "PairVerdict",
    "ProtocolConfig",
    "QubitLabel",
    "SEPARABLE",
    "StateVector",
    "Transcript",
    "TwoQubitBroadcast",
    "WParams",
    "apply_local_unitaries",
    "apply_to_targets",
    "bh_isometry",
    "branch_select",
    "canonical_order",
    "clone_qubit",
    "five_qubit_state",
    "locate_broadcast_interval",
    "measure_machines",
    "pair_verdicts",
    "partial_trace",
    "ppt_verdict",
    "prepare_w",
    "round_one",
    "round_two",
    "run_protocol",
    "two_qubit_broadcast",
]
