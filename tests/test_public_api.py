"""The package's public names: ``wbcast.__all__``."""

from __future__ import annotations

import inspect

import dataclasses

import wbcast
from wbcast import cloner, protocol, registers, report
from wbcast.cloner import MachineBranch
from wbcast.registers import DensityMatrix, QubitLabel, StateVector

# Names dropped from the package because no report, verdict or CLI mode used
# them, or because another place makes the same decision; they must not come
# back as public exports by accident.
REMOVED_NAMES = (
    "Message",
    "PartyView",
    "classical_exchange",
    "pair_states",
    "tensor_product",
    "partial_transpose",
    "negativity",
    "w_determinants",
    "hermitian_spectrum",
    "MachineOutcome",
    "broadcast_verdict",
)


def test_every_listed_name_resolves():
    missing = [name for name in wbcast.__all__ if not hasattr(wbcast, name)]
    assert missing == []
    assert len(set(wbcast.__all__)) == len(wbcast.__all__)


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from wbcast import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(wbcast.__all__)


def test_removed_names_not_exported():
    for name in REMOVED_NAMES:
        assert name not in wbcast.__all__
        assert not hasattr(wbcast, name)


# Members and settings dropped because no report, verdict or CLI mode reached
# them, only tests: each must stay gone.
REMOVED_MEMBERS = (
    (StateVector, "norm"),
    (StateVector, "normalized"),
    (DensityMatrix, "reordered"),
    (registers, "PAULI_Z"),
    (report, "round15"),
    (QubitLabel, "is_data"),
    (QubitLabel, "index"),
    (QubitLabel, "party"),
    (MachineBranch, "outcomes"),
    # The stack sizes live in the report, which alone cuts runs into stacks.
    (protocol, "PROTOCOL_STACK_RUNS"),
    (protocol, "BROADCAST_STACK_POINTS"),
    # A stack's readers take a naming function, which has no length to check.
    (registers, "require_names"),
    # A caller's matrix comes in through DensityMatrix(labels, rho) alone;
    # a stack only as a reduction that registers has just made.
    (DensityMatrix, "stack"),
)


def test_removed_members_stay_gone():
    for owner, name in REMOVED_MEMBERS:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    # canonical_order sorts by sort_key; wires define no order of their own.
    assert "__lt__" not in vars(QubitLabel)
    # A transcript holds verdicts; only a report record compares them with
    # PAPER_CLAIMS and sets its broadcast_ok.
    assert "broadcast_ok" not in [f.name for f in dataclasses.fields(protocol.Transcript)]


def test_no_setting_that_only_tests_reach():
    def params(function):
        return list(inspect.signature(function).parameters)

    assert params(protocol.locate_broadcast_interval) == []
    assert params(registers.partial_transpose_stack) == ["rhos"]
    assert params(DensityMatrix.element) == ["self", "bra", "ket"]
    # One state is measured here; a stack only through run_protocols.
    assert params(cloner.measure_machines) == ["state", "branch", "machines"]
    assert params(protocol.branch_select) == ["state", "branch"]
