"""The package's public names: ``wbcast.__all__``."""

from __future__ import annotations

import wbcast

# Names dropped from the package because no report, verdict or CLI mode used
# them; they must not come back as public exports by accident.
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
