"""Report bytes and report schemas pinned by sha256.

``perfbench/digests.json`` holds the sha256 of the report for every CLI
invocation the benchmark can generate.  A few of them are replayed here
in-process, so a change to any report byte fails tier-1, not only the
benchmark.  The digest file is read, never written.  Reports the benchmark
never generates (csv and text of ``background`` and ``sweep``, and the
``single`` mode) and each mode's schema are pinned by digests stored here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from wbcast.cli import main
from wbcast.report import MODES, _validator

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

PINNED_INVOCATIONS = [
    "branches --alpha 1 --beta 0 --gamma 0 --format json",
    "branches --alpha 1 --beta 0 --gamma 0 --format csv",
    "branches --alpha 1 --beta 0 --gamma 0 --format text",
    "sweep --sweep 150 --seed 0",
    "background --grid 1000",
]


_SINGLE = "single --alpha 0.5774 --beta 0.5774 --gamma 0.5774 --branch1 DUD --branch2 UDU"

STORED_DIGESTS = {
    "background --grid 100 --format csv":
        "2631af4c2e2dc72cf6972cfc4f6981878fecf21e539269e2565dabb0b3468b96",
    "background --grid 100 --format text":
        "3ac93fcc6101ce2f86f6e9ad46a49bc4fffd732ffbd40cc95fc96860e77509e2",
    "sweep --sweep 5 --seed 0 --format csv":
        "23b1466d3b5bdc2106b5ae7790a5d1cab9ab75f5e7a6937f1be1e19c218e0815",
    "sweep --sweep 5 --seed 0 --format text":
        "2df00fca5955fb2c2f3d2dab95072fcd61387312eb0a0d153d134f0551dccca3",
    f"{_SINGLE} --format csv":
        "7fea66c329c7084b56a671140cffd1294be3a4a0515eb404118e4642ec729748",
    f"{_SINGLE} --no-unitaries":
        "4b635c2ccc8861bdd699799e4d5cf504c0263fb2637b535330fff954df6ae0bb",
}

# sha256 of json.dumps(schema, sort_keys=True) for each mode's report schema.
# A change here changes the report contract and needs a new SCHEMA_VERSION.
_PROTOCOL_SCHEMA = "1e46e3bdc0f013d228aae7267b1050a57550cffaf0af4c94476514e5223ad708"
SCHEMA_DIGESTS = {
    "single": _PROTOCOL_SCHEMA,
    "branches": _PROTOCOL_SCHEMA,
    "sweep": _PROTOCOL_SCHEMA,
    "background": "96a27dc470a122d96b4c79a893cab1ba578c1e885ff40b227c5cbc75a4e2f4aa",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("invocation", PINNED_INVOCATIONS)
def test_report_bytes_match_pinned_digest(invocation, digests, capsys):
    assert main(invocation.split()) == 0
    assert _sha256(capsys.readouterr().out) == digests[invocation]


@pytest.mark.parametrize("invocation", STORED_DIGESTS)
def test_report_bytes_match_stored_digest(invocation, capsys):
    assert main(invocation.split()) == 0
    assert _sha256(capsys.readouterr().out) == STORED_DIGESTS[invocation]


@pytest.mark.parametrize("mode", MODES)
def test_schema_matches_stored_digest(mode):
    schema = _validator(mode).schema
    assert _sha256(json.dumps(schema, sort_keys=True)) == SCHEMA_DIGESTS[mode]
