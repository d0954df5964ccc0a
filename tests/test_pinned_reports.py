"""Report bytes pinned by sha256.

``perfbench/digests.json`` holds the sha256 of the report for every CLI
invocation the benchmark can generate.  A few of them are replayed here
in-process, so a change to any report byte fails tier-1, not only the
benchmark.  The digest file is read, never written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from wbcast.cli import main

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

PINNED_INVOCATIONS = [
    "branches --alpha 1 --beta 0 --gamma 0 --format json",
    "branches --alpha 1 --beta 0 --gamma 0 --format csv",
    "branches --alpha 1 --beta 0 --gamma 0 --format text",
    "sweep --sweep 150 --seed 0",
    "background --grid 1000",
]


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("invocation", PINNED_INVOCATIONS)
def test_report_bytes_match_pinned_digest(invocation, digests, capsys):
    assert main(invocation.split()) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == digests[invocation]
