#!/usr/bin/env python3
"""Regenerate digests.json: the sha256 of the report for every invocation
any workload can generate.

    python3 perfbench/make_digests.py

The stored digests pin the report bytes of the commit they were made at.
Reports are meant to stay byte-identical, so rerun this only for a change
that alters them on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import SRC, call_main
from workloads import DIGESTS_PATH, WORKLOADS, pool, sha256


def main() -> int:
    sys.path.insert(0, str(SRC))
    digests = {}
    for workload in WORKLOADS:
        for inv in pool(workload):
            code, out, _ = call_main(inv.argv)
            if code != 0:
                print(f"{inv.key}: exit code {code}", file=sys.stderr)
                return 1
            digests[inv.key] = sha256(out)
        print(f"{workload}: {len(pool(workload))} reports", file=sys.stderr)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
