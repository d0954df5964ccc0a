"""Workload definitions: seeded CLI arguments and the checks on their output.

Every argument list a workload can produce is drawn from a finite pool, so
that ``digests.json`` can hold the sha256 of the expected report for each one
(see ``make_digests.py``).  The benchmark seed only chooses and orders pool
entries; the program sees nothing but the generated arguments.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

WORKLOADS = ("sweep", "branches", "background")
FORMATS = ("json", "csv", "text")

# Pair verdicts per protocol run and per background grid point.
VERDICTS_PER_RUN = 11
VERDICTS_PER_GRID_POINT = 2
BRANCH_PAIRS = 64

# sweep: a fixed draw count keeps the work per invocation equal across seeds;
# the CLI --seed (which parameters are drawn) comes from the pool.
SWEEP_N = 150
SWEEP_CLI_SEEDS = tuple(range(32))

# branches: interior triples typed with six digits, as a user would, plus one
# boundary triple with zero amplitudes.  A run uses the boundary triple and
# BRANCH_TRIPLES_PER_RUN seeded interior ones; 10 triples against 3 formats
# means every (triple, format) combination occurs once in 30 invocations.
BOUNDARY_TRIPLE = ("1", "0", "0")
BRANCH_TRIPLES_PER_RUN = 9


def _interior_triples(count: int, pool_seed: int = 2008) -> tuple[tuple[str, str, str], ...]:
    rng = random.Random(pool_seed)
    triples = []
    while len(triples) < count:
        vec = [abs(rng.gauss(0.0, 1.0)) for _ in range(3)]
        norm = math.sqrt(sum(v * v for v in vec))
        vec = [v / norm for v in vec]
        if min(vec) < 0.05:
            continue
        triples.append(tuple(f"{v:.6f}" for v in vec))
    return tuple(triples)


INTERIOR_TRIPLES = _interior_triples(24)

# background: grid sizes in the low thousands.  Each invocation draws its own,
# so the median wall time is that of the pool's middle, whatever the seed.
BACKGROUND_GRIDS = tuple(range(1000, 1100))

# Background inseparability interval of the non-local pair.
INTERVAL = (0.5 - math.sqrt(39) / 16, 0.5 + math.sqrt(39) / 16)
INTERVAL_TOL = 1e-6
PROBABILITY_TOL = 1e-10


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and the pair verdicts it completes."""

    argv: tuple[str, ...]
    verdicts: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def mode(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1] if "--format" in self.argv else "json"


def sweep_invocation(cli_seed: int) -> Invocation:
    return Invocation(
        ("sweep", "--sweep", str(SWEEP_N), "--seed", str(cli_seed)),
        VERDICTS_PER_RUN * SWEEP_N,
    )


def branches_invocation(triple: tuple[str, str, str], fmt: str) -> Invocation:
    alpha, beta, gamma = triple
    return Invocation(
        ("branches", "--alpha", alpha, "--beta", beta, "--gamma", gamma, "--format", fmt),
        VERDICTS_PER_RUN * BRANCH_PAIRS,
    )


def background_invocation(grid: int) -> Invocation:
    return Invocation(("background", "--grid", str(grid)), VERDICTS_PER_GRID_POINT * grid)


def pool(workload: str) -> list[Invocation]:
    """Every invocation the workload can generate, for digest generation."""
    if workload == "sweep":
        return [sweep_invocation(s) for s in SWEEP_CLI_SEEDS]
    if workload == "branches":
        return [
            branches_invocation(t, f)
            for t in (BOUNDARY_TRIPLE, *INTERIOR_TRIPLES)
            for f in FORMATS
        ]
    if workload == "background":
        return [background_invocation(g) for g in BACKGROUND_GRIDS]
    raise ValueError(f"unknown workload {workload!r}")


def invocations(workload: str, seed: int) -> Iterator[Invocation]:
    """The endless, seed-determined sequence of invocations of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        order = list(SWEEP_CLI_SEEDS)
        rng.shuffle(order)
        return (sweep_invocation(s) for s in itertools.cycle(order))
    if workload == "branches":
        triples = [BOUNDARY_TRIPLE, *rng.sample(INTERIOR_TRIPLES, BRANCH_TRIPLES_PER_RUN)]
        return (
            branches_invocation(triples[i % len(triples)], FORMATS[i % len(FORMATS)])
            for i in itertools.count()
        )
    if workload == "background":
        return (background_invocation(rng.choice(BACKGROUND_GRIDS)) for _ in itertools.count())
    raise ValueError(f"unknown workload {workload!r}")


def input_sizes(workload: str) -> dict:
    if workload == "sweep":
        return {"sweep_n": SWEEP_N, "cli_seed_pool": len(SWEEP_CLI_SEEDS)}
    if workload == "branches":
        return {
            "branch_pairs": BRANCH_PAIRS,
            "triples_per_run": BRANCH_TRIPLES_PER_RUN + 1,
            "boundary_triple": list(BOUNDARY_TRIPLE),
            "formats": list(FORMATS),
        }
    return {"grid_min": BACKGROUND_GRIDS[0], "grid_max": BACKGROUND_GRIDS[-1]}


# ---------------------------------------------------------------------------
# Output checks


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(inv: Invocation, stdout: bytes, digests: dict[str, str]) -> list[str]:
    """Problems with one invocation's report; empty when it is correct.

    The digest comparison pins the report bytes; the invariant checks use no
    stored data, so they still hold a report to account if the digests are
    ever regenerated."""
    problems = []
    want = digests.get(inv.key)
    if want is None:
        problems.append("no stored digest for these arguments")
    elif sha256(stdout) != want:
        problems.append("report differs from the stored digest")
    try:
        text = stdout.decode("utf-8")
        problems += _INVARIANT_CHECKS[inv.fmt](inv, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unparseable {inv.fmt} report: {exc!r}")
    return problems


def _expected_runs(inv: Invocation) -> int:
    if inv.mode == "sweep":
        return SWEEP_N
    if inv.mode == "branches":
        return BRANCH_PAIRS
    return int(inv.argv[inv.argv.index("--grid") + 1])


def _probability_problems(total: float) -> list[str]:
    if abs(total - 1.0) > PROBABILITY_TOL:
        return [f"probability_total {total!r} is not within {PROBABILITY_TOL} of 1"]
    return []


def _pair_count_problems(counts: list[int], want_runs: int) -> list[str]:
    problems = []
    if len(counts) != want_runs:
        problems.append(f"{len(counts)} protocol runs, expected {want_runs}")
    bad = [c for c in counts if c != VERDICTS_PER_RUN]
    if bad:
        problems.append(f"{len(bad)} runs without {VERDICTS_PER_RUN} pair rows")
    return problems


def _check_json(inv: Invocation, text: str) -> list[str]:
    report = json.loads(text)
    runs = report["runs"]
    if inv.mode == "background":
        problems = []
        if len(runs) != _expected_runs(inv):
            problems.append(f"{len(runs)} grid rows, expected {_expected_runs(inv)}")
        interval = report["summary"]["interval"]
        for got, want in zip((interval["lower"], interval["upper"]), INTERVAL):
            if abs(got - want) > INTERVAL_TOL:
                problems.append(f"interval endpoint {got!r} is not within {INTERVAL_TOL} of {want!r}")
        return problems
    problems = _pair_count_problems([len(r["pairs"]) for r in runs], _expected_runs(inv))
    if inv.mode == "branches":
        problems += _probability_problems(report["summary"]["probability_total"])
    return problems


def _check_csv(inv: Invocation, text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    counts: dict[str, int] = {}
    joint: dict[str, float] = {}
    for row in rows:
        counts[row["run_index"]] = counts.get(row["run_index"], 0) + 1
        joint[row["run_index"]] = float(row["p1"]) * float(row["p2"])
    problems = _pair_count_problems(list(counts.values()), _expected_runs(inv))
    return problems + _probability_problems(math.fsum(joint.values()))


_TEXT_RUN = re.compile(r"^run \d+:")
_TEXT_PAIR = re.compile(r"^  \d\d +(?:local|nonlocal) ")
_TEXT_TOTAL = re.compile(r"^total branch probability: (\S+)$")


def _check_text(inv: Invocation, text: str) -> list[str]:
    counts: list[int] = []
    total = None
    in_runs = True
    for line in text.splitlines():
        if _TEXT_RUN.match(line):
            counts.append(0)
        elif line == "paper claims comparison:":
            in_runs = False
        elif in_runs and counts and _TEXT_PAIR.match(line):
            counts[-1] += 1
        elif match := _TEXT_TOTAL.match(line):
            total = float(match.group(1))
    problems = _pair_count_problems(counts, _expected_runs(inv))
    if total is None:
        return problems + ["no total branch probability line"]
    return problems + _probability_problems(total)


_INVARIANT_CHECKS = {"json": _check_json, "csv": _check_csv, "text": _check_text}
