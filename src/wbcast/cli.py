"""Command line interface.

Options are stored under their mode's ``MODE_FIELDS`` names.  Exit codes: 0
on success, 2 for invalid input or an unwritable ``--out`` or stdout, 3 for a
zero-probability measurement branch, 4 when an internal invariant check fails
(a NaN or infinite report value included).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext, suppress

from .cloner import ImpossibleBranchError, MachineBranch
from .protocol import WParams
from .registers import InvariantViolation
from .report import FORMATS, MODE_FIELDS, RUNNERS, RunRequest, render

# The CLI accepts hand-typed amplitudes (for example 0.5774 three times) and
# normalizes them exactly; directions more than this far from the unit sphere
# are rejected as likely typos.
CLI_NORM_TOLERANCE = 1e-2

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_IMPOSSIBLE_BRANCH = 3
EXIT_INVARIANT_VIOLATION = 4


def _branch(text: str) -> MachineBranch:
    try:
        return MachineBranch.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True, help="amplitude of |001>")
    parser.add_argument("--beta", type=float, required=True, help="amplitude of |010>")
    parser.add_argument("--gamma", type=float, required=True, help="amplitude of |100>")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=FORMATS, default="json", dest="fmt")


def _add_unitaries(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-unitaries",
        action="store_false",
        dest="apply_unitaries",
        help="skip the local dressing stage (verdicts are unaffected)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbcast",
        description=(
            "Simulate three-party broadcasting of a five-qubit entangled state "
            "from a W-type state via two rounds of Buzek-Hillery cloning, and "
            "verify the published separability pattern of the output pairs."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    single = sub.add_parser("single", help="one run on chosen measurement branches")
    _add_params(single)
    single.add_argument("--branch1", type=_branch, default=MachineBranch.from_string("UUU"))
    single.add_argument("--branch2", type=_branch, default=MachineBranch.from_string("UUU"))
    _add_unitaries(single)
    _add_output(single)

    branches = sub.add_parser("branches", help="all 64 branch combinations")
    _add_params(branches)
    _add_unitaries(branches)
    _add_output(branches)

    sweep = sub.add_parser("sweep", help="seeded random parameter draws")
    sweep.add_argument(
        "--sweep", type=int, default=50, metavar="N", dest="sweep_count", help="number of draws"
    )
    sweep.add_argument("--seed", type=int, default=0)
    _add_unitaries(sweep)
    _add_output(sweep)

    background = sub.add_parser(
        "background", help="two-qubit cloning scan over alpha^2"
    )
    background.add_argument("--grid", type=int, default=100, metavar="N")
    _add_output(background)

    return parser


def _params_from_args(args: argparse.Namespace) -> WParams:
    # hypot and a product, not **2: huge amplitudes give inf, never OverflowError.
    norm = math.hypot(args.alpha, args.beta, args.gamma)
    norm_sq = norm * norm
    if abs(norm_sq - 1.0) > CLI_NORM_TOLERANCE:
        raise ValueError(
            f"alpha^2 + beta^2 + gamma^2 = {norm_sq:.6f}; amplitudes must "
            "describe a unit vector (within rounding)"
        )
    return WParams.normalized(args.alpha, args.beta, args.gamma)


def _request_from_args(args: argparse.Namespace) -> RunRequest:
    fields = {
        name: _params_from_args(args) if name == "params" else getattr(args, name)
        for name in MODE_FIELDS[args.mode]
    }
    return RunRequest(mode=args.mode, fmt=args.fmt, **fields)


def _sink(path: str | None):
    """The ``--out`` file, or stdout as it is now (a closed fd 1 fails here)."""
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return nullcontext(sys.stdout or open(1, "w", closefd=False))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        request = _request_from_args(args)
    except ValueError as exc:
        print(f"wbcast: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    try:
        report = RUNNERS[request.mode](request)
    except ImpossibleBranchError as exc:
        print(f"wbcast: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE_BRANCH
    except InvariantViolation as exc:
        print(f"wbcast: {exc}", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION

    # The report is checked and every value finite, so only the write can
    # fail; its text is written as it is made and never held whole.
    try:
        with _sink(args.out) as sink:
            render(report, request.fmt, sink.write)
            sink.flush()
    except OSError as exc:
        print(f"wbcast: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        if not args.out:  # stdout keeps unwritten bytes and would fail again at exit
            with suppress(AttributeError, OSError, ValueError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())  # a captured stdout has no fd
        return EXIT_INVALID_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
