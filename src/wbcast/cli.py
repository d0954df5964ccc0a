"""Command line interface.

Each mode's options are those ``OPTIONS`` lists for its ``MODE_FIELDS``,
stored under those field names.  Exit codes: 0 on success, 2 for invalid
input or an unwritable ``--out`` or stdout, 3 for a zero-probability
measurement branch, 4 when an internal invariant check fails (a NaN or
infinite report value included).  The report is written as it is made: a
failure after its first record leaves a partial report on stdout, while
``--out`` is replaced only by a whole report.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile
from contextlib import contextmanager, nullcontext, suppress

from .cloner import BRANCH_ORDER, ImpossibleBranchError, MachineBranch
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


# The options of each request field, in the order --help lists them; each
# stores under its field's name, "params" being one option per amplitude.  A
# mode gets the options of its MODE_FIELDS and those of "out" and "fmt".
OPTIONS = {
    "params": {
        "--alpha": dict(type=float, required=True, help="amplitude of |001>"),
        "--beta": dict(type=float, required=True, help="amplitude of |010>"),
        "--gamma": dict(type=float, required=True, help="amplitude of |100>"),
    },
    "branch1": {"--branch1": dict(type=_branch, default=BRANCH_ORDER[0])},
    "branch2": {"--branch2": dict(type=_branch, default=BRANCH_ORDER[0])},
    "sweep_count": {
        "--sweep": dict(
            type=int, default=50, metavar="N", dest="sweep_count", help="number of draws"
        )
    },
    "seed": {"--seed": dict(type=int, default=0)},
    "apply_unitaries": {
        "--no-unitaries": dict(
            action="store_false",
            dest="apply_unitaries",
            help="skip the local dressing stage (verdicts are unaffected)",
        )
    },
    "grid": {"--grid": dict(type=int, default=100, metavar="N")},
    "out": {"--out": dict(metavar="PATH", help="write the report here instead of stdout")},
    "fmt": {"--format": dict(choices=FORMATS, default="json", dest="fmt")},
}
MODE_HELP = {
    "single": "one run on chosen measurement branches",
    "branches": "all 64 branch combinations",
    "sweep": "seeded random parameter draws",
    "background": "two-qubit cloning scan over alpha^2",
}


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
    for mode, fields in MODE_FIELDS.items():
        mode_parser = sub.add_parser(mode, help=MODE_HELP[mode])
        for name, options in OPTIONS.items():
            if name in (*fields, "out", "fmt"):
                for flag, settings in options.items():
                    mode_parser.add_argument(flag, **settings)
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


@contextmanager
def _replacing(path: str):
    """A text file that replaces ``path`` once the block ends without error.

    Until then it is a temporary file beside the target, removed on any
    error, so a failed run leaves neither a partial report nor the
    temporary file, and an existing file stays untouched.  The report gets
    the mode that ``open(path, "w")`` would give it: an existing file's
    own, or 0o666 less the umask.  A target that exists but is no regular
    file (``/dev/null``, a pipe) is written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8", newline="") as file:
            yield file
        return
    if os.path.exists(target):
        mode = stat.S_IMODE(os.stat(target).st_mode)
    else:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory, name = os.path.split(target)
    fd, temporary = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        os.fchmod(fd, mode)
        with open(fd, "w", encoding="utf-8", newline="") as file:
            yield file
        os.replace(temporary, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(temporary)
        raise


def _sink(path: str | None):
    """The ``--out`` file, replaced on success, or stdout as it is now (a
    closed fd 1 fails here)."""
    if path is None:
        return nullcontext(sys.stdout or open(1, "w", closefd=False))
    return _replacing(path)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out == "":
            raise ValueError("--out takes a file path, got an empty one")
        request = _request_from_args(args)
    except ValueError as exc:
        print(f"wbcast: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    # The runner makes and checks the first record before anything is
    # written; each later part is checked as it is written, so a failure
    # there leaves a partial report on stdout and none at --out.
    try:
        stream = RUNNERS[request.mode](request)
        with _sink(args.out) as sink:
            try:
                render(stream, request.fmt, sink.write)
            finally:
                sink.flush()
    except ImpossibleBranchError as exc:
        print(f"wbcast: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE_BRANCH
    except InvariantViolation as exc:
        print(f"wbcast: {exc}", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION
    except OSError as exc:
        print(f"wbcast: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        if not args.out:  # stdout keeps unwritten bytes and would fail again at exit
            with suppress(AttributeError, OSError, ValueError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())  # a captured stdout has no fd
        return EXIT_INVALID_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
