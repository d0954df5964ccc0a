"""What a request holds, and how the CLI fills it and writes its report.

``MODE_FIELDS`` says which request fields each mode takes.  A ``RunRequest``
that sets a field its mode does not take, leaves out one it takes, carries a
non-int count, seed or grid, params that are not a ``WParams`` or a branch
that is not a ``MachineBranch``, or holds a value the report schema's
``request`` field rejects is refused with a ValueError when it is built,
before any protocol run.  The CLI builds each mode's options from its
``MODE_FIELDS`` and stores them under those field names; their surface and
``--help`` screens are pinned here as the previous release had them.  A
stdout that cannot be written exits 2, as an unwritable ``--out`` does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wbcast.cli import build_parser, main
from wbcast.cloner import MachineBranch
from wbcast.protocol import WParams
from wbcast.report import MODE_FIELDS, MODES, RunRequest

SRC = Path(__file__).resolve().parents[1] / "src"
UNIFORM = WParams.normalized(1.0, 1.0, 1.0)
UUU = MachineBranch.from_string("UUU")
DDD = MachineBranch.from_string("DDD")


def _expanded(fields) -> list[str]:
    """Request-block keys of ``fields``, with ``params`` as alpha/beta/gamma."""
    keys = {"params": ("alpha", "beta", "gamma")}
    return [key for name in fields for key in keys.get(name, (name,))]


# ---------------------------------------------------------------------------
# The request contract


SWEEP_REQUEST = dict(mode="sweep", sweep_count=2, seed=0)
BACKGROUND_REQUEST = dict(mode="background", grid=100)
# Each refused request and the error it must raise.
REFUSED = {
    "sweep with branch1": ({**SWEEP_REQUEST, "branch1": DDD}, "mode 'sweep' takes no branch1"),
    "string branch": (
        {"mode": "single", "params": UNIFORM, "branch1": "DDD", "branch2": UUU},
        "branch1 must be a MachineBranch, got 'DDD'",
    ),
    "string branch2": (
        {"mode": "single", "params": UNIFORM, "branch1": DDD, "branch2": "UUU"},
        "branch2 must be a MachineBranch, got 'UUU'",
    ),
    "tuple params": (
        {"mode": "single", "params": (1.0, 0.0, 0.0), "branch1": UUU, "branch2": UUU},
        r"^params must be a WParams, got \(1\.0, 0\.0, 0\.0\)$",
    ),
    "background with params": ({**BACKGROUND_REQUEST, "params": UNIFORM}, "takes no alpha"),
    "background with seed": ({**BACKGROUND_REQUEST, "seed": 0}, "takes no seed"),
    "background without unitaries": (
        {**BACKGROUND_REQUEST, "apply_unitaries": False}, "takes no apply_unitaries"
    ),
    "sweep with grid": ({**SWEEP_REQUEST, "grid": 5}, "mode 'sweep' takes no grid"),
    "float seed": ({**SWEEP_REQUEST, "seed": 2.0}, "seed must be an int, got 2.0"),
    "fractional seed": ({**SWEEP_REQUEST, "seed": 0.5}, "seed must be an int, got 0.5"),
    "bool count": ({**SWEEP_REQUEST, "sweep_count": True}, "sweep_count must be an int, got True"),
    "float grid": ({**BACKGROUND_REQUEST, "grid": 100.0}, "grid must be an int, got 100.0"),
    "small grid": (
        {**BACKGROUND_REQUEST, "grid": 99},
        r"^\$\.request\.grid: 99 is less than the minimum of 100$",
    ),
    "zero count": (
        {**SWEEP_REQUEST, "sweep_count": 0},
        r"^\$\.request\.sweep_count: 0 is less than the minimum of 1$",
    ),
    "unknown mode": ({"mode": "wat"}, r"^\$\.request\.mode: 'wat' is not one of \['single', "),
    "string unitaries": (
        {"mode": "branches", "params": UNIFORM, "apply_unitaries": "no"},
        r"^\$\.request\.apply_unitaries: 'no' is not of type 'boolean'$",
    ),
}


@pytest.mark.parametrize("fields, message", REFUSED.values(), ids=REFUSED)
def test_request_is_refused_when_built(fields, message):
    with pytest.raises(ValueError, match=message):
        RunRequest(**fields)


@pytest.mark.parametrize("mode", MODES)
def test_request_block_echoes_exactly_the_modes_fields(mode, capsys):
    argv = {
        "single": ["single", "--alpha", "1", "--beta", "0", "--gamma", "0"],
        "branches": ["branches", "--alpha", "1", "--beta", "0", "--gamma", "0"],
        "sweep": ["sweep", "--sweep", "1"],
        "background": ["background"],
    }[mode]
    assert main(argv) == 0
    block = json.loads(capsys.readouterr().out)["request"]
    assert list(block) == ["mode", "format", *_expanded(MODE_FIELDS[mode])]


def test_apply_unitaries_defaults_to_true_where_the_mode_takes_it():
    assert RunRequest(mode="sweep", sweep_count=1, seed=0).apply_unitaries is True
    off = RunRequest(mode="branches", params=UNIFORM, apply_unitaries=False)
    assert off.apply_unitaries is False
    assert RunRequest(mode="background", grid=100).apply_unitaries is None


# ---------------------------------------------------------------------------
# The CLI surface


HELP = (["-h", "--help"], argparse.SUPPRESS, None, None, "show this help message and exit")
PARAMS = [
    (["--alpha"], None, None, None, "amplitude of |001>"),
    (["--beta"], None, None, None, "amplitude of |010>"),
    (["--gamma"], None, None, None, "amplitude of |100>"),
]
# The previous release stored --no-unitaries as no_unitaries=False; the same
# default now reads apply_unitaries=True.
UNITARIES = (
    ["--no-unitaries"], True, None, None, "skip the local dressing stage (verdicts are unaffected)"
)
OUTPUT = [
    (["--out"], None, None, "PATH", "write the report here instead of stdout"),
    (["--format"], "json", ["json", "csv", "text"], None, None),
]
# Each subparser's actions in order: option strings, default, choices,
# metavar and help.  These attributes, unlike the --help text, read the same
# on every Python version.
SURFACE = {
    "single": [
        HELP, *PARAMS,
        (["--branch1"], UUU, None, None, None),
        (["--branch2"], UUU, None, None, None),
        UNITARIES, *OUTPUT,
    ],
    "branches": [HELP, *PARAMS, UNITARIES, *OUTPUT],
    "sweep": [
        HELP,
        (["--sweep"], 50, None, "N", "number of draws"),
        (["--seed"], 0, None, None, None),
        UNITARIES, *OUTPUT,
    ],
    "background": [HELP, (["--grid"], 100, None, "N", None), *OUTPUT],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_modes_are_the_subcommands_in_order():
    assert list(_subparsers()) == list(MODES) == list(MODE_FIELDS)


@pytest.mark.parametrize("mode", MODES)
def test_cli_surface_is_pinned(mode):
    actions = _subparsers()[mode]._actions
    seen = [
        (a.option_strings, a.default, a.choices and list(a.choices), a.metavar, a.help)
        for a in actions
    ]
    assert seen == SURFACE[mode]
    dests = {a.dest for a in actions} - {"help", "out", "fmt"}
    assert dests == set(_expanded(MODE_FIELDS[mode]))


@pytest.mark.parametrize("mode", MODES)
def test_parsed_options_are_exactly_the_modes_fields(mode):
    actions = [a for a in _subparsers()[mode]._actions if a.dest != "help"]
    want = [*_expanded(MODE_FIELDS[mode]), "out", "fmt"]
    assert sorted(a.dest for a in actions) == sorted(want)
    required = [word for a in actions if a.required for word in (a.option_strings[0], "1")]
    args = build_parser().parse_args([mode, *required])
    assert sorted(vars(args)) == sorted(["mode", *want])


# sha256 of each --help screen at 80 columns, "" being the top-level one.
HELP_DIGESTS = {
    "": "66199d485b839d1736eceabd9ca203d40780595c77a19cc539aa2352a4300df9",
    "single": "f70f3a3bb128db17c4101f9a205d3aa6b9394870512affa0f46b1841ae43296d",
    "branches": "e7d26aa69e33e42a9a6a01fc2662f56f4abc6cddca2b49c31171c2e68cc2cff1",
    "sweep": "7f9014343e67d26a79f71abc82e0b9675ced85898c851ced28eb12f3bffb9819",
    "background": "74a394e0a97fa9a8c7183585ca2329df180e5687c3c67f6024bd61acf23442b7",
}


@pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="digests of the help layout of Python 3.10-3.12"
)
@pytest.mark.parametrize("mode", HELP_DIGESTS, ids=lambda mode: mode or "top")
def test_help_screen_matches_stored_digest(mode, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        build_parser().parse_args([mode, "--help"] if mode else ["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[mode], out


# ---------------------------------------------------------------------------
# A stdout that cannot be written


SINGLE = ["single", "--alpha", "1", "--beta", "0", "--gamma", "0"]
# About 17 kB of json, more than stdout buffers, so the write fails mid-report.
SWEEP = ["sweep", "--sweep", "3", "--seed", "0"]
# Under 3 kB, so a buffered stdout holds it all and fails only at the flush;
# the interpreter would flush those bytes again at exit.
SMALL_TEXT = [*SINGLE, "--format", "text"]
SMALL_CSV = [*SINGLE, "--format", "csv"]
# Interpreter settings an installed wbcast does not run with; an unbuffered
# stdout would hide the failing flush at exit.
DROPPED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")


def _wbcast(argv: list[str], *, close_stdout: bool = False, **run) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "wbcast.cli", *argv]
    if close_stdout:
        start = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
        command = [sys.executable, "-c", start, *command]
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = path
    return subprocess.run(command, stderr=subprocess.PIPE, env=env, timeout=120, **run)


def _assert_cannot_write_stdout(done: subprocess.CompletedProcess, reason: str) -> None:
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert err.splitlines() == [f"wbcast: cannot write stdout: {reason}"]


@pytest.mark.parametrize("argv", [SWEEP, SMALL_TEXT], ids=["json", "text"])
def test_closed_pipe_exits_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _wbcast(argv, stdout=write_end)
    finally:
        os.close(write_end)
    _assert_cannot_write_stdout(done, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv", [SINGLE, [*SWEEP, "--format", "csv"], SMALL_CSV], ids=["json", "csv", "small-csv"]
)
def test_full_device_exits_2(argv):
    with open("/dev/full", "wb") as full:
        done = _wbcast(argv, stdout=full)
    _assert_cannot_write_stdout(done, "No space left on device")


@pytest.mark.parametrize("argv", [SINGLE, SMALL_CSV], ids=["json", "small-csv"])
def test_closed_stdout_exits_2(argv):
    _assert_cannot_write_stdout(_wbcast(argv, close_stdout=True), "Bad file descriptor")
