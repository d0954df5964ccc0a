"""Wasted work, measured in counts rather than time.

A warm ``run_protocol`` call must not re-check any constant operator, and
must compute at most four spectra: the five-qubit state's (read again by the
report), one stack for the eleven pair states and one for their partial
transposes.  A sweep runs in stacks of runs: three spectra per stack, not
per run.  A ``two_qubit_broadcast`` call computes at most two spectra,
and the bisection of ``locate_broadcast_interval`` evaluates each point once.
The background grid runs in stacks: two spectra per stack, not per point,
with memory bounded by the stack size, not the grid size.  A report is
streamed: each record is written as soon as its stack finishes, so neither
the whole report nor its text is ever held, and a failure after the first
record leaves a prefix of the report on stdout.  A member of a stack is
named only when one of its checks fails, each fraction note is computed once
per value, and a run loads only the standard modules its report reads.
These counts repeat exactly, unlike timings.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wbcast import protocol, registers, separability
from wbcast import report as report_module
from wbcast.cli import main
from wbcast.cloner import MachineBranch
from wbcast.protocol import (
    ProtocolConfig,
    WParams,
    five_qubit_state,
    run_protocol,
    run_protocols,
    two_qubit_broadcast,
    two_qubit_broadcasts,
)
from wbcast.registers import Operator, QubitLabel, StateVector
from wbcast.report import (
    BROADCAST_STACK_POINTS,
    PROTOCOL_STACK_RUNS,
    RUNNERS,
    ReportStream,
    RunRequest,
    render,
    render_json,
    run_background,
    fraction_note,
    run_sweep,
    sweep_params,
)

SRC = Path(__file__).resolve().parents[1] / "src"
UUU = MachineBranch.from_string("UUU")


def _count_eigvalsh(monkeypatch) -> Counter[str]:
    counts: Counter[str] = Counter()
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return counts


def _count_operator_checks(monkeypatch, counts: Counter[str]) -> None:
    post_init = Operator.__post_init__

    def counting_post_init(self):
        counts["operator_checks"] += 1
        post_init(self)

    monkeypatch.setattr(Operator, "__post_init__", counting_post_init)


def test_warm_run_repeats_no_check(monkeypatch):
    config = ProtocolConfig(WParams.normalized(1.0, 2.0, 3.0), UUU, UUU)
    run_protocol(config)  # fills the operator and wire-plan caches

    counts = _count_eigvalsh(monkeypatch)
    _count_operator_checks(monkeypatch, counts)
    transcript = run_protocol(config)
    transcript.five_qubit.eigenvalues()  # as the report reads it

    assert counts["operator_checks"] == 0
    assert counts["eigvalsh"] <= 4


def test_sweep_computes_three_spectra_per_stack(monkeypatch):
    request = RunRequest(mode="sweep", sweep_count=150, seed=0)
    run_sweep(request)  # fills the operator and wire-plan caches

    counts = _count_eigvalsh(monkeypatch)
    _count_operator_checks(monkeypatch, counts)
    run_sweep(request)

    # The five-qubit states, the pair states and their partial transposes.
    assert counts["eigvalsh"] <= 3 * math.ceil(150 / PROTOCOL_STACK_RUNS)
    assert counts["operator_checks"] == 0


def test_sweep_memory_is_bounded_by_the_stack():
    configs = [ProtocolConfig(p, UUU, UUU) for p in sweep_params(2 * PROTOCOL_STACK_RUNS, 0)]
    run_protocols(configs[PROTOCOL_STACK_RUNS:])  # fills the caches

    tracemalloc.start()
    try:
        transcripts = run_protocols(configs[:PROTOCOL_STACK_RUNS])
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(transcripts) == PROTOCOL_STACK_RUNS
    # One report stack: about 205 KiB on numpy 2.4.6, set by the pair
    # reductions.  The bound fails a five-qubit reduction symmetrised as one
    # stack (about 368 KiB) and a Hermiticity check of the 32x32 stack in one
    # stack-sized temporary (about 240 KiB).
    assert peak - retained < 220 * 2**10

    # The five-qubit stage alone, which the pair reductions hide above.  Its
    # peak is the product's two reordered factors (half a stack each) and the
    # product: about 258 KiB.  The bound fails a stage that copies the fresh
    # reduction into its states (about 283 KiB), and the two reverts above
    # (about 450 and 322 KiB).
    stack_bytes = PROTOCOL_STACK_RUNS * 32 * 32 * 16  # one 8x32x32 complex stack
    nine = tuple(QubitLabel.data(i) for i in range(1, 10))
    rng = np.random.default_rng(22)
    re, im = rng.normal(size=(2, PROTOCOL_STACK_RUNS, 2**9))
    amps = re + 1j * im
    final = StateVector(nine, amps / np.linalg.norm(amps, axis=1, keepdims=True))
    five_qubit_state(final, str)  # fills the wire-plan cache
    tracemalloc.start()
    try:
        fives = five_qubit_state(final, str)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fives) == PROTOCOL_STACK_RUNS
    assert peak < 2 * stack_bytes + 16 * 2**10


def _streamed_peak(mode: str, **fields) -> int:
    """The traced peak of streaming a report into a null sink."""
    request = RunRequest(mode=mode, **fields)
    tracemalloc.start()
    try:
        render(RUNNERS[mode](request), "json", lambda text: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_report_memory_does_not_grow_with_its_runs():
    # Fills the operator and wire-plan caches.
    _streamed_peak("sweep", sweep_count=PROTOCOL_STACK_RUNS, seed=0)
    small = _streamed_peak("sweep", sweep_count=200, seed=0)
    large = _streamed_peak("sweep", sweep_count=2000, seed=0)
    # About 0.09 MiB apart; a report held whole until it is rendered grows
    # by about 8 KB per run, some 14 MiB here.
    assert large - small < 2**19


def test_streamed_background_memory_does_not_grow_with_its_grid():
    _streamed_peak("background", grid=100)  # fills the operator and wire-plan caches
    small = _streamed_peak("background", grid=2000)
    large = _streamed_peak("background", grid=20000)
    # About 0.01 MiB apart; a grid whose points and results are all made
    # before the first row is written grows by about 0.5 KB per point, some
    # 9.5 MiB here.
    assert large - small < 2**19


def test_json_report_is_written_as_it_is_made(monkeypatch):
    report = run_sweep(RunRequest(mode="sweep", sweep_count=150, seed=0))
    size = len(render_json(report))
    # The runner streams the records already made, so that only the
    # writing is measured.
    monkeypatch.setitem(RUNNERS, "sweep", lambda request: ReportStream.of(report))

    tracemalloc.start()
    try:
        code = main(["sweep", "--sweep", "150", "--seed", "0", "--out", os.devnull])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # About 60 KB of an 844 KB report; holding its text takes all 844 KB.
    assert peak < size / 4


def _nan_witness_at_record(monkeypatch, index: int) -> None:
    """Give run record ``index`` a NaN pair witness, which its record refuses."""
    run_protocols = report_module.run_protocols
    seen = itertools.count()

    def nan_w3(transcript):
        pairs = dict(transcript.pairs)
        pairs["86"] = dataclasses.replace(pairs["86"], w3=math.nan)
        return dataclasses.replace(transcript, pairs=pairs)

    def broken_run_protocols(configs):
        for transcript in run_protocols(configs):
            yield nan_w3(transcript) if next(seen) == index else transcript

    monkeypatch.setattr(report_module, "run_protocols", broken_run_protocols)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("index", [1, PROTOCOL_STACK_RUNS + 1], ids=["stack-1", "stack-2"])
def test_failure_after_the_first_record_leaves_a_prefix(monkeypatch, capsysbinary, fmt, index):
    argv = ["sweep", "--sweep", "20", "--seed", "0", "--format", fmt]
    assert main(argv) == 0
    good = capsysbinary.readouterr().out

    _nan_witness_at_record(monkeypatch, index)
    assert main(argv) == 4
    captured = capsysbinary.readouterr()
    assert 0 < len(captured.out) < len(good)
    assert good.startswith(captured.out)
    assert captured.err.decode().count("\n") == 1
    assert "'w3' is not finite (nan)" in captured.err.decode()


def test_background_point_computes_two_spectra(monkeypatch):
    two_qubit_broadcast(0.3)  # fills the operator and wire-plan caches
    counts = _count_eigvalsh(monkeypatch)
    two_qubit_broadcast(0.3)
    assert counts["eigvalsh"] <= 2


def test_bisection_evaluates_each_point_once(monkeypatch):
    points = []
    broadcast = protocol.two_qubit_broadcast

    def recording_broadcast(alpha_sq):
        points.append(alpha_sq)
        return broadcast(alpha_sq)

    monkeypatch.setattr(protocol, "two_qubit_broadcast", recording_broadcast)
    lower, upper = protocol.locate_broadcast_interval()
    assert (lower.hex(), upper.hex()) == ("0x1.c147cfac3b4b3p-4", "0x1.c7d7060a7896ap-1")
    assert len(points) == len(set(points)) == 60


def test_background_grid_computes_two_spectra_per_stack(monkeypatch):
    request = RunRequest(mode="background", grid=1050)
    run_background(request)  # fills the operator and wire-plan caches

    counts = _count_eigvalsh(monkeypatch)
    _count_operator_checks(monkeypatch, counts)
    run_background(request)

    stacks = math.ceil(1050 / BROADCAST_STACK_POINTS)
    # Two per grid stack, and two per point for the 60 bisection points.
    assert counts["eigvalsh"] <= 2 * stacks + 120
    assert counts["operator_checks"] == 0


def test_grid_memory_is_bounded_by_the_stack():
    points = [i / (BROADCAST_STACK_POINTS + 1) for i in range(1, BROADCAST_STACK_POINTS + 1)]
    two_qubit_broadcasts(points[:10])  # fills the operator and wire-plan caches

    tracemalloc.start()
    try:
        results = two_qubit_broadcasts(points)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == BROADCAST_STACK_POINTS
    assert peak - retained < 2**20


@pytest.mark.parametrize("bad", [1.0, math.nan])
def test_grid_is_validated_before_any_point_runs(monkeypatch, bad):
    clonings = []
    clone_qubit = protocol.clone_qubit

    def recording_clone_qubit(*args):
        clonings.append(args)
        return clone_qubit(*args)

    monkeypatch.setattr(protocol, "clone_qubit", recording_clone_qubit)
    grid = [0.2] + [0.5] * BROADCAST_STACK_POINTS + [bad]
    with pytest.raises(ValueError, match="alpha_sq"):
        two_qubit_broadcasts(grid)
    assert clonings == []


def test_members_are_named_only_when_a_check_fails(monkeypatch):
    """Every reader that names a failing member gets a naming function, and
    a report whose checks pass never calls one."""
    reached: Counter[str] = Counter()
    named = []

    def counting(owner, reader: str, position: int):
        wrapped = getattr(owner, reader)

        def call(*args):
            reached[reader] += 1
            name = args[position]

            def counted(i):
                named.append((reader, i))
                return name(i)

            return wrapped(*args[:position], counted, *args[position + 1:])

        monkeypatch.setattr(owner, reader, call)

    counting(registers, "check_density_stack", 1)
    counting(separability, "_w_stack", 1)
    counting(protocol, "renormalize_branches", 2)
    run_sweep(RunRequest(mode="sweep", sweep_count=2 * PROTOCOL_STACK_RUNS, seed=0))
    run_background(RunRequest(mode="background", grid=BROADCAST_STACK_POINTS + 1))
    assert set(reached) == {"check_density_stack", "_w_stack", "renormalize_branches"}
    assert named == []


def test_fraction_notes_are_computed_once_per_value():
    fraction_note.cache_clear()
    run_sweep(RunRequest(mode="sweep", sweep_count=150, seed=0))
    # p1 and p2 of seed 0 take 17 distinct values; one note for each of the
    # 300 would take 300 computations.
    assert fraction_note.cache_info().misses <= 17


def _fresh_python(code: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    return done.stdout.strip()


# Standard modules loaded only where a report reads them: csv for csv
# output.  JSON output takes the C encoder from _json, so no run loads the
# json package.  No run loads fractions or decimal, since the probability
# notes are found in integer arithmetic.  copy stays loaded for every run,
# since dataclasses imports it.  No run loads secrets, hmac, hashlib or
# _hashlib (OpenSSL): numpy.random takes secrets only to seed unseeded
# generators, and every sweep is seeded.  A sweep draws from
# Generator(PCG64(seed)) alone, so it loads none of the numpy.random modules
# that only the package __init__ imports: mtrand, _mt19937, _philox, _sfc64
# and _pickle.
LAZY_MODULES = (
    "csv", "decimal", "fractions", "json", "json.decoder", "json.encoder", "json.scanner",
    "secrets", "hmac", "hashlib", "_hashlib",
    "numpy.random.mtrand", "numpy.random._mt19937", "numpy.random._philox", "numpy.random._sfc64",
    "numpy.random._pickle",
)


def test_each_run_loads_only_the_modules_its_report_reads():
    # One fresh interpreter per run, since a loaded module stays loaded.
    probe = """
import os, sys
from wbcast.cli import main
assert main([*sys.argv[2:], "--out", os.devnull]) == 0
print(" ".join(m for m in sys.argv[1].split() if m in sys.modules))
"""
    for argv, expected in (
        (["branches", "--alpha", "0.6", "--beta", "0.8", "--gamma", "0", "--format", "text"], ""),
        (["background", "--grid", "100", "--format", "csv"], "csv"),
        (["sweep", "--sweep", "2", "--format", "json"], ""),
    ):
        assert _fresh_python(probe, " ".join(LAZY_MODULES), *argv) == expected, argv


def test_a_sweep_leaves_the_real_secrets_and_unseeded_generators_apart():
    # The sweep leaves numpy.random without its __init__ run; each use below
    # must find the complete package.
    probe = """
import os, pickle, sys
from wbcast.cli import main
from wbcast.report import _default_rng
assert main(["sweep", "--sweep", "2", "--out", os.devnull]) == 0
import numpy as np
import numpy.random as r
assert r is sys.modules["numpy.random"] is np.random
from numpy.random import *
assert 0 <= RandomState(0).rand() < 1
assert np.random.bit_generator.SeedSequence and "default_rng" in dir(np.random)
rng = _default_rng(3)
assert pickle.loads(pickle.dumps(rng)).random() == rng.random()
import secrets
assert len(secrets.token_hex(16)) == 32
assert secrets.compare_digest("wbcast", "wbcast") and not secrets.compare_digest("a", "b")
draws = [np.random.default_rng().integers(2**63, size=2).tolist() for _ in range(2)]
assert draws[0] != draws[1], draws
print("ok")
"""
    assert _fresh_python(probe) == "ok"


def test_a_sweep_writes_the_same_bytes_whether_secrets_was_loaded_or_not():
    # Without a prior import, numpy.random is built from its generator
    # modules beside a stand-in secrets; after one, the sweep takes the
    # modules already loaded.
    command = "sweep --sweep 150 --seed 0"
    probe = """
import contextlib, hashlib, importlib, io, sys
if sys.argv[1] != "none":
    importlib.import_module(sys.argv[1])
from wbcast.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(sys.argv[2:]) == 0
print(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), "secrets" in sys.modules)
"""
    want = json.loads((SRC.parent / "perfbench" / "digests.json").read_text(encoding="utf-8"))[command]
    for prelude, secrets_loaded in (("none", False), ("secrets", True), ("numpy.random", True)):
        assert _fresh_python(probe, prelude, *command.split()) == f"{want} {secrets_loaded}", prelude


def test_a_failed_generator_import_leaves_numpy_random_unloaded():
    probe = """
import sys
import numpy as np
from wbcast.report import _default_rng

class Refuse:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy.random._pcg64":
            raise ImportError("refused")

sys.meta_path.insert(0, Refuse)
try:
    _default_rng(0)
except ImportError as error:
    assert str(error) == "refused", error
else:
    raise AssertionError("the refused import was not re-raised")
assert "numpy.random" not in sys.modules and "secrets" not in sys.modules
assert "random" not in vars(np)
sys.meta_path.remove(Refuse)
assert np.random.default_rng(0).random() == _default_rng(0).random()
assert np.random.bit_generator.SeedSequence
print("ok")
"""
    assert _fresh_python(probe) == "ok"
