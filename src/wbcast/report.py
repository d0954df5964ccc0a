"""Report assembly, serialization and schema validation.

A runner returns its report as a dictionary with the whole report's keys:
the header, then ``runs``, a one-pass iterator that makes each record as
soon as its stack finishes, then ``summary``, tallied as the records pass
and complete once ``runs`` is spent.  The report alone cuts the work into
stacks: ``PROTOCOL_STACK_RUNS`` runs per ``run_protocols`` call and
``BROADCAST_STACK_POINTS`` grid points per ``two_qubit_broadcasts`` call.
The request is checked once, when it is made; each record is checked as it
passes, the first one before the runner returns, and the summary after the
last one; the renderers write each part as it arrives, so memory does not
grow with the number of runs.  ``collect`` reads the runs into a list: the
whole report, a plain JSON-compatible dictionary, which ``validate_report``
checks with the field whose schema ``report_schema`` publishes.  Each run
record compares its pairs with the paper's claims: ``broadcast_ok`` if none
differs.

Every float is rounded to 15 significant digits where its record is built,
in one pass per record's float list, so identical requests (and identical
seeds) produce byte-identical output in every format; a NaN or infinity is
an invariant failure naming its key.  Probabilities that sit within 1e-12
of a small rational p/q (q <= 1000) get a fraction annotation alongside the
numeric value.

JSON is written as ``json.dumps(report, indent=2)`` would write it, one
string per record (``_dumps``): only the nested levels are walked in Python,
and each container without nested containers is one call of CPython's C
encoder, whose item separator carries the newline and indentation.
``render(report, fmt, write)`` passes the text to ``write`` one record at a
time, so the whole text is never held in memory.

Standard modules that some runs never read are imported where they are
used: the C encoder's ``_json`` in ``_scalar_encoder``, which the JSON
emitter builds on first use, and ``csv`` in the csv emitter.
``fraction_note`` finds its p/q in integer arithmetic and imports nothing.
So no run loads ``fractions``, ``decimal`` or the ``json`` package, and a
json or text run no ``csv``.  A sweep loads only the five ``numpy.random``
extension modules its seeded draws call, and neither the ``secrets`` module
nor OpenSSL (``_default_rng``).
"""

from __future__ import annotations

import copy
import importlib.util
import itertools
import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from types import ModuleType, SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .cloner import BRANCH_ORDER, MachineBranch
from .protocol import (
    ALL_PAIRS,
    LOCAL_PAIRS,
    PAPER_CLAIMS,
    ProtocolConfig,
    Transcript,
    WParams,
    locate_broadcast_interval,
    pair_key,
    run_protocols,
    two_qubit_broadcasts,
)
# Not called here; kept because perfbench/layers.py traces these names in wbcast.report.
from .protocol import run_protocol, two_qubit_broadcast
from .registers import InvariantViolation
from .schema import DRAFT7, Field, SchemaFailure, array, closed, const, enum, typed
from .separability import ENTANGLED, SEPARABLE, PairVerdict

SCHEMA_VERSION = 1

# Each mode's request fields in report order; "params" is alpha, beta, gamma.
MODE_FIELDS = {
    "single": ("params", "branch1", "branch2", "apply_unitaries"),
    "branches": ("params", "apply_unitaries"),
    "sweep": ("apply_unitaries", "sweep_count", "seed"),
    "background": ("grid",),
}
MODES = tuple(MODE_FIELDS)
FORMATS = ("json", "csv", "text")

# Sweep draws reject any component of the direction below this floor.
SWEEP_COMPONENT_FLOOR = 0.05

_LOCAL_KEYS = {pair_key(p) for p in LOCAL_PAIRS}
_PARAM_NAMES = ("alpha", "beta", "gamma")
_TAKEN_FIELDS = tuple(dict.fromkeys(n for names in MODE_FIELDS.values() for n in names))


@dataclass(frozen=True)
class RunRequest:
    """A request: its mode's ``MODE_FIELDS`` set, each of its ``_FIELD_TYPES``
    type, every other field None, and its block passing the report schema's
    ``request`` field; or a ValueError."""

    mode: str
    params: WParams | None = None
    branch1: MachineBranch | None = None
    branch2: MachineBranch | None = None
    apply_unitaries: bool | None = None  # True where the mode takes it
    sweep_count: int | None = None
    seed: int | None = None
    grid: int | None = None
    fmt: str = "json"

    def __post_init__(self) -> None:
        try:
            _REQUEST.check({"mode": self.mode, "format": self.fmt})  # the mode names the fields
            taken = MODE_FIELDS[self.mode]
            if self.apply_unitaries is None and "apply_unitaries" in taken:
                object.__setattr__(self, "apply_unitaries", True)
            for name in _TAKEN_FIELDS:
                value = getattr(self, name)
                if (value is None) == (name in taken):
                    verb = "requires" if name in taken else "takes no"
                    words = ", ".join(_PARAM_NAMES) if name == "params" else name
                    raise ValueError(f"mode {self.mode!r} {verb} {words}")
                kind = _FIELD_TYPES.get(name)
                if kind is not None and value is not None and type(value) is not kind:
                    article = "an" if kind is int else "a"
                    raise ValueError(f"{name} must be {article} {kind.__name__}, got {value!r}")
            _REQUEST.check(_request_block(self))
        except SchemaFailure as failure:
            failure.path.append("request")
            raise ValueError(str(failure)) from None


def format15(x: float) -> str:
    return format(float(x), ".15g")


# A report repeats few probabilities (p1 and p2 of a 150-draw sweep take 15
# to 18 values); the bound keeps the cache's memory constant however many
# runs a process makes.
@lru_cache(maxsize=256)
def fraction_note(x: float) -> str | None:
    """'p/q' when x is within 1e-12 of a rational with denominator <= 1000.

    That p/q is ``Fraction(x).limit_denominator(1000)``, found here in
    integer arithmetic, so that no run loads ``fractions`` (nor ``decimal``
    with it).  Within 1e-12 of x it is within 1/(2 q**2), so it is a
    convergent of x's continued fraction (Legendre's theorem), and the
    closest one with q <= 1000 is the last one.
    """
    n, d = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while d and (q2 := q0 + (a := n // d) * q1) <= 1000:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    if abs(p1 / q1 - x) < 1e-12:
        return f"{p1}/{q1}"
    return None


def _rounded(names: Iterable[str], values: Sequence[float]) -> list[float]:
    """``values`` as emitted, each rounded to 15 digits, in one pass.  A NaN or
    infinity, which JSON cannot carry, raises an InvariantViolation naming
    its key, ``names`` being the keys of ``values`` in order."""
    if not all(map(math.isfinite, values)):
        key, value = next((k, v) for k, v in zip(names, values) if not math.isfinite(v))
        raise InvariantViolation(f"report field {key!r} is not finite ({value})")
    return [float(format(v, ".15g")) for v in values]


# ---------------------------------------------------------------------------
# Field tables


_NUMBER = typed("number")
_PROBABILITY = typed("number", exclusiveMinimum=0)
_COUNT = typed("integer", minimum=0)
_BOOLEAN = typed("boolean")
_STRING = typed("string")
_BRANCH = typed("string", pattern="^[UD]{3}$")
_CLASSIFICATION = enum(SEPARABLE, ENTANGLED)

# Each row kind's fields, in report order, with their schema fields.  The
# report schema and the csv columns are derived from these tables.
_PAIR_FIELDS = {
    "pair": typed("string", pattern="^[1-9]{2}$"),
    "kind": enum("nonlocal", "local"),
    "min_pt_eigenvalue": _NUMBER,
    "w3": _NUMBER,
    "w4": _NUMBER,
    "negativity": typed("number", minimum=0),
    "classification": _CLASSIFICATION,
    "paper_claim": _CLASSIFICATION,
    "agrees_with_paper": _BOOLEAN,
}
# The pair-row numbers, read by _pair_row from the PairVerdict attributes of
# the same names.
_VERDICT_NUMBERS = tuple(_PAIR_FIELDS)[2:6]
_verdict_numbers = attrgetter(*_VERDICT_NUMBERS)

# Each pair's kind and paper claim, the fields its rows share.
_PAIR_HEADS = {
    key: ("local" if key in _LOCAL_KEYS else "nonlocal", PAPER_CLAIMS[key])
    for key in map(pair_key, ALL_PAIRS)
}

_BACKGROUND_FIELDS = {
    "alpha_sq": typed("number", exclusiveMinimum=0, exclusiveMaximum=1),
    "nonlocal_min_pt_eigenvalue": _NUMBER,
    "local_min_pt_eigenvalue": _NUMBER,
    "nonlocal_classification": _CLASSIFICATION,
    "local_classification": _CLASSIFICATION,
}
# The background-row numbers, in report order.
_BACKGROUND_NUMBERS = tuple(_BACKGROUND_FIELDS)[:3]

_RUN_FIELDS = {
    "index": _COUNT,
    "params": closed({"alpha": _NUMBER, "beta": _NUMBER, "gamma": _NUMBER}),
    "degenerate_input": _BOOLEAN,
    "branches": closed({"round1": _BRANCH, "round2": _BRANCH}),
    "apply_unitaries": _BOOLEAN,
    "p1": _PROBABILITY,
    "p2": _PROBABILITY,
    "p1_fraction": _STRING,
    "p2_fraction": _STRING,
    "joint_probability": _PROBABILITY,
    "five_qubit": closed(
        {
            "labels": array(_STRING, minItems=5, maxItems=5),
            "trace": _NUMBER,
            "purity": _NUMBER,
            "eigenvalues": array(_NUMBER, minItems=32, maxItems=32),
        }
    ),
    "pairs": array(closed(_PAIR_FIELDS), minItems=11, maxItems=11),
    "broadcast_ok": _BOOLEAN,
    "paper_agreement": closed(
        {
            "agree": _COUNT,
            "disagree": _COUNT,
            "disagreeing_pairs": array(_STRING),
        }
    ),
    "note": _STRING,
}
_OPTIONAL_RUN_FIELDS = ("p1_fraction", "p2_fraction", "note")
# A run record's numbers outside its lists, rounded in one pass.
_RUN_NUMBERS = ("p1", "p2", "joint_probability", "trace", "purity")

_REQUEST_FIELDS = {
    "mode": enum(*MODES),
    "format": enum(*FORMATS),
    "alpha": _NUMBER,
    "beta": _NUMBER,
    "gamma": _NUMBER,
    "branch1": _BRANCH,
    "branch2": _BRANCH,
    "apply_unitaries": _BOOLEAN,
    "sweep_count": typed("integer", minimum=1),
    "seed": _COUNT,
    "grid": typed("integer", minimum=100),
}
_REQUEST = closed(_REQUEST_FIELDS, ["mode", "format"])
# Python types the schema cannot tell: its "integer" admits 2.0, which range() and
# numpy's seeding reject, and it sees a branch's string and params' numbers only.
_FIELD_TYPES = {"params": WParams, "branch1": MachineBranch, "branch2": MachineBranch} | {
    k: int for k, f in _REQUEST_FIELDS.items() if f.schema.get("type") == "integer"
}


# ---------------------------------------------------------------------------
# Records


def _request_block(request: RunRequest) -> dict:
    block: dict = {"mode": request.mode, "format": request.fmt}
    for name in MODE_FIELDS[request.mode]:
        value = getattr(request, name)
        if name == "params":
            block.update(_params_block(value))
        else:
            block[name] = str(value) if isinstance(value, MachineBranch) else value
    return block


def _params_block(params: WParams) -> dict:
    values = _rounded(_PARAM_NAMES, (params.alpha, params.beta, params.gamma))
    return dict(zip(_PARAM_NAMES, values))


def _pair_row(key: str, verdict: PairVerdict) -> dict:
    kind, claim = _PAIR_HEADS[key]
    numbers = _rounded(_VERDICT_NUMBERS, _verdict_numbers(verdict))
    verdict_class = verdict.classification
    cells = (key, kind, *numbers, verdict_class, claim, verdict_class == claim)
    return dict(zip(_PAIR_FIELDS, cells))


def _run_record(index: int, transcript: Transcript) -> dict:
    config = transcript.config
    five = transcript.five_qubit
    p1, p2, joint, trace, purity = _rounded(
        _RUN_NUMBERS,
        (
            transcript.p1,
            transcript.p2,
            transcript.p1 * transcript.p2,
            float(np.real(np.trace(five.rho))),
            five.purity(),
        ),
    )
    rows = [_pair_row(key, verdict) for key, verdict in transcript.pairs.items()]
    disagreeing = [row["pair"] for row in rows if not row["agrees_with_paper"]]
    record = {
        "index": index,
        "params": _params_block(config.params),
        "degenerate_input": bool(config.params.zero_components()),
        "branches": {"round1": str(config.branch1), "round2": str(config.branch2)},
        "apply_unitaries": config.apply_unitaries,
        "p1": p1,
        "p2": p2,
        "joint_probability": joint,
        "five_qubit": {
            "labels": [str(l) for l in five.labels],
            "trace": trace,
            "purity": purity,
            "eigenvalues": _rounded(repeat("eigenvalues"), five.eigenvalues().tolist()),
        },
        "pairs": rows,
        "broadcast_ok": not disagreeing,
        "paper_agreement": {
            "agree": len(transcript.pairs) - len(disagreeing),
            "disagree": len(disagreeing),
            "disagreeing_pairs": disagreeing,
        },
    }
    for field_name, value in (("p1", transcript.p1), ("p2", transcript.p2)):
        note = fraction_note(value)
        if note is not None:
            record[f"{field_name}_fraction"] = note
    if record["degenerate_input"]:
        record["note"] = (
            "one or more amplitudes are exactly zero; the published "
            "entanglement pattern only covers interior parameter values"
        )
    return record


def collect(report: dict) -> dict:
    """A runner's report with its runs read into a list, which completes its
    summary: the whole report."""
    return {**report, "runs": list(report["runs"])}


# Runs carried through the pipeline per stack.  One warm stack of 8 peaks
# about 205 KiB above the about 225 KiB its transcripts retain (tracemalloc,
# numpy 2.4.6), a peak set by the eleven pair reductions; so the stack size
# bounds the memory of a report of any length.
PROTOCOL_STACK_RUNS = 8

# Grid points run through the pipeline per stack.  A fixed size bounds the
# memory of a grid of any length: one stack of a whole 1099-point grid raised
# the peak RSS of a background run by about 6 MiB (18%).
BROADCAST_STACK_POINTS = 128


def _by_stack(run: Callable[[list], Iterable], items: Iterator, size: int) -> Iterator:
    """``run`` of the items ``size`` at a time, each stack's items made only
    when it runs, so that nothing grows with their count."""
    while stack := list(itertools.islice(items, size)):
        yield from run(stack)


def _protocol_report(
    request: RunRequest,
    runs: Iterable[tuple[WParams, MachineBranch, MachineBranch]],
    total_check: bool = False,
) -> dict:
    """The report of the protocol run on each (params, branch1, branch2).

    The summary is tallied as the records pass, and each transcript is
    dropped once recorded, so at most one stack of them is alive.  With
    ``total_check``, the unrounded joint probabilities, summed left to
    right, must come to 1 once the last record has passed, and the summary
    reports their total: sum() of floats is compensated on Python >= 3.12,
    which would change it.
    """
    configs = (ProtocolConfig(*run, request.apply_unitaries) for run in runs)
    by_pair = [
        {
            "pair": key,
            "kind": kind,
            "paper_claim": claim,
            "runs": 0,
            "agree": 0,
            "disagree": 0,
            "entangled_count": 0,
        }
        for key, (kind, claim) in _PAIR_HEADS.items()
    ]
    summary = {"runs": 0, "broadcast_ok_count": 0, "pair_agreement": by_pair}
    total = 0.0

    def records() -> Iterator[dict]:
        nonlocal total
        transcripts = _by_stack(run_protocols, configs, PROTOCOL_STACK_RUNS)
        for index, transcript in enumerate(transcripts):
            record = _run_record(index, transcript)
            summary["runs"] += 1
            summary["broadcast_ok_count"] += record["broadcast_ok"]
            # Every record lists its pair rows in ALL_PAIRS order.
            for tally, row in zip(by_pair, record["pairs"], strict=True):
                tally["runs"] += 1
                tally["agree" if row["agrees_with_paper"] else "disagree"] += 1
                tally["entangled_count"] += row["classification"] == ENTANGLED
            total += transcript.p1 * transcript.p2
            yield record
        if total_check:
            if not abs(total - 1.0) <= 1e-10:
                raise InvariantViolation(
                    f"branch probabilities sum to {total!r}, expected 1 within 1e-10"
                )
            summary["probability_total"] = _rounded(("probability_total",), (total,))[0]

    return _checked(request, records(), summary)


def stream_single(request: RunRequest) -> dict:
    return _protocol_report(request, [(request.params, request.branch1, request.branch2)])


def stream_branches(request: RunRequest) -> dict:
    runs = ((request.params, b1, b2) for b1 in BRANCH_ORDER for b2 in BRANCH_ORDER)
    return _protocol_report(request, runs, total_check=True)


def _default_rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``, built from the only ``numpy.random``
    modules a seeded draw calls, without OpenSSL.

    A seeded ``Generator(PCG64(seed))`` needs five of the package's ten
    extension modules: ``_generator``, ``_pcg64``, ``bit_generator``,
    ``_common`` and ``_bounded_integers``.  The package ``__init__`` also
    loads ``mtrand``, ``_mt19937``, ``_philox``, ``_sfc64`` and ``_pickle``,
    about 0.85 MiB of peak RSS.  So when ``numpy.random`` is not loaded yet,
    the package is made from its spec without running its ``__init__``, and
    only ``_generator`` is imported into it.  Its first lookup of a name it
    lacks (``RandomState``, ``from numpy.random import *``, ``dir()``) runs
    the real ``__init__``, which reuses the loaded submodules.

    ``bit_generator`` runs ``from secrets import randbits`` at import, only
    to seed generators that get no seed; ``secrets`` imports ``hmac``, which
    loads ``_hashlib`` and with it libcrypto, about 3.5 MiB.  So that import
    sees a stand-in ``secrets`` whose ``randbits`` is
    ``random.SystemRandom().getrandbits``, the function the real module
    exports, and an unseeded generator still draws OS entropy.  The stand-in
    is removed afterwards, so a later ``import secrets`` gets the real
    module.  This assumes no other thread imports ``numpy.random`` or
    ``secrets`` during that one import; the CLI has one thread.
    """
    if "numpy.random" not in sys.modules:
        spec = importlib.util.find_spec("numpy.random")
        package = importlib.util.module_from_spec(spec)
        sys.modules["numpy.random"] = np.random = package
        stand_in = "secrets" not in sys.modules
        if stand_in:
            secrets = sys.modules["secrets"] = ModuleType("secrets")
            secrets.randbits = random.SystemRandom().getrandbits
        try:
            importlib.import_module("numpy.random._generator")
        except BaseException:
            # The submodules this import loaded go too, so that a later
            # import of the package loads them again as its attributes.
            for name in [name for name in sys.modules if name.startswith("numpy.random")]:
                del sys.modules[name]
            del np.random
            raise
        finally:
            if stand_in:
                del sys.modules["secrets"]

        def complete() -> None:
            del package.__getattr__, package.__dir__
            spec.loader.exec_module(package)

        def __getattr__(name: str):
            complete()
            return getattr(package, name)

        def __dir__() -> list[str]:
            complete()
            return dir(package)

        package.__getattr__, package.__dir__ = __getattr__, __dir__
    return np.random._generator.Generator(np.random._pcg64.PCG64(seed))


def _sweep_draws(seed: int) -> Iterator[WParams]:
    """Parameter triples drawn uniformly on the positive octant of the unit
    sphere, rejecting draws with any component below the floor, without
    end."""
    rng = _default_rng(seed)
    while True:
        vec = np.abs(rng.standard_normal(3))
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            continue
        vec /= norm
        if float(vec.min()) < SWEEP_COMPONENT_FLOOR:
            continue
        yield WParams(float(vec[0]), float(vec[1]), float(vec[2]))


def sweep_params(count: int, seed: int) -> list[WParams]:
    """The first ``count`` sweep draws of ``seed``."""
    return list(itertools.islice(_sweep_draws(seed), count))


def stream_sweep(request: RunRequest) -> dict:
    branch = BRANCH_ORDER[0]
    draws = itertools.islice(_sweep_draws(request.seed), request.sweep_count)
    return _protocol_report(request, ((params, branch, branch) for params in draws))


def stream_background(request: RunRequest) -> dict:
    bounds = ("lower", "upper")
    # Found before the first row: every csv row repeats it.
    summary = {
        "points": request.grid,
        "interval": dict(zip(bounds, _rounded(bounds, locate_broadcast_interval()))),
    }
    grid = (i / (request.grid + 1) for i in range(1, request.grid + 1))

    def rows() -> Iterator[dict]:
        for result in _by_stack(two_qubit_broadcasts, grid, BROADCAST_STACK_POINTS):
            nonlocal_verdict, local_verdict = result.nonlocal_verdict, result.local_verdict
            numbers = _rounded(
                _BACKGROUND_NUMBERS,
                (result.alpha_sq, nonlocal_verdict.min_pt_eigenvalue, local_verdict.min_pt_eigenvalue),
            )
            cells = (*numbers, nonlocal_verdict.classification, local_verdict.classification)
            yield dict(zip(_BACKGROUND_FIELDS, cells))

    return _checked(request, rows(), summary)


# Each mode's runner: its report, with the runs streamed.
RUNNERS = {
    "single": stream_single,
    "branches": stream_branches,
    "sweep": stream_sweep,
    "background": stream_background,
}


def run_single(request: RunRequest) -> dict:
    return collect(stream_single(request))


def run_branches(request: RunRequest) -> dict:
    return collect(stream_branches(request))


def run_sweep(request: RunRequest) -> dict:
    return collect(stream_sweep(request))


def run_background(request: RunRequest) -> dict:
    return collect(stream_background(request))


# ---------------------------------------------------------------------------
# Schema


# A report's parts and their fields: the header, each record (of its mode's
# row kind) and the summary.
_HEADER_FIELDS = {
    "version": _STRING,
    "schema_version": const(SCHEMA_VERSION),
    "request": _REQUEST,
}
_PROTOCOL_RUN = closed(
    _RUN_FIELDS, [name for name in _RUN_FIELDS if name not in _OPTIONAL_RUN_FIELDS]
)
_ROW_FIELDS = {
    "single": _PROTOCOL_RUN,
    "branches": _PROTOCOL_RUN,
    "sweep": _PROTOCOL_RUN,
    "background": closed(_BACKGROUND_FIELDS),
}
_SUMMARY = typed("object")
# Each mode's whole report: the parts as one object, whose schema is the one
# report_schema publishes.
_REPORTS = {
    mode: closed({**_HEADER_FIELDS, "runs": array(row), "summary": _SUMMARY})
    for mode, row in _ROW_FIELDS.items()
}


def report_schema(mode: str) -> dict:
    """The Draft-7 JSON schema every report of ``mode`` satisfies, as a fresh
    copy: editing it changes neither the checks nor a later caller's schema."""
    return copy.deepcopy({"$schema": DRAFT7, **_REPORTS[mode].schema})


def _check(field: Field, value, *path: str | int):
    """``value`` once it passes ``field``, found at ``path`` (leaf first)
    in the report; otherwise an InvariantViolation naming the path and
    the rule."""
    try:
        field.check(value)
    except SchemaFailure as failure:
        failure.path.extend(path)
        raise InvariantViolation(f"report failed schema validation: {failure}") from None
    return value


def _checked(request: RunRequest, records: Iterable[dict], summary: dict) -> dict:
    """A request's report, keyed as the whole report is: the header as built
    (its request passed its check when it was made), then ``runs``, which
    yields each record once it passes its check (the first one now), then
    ``summary``, which ``records`` completes as they are read and which is
    checked once the last one has passed."""
    row = _ROW_FIELDS[request.mode]

    def runs() -> Iterator[dict]:
        for index, record in enumerate(records):
            yield _check(row, record, index, "runs")
        _check(_SUMMARY, summary, "summary")

    checked = runs()
    first = list(itertools.islice(checked, 1))
    return {
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "request": _request_block(request),
        "runs": itertools.chain(first, checked),
        "summary": summary,
    }


def validate_report(report: dict) -> None:
    """Check a whole report with its mode's report field.  A report naming
    none of ``MODES`` is checked with the first mode's field, whose request
    check rejects it as every mode's would."""
    try:
        field = _REPORTS[report["request"]["mode"]]
    except (KeyError, TypeError):
        field = _REPORTS[MODES[0]]
    _check(field, report)


# ---------------------------------------------------------------------------
# Rendering


Write = Callable[[str], object]

_CONTAINERS = (dict, list, tuple)


def _not_serializable(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@lru_cache(maxsize=None)
def _scalar_encoder(depth: int):
    """CPython's C encoder for the items of a container nested ``depth``
    levels deep: its item separator breaks the line and indents the next
    item."""
    # Imported on first use: csv and text runs write no JSON.  These are the
    # objects json.encoder re-exports, without loading the json package.
    from _json import encode_basestring_ascii, make_encoder

    return make_encoder(
        None,  # no circular-reference markers
        _not_serializable,
        encode_basestring_ascii,
        None,  # no indent: the item separator carries it
        ": ",
        ",\n" + "  " * (depth + 1),
        False,  # sort_keys
        False,  # skipkeys
        False,  # allow_nan
    )


def _dumps(value, depth: int) -> str:
    """``value``, nested ``depth`` levels deep, as ``json.dumps(value,
    indent=2, allow_nan=False)`` writes it (for str keys).  Only the levels
    holding containers are walked here; every other container is one C
    encoder call, with the line breaks after its opening and before its
    closing bracket added here."""
    if not isinstance(value, _CONTAINERS) or not value:
        return "".join(_scalar_encoder(depth)(value, 0))
    is_dict = isinstance(value, dict)
    members = value.values() if is_dict else value
    indent = "\n" + "  " * (depth + 1)
    if any(isinstance(member, _CONTAINERS) for member in members):
        items = [_dumps(member, depth + 1) for member in members]
        if is_dict:
            items = [f"{_dumps(key, depth)}: {item}" for key, item in zip(value, items)]
        inner = ("," + indent).join(items)
    else:
        inner = "".join(_scalar_encoder(depth)(value, 0))[1:-1]
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{indent}{inner}\n{'  ' * depth}{closing}"


def _written(emit: Callable[[object, Write], None], report, write: Write | None):
    """Run ``emit`` on the report into ``write``; without one, return the text."""
    chunks: list[str] = []
    emit(report, chunks.append if write is None else write)
    return "".join(chunks) if write is None else None


def _emit_json(report: dict, write: Write) -> None:
    header = "".join(
        f"\n  {_dumps(key, 1)}: {_dumps(value, 1)},"
        for key, value in report.items()
        if key not in ("runs", "summary")
    )
    write("{" + header + '\n  "runs": [')
    separator = "\n    "
    for record in report["runs"]:
        write(separator + _dumps(record, 2))
        separator = ",\n    "
    closing = "\n  ]" if separator[0] == "," else "]"
    # The summary is complete once the runs are written.
    write(f'{closing},\n  "summary": {_dumps(report["summary"], 1)}\n}}\n')


def render_json(report, write: Write | None = None) -> str | None:
    """A report as ``json.dumps(report, indent=2, allow_nan=False)`` text
    and a final newline; given ``write``, the text is passed to it one
    record at a time and None is returned."""
    return _written(_emit_json, report, write)


# The per-run cells the protocol csv repeats before each pair row's fields.
_RUN_CSV_COLUMNS = (
    "run_index", "alpha", "beta", "gamma", "branch1", "branch2", "apply_unitaries", "p1", "p2"
)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format15(value)
    return str(value)


def _emit_csv(report: dict, write: Write) -> None:
    import csv  # json and text runs write no csv

    writer = csv.writer(SimpleNamespace(write=write), lineterminator="\n")
    if report["request"]["mode"] == "background":
        writer.writerow((*_BACKGROUND_FIELDS, "interval_lower", "interval_upper"))
        # Found before the first row, so complete before the runs are read.
        interval = report["summary"]["interval"]
        bounds = [_csv_cell(interval["lower"]), _csv_cell(interval["upper"])]
        for row in report["runs"]:
            writer.writerow([*(_csv_cell(row[name]) for name in _BACKGROUND_FIELDS), *bounds])
        return
    writer.writerow((*_RUN_CSV_COLUMNS, *_PAIR_FIELDS, "broadcast_ok"))
    for record in report["runs"]:
        params, branches = record["params"], record["branches"]
        run_cells = (
            record["index"], params["alpha"], params["beta"], params["gamma"],
            branches["round1"], branches["round2"],
            record["apply_unitaries"], record["p1"], record["p2"],
        )
        head = [_csv_cell(v) for v in run_cells]
        tail = _csv_cell(record["broadcast_ok"])
        writer.writerows(
            [*head, *(_csv_cell(row[name]) for name in _PAIR_FIELDS), tail]
            for row in record["pairs"]
        )


def render_csv(report, write: Write | None = None) -> str | None:
    """A report as csv text; given ``write``, each row is passed to it as
    it is made and None is returned."""
    return _written(_emit_csv, report, write)


def _text_probability(record: dict, name: str) -> str:
    text = format15(record[name])
    note = record.get(f"{name}_fraction")
    return f"{text} (= {note})" if note else text


def _lines(lines: list[str], write: Write) -> None:
    write("\n".join(lines) + "\n")


def _emit_text(report: dict, write: Write) -> None:
    request = report["request"]
    _lines(
        [
            f"wbcast report v{report['version']} (schema {report['schema_version']})",
            f"mode: {request['mode']}",
        ],
        write,
    )

    if request["mode"] == "background":
        _lines(["", f"{'alpha_sq':>12}  {'nonlocal min PT':>18}  {'local min PT':>18}  verdicts"],
               write)
        for row in report["runs"]:
            _lines(
                [
                    f"{format15(row['alpha_sq']):>12}  "
                    f"{format15(row['nonlocal_min_pt_eigenvalue']):>18}  "
                    f"{format15(row['local_min_pt_eigenvalue']):>18}  "
                    f"{row['nonlocal_classification']}/{row['local_classification']}"
                ],
                write,
            )
        interval = report["summary"]["interval"]
        _lines(
            [
                "",
                "non-local pair inseparable for alpha_sq in "
                f"({format15(interval['lower'])}, {format15(interval['upper'])})",
            ],
            write,
        )
        return

    for record in report["runs"]:
        params = record["params"]
        lines = [
            "",
            f"run {record['index']}: alpha={format15(params['alpha'])} "
            f"beta={format15(params['beta'])} gamma={format15(params['gamma'])} "
            f"branches {record['branches']['round1']}/{record['branches']['round2']} "
            f"unitaries={'on' if record['apply_unitaries'] else 'off'}",
        ]
        if record.get("note"):
            lines.append(f"  note: {record['note']}")
        lines.append(
            f"  p1 = {_text_probability(record, 'p1')}   "
            f"p2 = {_text_probability(record, 'p2')}"
        )
        five = record["five_qubit"]
        lines.append(
            f"  five-qubit state ({','.join(five['labels'])}): "
            f"trace = {format15(five['trace'])}, purity = {format15(five['purity'])}"
        )
        lines.append(
            f"  {'pair':<5}{'kind':<10}{'min PT eig':>22}{'W3':>22}{'W4':>22}"
            f"{'negativity':>22}  {'verdict':<11}{'claimed':<11}agreement"
        )
        for row in record["pairs"]:
            lines.append(
                f"  {row['pair']:<5}{row['kind']:<10}"
                f"{format15(row['min_pt_eigenvalue']):>22}"
                f"{format15(row['w3']):>22}{format15(row['w4']):>22}"
                f"{format15(row['negativity']):>22}  "
                f"{row['classification']:<11}{row['paper_claim']:<11}"
                f"{'agrees' if row['agrees_with_paper'] else 'DISAGREES'}"
            )
        lines.append(f"  broadcast_ok: {'true' if record['broadcast_ok'] else 'false'}")
        _lines(lines, write)

    summary = report["summary"]
    lines = [
        "",
        "paper claims comparison:",
        f"  {'pair':<5}{'kind':<10}{'claimed':<11}{'runs':>5}{'agree':>7}{'disagree':>9}  marker",
    ]
    for row in summary["pair_agreement"]:
        marker = "agrees" if row["disagree"] == 0 else "DISAGREES"
        lines.append(
            f"  {row['pair']:<5}{row['kind']:<10}{row['paper_claim']:<11}"
            f"{row['runs']:>5}{row['agree']:>7}{row['disagree']:>9}  {marker}"
        )
    if "probability_total" in summary:
        lines.append("")
        lines.append(f"total branch probability: {format15(summary['probability_total'])}")
    lines.append("")
    lines.append(f"broadcast_ok in {summary['broadcast_ok_count']} of {summary['runs']} runs")
    _lines(lines, write)


def render_text(report, write: Write | None = None) -> str | None:
    """A report as text; given ``write``, each run's block is passed to it
    as it is made and None is returned."""
    return _written(_emit_text, report, write)


def render(report, fmt: str, write: Write | None = None) -> str | None:
    """The report as ``fmt`` text; given ``write``, that text is passed to
    it part by part and None is returned."""
    if fmt == "json":
        return render_json(report, write)
    if fmt == "csv":
        return render_csv(report, write)
    if fmt == "text":
        return render_text(report, write)
    raise ValueError(f"unknown format {fmt!r}")
