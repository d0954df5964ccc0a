"""Report assembly, serialization and schema validation.

Reports are plain JSON-compatible dictionaries.  Every float is rounded to 15
significant digits where its record is built, so identical requests (and
identical seeds) produce byte-identical output in every format; a NaN or
infinity is an invariant failure.  Probabilities that sit
within 1e-12 of a small rational p/q (q <= 1000) get a fraction annotation
alongside the numeric value.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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

MODES = ("single", "branches", "sweep", "background")
FORMATS = ("json", "csv", "text")

# Sweep draws reject any component of the direction below this floor.
SWEEP_COMPONENT_FLOOR = 0.05

_LOCAL_KEYS = {pair_key(p) for p in LOCAL_PAIRS}


@dataclass(frozen=True)
class RunRequest:
    """Validated CLI request, echoed verbatim into the report."""

    mode: str
    params: WParams | None = None
    branch1: MachineBranch | None = None
    branch2: MachineBranch | None = None
    apply_unitaries: bool = True
    sweep_count: int | None = None
    seed: int | None = None
    grid: int | None = None
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.mode in ("single", "branches") and self.params is None:
            raise ValueError(f"mode {self.mode!r} requires alpha, beta, gamma")
        if self.mode == "single":
            if self.branch1 is None or self.branch2 is None:
                raise ValueError("single mode requires both branches")
        if self.mode == "sweep":
            if self.sweep_count is None or self.sweep_count < 1:
                raise ValueError("sweep mode requires a positive draw count")
            if self.seed is None:
                raise ValueError("sweep mode requires a seed")
            if self.seed < 0:
                raise ValueError(f"sweep seed must be non-negative, got {self.seed}")
        if self.mode == "background":
            if self.grid is None or self.grid < 100:
                raise ValueError("background mode requires a grid of at least 100 points")


def round15(x: float) -> float:
    """Round to 15 significant digits, the serialization precision."""
    return float(format(float(x), ".15g"))


def format15(x: float) -> str:
    return format(float(x), ".15g")


def fraction_note(x: float) -> str | None:
    """'p/q' when x is within 1e-12 of a rational with denominator <= 1000."""
    frac = Fraction(x).limit_denominator(1000)
    if abs(float(frac) - x) < 1e-12:
        return f"{frac.numerator}/{frac.denominator}"
    return None


def _rounded(key: str, value):
    """A report value as emitted: a float rounded to 15 digits, anything else
    as it is.  A NaN or infinity, which JSON cannot carry, raises an
    InvariantViolation naming the field ``key``."""
    if not isinstance(value, float):
        return value
    if not math.isfinite(value):
        raise InvariantViolation(f"report field {key!r} is not finite ({value})")
    return round15(value)


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
# The pair-row fields between the head and the paper's claim, copied by
# _pair_row from the PairVerdict attributes of the same names.
_VERDICT_FIELDS = tuple(_PAIR_FIELDS)[2:-2]

_BACKGROUND_FIELDS = {
    "alpha_sq": typed("number", exclusiveMinimum=0, exclusiveMaximum=1),
    "nonlocal_min_pt_eigenvalue": _NUMBER,
    "local_min_pt_eigenvalue": _NUMBER,
    "nonlocal_classification": _CLASSIFICATION,
    "local_classification": _CLASSIFICATION,
}

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


# ---------------------------------------------------------------------------
# Records


def _request_block(request: RunRequest) -> dict:
    block: dict = {"mode": request.mode, "format": request.fmt}
    if request.params is not None:
        block.update(_params_block(request.params))
    if request.branch1 is not None:
        block["branch1"] = str(request.branch1)
    if request.branch2 is not None:
        block["branch2"] = str(request.branch2)
    if request.mode in ("single", "branches", "sweep"):
        block["apply_unitaries"] = request.apply_unitaries
    if request.sweep_count is not None:
        block["sweep_count"] = request.sweep_count
    if request.seed is not None:
        block["seed"] = request.seed
    if request.grid is not None:
        block["grid"] = request.grid
    return block


def _params_block(params: WParams) -> dict:
    return {name: _rounded(name, getattr(params, name)) for name in ("alpha", "beta", "gamma")}


def _pair_head(key: str) -> dict:
    """The fields a pair row and a pair's summary row open with."""
    return {"pair": key, "kind": "local" if key in _LOCAL_KEYS else "nonlocal"}


def _pair_row(key: str, verdict: PairVerdict) -> dict:
    claim = PAPER_CLAIMS[key]
    row = _pair_head(key)
    row.update((name, _rounded(name, getattr(verdict, name))) for name in _VERDICT_FIELDS)
    row.update(paper_claim=claim, agrees_with_paper=verdict.classification == claim)
    return row


def _run_record(index: int, transcript: Transcript) -> dict:
    config = transcript.config
    five = transcript.five_qubit
    rows = [_pair_row(key, verdict) for key, verdict in transcript.pairs.items()]
    disagreeing = [row["pair"] for row in rows if not row["agrees_with_paper"]]
    record = {
        "index": index,
        "params": _params_block(config.params),
        "degenerate_input": bool(config.params.zero_components()),
        "branches": {"round1": str(config.branch1), "round2": str(config.branch2)},
        "apply_unitaries": config.apply_unitaries,
        "p1": _rounded("p1", transcript.p1),
        "p2": _rounded("p2", transcript.p2),
        "joint_probability": _rounded("joint_probability", transcript.p1 * transcript.p2),
        "five_qubit": {
            "labels": [str(l) for l in five.labels],
            "trace": _rounded("trace", float(np.real(np.trace(five.rho)))),
            "purity": _rounded("purity", five.purity()),
            "eigenvalues": [_rounded("eigenvalues", float(v)) for v in five.eigenvalues()],
        },
        "pairs": rows,
        "broadcast_ok": transcript.broadcast_ok,
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


def _summary_block(records: list[dict]) -> dict:
    by_pair = [
        {
            **_pair_head(key),
            "paper_claim": PAPER_CLAIMS[key],
            "runs": len(records),
            "agree": 0,
            "disagree": 0,
            "entangled_count": 0,
        }
        for key in map(pair_key, ALL_PAIRS)
    ]
    for record in records:
        # Every record lists its pair rows in ALL_PAIRS order.
        for tally, row in zip(by_pair, record["pairs"], strict=True):
            if row["agrees_with_paper"]:
                tally["agree"] += 1
            else:
                tally["disagree"] += 1
            if row["classification"] == ENTANGLED:
                tally["entangled_count"] += 1
    return {
        "runs": len(records),
        "broadcast_ok_count": sum(1 for r in records if r["broadcast_ok"]),
        "pair_agreement": by_pair,
    }


def _assemble(request: RunRequest, runs: list[dict], summary: dict) -> dict:
    report = {
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "request": _request_block(request),
        "runs": runs,
        "summary": summary,
    }
    validate_report(report)
    return report


def _protocol_records(
    request: RunRequest, runs: Iterable[tuple[WParams, MachineBranch, MachineBranch]]
) -> tuple[list[dict], float]:
    """Run the protocol on each (params, branch1, branch2) and record it.

    Also returns the unrounded joint probabilities summed left to right:
    sum() of floats is compensated on Python >= 3.12, which would change the
    total.  Each transcript is dropped once recorded, so at most one stack
    of them is alive.
    """
    configs = [ProtocolConfig(*run, request.apply_unitaries) for run in runs]
    records: list[dict] = []
    total = 0.0
    for index, transcript in enumerate(run_protocols(configs)):
        records.append(_run_record(index, transcript))
        total += transcript.p1 * transcript.p2
    return records, total


def run_single(request: RunRequest) -> dict:
    records, _ = _protocol_records(request, [(request.params, request.branch1, request.branch2)])
    return _assemble(request, records, _summary_block(records))


def run_branches(request: RunRequest) -> dict:
    records, total = _protocol_records(
        request, ((request.params, b1, b2) for b1 in BRANCH_ORDER for b2 in BRANCH_ORDER)
    )
    if not abs(total - 1.0) <= 1e-10:
        raise InvariantViolation(
            f"branch probabilities sum to {total!r}, expected 1 within 1e-10"
        )
    summary = _summary_block(records)
    summary["probability_total"] = _rounded("probability_total", total)
    return _assemble(request, records, summary)


def sweep_params(count: int, seed: int) -> list[WParams]:
    """Draw parameter triples uniformly on the positive octant of the unit
    sphere, rejecting draws with any component below the floor."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        vec = np.abs(rng.standard_normal(3))
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            continue
        vec /= norm
        if float(vec.min()) < SWEEP_COMPONENT_FLOOR:
            continue
        draws.append(WParams(float(vec[0]), float(vec[1]), float(vec[2])))
    return draws


def run_sweep(request: RunRequest) -> dict:
    branch = BRANCH_ORDER[0]
    draws = sweep_params(request.sweep_count, request.seed)
    records, _ = _protocol_records(request, ((params, branch, branch) for params in draws))
    return _assemble(request, records, _summary_block(records))


def run_background(request: RunRequest) -> dict:
    grid = [i / (request.grid + 1) for i in range(1, request.grid + 1)]
    rows = []
    for result in two_qubit_broadcasts(grid):
        cells = {
            "alpha_sq": result.alpha_sq,
            "nonlocal_min_pt_eigenvalue": result.nonlocal_verdict.min_pt_eigenvalue,
            "local_min_pt_eigenvalue": result.local_verdict.min_pt_eigenvalue,
            "nonlocal_classification": result.nonlocal_verdict.classification,
            "local_classification": result.local_verdict.classification,
        }
        rows.append({name: _rounded(name, value) for name, value in cells.items()})
    lower, upper = locate_broadcast_interval()
    summary = {
        "points": request.grid,
        "interval": {"lower": _rounded("lower", lower), "upper": _rounded("upper", upper)},
    }
    return _assemble(request, rows, summary)


RUNNERS = {
    "single": run_single,
    "branches": run_branches,
    "sweep": run_sweep,
    "background": run_background,
}


# ---------------------------------------------------------------------------
# Schema


def _report_field(run: Field) -> Field:
    return closed(
        {
            "version": _STRING,
            "schema_version": const(SCHEMA_VERSION),
            "request": closed(_REQUEST_FIELDS, ["mode", "format"]),
            "runs": array(run),
            "summary": typed("object"),
        }
    )


_PROTOCOL_REPORT = _report_field(
    closed(_RUN_FIELDS, [name for name in _RUN_FIELDS if name not in _OPTIONAL_RUN_FIELDS])
)
_REPORT_FIELDS = {
    "single": _PROTOCOL_REPORT,
    "branches": _PROTOCOL_REPORT,
    "sweep": _PROTOCOL_REPORT,
    "background": _report_field(closed(_BACKGROUND_FIELDS)),
}


def report_schema(mode: str) -> dict:
    """The Draft-7 JSON schema every report of ``mode`` satisfies, as a fresh
    copy: editing it changes neither the checks nor a later caller's schema."""
    return copy.deepcopy({"$schema": DRAFT7, **_REPORT_FIELDS[mode].schema})


def validate_report(report: dict) -> None:
    request = report.get("request") if isinstance(report, dict) else None
    mode = request.get("mode") if isinstance(request, dict) else None
    # Every mode's schema requires an object with a known request.mode, so a
    # report with a missing or unknown mode fails whichever schema checks it.
    try:
        _REPORT_FIELDS[mode if mode in MODES else MODES[0]].check(report)
    except SchemaFailure as failure:
        raise InvariantViolation(f"report failed schema validation: {failure}") from None


# ---------------------------------------------------------------------------
# Rendering


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


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


def render_csv(report: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if report["request"]["mode"] == "background":
        writer.writerow((*_BACKGROUND_FIELDS, "interval_lower", "interval_upper"))
        interval = report["summary"]["interval"]
        bounds = [_csv_cell(interval["lower"]), _csv_cell(interval["upper"])]
        for row in report["runs"]:
            writer.writerow([*(_csv_cell(row[name]) for name in _BACKGROUND_FIELDS), *bounds])
    else:
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
            for row in record["pairs"]:
                writer.writerow([*head, *(_csv_cell(row[name]) for name in _PAIR_FIELDS), tail])
    return buffer.getvalue()


def _text_probability(record: dict, name: str) -> str:
    text = format15(record[name])
    note = record.get(f"{name}_fraction")
    return f"{text} (= {note})" if note else text


def render_text(report: dict) -> str:
    lines: list[str] = []
    request = report["request"]
    lines.append(f"wbcast report v{report['version']} (schema {report['schema_version']})")
    lines.append(f"mode: {request['mode']}")

    if request["mode"] == "background":
        lines.append("")
        lines.append(f"{'alpha_sq':>12}  {'nonlocal min PT':>18}  {'local min PT':>18}  verdicts")
        for row in report["runs"]:
            lines.append(
                f"{format15(row['alpha_sq']):>12}  "
                f"{format15(row['nonlocal_min_pt_eigenvalue']):>18}  "
                f"{format15(row['local_min_pt_eigenvalue']):>18}  "
                f"{row['nonlocal_classification']}/{row['local_classification']}"
            )
        interval = report["summary"]["interval"]
        lines.append("")
        lines.append(
            "non-local pair inseparable for alpha_sq in "
            f"({format15(interval['lower'])}, {format15(interval['upper'])})"
        )
        return "\n".join(lines) + "\n"

    for record in report["runs"]:
        params = record["params"]
        lines.append("")
        lines.append(
            f"run {record['index']}: alpha={format15(params['alpha'])} "
            f"beta={format15(params['beta'])} gamma={format15(params['gamma'])} "
            f"branches {record['branches']['round1']}/{record['branches']['round2']} "
            f"unitaries={'on' if record['apply_unitaries'] else 'off'}"
        )
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
        header = (
            f"  {'pair':<5}{'kind':<10}{'min PT eig':>22}{'W3':>22}{'W4':>22}"
            f"{'negativity':>22}  {'verdict':<11}{'claimed':<11}agreement"
        )
        lines.append(header)
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

    summary = report["summary"]
    lines.append("")
    lines.append("paper claims comparison:")
    lines.append(
        f"  {'pair':<5}{'kind':<10}{'claimed':<11}{'runs':>5}{'agree':>7}{'disagree':>9}  marker"
    )
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
    lines.append(
        f"broadcast_ok in {summary['broadcast_ok_count']} of {summary['runs']} runs"
    )
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"unknown format {fmt!r}")
