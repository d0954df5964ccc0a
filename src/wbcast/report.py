"""Report assembly, serialization and schema validation.

Reports are plain JSON-compatible dictionaries.  Every float is rounded to 15
significant digits before emission, so identical requests (and identical
seeds) produce byte-identical output in every format.  Probabilities that sit
within 1e-12 of a small rational p/q (q <= 1000) get a fraction annotation
alongside the numeric value.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass
from fractions import Fraction

import jsonschema
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
    run_protocol,
    two_qubit_broadcast,
)
from .registers import InvariantViolation
from .separability import ENTANGLED, SEPARABLE

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
    out: str | None = None
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


def _round_floats(obj):
    if isinstance(obj, float):
        return round15(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _request_block(request: RunRequest) -> dict:
    block: dict = {"mode": request.mode, "format": request.fmt}
    if request.params is not None:
        block["alpha"] = request.params.alpha
        block["beta"] = request.params.beta
        block["gamma"] = request.params.gamma
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


def _pair_rows(transcript: Transcript) -> list[dict]:
    rows = []
    for key, verdict in transcript.pairs.items():
        rows.append(
            {
                "pair": key,
                "kind": "local" if key in _LOCAL_KEYS else "nonlocal",
                "min_pt_eigenvalue": verdict.min_pt_eigenvalue,
                "w3": verdict.w3,
                "w4": verdict.w4,
                "negativity": verdict.negativity,
                "classification": verdict.classification,
                "paper_claim": verdict.paper_claim,
                "agrees_with_paper": verdict.agrees_with_paper,
            }
        )
    return rows


def _run_record(index: int, transcript: Transcript) -> dict:
    config = transcript.config
    pairs = _pair_rows(transcript)
    disagreeing = [row["pair"] for row in pairs if not row["agrees_with_paper"]]
    record = {
        "index": index,
        "params": {
            "alpha": config.params.alpha,
            "beta": config.params.beta,
            "gamma": config.params.gamma,
        },
        "degenerate_input": bool(config.params.zero_components()),
        "branches": {"round1": str(config.branch1), "round2": str(config.branch2)},
        "apply_unitaries": config.apply_unitaries,
        "p1": transcript.p1,
        "p2": transcript.p2,
        "joint_probability": transcript.p1 * transcript.p2,
        "five_qubit": {
            "labels": [str(l) for l in transcript.five_qubit.labels],
            "trace": float(np.real(np.trace(transcript.five_qubit.rho))),
            "purity": transcript.five_qubit.purity(),
            "eigenvalues": [float(v) for v in transcript.five_qubit.eigenvalues()],
        },
        "pairs": pairs,
        "broadcast_ok": transcript.broadcast_ok,
        "paper_agreement": {
            "agree": len(pairs) - len(disagreeing),
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
            "pair": key,
            "kind": "local" if key in _LOCAL_KEYS else "nonlocal",
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
    report = _round_floats(report)
    validate_report(report)
    return report


def run_single(request: RunRequest) -> dict:
    config = ProtocolConfig(
        params=request.params,
        branch1=request.branch1,
        branch2=request.branch2,
        apply_unitaries=request.apply_unitaries,
    )
    records = [_run_record(0, run_protocol(config))]
    return _assemble(request, records, _summary_block(records))


def run_branches(request: RunRequest) -> dict:
    records = []
    total = 0.0
    index = 0
    for branch1 in BRANCH_ORDER:
        for branch2 in BRANCH_ORDER:
            config = ProtocolConfig(
                params=request.params,
                branch1=branch1,
                branch2=branch2,
                apply_unitaries=request.apply_unitaries,
            )
            record = _run_record(index, run_protocol(config))
            total += record["joint_probability"]
            records.append(record)
            index += 1
    if abs(total - 1.0) > 1e-10:
        raise InvariantViolation(
            f"branch probabilities sum to {total!r}, expected 1 within 1e-10"
        )
    summary = _summary_block(records)
    summary["probability_total"] = total
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
    default_branch = BRANCH_ORDER[0]
    records = []
    for index, params in enumerate(sweep_params(request.sweep_count, request.seed)):
        config = ProtocolConfig(
            params=params,
            branch1=default_branch,
            branch2=default_branch,
            apply_unitaries=request.apply_unitaries,
        )
        records.append(_run_record(index, run_protocol(config)))
    return _assemble(request, records, _summary_block(records))


def run_background(request: RunRequest) -> dict:
    rows = []
    for i in range(1, request.grid + 1):
        alpha_sq = i / (request.grid + 1)
        result = two_qubit_broadcast(alpha_sq)
        rows.append(
            {
                "alpha_sq": alpha_sq,
                "nonlocal_min_pt_eigenvalue": result.nonlocal_verdict.min_pt_eigenvalue,
                "local_min_pt_eigenvalue": result.local_verdict.min_pt_eigenvalue,
                "nonlocal_classification": result.nonlocal_verdict.classification,
                "local_classification": result.local_verdict.classification,
            }
        )
    lower, upper = locate_broadcast_interval()
    summary = {
        "points": request.grid,
        "interval": {"lower": lower, "upper": upper},
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


_CLASSIFICATION = {"enum": [SEPARABLE, ENTANGLED]}

_PAIR_RECORD_SCHEMA = {
    "type": "object",
    "required": [
        "pair",
        "kind",
        "min_pt_eigenvalue",
        "w3",
        "w4",
        "negativity",
        "classification",
        "paper_claim",
        "agrees_with_paper",
    ],
    "properties": {
        "pair": {"type": "string", "pattern": "^[1-9]{2}$"},
        "kind": {"enum": ["nonlocal", "local"]},
        "min_pt_eigenvalue": {"type": "number"},
        "w3": {"type": "number"},
        "w4": {"type": "number"},
        "negativity": {"type": "number", "minimum": 0},
        "classification": _CLASSIFICATION,
        "paper_claim": _CLASSIFICATION,
        "agrees_with_paper": {"type": "boolean"},
    },
    "additionalProperties": False,
}

_PROTOCOL_RUN_SCHEMA = {
    "type": "object",
    "required": [
        "index",
        "params",
        "degenerate_input",
        "branches",
        "apply_unitaries",
        "p1",
        "p2",
        "joint_probability",
        "five_qubit",
        "pairs",
        "broadcast_ok",
        "paper_agreement",
    ],
    "properties": {
        "index": {"type": "integer", "minimum": 0},
        "params": {
            "type": "object",
            "required": ["alpha", "beta", "gamma"],
            "properties": {
                "alpha": {"type": "number"},
                "beta": {"type": "number"},
                "gamma": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "degenerate_input": {"type": "boolean"},
        "branches": {
            "type": "object",
            "required": ["round1", "round2"],
            "properties": {
                "round1": {"type": "string", "pattern": "^[UD]{3}$"},
                "round2": {"type": "string", "pattern": "^[UD]{3}$"},
            },
            "additionalProperties": False,
        },
        "apply_unitaries": {"type": "boolean"},
        "p1": {"type": "number", "exclusiveMinimum": 0},
        "p2": {"type": "number", "exclusiveMinimum": 0},
        "p1_fraction": {"type": "string"},
        "p2_fraction": {"type": "string"},
        "joint_probability": {"type": "number", "exclusiveMinimum": 0},
        "five_qubit": {
            "type": "object",
            "required": ["labels", "trace", "purity", "eigenvalues"],
            "properties": {
                "labels": {
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 5,
                    "maxItems": 5,
                },
                "trace": {"type": "number"},
                "purity": {"type": "number"},
                "eigenvalues": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 32,
                    "maxItems": 32,
                },
            },
            "additionalProperties": False,
        },
        "pairs": {
            "type": "array",
            "items": _PAIR_RECORD_SCHEMA,
            "minItems": 11,
            "maxItems": 11,
        },
        "broadcast_ok": {"type": "boolean"},
        "paper_agreement": {
            "type": "object",
            "required": ["agree", "disagree", "disagreeing_pairs"],
            "properties": {
                "agree": {"type": "integer", "minimum": 0},
                "disagree": {"type": "integer", "minimum": 0},
                "disagreeing_pairs": {
                    "type": "array",
                    "items": {"type": "string"},
                },
            },
            "additionalProperties": False,
        },
        "note": {"type": "string"},
    },
    "additionalProperties": False,
}

_BACKGROUND_ROW_SCHEMA = {
    "type": "object",
    "required": [
        "alpha_sq",
        "nonlocal_min_pt_eigenvalue",
        "local_min_pt_eigenvalue",
        "nonlocal_classification",
        "local_classification",
    ],
    "properties": {
        "alpha_sq": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "nonlocal_min_pt_eigenvalue": {"type": "number"},
        "local_min_pt_eigenvalue": {"type": "number"},
        "nonlocal_classification": _CLASSIFICATION,
        "local_classification": _CLASSIFICATION,
    },
    "additionalProperties": False,
}

def _report_schema(run_schema: dict) -> dict:
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "type": "object",
        "required": ["version", "schema_version", "request", "runs", "summary"],
        "properties": {
            "version": {"type": "string"},
            "schema_version": {"const": SCHEMA_VERSION},
            "request": {
                "type": "object",
                "required": ["mode", "format"],
                "properties": {
                    "mode": {"enum": list(MODES)},
                    "format": {"enum": list(FORMATS)},
                    "alpha": {"type": "number"},
                    "beta": {"type": "number"},
                    "gamma": {"type": "number"},
                    "branch1": {"type": "string", "pattern": "^[UD]{3}$"},
                    "branch2": {"type": "string", "pattern": "^[UD]{3}$"},
                    "apply_unitaries": {"type": "boolean"},
                    "sweep_count": {"type": "integer", "minimum": 1},
                    "seed": {"type": "integer", "minimum": 0},
                    "grid": {"type": "integer", "minimum": 100},
                },
                "additionalProperties": False,
            },
            "runs": {"type": "array", "items": run_schema},
            "summary": {"type": "object"},
        },
        "additionalProperties": False,
    }


_RUN_SCHEMA_BY_MODE = {
    "single": _PROTOCOL_RUN_SCHEMA,
    "branches": _PROTOCOL_RUN_SCHEMA,
    "sweep": _PROTOCOL_RUN_SCHEMA,
    "background": _BACKGROUND_ROW_SCHEMA,
}


@functools.lru_cache(maxsize=None)
def _validator(mode: str) -> jsonschema.Draft7Validator:
    """The compiled validator for one mode, built and checked on first use."""
    schema = _report_schema(_RUN_SCHEMA_BY_MODE[mode])
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def validate_report(report: dict) -> None:
    request = report.get("request")
    mode = request.get("mode") if isinstance(request, dict) else None
    # Every mode's schema requires a known request.mode, so a report with a
    # missing or unknown mode fails whichever schema checks it.
    validator = _validator(mode if mode in MODES else MODES[0])
    error = jsonschema.exceptions.best_match(validator.iter_errors(report))
    if error is not None:
        raise InvariantViolation(f"report failed schema validation: {error.message}")


# ---------------------------------------------------------------------------
# Rendering


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


_PROTOCOL_CSV_COLUMNS = (
    "run_index",
    "alpha",
    "beta",
    "gamma",
    "branch1",
    "branch2",
    "apply_unitaries",
    "p1",
    "p2",
    "pair",
    "kind",
    "min_pt_eigenvalue",
    "w3",
    "w4",
    "negativity",
    "classification",
    "paper_claim",
    "agrees_with_paper",
    "broadcast_ok",
)

_BACKGROUND_CSV_COLUMNS = (
    "alpha_sq",
    "nonlocal_min_pt_eigenvalue",
    "local_min_pt_eigenvalue",
    "nonlocal_classification",
    "local_classification",
    "interval_lower",
    "interval_upper",
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
        writer.writerow(_BACKGROUND_CSV_COLUMNS)
        interval = report["summary"]["interval"]
        for row in report["runs"]:
            writer.writerow(
                _csv_cell(v)
                for v in (
                    row["alpha_sq"],
                    row["nonlocal_min_pt_eigenvalue"],
                    row["local_min_pt_eigenvalue"],
                    row["nonlocal_classification"],
                    row["local_classification"],
                    interval["lower"],
                    interval["upper"],
                )
            )
    else:
        writer.writerow(_PROTOCOL_CSV_COLUMNS)
        for record in report["runs"]:
            for row in record["pairs"]:
                writer.writerow(
                    _csv_cell(v)
                    for v in (
                        record["index"],
                        record["params"]["alpha"],
                        record["params"]["beta"],
                        record["params"]["gamma"],
                        record["branches"]["round1"],
                        record["branches"]["round2"],
                        record["apply_unitaries"],
                        record["p1"],
                        record["p2"],
                        row["pair"],
                        row["kind"],
                        row["min_pt_eigenvalue"],
                        row["w3"],
                        row["w4"],
                        row["negativity"],
                        row["classification"],
                        row["paper_claim"],
                        row["agrees_with_paper"],
                        record["broadcast_ok"],
                    )
                )
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
            marker = "agrees" if row["agrees_with_paper"] else "DISAGREES"
            lines.append(
                f"  {row['pair']:<5}{row['kind']:<10}"
                f"{format15(row['min_pt_eigenvalue']):>22}"
                f"{format15(row['w3']):>22}{format15(row['w4']):>22}"
                f"{format15(row['negativity']):>22}  "
                f"{row['classification']:<11}{row['paper_claim']:<11}{marker}"
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
