#!/usr/bin/env python3
"""Benchmark of the wbcast CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; wbcast is loaded from ``src/``, no
install needed.  ``--workload all`` runs the three workloads in turn.

With ``--trace 0`` the benchmark is one client in a closed loop: it spawns
``python -m wbcast.cli`` with arguments generated from the seed, waits for it
to exit, checks the report and spawns the next, for ``--seconds``.  It
reports wall time (median and tail), verdict throughput, set-up time (fresh
``import wbcast.cli``) and peak RSS.  With ``--trace 1`` it calls
``wbcast.cli.main`` in-process on the same arguments instead, alternating
untraced calls with calls traced by wrapping the public functions of each
module, and reports per-layer times and counts.

Both modes also probe the exit-code contract once and write a results file
with provenance to ``perfbench/out/``.  The last line of standard output is
a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads
from workloads import Invocation, check_output, invocations, load_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One set-up probe (a fresh ``import wbcast.cli``) per this many invocations.
SETUP_EVERY = 3
SETUP_ARGS = ["-c", "import wbcast.cli"]
IMPORTTIME_SAMPLES = 3
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
INVOCATION_TIMEOUT_S = 60.0
MAX_LISTED_PROBLEMS = 20

# (name, arguments after the interpreter, expected exit code).  No CLI input
# reaches a zero-probability branch (every branch pair has probability at
# least 1/216), so the impossible-branch probe raises the probability floor
# in the child before calling main; the error still comes from the real
# measurement code and is mapped by the real CLI.
_CALL_MAIN = "import sys; from wbcast.cli import main; sys.exit(main(sys.argv[1:]))"
_SINGLE = ["single", "--alpha", "0.6", "--beta", "0.6", "--gamma", "0.52915"]
EXIT_PROBES = [
    ("bad_norm", ["-m", "wbcast.cli", "single", "--alpha", "1", "--beta", "1", "--gamma", "1"], 2),
    ("impossible_branch",
     ["-c", "import wbcast.cloner as c; c.MIN_BRANCH_PROBABILITY = 2.0; " + _CALL_MAIN, *_SINGLE], 3),
    ("negative_sweep_seed", ["-m", "wbcast.cli", "sweep", "--sweep", "1", "--seed", "-1"], 2),
    ("overflowing_amplitudes",
     ["-m", "wbcast.cli", "single", "--alpha", "1e200", "--beta", "1e200", "--gamma", "0"], 2),
]

# ---------------------------------------------------------------------------
# Child processes


@dataclass(frozen=True)
class Exit:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


# Interpreter settings that differ from how a user runs an installed wbcast
# (which has cached bytecode and buffered stdout); dropped for the children.
DROPPED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], env: dict[str, str]) -> Exit:
    """Run the interpreter with ``args`` and wait for it to exit.

    Wall time runs from just before the spawn to the reap; peak RSS comes
    from the child's own rusage.  A child still running after the timeout is
    killed and reported with a negative code."""
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], INVOCATION_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Exit(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def cli_args(inv: Invocation) -> list[str]:
    return ["-m", "wbcast.cli", *inv.argv]


def probe_exit_contract(env: dict[str, str]) -> dict:
    results = []
    for name, args, expected in EXIT_PROBES:
        code = spawn(args, env).code
        results.append({"probe": name, "expected": expected, "exit_code": code})
    violations = [r["probe"] for r in results if r["exit_code"] != r["expected"]]
    return {"attempted": len(results), "violations": violations, "probes": results}


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""

    def as_json(self) -> dict:
        return {"value": self.value, "unit": self.unit}


@dataclass
class Result:
    workload: str
    metrics: dict[str, Metric]
    attempted: int
    failed: int
    correct: bool
    problems: list[str]
    details: dict


# ---------------------------------------------------------------------------
# End-to-end run (trace 0)


def run_end_to_end(workload: str, seed: int, seconds: float, digests: dict) -> Result:
    env = child_env()
    spawn(SETUP_ARGS, env)  # untimed: compiles bytecode, warms the file cache

    problems = []
    setup: list[Exit] = []
    walls, rss, rates = [], [], []
    failed = 0
    sequence = invocations(workload, seed)
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        # Set-up probes are spread over the window, so that they see the same
        # machine conditions as the invocations they are compared with.
        if len(setup) * SETUP_EVERY <= len(walls):
            setup.append(spawn(SETUP_ARGS, env))
            if setup[-1].code != 0:
                problems.append(f"set-up probe: exit code {setup[-1].code}")
            continue
        inv = next(sequence)
        done = spawn(cli_args(inv), env)
        if done.code != 0:
            found = [f"exit code {done.code}: {done.stderr.decode(errors='replace')[-300:]}"]
        else:
            found = check_output(inv, done.stdout, digests)
        failed += bool(found)
        problems += [f"{inv.key}: {p}" for p in found]
        walls.append(done.wall_s)
        rss.append(done.peak_rss_mb)
        rates.append(0.0 if found else inv.verdicts / done.wall_s)

    n = len(walls)
    tail_value, tail_pct = tail(walls)
    metrics = {
        "wall_s": Metric(statistics.median(walls), "s", n),
        "wall_s_tail": Metric(tail_value, "s", n, f"p{tail_pct:.1f}"),
        "verdicts_per_s": Metric(statistics.median(rates), "1/s", n),
        "setup_s": Metric(statistics.median(s.wall_s for s in setup), "s", len(setup)),
        "peak_rss_mb": Metric(statistics.median(rss), "MiB", n),
    }
    details = {
        "failed_frac": failed / n,
        "wall_s_tail_percentile": tail_pct,
        "wall_s_samples": walls,
        "setup_s_samples": [s.wall_s for s in setup],
    }
    return Result(workload, metrics, n, failed, not problems, problems, details)


# ---------------------------------------------------------------------------
# Traced run (trace 1)


def _import_times(env: dict[str, str]) -> dict[str, list[float]]:
    import layers

    modules = ("wbcast.cli", "numpy", "jsonschema")
    samples: dict[str, list[float]] = {m: [] for m in modules}
    for _ in range(IMPORTTIME_SAMPLES):
        done = spawn(["-X", "importtime", *SETUP_ARGS], env)
        for module, seconds in layers.parse_importtime(done.stderr.decode(), modules).items():
            samples[module].append(seconds)
    return samples


def call_main(argv: tuple[str, ...]) -> tuple[int, bytes, float]:
    """Run ``wbcast.cli.main`` in-process; ``main`` is looked up at call
    time, so a traced call goes through its wrapper."""
    import wbcast.cli

    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buffer):
            code = wbcast.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed call, not a failed benchmark
        print(f"wbcast.cli.main raised {exc!r}", file=sys.stderr)
        code = 1
    return code, buffer.getvalue().encode("utf-8"), time.perf_counter() - start


def run_traced(workload: str, seed: int, seconds: float, digests: dict) -> Result:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import layers
    from spans import Tracer, lookup, patched

    env = child_env()
    imports = _import_times(env)
    call_main(next(invocations(workload, seed)).argv)  # warm caches, untimed

    originals = [lookup(t) for t in layers.TARGETS]
    per_call: dict[str, list[float]] = {}
    plain_walls, traced_walls = [], []
    problems: list[str] = []
    absent_targets: list = []
    failed = attempted = 0
    sequence = invocations(workload, seed)
    deadline = time.perf_counter() + seconds
    while not attempted or time.perf_counter() < deadline:
        inv = next(sequence)
        outputs = {}
        # Alternate which call goes first, so neither always runs warmer.
        for traced in (False, True) if attempted % 2 == 0 else (True, False):
            if traced:
                tracer = Tracer()
                with patched(tracer, layers.TARGETS) as absent_targets:
                    outputs[traced] = call_main(inv.argv)
                for name, value in layers.call_values(tracer).items():
                    per_call.setdefault(name, []).append(value)
            else:
                outputs[traced] = call_main(inv.argv)
        attempted += 1
        (plain_code, plain_out, plain_wall), (traced_code, traced_out, traced_wall) = (
            outputs[False], outputs[True])
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        found = []
        if plain_code != 0 or traced_code != 0:
            found.append(f"exit codes {plain_code} untraced, {traced_code} traced")
        elif traced_out != plain_out:
            found.append("traced report differs from the untraced one")
        else:
            found += check_output(inv, plain_out, digests)
        if [lookup(t) for t in layers.TARGETS] != originals:
            found.append("a wrapped name was not restored after the traced call")
        failed += bool(found)
        problems += [f"{inv.key}: {p}" for p in found]

    absent = layers.absent_metrics(layers.TARGETS, absent_targets)
    metrics = {}
    for name, unit, *_ in layers.SPAN_METRICS:
        values = per_call.get(name, [])
        note = "absent" if name in absent else ("" if values else "not exercised")
        metrics[name] = Metric(statistics.median(values) if values else 0.0, unit,
                               len(values), note)
    for module, name in (("wbcast.cli", "cli.import_s"), ("numpy", "cli.import_numpy_s"),
                         ("jsonschema", "cli.import_jsonschema_s")):
        values = imports[module]
        metrics[name] = Metric(statistics.median(values) if values else 0.0, "s",
                               len(values), "" if values else "absent")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace_overhead_frac"] = Metric(overhead, "frac", attempted)
    details = {
        "failed_frac": failed / attempted,
        "absent_targets": [t.label for t in absent_targets],
        "untraced_main_s_samples": plain_walls,
        "traced_main_s_samples": traced_walls,
    }
    # The spans of the last traced call, one per line: name, start and end in
    # seconds from the call's start, index of the parent span.
    origin = tracer.spans[0].start
    with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps([span.name, span.start - origin, span.end - origin,
                                     span.parent]) + "\n")
    return Result(workload, metrics, attempted, failed, not problems, problems, details)


# ---------------------------------------------------------------------------
# Provenance and output


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input_sizes": workloads.input_sizes(workload),
    }


def print_result(result: Result, contract: dict) -> None:
    print(f"workload {result.workload}: {result.attempted} attempted, {result.failed} failed")
    print(f"  {'metric':<40}{'value':>16}  {'unit':<6}{'samples':>8}  note")
    rows = [*result.metrics.items(),
            ("failed_frac", Metric(result.failed / result.attempted, "frac", result.attempted))]
    for name, metric in rows:
        print(f"  {name:<40}{metric.value:>16.6g}  {metric.unit:<6}{metric.samples:>8}  "
              f"{metric.note}")
    print(f"  exit_contract_violations: {len(contract['violations'])} of "
          f"{contract['attempted']} probes ({', '.join(contract['violations']) or 'none'})")
    for problem in result.problems[:MAX_LISTED_PROBLEMS]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wbcast" / "cli.py").is_file():
        print(f"perfbench: no wbcast sources under {SRC}", file=sys.stderr)
        return 2
    digests = load_digests()

    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measure = run_traced if args.trace else run_end_to_end
    OUT.mkdir(exist_ok=True)
    contract = probe_exit_contract(child_env())

    results = []
    for workload in chosen:
        result = measure(workload, args.seed, args.seconds, digests)
        if args.trace:
            result.metrics["cli.exit_contract_violations"] = Metric(
                float(len(contract["violations"])), "count", 1)
            result.metrics["cli.exit_contract_probes"] = Metric(
                float(contract["attempted"]), "count", 1)
        print_result(result, contract)
        path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        record = {
            "provenance": provenance(workload, args.seed, args.seconds, args.trace),
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": m.value, "unit": m.unit, "samples": m.samples, "note": m.note}
                for name, m in result.metrics.items()
            },
            "exit_contract": contract,
            "problems": result.problems[:MAX_LISTED_PROBLEMS],
            **result.details,
        }
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"  results: {path.relative_to(ROOT)}")
        results.append(result)

    if len(results) == 1:
        metrics = {name: m.as_json() for name, m in results[0].metrics.items()}
    else:
        metrics = {f"{r.workload}.{name}": m.as_json() for r in results for name, m in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
