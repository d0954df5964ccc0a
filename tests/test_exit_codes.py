"""Property tests of the exit-code contract: any numeric CLI input exits 0 or
2 (invalid input), never with a traceback.

``wbcast.cli.main`` runs in-process; argparse's own rejections raise
``SystemExit(2)``, which counts as exit 2.  Example counts are kept small so
the file stays a few seconds long.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbcast.cli import EXIT_INVALID_INPUT, EXIT_OK, main

BRANCHES = st.sampled_from(["UUU", "UUD", "UDU", "UDD", "DUU", "DUD", "DDU", "DDD"])

# Any float, including NaN, infinities, huge values and subnormals, or a point
# near the unit sphere that the CLI accepts.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
TRIPLES = st.one_of(
    st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
        lambda v: tuple(x / (math.hypot(*v) or 1.0) for x in v)
    ),
)


def _exit_code(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _amplitudes(triple) -> list[str]:
    # "--alpha=-1e-05" keeps argparse from reading a negative value as a flag.
    return [f"--{name}={value!r}" for name, value in zip(("alpha", "beta", "gamma"), triple)]


@settings(max_examples=40, deadline=None)
@given(TRIPLES, BRANCHES, BRANCHES)
@example((1e308, 1e308, 0.0), "UUU", "UUU")
@example((math.nan, 1.0, 0.0), "UUU", "UUU")
@example((5e-324, 1.0, 0.0), "DDD", "UDU")
# Pair 25 has subnormal partial-transpose pivots here, as in branches below.
@example((0.0, 1.9123937740639437e-154, 1.0), "UUD", "UUU")
def test_single_exits_0_or_2(triple, branch1, branch2):
    argv = ["single", *_amplitudes(triple), "--branch1", branch1, "--branch2", branch2]
    assert _exit_code(argv) in (EXIT_OK, EXIT_INVALID_INPUT)


@settings(max_examples=12, deadline=None)
@given(TRIPLES)
@example((-0.6, 0.8, 0.0))
@example((-math.inf, 0.0, 1.0))
# Pair 25 of UUD/UUU has subnormal partial-transpose pivots here.
@example((0.0, 1.9123937740639437e-154, 1.0))
def test_branches_exits_0_or_2(triple):
    assert _exit_code(["branches", *_amplitudes(triple)]) in (EXIT_OK, EXIT_INVALID_INPUT)


@settings(max_examples=25, deadline=None)
@given(st.integers(-2, 3), st.integers(-(2**70), 2**70))
@example(1, -1)
@example(1, 2**70)
def test_sweep_exits_2_exactly_on_a_bad_count_or_seed(count, seed):
    expected = EXIT_INVALID_INPUT if count < 1 or seed < 0 else EXIT_OK
    assert _exit_code(["sweep", f"--sweep={count}", f"--seed={seed}"]) == expected


@settings(max_examples=6, deadline=None)
@given(st.integers(90, 120))
@example(99)
@example(100)
def test_background_exits_2_exactly_below_100_points(grid):
    expected = EXIT_OK if grid >= 100 else EXIT_INVALID_INPUT
    assert _exit_code(["background", f"--grid={grid}"]) == expected
