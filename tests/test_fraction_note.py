"""``fraction_note`` against the rule it implements in integer arithmetic:
``Fraction(x).limit_denominator(1000)``, kept when it lies within 1e-12 of x.

The rationals with denominator <= 1000 are covered one denominator at a
time, each at a seeded sample of numerators, exactly and just beside them:
one ulp away, and about 1e-12 away, where the note's own test decides.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbcast.report import fraction_note


def _rule(x: float) -> str | None:
    frac = Fraction(x).limit_denominator(1000)
    if abs(float(frac) - x) < 1e-12:
        return f"{frac.numerator}/{frac.denominator}"
    return None


def _beside(x: float) -> list[float]:
    """x, one ulp either side, and about 1e-12 either side."""
    return [
        x,
        math.nextafter(x, -math.inf),
        math.nextafter(x, math.inf),
        *(x + sign * scale * 1e-12 for sign in (-1, 1) for scale in (0.999, 1.0, 1.001)),
    ]


def test_every_small_denominator_agrees_with_the_rule():
    rng = random.Random(1000)
    checked = 0
    for q in range(1, 1001):
        numerators = range(q + 1)
        for p in rng.sample(numerators, min(len(numerators), 12)):
            for x in _beside(p / q):
                assert fraction_note(x) == _rule(x), (p, q, x)
                checked += 1
    assert checked > 100_000


def test_edges_agree_with_the_rule():
    edges = [0.0, 1.0, 5e-324, 1e-310, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0)]
    for x in edges:
        assert fraction_note(x) == _rule(x), x
    assert fraction_note(1.0) == "1/1"
    assert fraction_note(0.0) == "0/1"
    assert fraction_note(5e-324) == "0/1"


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@example(4 / 27)
@example(2 / 9)
@example(math.nextafter(0.0, 1.0))
def test_any_probability_agrees_with_the_rule(x):
    assert fraction_note(x) == _rule(x)
