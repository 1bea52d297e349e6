import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dimercorr.numerics import bisect_boundary


def bisect_reference(predicate, lo, hi):
    """Plain bisection of a bool predicate, True at lo and False at hi, until
    the midpoint is an end of the bracket; returns (midpoint, evaluations)."""
    lo, hi = float(lo), float(hi)
    assert predicate(lo) and not predicate(hi)
    evaluations = 2
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid, evaluations
        evaluations += 1
        if predicate(mid):
            lo = mid
        else:
            hi = mid


class Counted:
    """f with a count of its evaluations."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def assert_straddles(predicate, x):
    """x and its neighbouring float on the other side of the boundary
    give predicate opposite values, True below and False above."""
    below = x if predicate(x) else math.nextafter(x, -math.inf)
    assert predicate(below)
    assert not predicate(math.nextafter(below, math.inf))


def assert_brackets(f, lo, hi):
    """bisect_boundary on a signed f ends where f > 0 changes, in no more
    than twice the evaluations plain bisection takes; returns (x, count)."""
    counted = Counted(f)
    x = bisect_boundary(counted, lo, hi)
    assert_straddles(lambda v: f(v) > 0.0, x)
    _, bisections = bisect_reference(lambda v: f(v) > 0.0, lo, hi)
    assert counted.calls <= 2 * bisections
    return x, counted.calls


class TestBisectBoundary:
    @given(
        st.floats(-1e100, 1e100),
        st.floats(0.0, 1e100),
        st.floats(1e-300, 1e100),
    )
    @example(0.0, 0.0, 6.0)
    def test_threshold_at_any_scale(self, boundary, below, above):
        lo, hi = boundary - below, boundary + above
        if hi == boundary:
            hi = math.nextafter(boundary, math.inf)
        x = bisect_boundary(lambda v: v <= boundary, lo, hi)
        assert x in (boundary, math.nextafter(boundary, math.inf))
        assert_straddles(lambda v: v <= boundary, x)
        assert x == bisect_reference(lambda v: v <= boundary, lo, hi)[0]
        signed, _ = assert_brackets(lambda v: 1.0 if v <= boundary else -1.0, lo, hi)
        assert signed in (boundary, math.nextafter(boundary, math.inf))

    @pytest.mark.parametrize("truth", [bool, np.bool_])
    @given(boundary=st.floats(-1e3, 1e3), span=st.floats(1e-9, 1e3))
    def test_bool_predicate_is_plain_bisection(self, truth, boundary, span):
        def predicate(v):
            return truth(v * v * v < boundary)

        counted = Counted(predicate)
        lo, hi = -abs(boundary) ** (1.0 / 3.0) - span, abs(boundary) ** (1.0 / 3.0) + span
        x = bisect_boundary(counted, lo, hi)
        assert (x, counted.calls) == bisect_reference(predicate, lo, hi)

    @given(st.floats(1e-3, 1e3))
    def test_transcendental_root(self, level):
        def predicate(v):
            return v * math.exp(v) < level

        x = bisect_boundary(predicate, 0.0, 10.0)
        assert_straddles(predicate, x)
        assert x == bisect_reference(predicate, 0.0, 10.0)[0]
        _, evaluations = assert_brackets(lambda v: level - v * math.exp(v), 0.0, 10.0)
        assert evaluations <= 16

    @pytest.mark.parametrize(
        "shape",
        [
            lambda d: -d,
            lambda d: -d * d * d,
            lambda d: math.expm1(-max(d, -700.0)),
            lambda d: math.atan(-1e6 * d),
            lambda d: -1.0 if d > 0.0 else 1.0 + d * d,
        ],
        ids=["linear", "cubic", "exponential", "steep", "jump"],
    )
    @given(
        boundary=st.floats(-1e3, 1e3),
        below=st.floats(1e-6, 1e3),
        above=st.floats(1e-6, 1e3),
    )
    def test_signed_at_most_twice_bisection(self, shape, boundary, below, above):
        assert_brackets(lambda v: shape(v - boundary), boundary - below, boundary + above)

    def test_false_lower_end_is_named(self):
        with pytest.raises(ValueError, match="false at the lower bracket 2.0"):
            bisect_boundary(lambda v: v < 1.0, 2.0, 3.0)

    def test_true_upper_end_is_named(self):
        with pytest.raises(ValueError, match="true at the upper bracket 3.0"):
            bisect_boundary(lambda v: v < 4.0, 2.0, 3.0)

    @pytest.mark.parametrize("lo,hi,message", [(1.0, 3.0, "false at the lower bracket 1.0"),
                                               (0.0, 0.5, "true at the upper bracket 0.5")])
    def test_signed_ends_are_checked_like_predicates(self, lo, hi, message):
        with pytest.raises(ValueError, match=message):
            bisect_boundary(lambda v: 1.0 - v, lo, hi)
