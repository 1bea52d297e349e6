import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimercorr.numerics import bisect_boundary


def assert_straddles(predicate, x):
    """x and its neighbouring float on the other side of the boundary
    give predicate opposite values, True below and False above."""
    below = x if predicate(x) else math.nextafter(x, -math.inf)
    assert predicate(below)
    assert not predicate(math.nextafter(below, math.inf))


class TestBisectBoundary:
    @given(
        st.floats(-1e100, 1e100),
        st.floats(0.0, 1e100),
        st.floats(1e-300, 1e100),
    )
    def test_threshold_at_any_scale(self, boundary, below, above):
        lo, hi = boundary - below, boundary + above
        if hi == boundary:
            hi = math.nextafter(boundary, math.inf)
        x = bisect_boundary(lambda v: v <= boundary, lo, hi)
        assert x in (boundary, math.nextafter(boundary, math.inf))
        assert_straddles(lambda v: v <= boundary, x)

    @given(st.floats(1e-3, 1e3))
    def test_transcendental_root(self, level):
        def predicate(v):
            return v * math.exp(v) < level

        x = bisect_boundary(predicate, 0.0, 10.0)
        assert_straddles(predicate, x)

    def test_false_lower_end_is_named(self):
        with pytest.raises(ValueError, match="false at the lower bracket 2.0"):
            bisect_boundary(lambda v: v < 1.0, 2.0, 3.0)

    def test_true_upper_end_is_named(self):
        with pytest.raises(ValueError, match="true at the upper bracket 3.0"):
            bisect_boundary(lambda v: v < 4.0, 2.0, 3.0)
