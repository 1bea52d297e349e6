import math
import sys

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
    """f with a count of its evaluations.  Past CAP evaluations it raises
    AssertionError, so a finder that stops shrinking its bracket fails the
    test instead of hanging the run: the cap is about 4 times the roughly
    2100 halvings of the widest double bracket and 3.5 times the 2847
    evaluations of the overflowing width in
    test_budget_holds_when_the_width_overflows."""

    CAP = 10_000

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > self.CAP:
            raise AssertionError(f"more than {self.CAP} evaluations")
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


def test_counted_fails_a_finder_that_never_stops():
    counted = Counted(lambda v: v)
    for _ in range(Counted.CAP):
        counted(0.0)
    with pytest.raises(AssertionError, match="more than 10000 evaluations"):
        counted(0.0)


class TestBisectBoundary:
    @given(
        st.floats(-1e100, 1e100),
        st.floats(0.0, 1e100),
        st.floats(1e-300, 1e100),
    )
    @example(0.0, 0.0, 6.0)
    def test_threshold_at_any_scale(self, boundary, below, above):
        lo, hi = boundary - below, boundary + above
        above_boundary = math.nextafter(boundary, math.inf)
        if hi == boundary:
            hi = above_boundary
        expected, _ = bisect_reference(lambda v: v <= boundary, lo, hi)
        # Both are positive exactly where v <= boundary.
        for f in (lambda v: 1.0 if v <= boundary else -1.0, lambda v: above_boundary - v):
            x, _ = assert_brackets(f, lo, hi)
            assert x in (boundary, above_boundary)
            assert x == expected

    @given(st.floats(1e-3, 1e3))
    def test_transcendental_root(self, level):
        x, evaluations = assert_brackets(lambda v: level - v * math.exp(v), 0.0, 10.0)
        assert x == bisect_reference(lambda v: v * math.exp(v) < level, 0.0, 10.0)[0]
        assert evaluations <= 16

    @pytest.mark.parametrize(
        "shape",
        [
            lambda d: -d,
            lambda d: -d * d * d,
            lambda d: math.expm1(-max(d, -700.0)),
            lambda d: math.atan(-1e6 * d),
            lambda d: -1.0 if d > 0.0 else 1.0 + d * d,
            lambda d: max(-d, 0.0),
        ],
        ids=["linear", "cubic", "exponential", "steep", "jump", "flat"],
    )
    @given(
        boundary=st.floats(-1e3, 1e3),
        below=st.floats(1e-6, 1e3),
        above=st.floats(1e-6, 1e3),
    )
    def test_signed_at_most_twice_bisection(self, shape, boundary, below, above):
        assert_brackets(lambda v: shape(v - boundary), boundary - below, boundary + above)

    @given(
        boundary=st.one_of(
            st.just(0.0),
            st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0)).map(
                lambda t: t[0] * 10.0 ** t[1]
            ),
        ),
        below=st.floats(1e-6, 1e3),
        above=st.floats(1e-6, 1e3),
    )
    @example(boundary=0.0, below=1.0, above=1.0)
    @example(boundary=0.3, below=1.0, above=1.0)
    def test_straight_line_in_one_secant_step(self, boundary, below, above):
        # The two ends, the first secant step onto the root to rounding, and
        # at most three one-float steps to close the bracket around it.  (A
        # root nearer 0 than the secant's products can resolve, such as
        # 4e-305, is closed in by the midpoint steps instead.)
        _, evaluations = assert_brackets(lambda v: boundary - v, boundary - below, boundary + above)
        assert evaluations <= 6

    @pytest.mark.parametrize("lo, hi", [(-sys.float_info.max, 1e300), (-1e300, sys.float_info.max)])
    def test_budget_holds_when_the_width_overflows(self, lo, hi):
        # hi - lo is inf; the cubic underflows to 0 within 1.7e-108 of its
        # root, a flat stretch that the secant alone would creep along.
        assert_brackets(lambda v: -v * v * v, lo, hi)

    # The steps are pinned, not only the root: where the sign of f is noisy
    # in its last floats (concurrence minus discord at T_cross), the root
    # depends on the points evaluated.  These f use only + - * and exact
    # scalings, so the points are the same on every IEEE-754 platform.  A
    # deliberate change to the steps re-records them from the new finder.

    def test_points_on_a_cubic(self):
        points = []

        def f(v):
            points.append(v)
            return 0.3 - v * v * v

        assert bisect_boundary(f, 0.0, 1.0) == 0.6694329500821694
        assert points == [0.0, 1.0, 0.3, 0.65, 0.6858657243816253, 0.6689546092259577,
                          0.669421392526623, 0.6694329583446089, 0.6694329500820269,
                          0.6694329500821695, 0.6694329500821694]

    def test_evaluations_on_a_staircase_of_ties(self):
        # |f| ties at both ends and at most steps, so the end kept as b on a
        # tie decides each later secant and step bound.
        stair = [3.0, 2.0, 3.0, 3.0, 2.0, 3.0, -1.0, -3.0]
        counted = Counted(lambda v: stair[min(int(8.0 * v), 7)])
        assert bisect_boundary(counted, 0.0, 1.0) == 0.75
        assert counted.calls == 56

    def test_false_lower_end_is_named(self):
        with pytest.raises(ValueError, match="false at the lower bracket 2.0"):
            bisect_boundary(lambda v: 1.0 - v, 2.0, 3.0)

    def test_true_upper_end_is_named(self):
        with pytest.raises(ValueError, match="true at the upper bracket 3.0"):
            bisect_boundary(lambda v: 4.0 - v, 2.0, 3.0)

    @pytest.mark.parametrize("lo,hi,message", [(1.0, 3.0, "false at the lower bracket 1.0"),
                                               (0.0, 0.5, "true at the upper bracket 0.5")])
    def test_signed_ends_are_checked_like_predicates(self, lo, hi, message):
        with pytest.raises(ValueError, match=message):
            bisect_boundary(lambda v: 1.0 - v, lo, hi)
