"""The package's one root finder: bisect_boundary brackets the sign change
of a signed function down to adjacent floats by safeguarded secant steps."""

import itertools
import math
import sys


def bisect_boundary(f, lo, hi):
    """Locate where a signed function stops being positive on [lo, hi].

    f(x) is a float, positive inside the region and not outside it; f must
    be inside at lo and outside at hi, and lo + hi finite.  The bracket
    shrinks, keeping that invariant, until its midpoint is one of its ends
    (adjacent floats), and that midpoint is returned, so no tolerance or
    scale is needed.

    Each step is a secant step (Dekker's method with Brent's safeguard):
    the secant through the end b with the smaller |f| and the point b
    replaced, accepted only between b and the midpoint and shorter than
    half the step before last, else the midpoint; a secant that rounds to
    b moves one float from b, so the far end also closes in.  The midpoint
    is forced whenever the bracket is wider than (hi - lo) halved once per
    two steps, so no f takes more than about twice the evaluations of
    bisection, not even one that is 0 all the way outside.
    """
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo > 0:
        raise ValueError(f"predicate is false at the lower bracket {lo}")
    if f_hi > 0:
        raise ValueError(f"predicate is true at the upper bracket {hi}")
    # b is the bracket end with the smaller |f|, a the point b took over from.
    a, f_a, b, f_b = (hi, f_hi, lo, f_lo) if abs(f_lo) < abs(f_hi) else (lo, f_lo, hi, f_hi)
    # The widest bracket that may take a secant step; it halves every second step.
    allowed = min(hi - lo, sys.float_info.max)
    # No step bounds the first two secant steps.
    step = step_before = math.inf
    for steps in itertools.count(1):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        x = mid
        if hi - lo <= allowed:
            if f_a != f_b:
                x = b - f_b * (b - a) / (f_b - f_a)
            if not (b <= x <= mid or mid <= x <= b) or not abs(x - b) < 0.5 * abs(step_before):
                x = mid
            elif x == b:
                x = math.nextafter(b, mid)
        step_before, step = step, x - b
        f_x = f(x)
        if f_x > 0:
            lo, f_lo, other, f_other = x, f_x, hi, f_hi
        else:
            hi, f_hi, other, f_other = x, f_x, lo, f_lo
        if abs(f_x) <= abs(f_other):
            a, f_a, b, f_b = b, f_b, x, f_x
        else:
            a, f_a, b, f_b = x, f_x, other, f_other
        if steps % 2 == 0:
            allowed *= 0.5
