"""Small deterministic 1-D search routines shared across modules;
bisect_boundary is the package's one root finder."""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(func, lo, hi, xtol=1e-10):
    """Maximize a unimodal scalar function on [lo, hi] by golden-section search.

    Returns (x, func(x)) at the midpoint of the final bracket.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = func(c), func(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = func(d)
    x = 0.5 * (a + b)
    return x, func(x)


def bisect_boundary(predicate, lo, hi):
    """Locate the boundary of a one-sided region by bisection.

    predicate must be True at lo and False at hi, and lo + hi finite.  The
    bracket is halved until its midpoint is one of its ends (adjacent
    floats), and that midpoint is returned, so no tolerance or scale is
    needed.
    """
    lo, hi = float(lo), float(hi)
    if not predicate(lo):
        raise ValueError(f"predicate is false at the lower bracket {lo}")
    if predicate(hi):
        raise ValueError(f"predicate is true at the upper bracket {hi}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if predicate(mid):
            lo = mid
        else:
            hi = mid
