"""Small deterministic 1-D search routines shared across modules."""

import math

import numpy as np

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


def bisect_boundary(predicate, lo, hi, xtol):
    """Locate the boundary of a one-sided region by bisection.

    predicate must be True at lo and False at hi; the returned value is the
    bracket midpoint once the bracket is narrower than xtol.
    """
    lo, hi = float(lo), float(hi)
    if not predicate(lo):
        raise ValueError(f"predicate is false at the lower bracket {lo}")
    if predicate(hi):
        raise ValueError(f"predicate is true at the upper bracket {hi}")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_GRID_POINTS = 96


def grid_boundary(predicate, lo, hi, xtol):
    """Locate the boundary of a one-sided region by repeated grid scans.

    The contract of bisect_boundary, for a predicate that maps an array of
    points to a boolean array: each round evaluates it once, on 96 evenly
    spaced points of the bracket (the first round's ends checked as
    bisect_boundary checks them), and keeps the interval where it first
    turns False, so the bracket shrinks 95-fold per round instead of 2-fold.
    """
    lo, hi = float(lo), float(hi)
    grid = np.linspace(lo, hi, _GRID_POINTS)
    inside = np.array(predicate(grid))
    if not inside[0]:
        raise ValueError(f"predicate is false at the lower bracket {lo}")
    if inside[-1]:
        raise ValueError(f"predicate is true at the upper bracket {hi}")
    while True:
        first_false = int(np.argmin(inside))
        lo, hi = float(grid[first_false - 1]), float(grid[first_false])
        if hi - lo <= xtol:
            return 0.5 * (lo + hi)
        grid = np.linspace(lo, hi, _GRID_POINTS)
        inside = np.array(predicate(grid))
        inside[0], inside[-1] = True, False  # the ends keep the values found for them
