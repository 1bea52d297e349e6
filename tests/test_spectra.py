import math
import sys

import numpy as np
import pytest

from dimercorr.spectra import check_range, even_grid

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


def linspace_bits(lo, hi, points):
    """np.linspace(lo, hi, points) as bytes; its last product, which it
    overwrites with hi, may round past the float maximum."""
    with np.errstate(all="ignore"):
        return np.linspace(lo, hi, points).tobytes()


def accepted(lo, hi):
    try:
        check_range(lo, hi, "grid", "lo < hi")
    except ValueError:
        return False
    return True


def random_ranges(rng, count):
    """(lo, hi, points) that check_range accepts: spans log-uniform from
    1e-323 to about 1.8e308, lo a signed multiple of the span or an
    unrelated magnitude, 2 to 700 points."""
    cases = []
    while len(cases) < count:
        span = 10.0 ** rng.uniform(-323.0, 308.25)
        if rng.random() < 0.5:
            lo = span * rng.uniform(-3.0, 3.0)
        else:
            lo = math.copysign(10.0 ** rng.uniform(-323.0, 308.25), rng.random() - 0.5)
        with np.errstate(over="ignore"):
            hi = float(np.float64(lo) + span)
        if accepted(lo, hi):
            cases.append((lo, hi, int(rng.integers(2, 701))))
    return cases


def underflowing_ranges():
    """Ranges of a few subnormal steps split into more intervals than steps,
    where (hi - lo)/(points - 1) rounds to 0 and linspace divides first."""
    cases = []
    for steps in range(1, 9):
        for lo in (0.0, -TINY, -3 * TINY, 2.0**-1060, -(2.0**-1060)):
            hi = lo + steps * TINY
            for points in (2, 3, 4, 5, 7, 10, 33, 100, 701):
                cases.append((lo, hi, points))
    return cases


def edge_ranges():
    """Ends within an ulp of the float maximum, at either sign."""
    near = (MAX, math.nextafter(MAX, 0.0))
    others = (0.0, -0.0, 1.0, -1.0, TINY, MAX / 2.0, -MAX / 4.0, math.nextafter(MAX, 0.0) - MAX)
    cases = []
    for top in near:
        for other in others + near:
            for points in (2, 3, 5, 49, 50, 257, 700):
                for lo, hi in ((other, top), (-top, -other), (-top, other), (-other, top)):
                    if accepted(lo, hi):
                        cases.append((lo, hi, points))
    return cases


@pytest.mark.filterwarnings("error")
def test_even_grid_is_linspace_bit_for_bit():
    rng = np.random.default_rng(20260)
    cases = random_ranges(rng, 20_000) + underflowing_ranges() + edge_ranges()
    # A step of exactly 1, as from 0 to 49 in 49 intervals, tells the
    # i step + lo branch from the i/(points - 1) (hi - lo) + lo one.
    cases += [(0.0, 49.0, 50), (0.5, 49.5, 50), (-49.0, 0.0, 50)]
    underflowing = sum((hi - lo) / (points - 1) == 0.0 for lo, hi, points in cases)
    assert underflowing >= 200
    assert sum(math.isinf((hi - lo) / (points - 1) * (points - 1) + lo)
               for lo, hi, points in edge_ranges()) > 0  # linspace's last product overflows
    mismatches = [(lo, hi, points) for lo, hi, points in cases
                  if even_grid(lo, hi, points).tobytes() != linspace_bits(lo, hi, points)]
    assert mismatches == []


def test_even_grid_of_the_cli_edges():
    # iq --qmax 5e-324 --qsteps 4: a step that underflows to 0.
    assert even_grid(0.0, TINY, 5).tolist() == [0.0, 0.0, 0.0, TINY, TINY]
    # sweep --tmax 1.7976931348623157e308 --steps 7 from the default tmin 1 K.
    grid = even_grid(1.0, MAX, 8)
    assert grid.tobytes() == linspace_bits(1.0, MAX, 8)
    assert grid[-1] == MAX and np.isfinite(grid).all()
