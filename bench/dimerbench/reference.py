"""Fixed reference kernel: the yardstick of machine speed for the benchmark's times.

The machines this benchmark runs on are shared, and their speed swings by
tens of per cent within seconds and between minutes.  The harness samples
this kernel throughout every timed cycle and rescales the cycle's time by
REFERENCE_S / (kernel time), i.e. reports it at the speed at which the
kernel takes REFERENCE_S.  The kernel mixes interpreter work with small
numpy calls, as the program does.  Changing it or REFERENCE_S changes the
unit of every rescaled metric, so only a change that re-measures the
baseline may do it.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 1e-3
_LOOPS = 7500
_ARRAY_OPS = 100
_ARRAY = np.linspace(0.0, 1.0, 256)


def kernel_seconds():
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(_LOOPS):
        acc += (i * i) % 7
        table[i & 63] = acc
    values = _ARRAY
    for _ in range(_ARRAY_OPS):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


def speed_scale(runs=3):
    """REFERENCE_S over the median of `runs` kernel runs: multiply a time
    measured now by this to express it at reference speed."""
    return REFERENCE_S / statistics.median(kernel_seconds() for _ in range(runs))
