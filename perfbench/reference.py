"""Machine-speed reference: two fixed kernels that use no curvelab code.

A shared VM runs a single-threaded process up to 40% faster or slower than
usual for seconds to minutes at a time, and that drift moves every wall
time in a run together.  The benchmark times these two kernels between the
solves it measures and rescales its times to the speed at which the kernels
take ``NOMINAL_S``.  One kernel is a pure-Python integer loop (interpreter
speed), the other a numpy stencil on a 48x96 array (small-array numpy
calls, the program's own idiom); the speed factor is the geometric mean of
the two.  Because the kernels never change, a change to curvelab moves the
rescaled times as much as it moves the raw ones.
"""

import math
import statistics
import time

import numpy as np

# kernel times at this benchmark's reference speed: the usual speed of a
# 2-CPU x86 VM (Xeon, 4th generation) with Python 3.11 and numpy 2.4
NOMINAL_S = {"python": 0.0017, "numpy": 0.0062}

_FIELD = np.random.default_rng(0).standard_normal((48, 96))


def _python_kernel():
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def _numpy_kernel():
    x = _FIELD
    for _ in range(150):
        x = 0.5 * (np.roll(x, 1, 0) + np.roll(x, -1, 1))
        x = x / np.abs(x).max()
    return x


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def sample():
    """One timing of each kernel, in seconds."""
    out = {}
    for name, kernel in KERNELS.items():
        start = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - start
    return out


def speed(samples):
    """Speed factor of a list of samples: below 1 when the machine is slow.

    A wall time multiplied by it reads as the time at the reference speed.
    """
    return math.sqrt(math.prod(
        NOMINAL_S[name] / statistics.median(s[name] for s in samples) for name in KERNELS))
