"""Machine-speed calibration for the benchmark's timings.

Shared machines change speed within seconds (another tenant's load on the
same physical core), which moves wall-clock medians of identical runs by
more than any useful bound.  ``run_s`` is therefore reported at a
reference speed: the median wall time of the passes times
``speed_factor(c)``, where ``c`` is the median duration of
:func:`calibrate`, timed before the first pass and after every pass.  The
calibration runs only the standard library, so no change to littlewood
moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# calibrate() takes about this long on the reference machine, a shared
# 2-core x86-64 VM running CPython 3.11
CALIBRATION_REF_S = 0.025
# The library speeds up less than this tight loop when the host frees up:
# in one such change the loop ran 1.9x faster, cartan and cone-report
# passes 1.4x and 1.6x.  Scaling by the loop's speed ratio to this power
# aligned both within 10 %.
SPEED_EXPONENT = 0.75


def calibrate(n: int = 1500) -> float:
    """Seconds taken by a fixed stdlib-only ``Fraction`` workload."""
    t0 = time.perf_counter()
    total = 0
    for k in range(1, n + 1):
        a = Fraction(k * 7919 % 1000003 + 1, 2**61 - k)
        b = Fraction(k + 3, k * 104729 % 999983 + 1)
        c = (a + b) * (a - b)
        total += c.numerator.bit_length() + (c > a)
    return time.perf_counter() - t0


def speed_factor(calibration_s: float) -> float:
    """Multiplier taking a wall time measured when :func:`calibrate` took
    ``calibration_s`` to the reference speed."""
    return (CALIBRATION_REF_S / calibration_s) ** SPEED_EXPONENT
