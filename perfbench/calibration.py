"""Machine-speed calibration for the benchmark's gated time metrics.

On a shared host the machine's speed shifts by up to 1.4x for minutes at a
time, longer than any run here, so raw job times spread between runs by
more than a regression bound.  A fixed kernel, timed next to the jobs,
measures that speed; a time t measured while the kernel took k seconds is
reported at reference speed as t * REF_S / k.
"""

import time
from fractions import Fraction

import numpy as np

# The kernel's time at the reference speed.  Arbitrary, but it must never
# change: it sets the scale of every figure reported at reference speed.
REF_S = 0.010


def kernel_seconds():
    """Wall time of a fixed kernel that uses no pingpong code: an integer
    loop, Fraction arithmetic and 3x3 numpy products, the kinds of work the
    jobs spend their time in."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    x = Fraction(1, 3)
    for i in range(400):
        x = (x * 7 + Fraction(1, i + 2)) / 5
    a, b, one = np.eye(3), np.full((3, 3), 0.1), np.eye(3)
    for _ in range(1500):
        a = a @ b + one
    return time.perf_counter() - start
