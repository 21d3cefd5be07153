"""Reference kernel that measures how fast the machine runs exact Python arithmetic right now.

Op times are divided by the kernel's time measured next to them, so that a
slow or fast phase of the whole machine cancels out. The kernel never imports
sdpcert: a change to the program cannot change the yardstick.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median kernel time in seconds on the machine the reference figures in
# README.md were taken on (2-core x86-64 VM, CPython 3.11). Corrected times
# are expressed at this speed: corrected = raw * R0 / R_adj.
R0 = 0.0220

# Allowed excess of process CPU time over wall time in one sample; only
# timer granularity may account for it.
CPU_SLACK_S = 0.001

_DET_SIZE = 40
_FRACTION_SIZE = 10
_CONVOLUTION_LENGTH = 64


def _integer_determinant():
    """Fraction-free elimination on a fixed 40x40 integer matrix (exact integers)."""
    size = _DET_SIZE
    mat = [[(7 * i * i + 13 * j + 3 * i * j + 1) % 97 - 48 for j in range(size)] for i in range(size)]
    sign, prev = 1, 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if mat[i][k]), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def _fraction_solve():
    """Gauss-Jordan elimination over Q on a fixed 10x10 Hilbert-like system."""
    size = _FRACTION_SIZE
    aug = [[Fraction(1, i + j + 1) + (i == j) for j in range(size)] + [Fraction(i + 1)]
           for i in range(size)]
    for col in range(size):
        head = aug[col][col]
        aug[col] = [x / head for x in aug[col]]
        for i in range(size):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return sum(row[size] for row in aug)


def _cyclic_convolutions():
    """Repeated cyclic convolution of integer vectors, as in a group ring."""
    n = _CONVOLUTION_LENGTH
    a = [(5 * i * i + 2) % 7 - 1 for i in range(n)]
    acc = [1] + [0] * (n - 1)
    for _ in range(8):
        out = [0] * n
        for i, x in enumerate(acc):
            if x:
                for j, y in enumerate(a):
                    if y:
                        out[(i + j) % n] += x * y
        acc = out
    return sum(acc)


def kernel():
    """One pass of the fixed workload; returns a checksum that never changes."""
    return (_integer_determinant(), _fraction_solve(), _cyclic_convolutions())


# kernel()'s checksum, fixed here so that importing this module costs nothing.
EXPECTED = (
    4364583247347597927381919447094561149539157042971522654392471642704051811896566903,
    Fraction(5581357919458261476331295177004577028647939924584411550,
             177338508715739228553940177549616671129141682677610781),
    281474976710656,
)


class ReferenceClock:
    """Times the kernel and keeps every sample; flags samples where CPU time exceeds wall time.

    Process CPU time counts every thread of the process, so CPU time above
    wall time during a sample means other threads worked while the kernel
    ran, which would slow the kernel and make the correction hide program
    work.
    """

    def __init__(self):
        self.samples = []
        self.cpu_violations = 0

    def sample(self):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        value = kernel()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if value != EXPECTED:
            raise RuntimeError("reference kernel returned a wrong checksum")
        if cpu > wall + CPU_SLACK_S:
            self.cpu_violations += 1
        self.samples.append(wall)
        return wall
