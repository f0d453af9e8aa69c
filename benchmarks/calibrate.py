"""A fixed reference kernel that measures how fast the host is right now.

The hosts this benchmark runs on are shared, and their speed drifts by
20-40% over tens of seconds: a whole 55-second run can be a third slower
than the next one on the same code.  The harness times this kernel between
the items it measures, and scales every reported time by

    REFERENCE_S / (median kernel time over the run)

so a time reads as it would on a host where the kernel takes REFERENCE_S.
The kernel does the same kind of work as nashfol (dict-of-exponents
polynomial products and a fraction-free determinant over ``Fraction``), so a
slow spell slows both alike, and it calls nothing in nashfol, so a change to
the package moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's typical time on the machine the baseline was measured on
# (two vCPUs of an "Intel(R) Xeon(R) Processor", Python 3.11.7).
REFERENCE_S = 0.030


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _det(rows: list) -> Fraction:
    """Bareiss elimination; the entries grow into multi-word integers."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[-1][-1]


_P = {(i, j, (i * j) % 3): Fraction(i - 2 * j + 1, j + 1) for i in range(5) for j in range(5)}
_Q = {(j, (i + j) % 4, i): Fraction(3 * i + j - 4, i + 2) for i in range(4) for j in range(5)}
_M = [[Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
      for i in range(7)]
# What the kernel must compute; a wrong answer means it did not run as written.
_EXPECTED = (838, Fraction(-4277177839, 995328))


def kernel() -> tuple[int, Fraction]:
    acc = _P
    for _ in range(2):
        acc = _poly_mul(acc, _Q)
    return len(acc), _det(_M)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    result = kernel()
    elapsed = perf_counter() - start
    if result != _EXPECTED:
        raise AssertionError(f"calibration kernel computed {result}, not {_EXPECTED}")
    return elapsed
