"""Fixed reference kernel for drift-cancelling normalization.

Wall-clock speed on a shared host drifts by tens of percent from run to run.
The benchmark times this kernel between queries and divides each query time
by the local kernel time, so a slower host slows both sides alike.  The
kernel is the same kind of work smbraid does -- exact `Fraction` arithmetic
on sparse dicts -- and uses only the standard library, so no change to
smbraid can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

_BASE = {e: Fraction(2 * e + 1, 7) for e in range(-3, 4)}


def _mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def kernel() -> Fraction:
    """Cube of a seven-term Laurent polynomial; returns its coefficient sum."""
    acc = {0: Fraction(1)}
    for _ in range(3):
        acc = _mul(acc, _BASE)
    return sum(acc.values())


EXPECTED = sum(_BASE.values()) ** 3


def timed() -> float:
    """One kernel run in seconds; raises if the kernel computed a wrong value."""
    t0 = time.perf_counter()
    value = kernel()
    dt = time.perf_counter() - t0
    if value != EXPECTED:
        raise RuntimeError("reference kernel returned a wrong value")
    return dt
