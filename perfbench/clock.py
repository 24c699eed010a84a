"""Paired machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by 20-40% over
tens of seconds as other tenants come and go; the program's CPU time
drifts with its wall time, so neither clock alone repeats.  A short
fixed reference workload (the *snip*: numpy matrix products and
elementwise passes, and zlib) slows down by nearly the same factor.  Each
timed step is therefore bracketed by snips, and its wall time is scaled
to what it would have been on a machine that runs one snip in
:data:`REFERENCE_SNIP_S` seconds.  The snip uses no program code, so a
change to the program moves only the step, never the reference.

Every end-to-end time the benchmark reports (and every rate derived
from one) is in these reference seconds, as ``perfbench/README.md``
explains.  The measured snip times and each step's scale are recorded
with the results, so raw wall time can be recovered.
"""

from __future__ import annotations

import time
import zlib
from typing import List, Tuple

import numpy as np

__all__ = ["REFERENCE_SNIP_S", "snip", "PairedCalibration"]

#: the snip's duration on the reference machine (a quiet 2-vCPU x86-64
#: host runs it in about 3 ms)
REFERENCE_SNIP_S = 0.003

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((512, 144))
_B = _rng.standard_normal((144, 32))
_X = _rng.standard_normal((64, 32, 8, 8))
_BLOB = _rng.integers(0, 255, 12_000, dtype=np.uint8).tobytes()


def _snip_once() -> float:
    # medium GEMMs and elementwise passes (the shape of a conv + BN
    # layer of the tiny models) plus deflate: of the candidates tried,
    # this mix tracked the workloads' own slowdowns most closely
    t0 = time.perf_counter()
    for _ in range(6):
        y = _A @ _B
        z = (_X - 0.1) * 0.9 + 0.2
        float(y.sum() + z.sum())
    for _ in range(2):
        zlib.compress(_BLOB, 6)
    return time.perf_counter() - t0


def snip(repeats: int = 3) -> float:
    """Seconds for one snip: the best of ``repeats``, so one interrupt
    does not count as a slow machine."""
    return min(_snip_once() for _ in range(repeats))


class PairedCalibration:
    """Scale factors for consecutive timed regions.

    :meth:`factor` closes the current region: it takes a snip, pairs it
    with the one taken when the region opened, and returns
    ``REFERENCE_SNIP_S / mean(pair)``.  The closing snip opens the next
    region.
    """

    def __init__(self) -> None:
        self._last = snip()
        self.snips: List[float] = [self._last]
        #: (wall seconds, factor) of every timed step, for the results
        self.steps: List[Tuple[float, float]] = []

    def factor(self) -> float:
        now = snip()
        pair = (self._last + now) / 2
        self._last = now
        self.snips.append(now)
        return REFERENCE_SNIP_S / pair
