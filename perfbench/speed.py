"""The host's speed, sampled between ops, for machine-speed-scaled times.

On a shared host the same op can take up to twice as long for tens of
seconds at a time (one 1.3 s op measured from 0.95 s to 2.0 s within a few
minutes), which no amount of repetition inside one run removes.  So the
harness runs a fixed slice of interpreter work -- dict updates, modular
powers, tuples and Fractions, the operations the library spends its time in
-- before an op whenever CAL_EVERY_S has passed since the last slice, and
scales the run's times by REF_SLICE_S over the mean slice time.  Slices
spread evenly over the run see the same average host speed as the ops, so a
slowdown of the host stretches both and cancels; a change to the library
changes only the ops.  The slice runs no windsym code, so no change to the
library can move it.
"""

import time
from fractions import Fraction

# About the mean slice time on a 2.1 GHz Xeon core under CPython 3.11; a
# scaled time is the time the op would take at that speed.
REF_SLICE_S = 0.020
CAL_EVERY_S = 0.25


def calibration_slice() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for k in range(30000):
        key = k * 7919 % 4099
        table[key] = table.get(key, 0) + k % 13
        acc += pow(k | 1, 5, 1000003)
        pair = (key, acc & 255)
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(k % 17, k % 11 + 1)
    if pair[0] < 0 or total < 0:
        raise AssertionError("unreachable; keeps the work live")
    return time.perf_counter() - start


class SpeedLog:
    """Calibration slices with the moments they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.slice_s: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= CAL_EVERY_S:
            self.slice_s.append(calibration_slice())
            self.at.append(now)

    def factor(self) -> float:
        """REF_SLICE_S over the run's mean slice time: multiply a host time
        by it to get the time at the reference speed."""
        return REF_SLICE_S * len(self.slice_s) / sum(self.slice_s)
