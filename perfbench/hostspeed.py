"""Host speed, measured beside the program so that its timings can be corrected.

On a shared virtual machine (measured on a 2-vCPU Xeon at 2.0 GHz) the
speed a single thread gets swings by up to about 1.6x, in phases that last
from seconds to minutes: one run can fall wholly in a slow phase and the next
in a fast one.  So a fixed pure-Python reference loop is timed between items
(and every `RECORD_STRIDE` records of a streamed call), and each timed
interval is scaled by REFERENCE_NS over the reference time around it.  The
result is the interval's length at the reference speed: on an uncontended
host it is about the raw time, and a program that gets 10% slower reads about
10% slower whatever phase the host is in.  Reference samples pause the clock, so
they never count in the program's time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations
from time import perf_counter_ns

# the reference loop's time on an uncontended 2-vCPU Xeon at 2.0 GHz
REFERENCE_NS = 900_000
RECORD_STRIDE = 64  # streamed records between reference samples
_BLOCK = bytes(range(256)) * 256


def reference() -> int:
    """Integer, tuple, dict and big-integer XOR work, in roughly equal shares."""
    total, table, row = 0, {}, []
    for i in range(1, 1200):
        total += (i * i) % 7 ^ (i << 3)
        table[i & 31] = total
        row.append(total & 255)
        if i % 16 == 0:
            row = row[-8:]
    for _ in range(10):
        index = {subset: n for n, subset in enumerate(combinations(range(8), 3))}
        total += sum(hash(subset) & 7 for subset in combinations(range(9), 4)) + len(index)
    bits = int.from_bytes(_BLOCK, "little")
    for shift in range(1, 5):
        total += len((bits ^ (bits >> shift)).to_bytes(len(_BLOCK) + 1, "little"))
    return total


def sample() -> int:
    """Reference loop time in ns: the faster of two, so one interrupt does not count."""
    best = None
    for _ in range(2):
        start = perf_counter_ns()
        reference()
        took = perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best


class Clock:
    """Program time (wall time minus reference sampling) and the reference samples taken."""

    def __init__(self):
        self.paused_ns = 0
        self.at: list[int] = []  # program time of each sample, ascending
        self.ref_ns: list[int] = []

    def now(self) -> int:
        return perf_counter_ns() - self.paused_ns

    def mark(self) -> None:
        """Take a reference sample; the clock stands still meanwhile."""
        begun = perf_counter_ns()
        self.at.append(begun - self.paused_ns)
        self.ref_ns.append(sample())
        self.paused_ns += perf_counter_ns() - begun

    def scaled(self, start: int, end: int) -> float:
        """Length of [start, end] at reference speed, from the samples on either side."""
        before = max(0, bisect_right(self.at, start) - 1)
        after = min(len(self.at) - 1, bisect_left(self.at, end))
        local = (self.ref_ns[before] + self.ref_ns[after]) / 2
        return (end - start) * REFERENCE_NS / local
