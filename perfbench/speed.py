"""A speed meter for the shared machine the benchmark runs on.

The CPU speed such a machine leaves a process drifts by tens of percent over
minutes, so the same pass of the same code can take 1.8x longer from one
minute to the next. The worker therefore interleaves a fixed slice of
pure-Python work between items, about one tenth of the item time, and
records how long the slices took. run.py scales every time measured in a pass
by REFERENCE_S / (median slice time in that pass), which expresses it at one
fixed machine speed; the raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# One slice took about this long on the machine the benchmark was written on.
REFERENCE_S = 0.00065
SHARE = 0.1
_FACETS = (0b1111111, 0b1111110000000, 0b1010101010101, 0b111000111000111)


def work_slice() -> int:
    """Submask walks into a set and a dict, then a keyed sort: the library's kind of work."""
    faces: set[int] = set()
    sizes: dict[int, int] = {}
    for facet in _FACETS:
        sub = facet
        while True:
            faces.add(sub)
            sizes[sub] = sizes.get(sub, 0) + sub.bit_count()
            if sub == 0:
                break
            sub = (sub - 1) & facet
    return len(sorted(faces, key=lambda m: (m.bit_count(), m)))


class Meter:
    """Runs slices worth SHARE of the time it is told about; keeps their durations."""

    def __init__(self):
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, spent: float) -> None:
        self._owed += SHARE * spent
        while self._owed > 0 or not self.samples:
            t0 = time.perf_counter()
            work_slice()
            took = time.perf_counter() - t0
            self.samples.append(took)
            self._owed -= took

    def median(self) -> float:
        return statistics.median(self.samples)
