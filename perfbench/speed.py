"""Machine-speed sampler: rescales a region's wall time to a fixed speed.

The benchmark runs on shared virtual machines whose speed moves by 1.5x
within seconds and by 2x over minutes, with CPU time moving with wall
time, so the wall time of a fixed piece of work says as much about the
machine as about the program.  While a region is timed, a timer signal
interrupts the program every ``INTERVAL_S`` seconds and runs a small
fixed reference kernel (a ``difflib`` match of two fixed strings, which
shares no code with ``src/``) and records how long it took.  The
region's wall time, kernel calls left out, is rescaled by the mean
kernel time over the region, samples at both ends included::

    normalised = wall_s * REF_KERNEL_S / mean(kernel_s)

Samples come at even wall-time intervals, so the mean weights each
stretch of the region by its length, and a region that took twice as
long because the machine ran at half speed reads the same.
``REF_KERNEL_S`` is a constant, so normalised seconds are comparable
across runs, seeds and commits: they are the time the region would take
on a machine where one kernel call takes ``REF_KERNEL_S`` seconds.
"""

from __future__ import annotations

import difflib
import gc
import random
import signal
import statistics
from time import perf_counter
from typing import Any

#: Seconds between two samples while a region is timed.
INTERVAL_S = 0.2
#: Letters in each of the two strings the kernel compares (4-7 ms).
KERNEL_CHARS = 300
#: Kernel time that defines the reference speed.
REF_KERNEL_S = 0.004


class SpeedSampler:
    """Samples machine speed with a timer signal; see the module doc."""

    def __init__(self) -> None:
        rng = random.Random(20231017)
        self._a, self._b = ("".join(rng.choice("abcdefgh ")
                                    for _ in range(KERNEL_CHARS))
                            for _ in range(2))
        #: (start, end) of every kernel call since :meth:`start`.
        self.samples: list[tuple[float, float]] = []
        self._previous: Any = None

    def _kernel(self) -> float:
        # difflib's matcher is pure Python over dicts and lists, like the
        # program.  Of the kernels tried, it slowed down the most like the
        # program when the machine did: tight loops over a few lines, and
        # C-coded work such as json, slowed less (see NOTES.md, Noise).
        matcher = difflib.SequenceMatcher(None, self._a, self._b,
                                          autojunk=False)
        return matcher.ratio()

    def sample(self, *_signal_args: Any) -> int:
        """Time one kernel call; returns the sample's index.

        The collector is off during the call: a full collection walks the
        program's whole heap, and one landing in a sample would read as a
        slow machine.
        """
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        self._kernel()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((start, end))
        return len(self.samples) - 1

    def start(self) -> None:
        self._kernel()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def between(self, first: int, last: int) -> tuple[float, float]:
        """``(wall_s, normalised_s)`` of the program work between two
        samples taken with :meth:`sample`, kernel time excluded."""
        window = self.samples[first:last + 1]
        kernel = [end - start for start, end in window]
        wall = window[-1][0] - window[0][1] - sum(kernel[1:-1])
        return wall, wall * REF_KERNEL_S / statistics.mean(kernel)
