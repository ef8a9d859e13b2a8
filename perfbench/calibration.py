"""Machine-speed calibration for the benchmark's timings.

The speed of a shared host drifts: on the 2-core sandbox the benchmark was
built on, the same pass took anywhere from 2.2 s to 4.0 s within 90 seconds,
and a fixed pure-Python loop slowed down in step with it.  The workloads
spend most of their time in the interpreter, so the benchmark times that loop
from a timer signal every ``SAMPLE_PERIOD_S`` while the passes run, subtracts
the probes' own time from each pass, and scales the pass by ``REFERENCE_S /
mean probe time inside it`` (correlation 0.98 with the pass times; the
per-pass spread fell from 14% to 4.5%).  The scaled figures read as seconds
on a machine where one probe takes ``REFERENCE_S``, about this sandbox's
typical speed.
"""

from __future__ import annotations

import signal
import statistics
import time

# Time of one speed_probe() at the reference speed.
REFERENCE_S = 0.0015
SAMPLE_PERIOD_S = 0.1
_ITERATIONS = 20_000


def speed_probe() -> float:
    """Seconds taken by a fixed interpreter-bound loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured at a speed where speed_probe() took ``probe_s``,
    expressed at the reference speed."""
    return seconds * REFERENCE_S / probe_s


def probe_now() -> float:
    """Median of nine back-to-back probes, for timings made between passes."""
    return statistics.median(speed_probe() for _ in range(9))


class SpeedSampler:
    """Run speed_probe() from SIGALRM every SAMPLE_PERIOD_S while active.

    The handler runs in the main thread between bytecodes, so the probes land
    inside the passes they calibrate.  Python retries system calls that the
    signal interrupts, so the program's behaviour is unchanged.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)
        self._previous = None

    def _on_alarm(self, signum, frame):
        seconds = speed_probe()
        self.samples.append((time.perf_counter(), seconds))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(signal.SIGALRM, None)  # a sample after the last pass

    def during(self, start: float, end: float) -> tuple[float, float]:
        """(mean probe time, total probe time) of the samples that ended in
        [start, end]; a pass shorter than the period gets the next sample."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside), sum(inside)
        return next(s for t, s in self.samples if t > end), 0.0
