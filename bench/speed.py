"""Machine-speed calibration for timings on a shared host.

On a host whose cores are shared with other tenants, the speed of the same
code swings by up to 2x within seconds, and process CPU time swings with wall
time, so neither clock alone gives steady figures. Every timed operation is
therefore bracketed by a fixed calibration kernel, and its time is reported
in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

where kernel seconds is the mean of the calibrations at the two ends of a
stretch of the operation. A Meter samples at the start, at the end, and
every INTERVAL_S in between, through tick(), which the benchmark calls from
a hook on the model's forward pass; time spent calibrating is left out. On a
machine where the kernel takes REFERENCE_S, the two kinds of seconds are
equal. The kernel mixes pure-Python dict and arithmetic work with
small numpy matmuls and reductions, the same mix as the program's hot path,
and it shares no code with the program.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.004  # kernel time on the reference machine (2-core Xeon VM at its fast phase)
REPEATS = 5  # kernel runs per calibration at the ends of an operation
SAMPLE_REPEATS = 3  # kernel runs per sample inside it
INTERVAL_S = 0.1

_A = np.linspace(-1.0, 1.0, 8 * 64).reshape(8, 64)
_B = np.linspace(-0.5, 0.5, 64 * 64).reshape(64, 64)


def kernel():
    acc: dict[int, int] = {}
    for i in range(5000):
        acc[i & 63] = acc.get(i & 63, 0) + i * i
    x = _A
    for _ in range(250):
        y = x @ _B
        x = np.tanh(y - y.mean(axis=1, keepdims=True))
    return acc, x


def calibrate(repeats: int = REPEATS) -> float:
    """Median seconds of a few kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor turning measured seconds into reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)


class Meter:
    """Times one operation at a time, in reference and in measured seconds."""

    def __init__(self):
        self.sampling = True  # off while spans are recorded, so they hold no calibration
        self._samples = False

    def start(self, samples: bool = True) -> None:
        """samples=False keeps calibration out of the window, for callers that
        time single calls inside it."""
        self._ref = 0.0
        self._raw = 0.0
        self._speed = calibrate()
        self._mark = time.perf_counter()
        self._samples = samples

    def tick(self) -> None:
        if self._samples and self.sampling and time.perf_counter() - self._mark >= INTERVAL_S:
            self._segment(SAMPLE_REPEATS)

    def _segment(self, repeats: int = REPEATS) -> None:
        raw = time.perf_counter() - self._mark
        speed = calibrate(repeats)
        self._ref += raw * scale(self._speed, speed)
        self._raw += raw
        self._speed = speed
        self._mark = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Reference seconds and measured seconds since start()."""
        self._segment()
        self._samples = False
        return self._ref, self._raw
