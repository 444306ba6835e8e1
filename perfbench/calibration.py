"""Machine-speed calibration for a shared, noisy host.

On a shared two-vCPU KVM guest (Intel Xeon, 2.1 GHz), a vCPU drifts
between slow and fast phases, and raw timings of the same work spread by
20-30% between runs.  A fixed reference kernel, which touches nothing in
frameparse, runs between timed windows; a window's timings are scaled by
NOMINAL_S over the reference's mean time before and after the window.  A
change to frameparse cannot move the reference, so it moves scaled timings
as much as raw ones.

The kernel mixes small matrix-vector products (what decoding and training
do) with random reads from an array four times the size of the L2 cache
(what the text pipeline's pointer chasing and garbage collection do).  On
blocks of twelve seconds of greedy decoding, the spread of throughput
(interquartile range over median) was 14% raw, 5% scaled by the products
alone and 3% by the mix; for training 22% raw and 6.5% either way.  The
corpus workload's twenty-second pass is too long for one scale, so it is
scaled lap by lap with LapTimer: over twelve passes of one input its
spread was 8.5% raw, 12% scaled by the products alone, 8.6% by the mix.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns

import numpy as np

NOMINAL_S = 0.006  # the reference kernel's time in a fast phase


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._weight = rng.standard_normal((656, 328)).astype(np.float32)
        self._x = rng.standard_normal(328).astype(np.float32)
        self._far = rng.standard_normal(1 << 20)  # 8 MiB
        self._picks = rng.integers(0, self._far.size, 200_000)
        self._sample()
        self._last = self._sample()

    def _kernel(self) -> float:
        """Small matrix-vector products, gate math and Python object churn,
        then random reads that miss the L2 cache."""
        total = 0.0
        table = {}
        for i in range(200):
            z = self._weight @ self._x
            gate = 1.0 / (1.0 + np.exp(-z[:164]))
            total += float(np.tanh(z[164:328]).sum() * gate[0])
            table[i % 17] = (i, total)
            words = [str(j) for j in range(16)]
            total += len(" ".join(words))
        return total + float(self._far[self._picks].sum())

    def _sample(self) -> float:
        """Best of two timings of the reference kernel, in seconds."""
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - start)
        return best

    def factor(self) -> float:
        """Scale for work timed since the previous call (or since
        construction): NOMINAL_S over the mean reference time around it."""
        now = self._sample()
        scale = NOMINAL_S / ((self._last + now) / 2.0)
        self._last = now
        return scale


class NoCalibration:
    """Every scale is 1, for timings scaled elsewhere: a corpus pass scales
    its own laps, and a traced pass is scaled as a whole."""

    @staticmethod
    def factor() -> float:
        return 1.0


class LapTimer:
    """Calibrated time of long work, split into laps.

    Each lap is scaled by the reference kernel timed right before and after
    it, so the scale follows the host through work that lasts longer than
    its fast and slow phases; scaling a twenty-second corpus pass by samples
    taken only at its two ends left it as unsteady as raw timing.  Latencies
    recorded during a lap get the lap's scale.
    """

    def __init__(self, calibration):
        self._calibration = calibration
        self.raw_ns = 0
        self.scaled_ns = 0.0
        self.latencies_ns = []
        self._pending = []
        calibration.factor()  # start the first lap here
        self._start = perf_counter_ns()

    def record(self, latency_ns: int) -> None:
        self._pending.append(latency_ns)

    def lap(self) -> None:
        raw = perf_counter_ns() - self._start
        scale = self._calibration.factor()
        self.raw_ns += raw
        self.scaled_ns += raw * scale
        self.latencies_ns.extend(ns * scale for ns in self._pending)
        self._pending.clear()
        self._start = perf_counter_ns()
