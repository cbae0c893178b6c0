"""A wall clock corrected for the speed of a shared host.

On a small shared machine the CPU runs 20-70% slower for seconds at a time
when other tenants are busy, which swamps any change the benchmark is meant
to resolve.  ``HostClock`` runs a fixed reference loop, written without
semicrm so that a faster semicrm cannot speed it up, before and after every
timed interval and, while the clock is entered, every ``PERIOD_S`` from a
SIGALRM handler.  Reference time is excluded from the intervals.  Each
interval is then rescaled by ``REFERENCE_S / mean(reference time)`` over the
samples within ``WINDOW_S`` of it: the seconds it would have taken on a host
that runs the reference in ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Reference time on a quiet 2-core x86-64 host (Python 3.11, numpy 2.4).
REFERENCE_S = 0.009
PERIOD_S = 0.1
# Samples this close to an interval (either side) estimate the host speed for it.
WINDOW_S = 1.0

_X = np.linspace(-2.0, 2.0, 5400 * 10).reshape(5400, 10)
_ACTIONS = np.arange(5400) % 5
_W = [np.linspace(-0.5, 0.5, a * b).reshape(a, b) for a, b in ((10, 20), (20, 20), (20, 5))]
_BIAS = [np.zeros(20), np.zeros(20), np.zeros(5)]
_TABLE = np.linspace(0.0, 1.0, 400_000)  # 3.2 MB, beyond the per-core caches
_GATHER = (np.arange(32_768) * 7919) % len(_TABLE)


def _policy_step(X: np.ndarray, actions: np.ndarray) -> float:
    """Forward, softmax and backward of a d-20-20-k ReLU scorer."""
    cache = [X]
    h = X
    for w, b in zip(_W[:-1], _BIAS[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        cache.append(h)
    scores = h @ _W[-1] + _BIAS[-1]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    delta = -e / e.sum(axis=1, keepdims=True)
    delta[np.arange(len(actions)), actions] += 1.0
    norm = 0.0
    for layer in range(len(_W) - 1, -1, -1):
        grad = cache[layer].T @ delta
        norm += float(np.sum(grad * grad)) + float(np.sum(delta.sum(axis=0) ** 2))
        if layer > 0:
            delta = (delta @ _W[layer].T) * (cache[layer] > 0.0)
    return norm


def reference_work() -> float:
    """The workloads' mix, written without semicrm: interpreted arithmetic,
    minibatch draws and small-batch policy steps, CSV-style text, and
    gathers over a table larger than the per-core caches."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    rng = np.random.Generator(np.random.PCG64(7))
    acc = 0.0
    for _ in range(12):
        idx = np.sort(rng.permutation(len(_X))[:64])
        acc += _policy_step(_X[idx], _ACTIONS[idx])
    for row in _X[:100]:
        line = ",".join(f"{v:.17g}" for v in row)
        acc += sum(float(field) for field in line.split(","))
    for _ in range(3):
        acc += float(np.sort(_TABLE[_GATHER])[-1])
    return total + acc


@dataclass
class Interval:
    start: float
    end: float
    raw_s: float  # end - start without the reference samples taken inside
    cpu_s: float  # process CPU time, likewise


class HostClock:
    """Times intervals; corrects them for host speed once the run is over."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.paused = 0.0
        self.last: Interval | None = None
        self._busy = False
        self._previous_handler = None

    def __enter__(self) -> "HostClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, _signum, _frame) -> None:
        if not self._busy:
            self.sample()

    def sample(self) -> None:
        self._busy = True
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.paused += elapsed
        self._busy = False

    def elapsed(self) -> float:
        """A monotonic clock that stands still while a reference sample runs,
        for spans that should not include the samples."""
        return time.perf_counter() - self.paused

    def time(self, fn) -> Interval:
        """Run ``fn()``; return and keep in ``last`` its interval, also when
        it raises."""
        self.sample()
        paused = self.paused
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            fn()
        finally:
            end = time.perf_counter()
            pause = self.paused - paused
            self.last = Interval(start, end, end - start - pause,
                                 time.process_time() - cpu - pause)
            self.sample()
        return self.last

    def corrected(self, interval: Interval) -> float:
        """Seconds the interval would have taken on the reference host."""
        near = [d for t, d in self.samples
                if interval.start - WINDOW_S <= t <= interval.end + WINDOW_S]
        return interval.raw_s * REFERENCE_S / statistics.mean(near)
