"""A probe of the machine's speed, to put timings on one scale.

The benchmark's host is shared. In two one-minute runs of identical split
draws on a 2-core Xeon VM, two-second windows took from 0.71x to 1.42x of
their median time, and process CPU time moved with wall time, so neither clock
removes the swing. A fixed reference computation timed in the same process
swings with it: in the second run the ratio of draw time to reference time
stayed within 0.90x-1.06x.

`SpeedProbe` runs a reference computation from a SIGALRM handler every
`interval_s` while operations run, so it samples the speed during long
operations (a 12 s pipeline) as well as between short ones (a 40 ms split
draw). `SpeedProbe.scale` then gives each timed item

    reference-speed time = (wall time - probe time inside it) x nominal_s / R

where R is the mean reference time of the samples taken from `WINDOW_S`
before the item to its end. A reference touches only numpy, never masktab, so
a change to the library moves the scaled times and leaves R alone.

There are two references, each like the work it scales. `SMALL` is what the
importance and split workloads do: GEMMs on cache-sized arrays and dict-heavy
Python. `TRAIN_STEP` is what most of a pipeline does: a training step of the
pretrained network at batch 40, whose weights and Adam moments (about 3 MB
each) outgrow the core's cache. Over one set of ten pipeline runs the SMALL
probe read the machine as fast while pipelines ran 25% slower than in an
earlier set; split and importance runs in the same set did not move.
"""

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

WINDOW_S = 1.0  # samples this long before an item, and during it, set its speed


def small_kernels() -> Callable[[], object]:
    """A run of small GEMMs, elementwise numpy and dict-heavy Python."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 337))
    w1 = rng.standard_normal((337, 64))
    w2 = rng.standard_normal((64, 32))

    def run() -> float:
        acc = 0.0
        for _ in range(40):
            h = np.maximum(x @ w1, 0.0)
            acc += float((h @ w2).sum())
        table: dict[int, int] = {}
        for k in range(4000):
            table[k % 97] = table.get(k % 97, 0) + k
        return acc

    return run


def train_step() -> Callable[[], object]:
    """A run of forward, backward and Adam update of a 337-512-256-128 backbone
    with two 24-column heads, as the default pipeline's pretrained models
    have, on 40 rows."""
    rng = np.random.default_rng(0)
    dims = (337, 512, 256, 128)
    ws = [0.05 * rng.standard_normal((a, b)) for a, b in zip(dims, dims[1:])] + [
        0.05 * rng.standard_normal((128, 24)) for _ in range(2)]
    ms = [np.zeros_like(w) for w in ws]
    vs = [np.zeros_like(w) for w in ws]
    x = rng.standard_normal((40, 337))
    y = rng.standard_normal((40, 24))

    def run() -> None:
        hs = [x]
        for w in ws[:3]:
            hs.append(np.maximum(hs[-1] @ w, 0.0))
        grads = [None] * len(ws)
        gh = np.zeros_like(hs[-1])
        for k, w in enumerate(ws[3:], start=3):
            d = (hs[-1] @ w - y) / len(y)
            grads[k] = hs[-1].T @ d
            gh += d @ w.T
        for i in (2, 1, 0):
            gh = gh * (hs[i + 1] > 0)
            grads[i] = hs[i].T @ gh
            gh = gh @ ws[i].T
        for w, g, m, v in zip(ws, grads, ms, vs):
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g * g
            w -= 1e-6 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)

    return run


@dataclass(frozen=True)
class Reference:
    build: Callable[[], Callable[[], object]]  # makes the arrays, returns the run
    # Median time of one probe while a workload runs, on a 2-core Intel Xeon
    # VM (Python 3.11, OpenBLAS, one BLAS thread). Scaled times are what an
    # item takes when the machine runs the reference this fast.
    nominal_s: float
    interval_s: float  # about 30 x nominal_s: probing costs about 3% of a run


SMALL = Reference(small_kernels, nominal_s=3.0e-3, interval_s=0.1)
TRAIN_STEP = Reference(train_step, nominal_s=8.5e-3, interval_s=0.25)


class SpeedProbe:
    """Samples (start, duration) of a reference computation on a timer."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self._run = reference.build()
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late tick while a probe runs
            return
        self._busy = True
        t0 = time.perf_counter()
        self._run()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._run()  # warm: first-call costs are not the machine's speed
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        interval = self.reference.interval_s
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """The run's median speed relative to nominal (above 1 = faster)."""
        return self.reference.nominal_s / statistics.median(d for _, d in self.samples)

    def factor(self, start: float, end: float) -> float:
        """Nominal / mean probe time over the samples from WINDOW_S before
        start to end; the timer ticks more often than WINDOW_S."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end]
        return self.reference.nominal_s / statistics.fmean(near)

    def scale(self, start: float, end: float) -> float:
        """Reference-speed duration of an item this process ran from start
        to end, less the probes that ran inside it."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        return (end - start - inside) * self.factor(start, end)
