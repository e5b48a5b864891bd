"""Machine-speed samples taken in the measuring thread itself.

The machines this benchmark runs on change speed by tens of per cent
within seconds, because other tenants share their cores and memory
(the same job measured twice a minute apart can differ by 30 %).  So
while it measures, a worker lets a ``Sampler`` time ``spin()``, a fixed
piece of Python that allocates no objects the cycle collector tracks,
from a SIGALRM handler every INTERVAL_S seconds.  The handler runs in
the thread that runs qtrace, so it sees the speed that thread gets, and
it costs about 2 % of the time.

``rescale`` turns a measured interval into seconds at the reference
speed: the interval minus the sampler's own time inside it, times
NOMINAL_S over the mean sample time around it.
"""

import signal
import statistics
import time

INTERVAL_S = 0.05
NOMINAL_S = 0.0015  # spin() time that defines the reference speed
WINDOW_S = 0.5  # samples this close to an interval describe its speed
MIN_SAMPLES = 3
EDGE_SAMPLES = 3


def spin():
    table = dict.fromkeys(range(997), 0)
    for i in range(8000):
        table[i % 997] += i
    return table[0]


class Sampler:
    """Times spin() from a SIGALRM handler between start() and stop();
    samples are (start, end) pairs in time.perf_counter seconds."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        spin()
        self.samples.append((start, time.perf_counter()))

    def start(self):
        """Take EDGE_SAMPLES samples at once, then one every INTERVAL_S."""
        for _ in range(EDGE_SAMPLES):
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling and take EDGE_SAMPLES samples at once, so that
        even a short interval has samples on both sides."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE_SAMPLES):
            self._sample(None, None)


def rescale(start, end, samples):
    """Seconds the interval [start, end] takes at the reference speed."""
    own = sum(b - a for a, b in samples if start <= a and b <= end)
    middle = (start + end) / 2
    near = [(a, b) for a, b in samples if start - WINDOW_S <= (a + b) / 2 <= end + WINDOW_S]
    if len(near) < MIN_SAMPLES:
        near = sorted(samples, key=lambda s: abs((s[0] + s[1]) / 2 - middle))[:MIN_SAMPLES]
    if not near:
        raise ValueError("no speed samples were taken")
    return (end - start - own) * NOMINAL_S / statistics.fmean(b - a for a, b in near)
