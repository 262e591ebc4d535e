"""Host-speed calibration for the times the benchmark reports.

On the shared two-core host this benchmark was built on, the same CPU-bound
work runs up to 25-40% faster or slower from one minute to the next.  So the
benchmark times a fixed kernel between ops, and scales the times of a phase
(the set-ups, the timed ops) by the kernel's nominal time over the geometric
mean of the kernel timings taken during that phase.  Reported times
therefore read as they would on a host where the kernel takes its nominal
time; the raw times are printed next to them.  No change to the library
can move a kernel.

Two kernels, each matched to the work it stands for:

  elimination   exact Gaussian elimination of a 32 x 32 rational matrix in
                this process (stdlib only, nothing from the library), whose
                entries grow as they do in the library's exact solves; for
                the in-process workloads.
  interpreter   a bare `python -c pass` child without the checkout on its
                path; for the CLI workload, whose children are mostly
                interpreter start and import.

In probes, 20 s means of in-process ops tracked the elimination's with a
correlation of 0.8-0.95, and scaling by it took their deviation between
20 s blocks from about 0.08 to 0.03-0.05.  CLI children tracked it far
less (0.4-0.7, and no better after scaling), but tracked the bare
interpreter start at 0.8-0.9 (deviation 0.05-0.06 down to 0.04-0.05).

One factor per phase, not one per op: a single kernel timing is as noisy as
a single op (15% on that host), so a per-op factor added noise to every op,
and most to the slowest, which a tail statistic then picked out.  The mean
of a few dozen timings over the phase does not.  An elimination sample runs
with the garbage collector off: the kernel allocates only acyclic
Fractions, and a collection started inside it would be paid for the heap
the workload holds, not for the host's speed.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from functools import partial
from time import perf_counter

KERNEL_N = 32


def _kernel_matrix(n):
    rng = random.Random(20221005)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]


def _eliminate(rows):
    rows = [row[:] for row in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _time_elimination(matrix):
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _eliminate(matrix)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _time_interpreter(env):
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True,
                   check=True, timeout=120)
    return perf_counter() - t0


# kernel -> its usual time on the tuning host
NOMINAL_S = {"elimination": 0.14, "interpreter": 0.09}


class Speed:
    """Kernel timings taken between ops, and the scale they give.

    `every_s` is how old the last sample may get before `tick` takes
    another, and `per_tick` how many a tick takes: workloads whose ops last
    seconds take several at once, so that a phase still has a few dozen.
    """

    def __init__(self, kernel="elimination", every_s=1.0, per_tick=1):
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        if kernel == "elimination":
            self._time = partial(_time_elimination, _kernel_matrix(KERNEL_N))
        else:
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            self._time = partial(_time_interpreter, env)
        self.every_s = every_s
        self.per_tick = per_tick
        self.times = []  # when each sample ended
        self.samples = []  # kernel seconds

    def sample(self):
        self.samples.append(self._time())
        self.times.append(perf_counter())

    def tick(self):
        """Take per_tick samples when the last one is more than every_s old."""
        if not self.times or perf_counter() - self.times[-1] >= self.every_s:
            for _ in range(self.per_tick):
                self.sample()

    def scale(self, start):
        """Factor that turns raw times of work done since start into times
        at nominal host speed: the nominal kernel time over the geometric
        mean of the samples taken since then (or of the latest one)."""
        return self.nominal_s / self.mean_kernel_s(start)

    def mean_kernel_s(self, start=0.0):
        """Geometric mean of the samples taken since start, or the latest one."""
        since = [s for t, s in zip(self.times, self.samples) if t >= start]
        return statistics.geometric_mean(since or self.samples[-1:])
