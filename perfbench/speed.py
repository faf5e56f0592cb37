"""Machine speed, measured with fixed reference work next to the benchmark.

The speed of a shared machine swings by up to 2x, for seconds or minutes at
a time, and a whole run can fall into a slow stretch.  Each timed figure is
therefore reported at a reference speed: it is multiplied by the nominal
time of a reference job divided by the fastest time that job took in the
same stretch, within a second or two of it.  The reference jobs do not use
capacity-lab, so no change to the package moves them: a bare interpreter
start (also reported as the cli.interpreter_ms control) for process-bound
work, a fixed pure-Python loop for in-process work.  The nominal times are
the fastest seen on the 2-vCPU 2.0 GHz Xeon sandbox the benchmark was
tuned on.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction

INTERPRETER_MS = 50.0
PYTHON_LOOP_MS = 4.0


def interpreter_start(ctx):
    """Reference for process-bound work: start and stop a bare interpreter."""

    def run():
        subprocess.run([sys.executable, "-c", "pass"], cwd=ctx.root, env=ctx.env, check=True)

    return run, INTERPRETER_MS, 1.0


def _python_loop() -> int:
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        table[i % 256] = f"{acc.numerator % 1000}"
    return len(table)


def python_loop():
    """Reference for in-process work: fixed rational arithmetic and dict updates."""
    return _python_loop, PYTHON_LOOP_MS, 0.25


class Speed:
    """Timed runs of a reference job, taken every ``every_s`` seconds.

    ``factors`` gives, for each timed interval, the nominal time of the job
    over its fastest run within ``2 * every_s`` seconds of the interval, so
    that each interval is judged against the speed of its own stretch.
    """

    def __init__(self, job, nominal_ms: float, every_s: float):
        self.job = job
        self.nominal_ms = nominal_ms
        self.every_s = every_s
        self._times = []  # when each reference run ended
        self._ms = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            self.job()
            end = time.perf_counter()
            self._times.append(end)
            self._ms.append((end - start) * 1e3)

    def maybe_sample(self) -> None:
        if not self._times or time.perf_counter() - self._times[-1] >= self.every_s:
            self.sample()

    def factor(self) -> float:
        """Factor for everything timed so far, from the fastest run."""
        return self.nominal_ms / min(self._ms)

    def median_ms(self) -> float:
        return statistics.median(self._ms)

    def factors(self, starts: list[float], durations: list[float]) -> list[float]:
        """Factor for each interval (start, start + duration).

        A reference run follows every interval longer than ``every_s`` and
        precedes every other one by less than ``every_s``, so each window
        holds at least one run.
        """
        window = 2 * self.every_s
        out = []
        for start, duration in zip(starts, durations):
            lo = bisect.bisect_left(self._times, start - window)
            hi = bisect.bisect_right(self._times, start + duration + window)
            out.append(self.nominal_ms / min(self._ms[lo:hi]))
        return out
