"""Machine-speed calibration, so that timings taken on a shared virtual
machine whose speed drifts can be compared between runs.

On a few vCPUs of a shared host, other tenants move the execution speed by
up to ±30 % over seconds and minutes, with no steal time, so no timer of the
benchmark process can tell program cost from machine speed. A fixed piece of
work that does not touch metapop, timed between the repetitions, can: it
slows down with the machine and not with the program. :class:`Calibrator`
runs that work in a child process, so that it shares nothing with the
benchmark process (heap, peak RSS, imported modules) but the machine, and
the benchmark divides the run's mean repetition time by its mean
calibration time.

The work mixes what metapop spends its time on: interpreter-level loops,
small numpy calls, 10×10 symmetric eigendecompositions, and dependent loads
from a 16 MB table, larger than a core's private caches, as a Python heap
is.

Run as a program, this module is the child: each line on stdin runs the work
once and prints its wall time in seconds; end of input ends it.
"""

from __future__ import annotations

import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Calibration time, in seconds, that defines the reference machine speed.
#: A normalised time is what the measured time would have been on a machine
#: where one calibration takes this long. It is close to this module's
#: median on the 2-vCPU 2.1 GHz Xeon the benchmark was tuned on.
REFERENCE_S = 1.5

TABLE_SIZE = 1 << 22
CHASE_STEPS = 3_000_000


def make_inputs() -> tuple[array, np.ndarray]:
    """The work's fixed inputs: a random permutation table and a 10×10
    covariance matrix."""
    rng = np.random.default_rng(0)
    table = array("i", rng.permutation(TABLE_SIZE).astype(np.int32).tobytes())
    m = rng.standard_normal((10, 10))
    return table, m @ m.T


def work(table: array, cov: np.ndarray) -> None:
    s = 0
    for i in range(2_400_000):
        s += i * i % 7
    a = np.arange(20.0)
    for _ in range(120_000):
        a = np.sqrt(a + 1.0)
        a.sort()
    for _ in range(9000):
        np.linalg.eigh(cov)
    j = 0
    for i in range(CHASE_STEPS):
        j = table[(j + i) % TABLE_SIZE]


def child_main() -> None:
    inputs = make_inputs()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        work(*inputs)
        print(repr(time.perf_counter() - t0), flush=True)


class Calibrator:
    """The calibration child process; use as a context manager. The child is
    ended and waited for on every way out of the ``with`` block."""

    def __enter__(self) -> "Calibrator":
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def measure(self) -> float:
        """Wall time of one calibration, in seconds, timed inside the child."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with code {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()  # end of input ends the child
        except BrokenPipeError:
            pass  # it has ended already
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    child_main()
