"""Host-speed calibration for the reported timings.

The benchmark is meant to run on small shared hosts whose speed drifts
with their neighbours' load: on the 2-core host it was tuned on, the
same repetition took 1.0 s in one ten-minute window and 1.7 s in the
next, moving whole runs together.  A fixed reference computation,
timed between repetitions, measures that speed.  Every reported timing
is scaled by ``NOMINAL_S / reference``, so it reads as seconds on a host
that runs the reference in :data:`NOMINAL_S`.

The reference runs in a process of its own (this module run as a
script), started once per run and fed requests over a pipe, so nothing
the program leaves in the benchmark's process — its heap, its caches,
its imports — changes the reference's work.  Threads the program leaves
running (a spinning BLAS pool, a helper thread) would still compete for
the host's cores, so every reference checks that the benchmark's
process used no CPU and had no live child processes while it ran; a
reference that fails the check is retried after a pause, and one that
fails every attempt is counted in :attr:`HostSpeed.busy` and reported.

The reference mixes the three kinds of work the simulator does, each
of which the host's load slows differently: an interpreter loop over a
dict, many small-array NumPy calls, and random reads over a working set
larger than a core's share of the cache.  Its value is the geometric
mean of the three kernels' median times.  Under load the reference
slows somewhat more than the simulator does (log-log slope 0.5-0.7 on
the tuning host), so scaled timings taken on a loaded host read a
little lower than on an idle one; the benchmark prints the unscaled
medians next to the scaled ones.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["NOMINAL_S", "HostSpeed"]

#: Reference time on an unloaded tuning host; a constant, so scaled
#: timings compare across runs and commits.
NOMINAL_S = 0.008

#: Timings per kernel; their median counts.
_SAMPLES = 3
#: CPU the benchmark's process may use while a reference runs, as a
#: share of the reference's wall time (the pipe round trip costs ~0).
_IDLE_SHARE = 0.05
#: Attempts per reference, and the pause between them.
_ATTEMPTS = 3
_PAUSE_S = 0.05


def _interpreter() -> float:
    acc, table = 0, {}
    for i in range(40_000):
        acc += i * i % 7
        table[i & 255] = acc
    return float(acc)


def _small_arrays() -> float:
    a = np.arange(64, dtype=np.float64)
    acc = 0.0
    for i in range(1_500):
        b = a * 1.0001 + i
        acc += float(b.sum()) + float(np.argmax(b))
    return acc


class _Reference:
    """The reference computation and its buffers (about 60 MB)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._big = rng.random(4_000_000)  # 32 MB
        self._index = rng.integers(0, self._big.size, 400_000)
        self._table = {i: float(i) for i in range(200_000)}
        self._keys = rng.integers(0, 200_000, 25_000).tolist()

    def _memory(self) -> float:
        acc = float(self._big[self._index].sum())
        table = self._table
        for k in self._keys:
            acc += table[k]
        return acc

    def seconds(self) -> float:
        """Seconds the reference takes now (geometric mean of kernels)."""
        logs = []
        for kernel in (_interpreter, _small_arrays, self._memory):
            times = []
            for _ in range(_SAMPLES):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            logs.append(math.log(statistics.median(times)))
        return math.exp(sum(logs) / len(logs))


def _serve() -> None:
    """Answer every line on stdin with one reference time."""
    reference = _Reference()
    for _ in sys.stdin:
        sys.stdout.write(f"{reference.seconds()!r}\n")
        sys.stdout.flush()


class HostSpeed:
    """A handle on the reference process; close it (or use ``with``)."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        #: References during which this process was never idle.
        self.busy = 0

    def _ask(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed reference process exited")
        return float(line)

    def reference_s(self) -> float:
        """Seconds the reference takes now, measured while this process
        is idle if it can be."""
        for attempt in range(_ATTEMPTS):
            if attempt:
                time.sleep(_PAUSE_S)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            seconds = self._ask()
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
            if cpu <= _IDLE_SHARE * wall and not multiprocessing.active_children():
                return seconds
        self.busy += 1
        return seconds

    def close(self) -> None:
        """Stop the reference process and wait for it."""
        if self._proc.stdin is not None and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve()
