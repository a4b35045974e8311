"""Machine-speed reference for the benchmark's timings.

The reference machine is a shared host whose speed drifts by up to 2x over
seconds to minutes, in CPU time as in wall time, so raw times of the same
code spread by 25-45% between runs.  A calibration process therefore runs
beside the measured processes, on the same CPU, at the lowest priority
(nice 19): it takes about 1.5% of that CPU, in short slices spread through
every measured call.  It repeats a fixed pure-Python kernel and logs
(wall clock, its own CPU time, kernels done) after every chunk.  The kernel
rate over a call's wall-clock window is the machine's speed during that
call, and

    normalised seconds = CPU seconds of the call * rate / REF_RATE

is the CPU time the call would have taken at the reference speed.  This
assumes the program slows down with the machine as much as the kernel
does; see perfbench/README.md for how well that holds per workload.

    python3 perfbench/speed.py CPU LOGFILE
        run the calibration on CPU until its standard input closes, then
        write the log to LOGFILE.
"""

from __future__ import annotations

import array
import bisect
import os
import select
import subprocess
import sys
import time

# Kernels a second at the reference speed: about the median rate of the
# reference machine (2 vCPUs, x86_64, Python 3.11).  Fixed, so that
# normalised seconds stay comparable from commit to commit.
REF_RATE = 45000.0
# Kernels between two log rows (about 0.4 ms of CPU).
CHUNK = 16
# A call's speed is measured over at least this much calibration CPU time;
# shorter windows are widened to the neighbouring log rows.
MIN_CAL_CPU_S = 0.005


def _kernel() -> int:
    s = 0
    for i in range(300):
        s += i * i % 7
    return s


def start(cpu: int, log_path: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), str(cpu), log_path],
                            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)


def stop(proc: subprocess.Popen) -> int:
    """Close the calibration's stdin and wait until it has written its log."""
    try:
        proc.stdin.close()
        return proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -9


class SpeedLog:
    def __init__(self, path: str):
        rows = array.array("d")
        with open(path, "rb") as fh:
            rows.frombytes(fh.read())
        self.t, self.cpu, self.n = rows[0::3], rows[1::3], rows[2::3]
        if len(self.t) < 2:
            raise ValueError("the calibration logged fewer than two rows")

    def rate(self, t0: float, t1: float) -> float:
        """Kernels per CPU second of the calibration while [t0, t1] ran."""
        last = len(self.t) - 1
        i = max(bisect.bisect_right(self.t, t0) - 1, 0)
        j = min(bisect.bisect_left(self.t, t1), last)
        while self.cpu[j] - self.cpu[i] < MIN_CAL_CPU_S and (i > 0 or j < last):
            i, j = max(i - 1, 0), min(j + 1, last)
        return (self.n[j] - self.n[i]) / (self.cpu[j] - self.cpu[i])

    def factor(self, t0: float, t1: float) -> float:
        """Machine speed during [t0, t1] relative to the reference speed."""
        return self.rate(t0, t1) / REF_RATE


def main() -> int:
    cpu, log_path = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    rows = array.array("d")
    clock, cpu_clock = time.perf_counter, time.thread_time
    done = 0
    while True:
        for _ in range(CHUNK):
            _kernel()
        done += CHUNK
        rows.extend((clock(), cpu_clock(), done))
        # stdin reads as ready once the parent has closed it
        if done % (64 * CHUNK) == 0 and select.select([sys.stdin], [], [], 0)[0]:
            break
    with open(log_path, "wb") as fh:
        rows.tofile(fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
