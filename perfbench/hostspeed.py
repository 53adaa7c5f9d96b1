"""How fast the host runs right now, from a fixed job that runs no wattcount code.

On a shared host the speed of one and the same job drifts by a third or
more over minutes. A measured run asks a helper process to time
``reference_job`` between its passes and stages, outside every timing, and
states its times at the reference speed: divided by ``HostSpeed.factor()``,
the mean job time over REFERENCE_JOB_S. A change to wattcount cannot move
the job, so it moves the stated figures exactly as much as the raw ones.

The job runs in its own process so that its memory never shows in the
run's peak RSS. Run as a script, this file is that helper: each line on
standard input runs the job once and answers with its time in seconds.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Mean time of one reference_job() on the host the benchmark's figures were
# first taken on: 2 vCPUs of an Intel Xeon VM, Python 3.11, numpy 2.4.
REFERENCE_JOB_S = 0.3
# Least time between two samples taken through maybe_sample(). The host's
# speed flips within seconds, so the samples must come often to average it.
SAMPLE_EVERY_S = 1.5


def reference_job() -> float:
    """Seconds for one fixed job.

    It builds, sorts and indexes 60k rows, JSON-round-trips half of them
    and multiplies two 300x300 matrices, so it leans on the allocator and
    memory the way the workloads do.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20191)
    rows = [(x, int(x * 1e6), f"{x:.6f}") for x in rng.random(60_000).tolist()]
    rows.sort(key=lambda r: r[2])
    index = {r[2]: r for r in rows}
    json.loads(json.dumps(rows[::2]))
    m = rng.random((300, 300))
    m @ m
    del index
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-job samples spread through one run, taken by a helper process.

    Use it as a context manager; leaving the block stops the helper and
    waits for it.
    """

    def __init__(self):
        self.samples: list = []
        self._proc = None
        self._last = -math.inf

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def sample(self, jobs: int = 1) -> None:
        for _ in range(jobs):
            self._proc.stdin.write("run\n")
            self._proc.stdin.flush()
            answer = self._proc.stdout.readline()
            if not answer:
                raise RuntimeError("the host-speed helper exited")
            self.samples.append(float(answer))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """One sample, if SAMPLE_EVERY_S has passed since the last one."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Mean job time over REFERENCE_JOB_S; above 1 the host ran slower."""
        return statistics.fmean(self.samples) / REFERENCE_JOB_S


def main() -> None:
    for _ in sys.stdin:
        print(repr(reference_job()), flush=True)


if __name__ == "__main__":
    main()
