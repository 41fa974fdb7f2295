"""Fixed calibration kernels that measure how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, so two runs of the same code can differ more
than any bound worth having.  The kernels below never change with the
program.  Each is a fixed amount of one kind of work zfsecrecy does, in
chunks over two threads as the simulator maps its chunks, so that it keeps
both cores busy as a workload pass does: long chunks of draws and batched
QRs over arrays of megabytes, as in FULL mode, and short chunks of draws
over a fresh thread pool per grid point, as in QCA mode.  Timed around a
workload's passes, the kernels its passes resemble tell how much slower or
faster the machine ran for that work, and ``run.py`` scales the passes'
wall time by ``REFERENCE_S[workload] / kernel time``.

``REFERENCE_S`` holds each workload's kernel time on the machine the
benchmark was tuned on (2 cores, CPython 3.11, numpy 2.4, OpenBLAS 0.3.31
on one thread), so scaled times read close to that machine's seconds.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

THREADS = 2
# Large chunks: CHUNKS batched QRs of ROWS complex 5 x 5 matrices with
# exponential draws, arrays of megabytes, as the FULL engine runs them.
CHUNKS = 4
ROWS = 8_000
# Small chunks: POINTS grid points, each SMALL_CHUNKS chunks of SMALL_ROWS
# trials of gamma and exponential draws over a fresh two-thread pool, as
# the simulator maps a QCA point's chunks.  Work in short chunks suffers
# from every scheduling delay that long chunks ride out.
POINTS = 12
SMALL_CHUNKS = 8
SMALL_ROWS = 2_048


def _large_chunk(index: int, rows: int) -> float:
    gen = np.random.default_rng(1_000 + index)
    h = (gen.standard_normal((rows, 5, 5))
         + 1j * gen.standard_normal((rows, 5, 5))) / math.sqrt(2.0)
    q, _ = np.linalg.qr(h)
    gains = np.abs(np.einsum("nij,nkj->nik", h, q.conj())) ** 2
    draws = gen.exponential(size=rows * 25)
    return float(np.log2(1.0 + gains.sum(axis=2)).sum()
                 + np.log2(1.0 + draws / (1.0 + draws)).sum())


def _small_chunk(index: int, rows: int) -> float:
    gen = np.random.default_rng(2_000 + index)
    num = gen.exponential(size=(rows, 5))
    den = gen.gamma(shape=4.0, scale=0.5, size=(rows, 5))
    return float(np.log2(1.0 + num / (den + 0.1)).sum())


def large_batch(rows: int = ROWS) -> float:
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        return sum(pool.map(lambda i: _large_chunk(i, rows), range(CHUNKS)))


def small_grid(rows: int = SMALL_ROWS) -> float:
    total = 0.0
    for point in range(POINTS):
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            first = point * SMALL_CHUNKS
            total += sum(pool.map(lambda i: _small_chunk(i, rows),
                                  range(first, first + SMALL_CHUNKS)))
    return total


# The kernels each workload's passes resemble: full-sweep never runs the
# short QCA chunks, the other two spend most of their time in them.
KERNELS = {
    "qca-curve": (small_grid, large_batch),
    "full-sweep": (large_batch,),
    "verify": (small_grid, large_batch),
}
REFERENCE_S = {"qca-curve": 0.212, "full-sweep": 0.149, "verify": 0.212}


def warm_up():
    """Lazy set-up (LAPACK dispatch, thread start) outside any timing."""
    large_batch(rows=16)
    small_grid(rows=16)


def seconds(workload: str) -> float:
    """Wall time of one run of the workload's kernels."""
    start = time.perf_counter()
    for kernel in KERNELS[workload]:
        kernel()
    return time.perf_counter() - start
