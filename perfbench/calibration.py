"""Machine-speed calibration of the end-to-end times.

On a host whose cores are shared, the speed of the same code drifts by 10 to
45% over minutes, and between runs that drift moved the median pass time by
more than any bound a benchmark can set. So a fixed kernel of this file's own
work is timed right before and right after each pass and each set-up
repeat (a "tick" of a few chunks), and that time is multiplied by CAL_REF_S
over the median chunk time of those two ticks. Scaled times read as seconds
on a machine where one chunk takes CAL_REF_S. The drift is fast: on the
workloads with passes of 5 s and more, one scale per run, from the median
chunk of the whole run, left about twice the spread between runs. The
program never runs the kernel, so a change to the program moves scaled times
by the same share as raw ones.

The kernel mixes the three kinds of work the workloads do: small dense numpy
calls (per-element basis solves), sparse matrix-vector products the size of
a mid-size system, and a plain Python float loop.
"""
import statistics
import time

import numpy as np
import scipy.sparse as sp

# median chunk time on a 2-vCPU Xeon (Sapphire Rapids) VM, one BLAS thread
CAL_REF_S = 0.017
CHUNKS_PER_TICK = 8
_GRID = 160


class Calibration:
    def __init__(self):
        n = _GRID * _GRID
        offsets = [-_GRID - 1, -_GRID, -_GRID + 1, -1, 0, 1, _GRID - 1, _GRID, _GRID + 1]
        self._A = sp.diags([np.ones(n)] * len(offsets), offsets, shape=(n, n), format="csr")
        self._x = np.ones(n)
        self._M = 4.0 * np.eye(4) + 1.0
        self.ticks = []

    def _chunk(self):
        for i in range(150):
            np.linalg.solve(self._M, self._x[:4] * i)
        for _ in range(20):
            self._A @ self._x
        s = 0.0
        for i in range(20000):
            s += (i * 0.5) ** 2 % 3.0
        return s

    def tick(self):
        """Time CHUNKS_PER_TICK kernel chunks, one by one; returns the index
        of this tick."""
        chunks = []
        for _ in range(CHUNKS_PER_TICK):
            t0 = time.perf_counter()
            self._chunk()
            chunks.append(time.perf_counter() - t0)
        self.ticks.append(chunks)
        return len(self.ticks) - 1

    def scale(self, before):
        """Scale for a stretch timed between tick `before` and the next one."""
        return CAL_REF_S / statistics.median(self.ticks[before] + self.ticks[before + 1])
