"""Shared-memory worker pool and deterministic reductions.

Reductions use a fixed 65536-element blocking whose summation order does not
depend on the worker count, so iteration counts are reproducible no matter
how many workers run assembly or matrix-vector products.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

_BLOCK = 1 << 16


def det_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product with a fixed-order blocked summation."""
    n = a.shape[0]
    if n <= _BLOCK:
        return float(np.dot(a, b))
    total = 0.0
    for i in range(0, n, _BLOCK):
        total += float(np.dot(a[i:i + _BLOCK], b[i:i + _BLOCK]))
    return total


def det_norm(a: np.ndarray) -> float:
    return math.sqrt(det_dot(a, a))


def coarsen_ranges(ranges, min_size: int):
    """Merge adjacent ranges until each spans at least min_size (except last).

    Work distribution only; results are range-layout independent.
    """
    out = []
    start = None
    for (c0, c1) in ranges:
        if start is None:
            start = c0
        if c1 - start >= min_size:
            out.append((start, c1))
            start = None
    if start is not None:
        if out:
            out[-1] = (out[-1][0], ranges[-1][1])
        else:
            out.append((start, ranges[-1][1]))
    return out


class WorkerPool:
    """Thread pool over contiguous cell ranges.

    Heavy kernels (numpy ufuncs, batched matmul, scipy sparse products)
    release the GIL, so threads scale on multi-core hosts while sharing the
    output arrays without copies.  ``partition`` carries the cell ranges used
    by assembly; one worker owns each range's rows.
    """

    def __init__(self, workers: int = 1, partition=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.partition = partition
        self._ex = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def run(self, fn, items):
        """Apply fn to every item; parallel when the pool has workers."""
        if self._ex is None or len(items) <= 1:
            return [fn(it) for it in items]
        return list(self._ex.map(fn, items))

    def close(self):
        if self._ex is not None:
            self._ex.shutdown(wait=True)
            self._ex = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class PooledMatvec:
    """Row-partitioned CSR matvec; bitwise identical to the serial product.

    Partitioned products only pay off once the per-slice work exceeds thread
    dispatch cost, so small systems always use the serial path.
    """

    MIN_ROWS = 150_000

    def __init__(self, a_csr, pool: WorkerPool | None, m: int):
        self.a = a_csr
        self.pool = pool
        self.slices = None
        nrows = a_csr.shape[0]
        if pool is not None and pool.workers > 1 and pool.partition is not None \
                and nrows >= self.MIN_ROWS:
            bounds = []
            for (c0, c1) in pool.partition.ranges:
                bounds.append((c0 * m, c1 * m))
            # well rows ride with the final range
            if bounds:
                bounds[-1] = (bounds[-1][0], nrows)
            self.slices = [(r0, r1, _row_block(a_csr, r0, r1))
                           for (r0, r1) in bounds if r1 > r0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.slices is None:
            return self.a @ x
        y = np.empty(self.a.shape[0])

        def piece(part):
            r0, r1, mat = part
            y[r0:r1] = mat @ x

        self.pool.run(piece, self.slices)
        return y


def _row_block(a: sp.csr_matrix, r0: int, r1: int) -> sp.csr_matrix:
    """Rows r0:r1 of ``a`` on views of its data and indices.

    ``a[r0:r1]`` copies both, and the CSR constructor copies a view smaller
    than half of its base, so the views are set on an empty matrix.
    """
    s, e = a.indptr[r0], a.indptr[r1]
    block = sp.csr_matrix((r1 - r0, a.shape[1]))
    block.indptr = a.indptr[r0:r1 + 1] - s
    block.indices = a.indices[s:e]
    block.data = a.data[s:e]
    return block
