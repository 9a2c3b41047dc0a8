"""Shared-memory worker pool and deterministic reductions.

Reductions use a fixed 65536-element blocking whose summation order depends
on neither the worker count nor the BLAS thread count, so iteration counts
are reproducible however many workers run assembly or sparse products.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

_BLOCK = 1 << 16


def det_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product with a fixed-order blocked summation: ``einsum``, not a
    BLAS dot product, whose summation order follows the BLAS thread count."""
    total = 0.0
    for i in range(0, a.shape[0], _BLOCK):
        total += float(np.einsum("i,i->", a[i:i + _BLOCK], b[i:i + _BLOCK]))
    return total


def det_norm(a: np.ndarray) -> float:
    return math.sqrt(det_dot(a, a))


class WorkerPool:
    """Thread pool, and the one place that splits work into contiguous ranges.

    Heavy kernels (numpy ufuncs, batched matmul, scipy sparse products)
    release the GIL, so threads scale on multi-core hosts while sharing the
    output arrays without copies.  Assembly splits cells and ``PooledMatvec``
    splits rows with ``ranges``; one worker owns each range's rows.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._ex = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def ranges(self, n: int, min_size: int) -> list[tuple[int, int]]:
        """Near-equal contiguous ranges over 0..n, at most one per worker and
        none under ``min_size``; sizes differ by at most one."""
        k = max(1, min(self.workers, n // min_size))
        base, extra = divmod(n, k)
        starts = [i * base + min(i, extra) for i in range(k + 1)]
        return list(zip(starts[:-1], starts[1:]))

    def run(self, fn, items):
        """Apply fn to every item; parallel when the pool has workers."""
        if self._ex is None or len(items) <= 1:
            return [fn(it) for it in items]
        return list(self._ex.map(fn, items))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._ex is not None:
            self._ex.shutdown()


# below this many rows per slice, thread dispatch costs more than the product
MIN_ROWS = 75_000


class PooledMatvec:
    """CSR matvec over the pool's row ranges; bitwise equal to ``a @ x``."""

    def __init__(self, a_csr, pool: WorkerPool | None):
        self.a = a_csr
        self.pool = pool
        bounds = [] if pool is None else pool.ranges(a_csr.shape[0], MIN_ROWS)
        self.slices = [(r0, r1, _row_block(a_csr, r0, r1)) for r0, r1 in bounds] \
            if len(bounds) > 1 else None

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
