"""Block-sparse linear algebra for the Newton systems.

The Jacobian is stored as a structured block matrix (7-point stencil of
m x m cell blocks plus well border rows/columns).  Quasi-IMPES and ABF
decoupling are exact left transformations; the CPR preconditioner combines a
red-black block ILU(0) full-system smoother with one V(2,2) cycle of a
smoothed-aggregation AMG (double pairwise aggregates, truncated
prolongators) on the extracted pressure block, in a fine-pressure-fine
composition, and is used from right-preconditioned BiCGSTAB.  The block
layout is for assembly, decoupling and factorisation, entry-major from
assembly on: every stencil block of every cell lives in one (m, m, nblocks,
ncell) array, so entry (i, j) of one stencil block is one (ncell,) row.
So the per-cell algebra works entry by entry over all cells at once:
``_block_inv`` inverts blocks in closed form (adjugate over determinant) and
``_block_mm`` multiplies them, so no block goes through LAPACK or BLAS on
its own.  The scalar CSR
layouts of a block structure (``CsrPattern``: the system, its pressure
block, the ILU's two factors) follow in closed form from the stencil's
neighbour masks, with no sort over entries; they are built once and shared
by every matrix of that structure, so a Newton iteration only gathers values
into them.  The Krylov products, the CPR residuals and both ILU sweeps are
``PooledMatvec`` products over the worker pool's row ranges.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .grid import neighbor_mask
from .parallel import PooledMatvec, det_dot, det_norm

log = logging.getLogger(__name__)

_TINY = 1e-30
# smoothed-aggregation AMG: coarsest size, level cap, the prolongators'
# truncation thresholds relative to their row's largest entry (finest level,
# coarser levels) and the Jacobi smoothing weight (capped per level by the
# spectral radius)
_AMG_MIN_COARSE = 40
_AMG_MAX_LEVELS = 10
_AMG_TRUNCATE = (0.25, 0.4)
_JACOBI_OMEGA = 2.0 / 3.0
# bytes of the three block arrays per pass of the ILU set-up over black
# cells, so a pass's arrays stay small (in cache, and no new peak memory)
_ILU_PASS_BYTES = 1 << 20
# source runs per pass of a layout's gather: np.take converts its int32
# indices to an intp copy, 8 bytes a slot, one pass at a time
_TAKE_PASS = 1 << 16


@dataclass
class SolverConfig:
    max_iterations: int = 50
    preconditioner: str = "cpr_fpf"   # 'none' | 'ilu0' | 'cpr_fpf'
    decoupling: str = "quasi_impes"   # 'none' | 'quasi_impes' | 'abf'

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.preconditioner not in ("none", "ilu0", "cpr_fpf"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")
        if self.decoupling not in ("none", "quasi_impes", "abf"):
            raise ValueError(f"unknown decoupling {self.decoupling!r}")


# ---------------------------------------------------------------------------
# per-cell m x m block kernels: one numpy operation per block entry over all
# cells, never one LAPACK or einsum call per block


def _det(rows: list):
    """Determinant of a matrix given as rows of (n,) entry arrays, by
    cofactor expansion along the first row; 1.0 for no rows."""
    if len(rows) <= 1:
        return rows[0][0] if rows else 1.0
    det = rows[0][0] * _det([row[1:] for row in rows[1:]])
    for j in range(1, len(rows)):
        term = rows[0][j] * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        det = det - term if j % 2 else det + term
    return det


def _block_inv(blocks: np.ndarray):
    """(inverses, determinants) of (m, m, n) entry-major blocks by the
    adjugate: inv = adj / det, both over the trailing cell axis.  Where
    det == 0 the inverse is not finite, so callers test det before they use
    an inverse."""
    m = blocks.shape[0]
    a = [[blocks[i, j] for j in range(m)] for i in range(m)]
    cof = [[(-1) ** (i + j) * _det([row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i])
            for j in range(m)] for i in range(m)]
    det = a[0][0] * cof[0][0]
    for j in range(1, m):
        det += a[0][j] * cof[0][j]
    inv = np.empty(blocks.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(m):
            for j in range(m):
                np.divide(cof[j][i], det, out=inv[i, j])
    return inv, det


def _block_mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Products a @ b of m x m blocks stored entry-major, (m, m, ...): entry
    (i, j) of every block is a[i, j], the trailing axes broadcast, and the
    inner index is summed in order."""
    return np.einsum("ik...,kj...->ij...", a, b, out=out)


class BlockMatrix:
    """Jacobian in block layout: cell-stencil blocks plus well borders.

    ``stencil`` holds the 7-point stencil's block diagonals in one
    entry-major (m, m, 1 + 2 naxes, ncell) array: stencil[i, j, k, c] is
    entry (i, j) of cell c's block k, the diagonal, then the lower and upper
    neighbour's per axis of ``axes``; ``diag``, ``lo[ax]`` and ``hi[ax]`` are
    its (m, m, ncell) views.  Entries at cells lacking the neighbour are
    zero.  Well couplings are stored per perforation p, as (m, nperf)
    columns: cw_blocks[:, p] is the cell-row column d(cell eq)/d(p_h),
    wc_blocks[:, p] the well-row entries d(well eq)/d(cell unknowns); ww is
    the diagonal d(well eq)/d(p_h).  Arrays of any other shape are rejected.
    """

    def __init__(self, shape, m, stencil, cw_cells, cw_well, cw_blocks, wc_blocks, ww, b=None):
        self.shape = shape
        self.m = m
        arrays = [np.shape(x) for x in (stencil, cw_blocks, wc_blocks)]
        if arrays != [(m, m, 1 + 2 * len(self.axes), self.ncell)] + [(m, len(cw_cells))] * 2:
            raise ValueError(f"block arrays must be entry-major, (m, m, 1 + 2 naxes, ncell) "
                             f"and (m, nperf) for m = {m}: got {arrays}")
        self.stencil = stencil
        self.diag = stencil[:, :, 0]
        self.lo = {ax: stencil[:, :, 1 + 2 * k] for k, ax in enumerate(self.axes)}
        self.hi = {ax: stencil[:, :, 2 + 2 * k] for k, ax in enumerate(self.axes)}
        self.cw_cells = cw_cells
        self.cw_well = cw_well
        self.cw_blocks = cw_blocks
        self.wc_blocks = wc_blocks
        self.ww = ww
        self.b = b
        self.pattern: CsrPattern | None = None
        self.decouple_fallbacks = 0      # singular cell blocks a decoupler fell back on

    @property
    def ncell(self) -> int:
        return self.shape[0] * self.shape[1] * self.shape[2]

    @property
    def nwell(self) -> int:
        return len(self.ww)

    @property
    def nunk(self) -> int:
        return self.ncell * self.m + self.nwell

    @property
    def axes(self) -> list[int]:
        return [ax for ax, nax in enumerate(self.shape) if nax > 1]

    def stride(self, axis: int) -> int:
        return (1, self.shape[0], self.shape[0] * self.shape[1])[axis]

    def csr_pattern(self) -> "CsrPattern":
        """The scalar CSR pattern of this matrix's structure.

        ``pattern`` when it fits this matrix, else a new one, which is then
        kept in ``pattern``.  Matrices of one structure (the Newton systems
        of a run, a matrix and its decoupled form) share one pattern.
        """
        if self.pattern is None or not self.pattern.fits(self):
            self.pattern = CsrPattern(self)
        return self.pattern

    def to_csr(self) -> sp.csr_matrix:
        """Scalar CSR of the full system (cells then wells)."""
        return self.csr_pattern().system.take(self.stencil.ravel(),
                                              (self.ww, self.cw_blocks, self.wc_blocks))

    def extract_app(self) -> sp.csr_matrix:
        """Pressure-pressure scalar sub-matrix on the cell stencil pattern."""
        return self.csr_pattern().pressure.take(self.stencil[0, 0].ravel())

    def transformed(self, fn, b=None):
        """This matrix, and b, with every array x of cell block rows replaced by
        fn(x, cells): x is (m, m, ..., k) or (m, k), its x[..., i] belongs to
        cells[i].  The stencil comes whole, (m, m, nblocks, ncell); b's cell
        rows come as an (m, ncell) view."""
        n, m = self.ncell, self.m
        every = slice(None)
        out = BlockMatrix(self.shape, m, fn(self.stencil, every),
                          self.cw_cells.copy(), self.cw_well.copy(),
                          fn(self.cw_blocks, self.cw_cells), self.wc_blocks.copy(),
                          self.ww.copy())
        out.pattern = self.pattern
        if b is not None:
            out.b = np.concatenate([fn(b[:n * m].reshape(n, m).T, every).T.ravel(), b[n * m:]])
        return out


class _StencilLayout:
    """CSR layout of q x q blocks on the cell stencil plus well borders, in
    closed form; read-only, so no in-place scipy operation changes it under
    another matrix.

    Cell c owns rows and columns c*q .. c*q+q-1 and, per (offset, mask) of
    ``blocks``, a block to cell c + offset where mask[c]; well w owns row and
    column n*q + w.  Perforation p couples cells[p]'s rows to wells[p]'s
    column and back; ``well_diag`` adds the wells' diagonals.  A cell row
    holds its blocks by offset, then its wells; a well row its cells, then
    its diagonal.  So columns ascend with no sort over entries, and entry
    (i, j) of a block at cell c has slot indptr[c*q + i] + r*q + j, r the
    number of c's blocks of lower offset.  Only perforations are sorted,
    which finds one given twice.

    ``take`` gathers the cell rows from one source array: ``src`` holds the
    source index of each cell-row slot, by default element (i, j, k, c) of
    an entry-major (q, q, len(blocks), n) array for entry (i, j) of block k
    at cell c.  Given ``runs`` (per block, (q, k): the run of block row i's
    q values in the source at each of the k cells of the mask, in ascending
    order), ``src`` holds the run of each block row in slot order instead.
    ``border`` lists the well border's slots, which ``take`` writes from
    their own arrays: the well diagonals, then the perforations' cell rows
    and well rows (q, nperf).  Cell-row perforation slots are border slots,
    and ``src`` holds 0 for them.
    """

    def __init__(self, n, blocks, q, nwell=0, perfs=((), ()), well_diag=False, runs=None):
        cells, wells = (np.asarray(x, np.int64) for x in perfs)
        by_cell, by_well = np.lexsort((wells, cells)), np.lexsort((cells, wells))
        c, w = cells[by_cell], wells[by_cell]
        twice = (c[1:] == c[:-1]) & (w[1:] == w[:-1])
        if twice.any():
            k = twice.argmax()
            raise ValueError(f"entry ({c[k] * q}, {n * q + w[k]}) is given more than once")
        per_cell, per_well = np.bincount(cells, minlength=n), np.bincount(wells, minlength=nwell)
        in_cell, in_well = np.empty((2, len(c)), np.int32)
        in_cell[by_cell] = np.arange(len(c)) - (np.cumsum(per_cell) - per_cell)[c]
        in_well[by_well] = np.arange(len(c)) - (np.cumsum(per_well) - per_well)[wells[by_well]]
        count = sum((mask.astype(np.int32) for _, mask in blocks), np.zeros(n, np.int32))
        width = (q * count + per_cell).astype(np.int32)         # a cell row's length
        self.indptr = np.zeros(n * q + nwell + 1, np.int32)
        np.cumsum(np.concatenate([np.repeat(width, q), q * per_well + well_diag]),
                  out=self.indptr[1:])
        self.nnz, self.shape = int(self.indptr[-1]), (n * q + nwell,) * 2
        ii = np.arange(q, dtype=np.int32)[:, None]
        row0 = self.indptr[:n * q:q] + ii * width               # (q, n): cell c's row i
        first, rank = [None] * len(blocks), np.zeros(n, np.int32)
        for k, (_, mask) in sorted(enumerate(blocks), key=lambda kb: kb[1][0]):
            first[k] = row0 + q * rank          # the block's slot in each cell row
            rank += mask
        self.run = 1 if runs is None else q
        self.src = np.zeros(self.indptr[n * q] // self.run, np.int32)
        self.indices = np.empty(self.nnz, np.int32)
        for k, ((off, mask), f) in enumerate(zip(blocks, first)):
            cm = np.flatnonzero(mask).astype(np.int32)
            slots = np.take(f, cm, axis=1)[:, None] + ii        # [i, j, c]: entry (i, j) at cm[c]
            self.indices[slots] = (cm + off) * q + ii
            if runs is None:
                self.src[slots] = ((ii[..., None] * q + ii) * len(blocks) + k) * n + cm
            else:
                self.src[slots[:, 0] // q] = runs[k]
        diag = np.arange(nwell if well_diag else 0)             # the wells with a diagonal
        self.border = [self.indptr[n * q + 1 + diag] - 1,
                       row0[:, cells] + q * count[cells] + in_cell,
                       self.indptr[n * q + wells] + q * in_well + ii]
        for s, v in zip(self.border, [n * q + diag, n * q + wells, cells * q + ii]):
            self.indices[s] = v
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    def take(self, source: np.ndarray, border=()) -> sp.csr_matrix:
        """The CSR of this layout with its cell rows gathered from ``source``
        and ``border``'s arrays written into the well border's slots."""
        data, head = np.empty(self.nnz), len(self.src) * self.run
        runs, out = source.reshape(-1, self.run), data[:head].reshape(-1, self.run)
        for i in range(0, len(self.src), _TAKE_PASS):
            np.take(runs, self.src[i:i + _TAKE_PASS], axis=0, mode="clip",
                    out=out[i:i + _TAKE_PASS])
        for slots, values in zip(self.border, border):
            data[slots] = values
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


class CsrPattern:
    """Scalar CSR layouts of one block structure, built once per structure in
    closed form from the stencil's neighbour masks (``_StencilLayout``).

    ``system`` is the full system (cells then wells) and ``pressure`` the
    pressure-pressure block; a matrix of this structure only gathers its
    stencil array into them (``_StencilLayout.take``), element by element
    from the whole array and from its pressure entries, ``stencil[0, 0]``.
    Cells are red where i+j+k is even; ``red`` and ``black`` list each
    colour's cells and ``nbr[d]`` the black cells' red neighbours in stencil
    direction d (lower, upper per axis; cell 0, which is red, where there is
    none).  ``ilu_lower`` (diagonal blocks, black rows' neighbour blocks,
    well diagonals) and ``ilu_upper`` (red rows' neighbour blocks) are the
    layouts of ``BlockILU0``'s factors, gathered in runs of a block row's m
    values; they depend on the structure alone, not on the set-up's passes
    over the black cells, whose arrays ``ilu_buffers`` keeps for the next
    set-up on the pattern.  ``fits`` tells whether a matrix has this structure:
    grid shape, block size, stencil axes and well borders.  ``amg_template``
    keeps the prolongators, restrictions and weights of the first AMG
    hierarchy ``CprFpf`` built in full on it, and no level's operator, for
    ``CprFpf`` to re-set up for as long as the pattern lives.
    """

    def __init__(self, a: BlockMatrix):
        self.shape, self.m, self.axes, self.nwell = a.shape, a.m, a.axes, a.nwell
        self.cw_cells, self.cw_well = a.cw_cells.copy(), a.cw_well.copy()
        n, m = a.ncell, a.m
        # (column-cell offset, cells with the neighbour): BlockMatrix.stencil's order
        dirs = [(sign * a.stride(ax), neighbor_mask(a.shape, ax, sign > 0))
                for ax in a.axes for sign in (-1, 1)]
        stencil = [(0, np.ones(n, bool))] + dirs
        self.system = _StencilLayout(n, stencil, m, a.nwell, (a.cw_cells, a.cw_well), True)
        self.pressure = _StencilLayout(n, stencil, 1)
        nx, ny, _ = a.shape
        cell = np.arange(n)
        red = (cell % nx + (cell // nx) % ny + cell // (nx * ny)) % 2 == 0
        self.red, self.black = (np.flatnonzero(x).astype(np.int32) for x in (red, ~red))
        ndir, nb, ii = len(dirs), len(self.black), np.arange(m)[:, None]
        # BlockILU0's sources in runs of a block row's m values (see there): K_lo's
        # the inverse diagonal blocks as (m, ncell, m), then per direction d black
        # cell b's folded block to its red neighbour r (row b) as (m, ndir, nb, m);
        # K_up's r's block back to b (row r).  Runs are set at masked cells only.
        at = np.cumsum(~red) - 1                # black cells' place among them
        lower, upper = [stencil[0] + (ii * n + cell,)], []
        self.nbr = np.array([np.where(has[self.black], self.black + off, 0)
                             for off, has in dirs], np.int32).reshape(ndir, nb)
        for d, (off, has) in enumerate(dirs):
            rows = has & ~red
            run = (ii * ndir + d) * nb + at[rows]
            lower.append((off, rows, n * m + run))
            # r = b + off: rolled by off, and every rolled-in cell is masked
            upper.append((-off, np.roll(rows, off), run))
        self.ilu_lower, self.ilu_upper = (
            _StencilLayout(n, [blk[:2] for blk in part], m, a.nwell, well_diag=part is lower,
                           runs=[blk[2] for blk in part]) for part in (lower, upper))
        self.amg_template: AmgHierarchy | None = None
        self.ilu_buffers: tuple[np.ndarray, np.ndarray] | None = None

    def fits(self, a: BlockMatrix) -> bool:
        return ((a.shape, a.m, a.axes, a.nwell) == (self.shape, self.m, self.axes, self.nwell)
                and np.array_equal(a.cw_cells, self.cw_cells)
                and np.array_equal(a.cw_well, self.cw_well))


def quasi_impes_decouple(a: BlockMatrix, b: np.ndarray):
    """Eliminate saturation couplings from pressure rows, per-cell.

    Left-scales each cell block row by E = [[1, -D_ps D_ss^{-1}], [0, I]]
    built from the cell's diagonal block D, which makes the transformed
    pressure row an IMPES-like pressure equation.  Exact-solution-preserving.
    E differs from the identity only in its first row, so the other rows are
    copied and the pressure row gains sum_k E[0, k] (row k), k >= 1.  Cells
    with singular D_ss fall back to the identity (counted on the returned
    matrix as ``decouple_fallbacks``).
    """
    m, d = a.m, a.diag
    inv, det = _block_inv(d[1:, 1:])
    ok = np.abs(det) > _TINY
    nfall = int(np.count_nonzero(~ok))
    if nfall:
        log.warning("quasi-IMPES: %d singular D_ss blocks, identity fallback", nfall)
    inv[..., ~ok] = 0.0
    w = -np.einsum("jin,jn->in", inv, d[0, 1:])       # E[0, 1:] = -D_ss^-T D_ps^T

    def fold(x, cells):
        out = x.copy()
        for k in range(1, m):                    # row 0 gains E[0, k] (row k)
            out[0] += w[k - 1, cells] * x[k]
        return out

    out = a.transformed(fold, b)
    out.decouple_fallbacks = nfall
    return out, out.b


def abf_decouple(a: BlockMatrix, b: np.ndarray):
    """Alternate-block-factorization scaling: diagonal blocks become identity.

    Left-multiplies each cell block row by the inverse of its diagonal block
    (``_block_mm``; a vector is a one-column block).  Singular diagonal
    blocks fall back to row-wise scaling (counted on the returned matrix as
    ``decouple_fallbacks``).
    """
    m, d = a.m, a.diag
    e, det = _block_inv(d)
    ok = np.abs(det) > _TINY
    nfall = int(np.count_nonzero(~ok))
    if nfall:
        log.warning("ABF: %d singular diagonal blocks, row-scaling fallback", nfall)
        rs = np.max(np.abs(d[..., ~ok]), axis=1)
        rs[rs == 0.0] = 1.0
        fall = np.zeros((m, m, nfall))
        fall[np.arange(m), np.arange(m)] = 1.0 / rs
        e[..., ~ok] = fall
    out = a.transformed(lambda x, cells: _block_mm(e[..., cells], x) if x.ndim > 2
                        else _block_mm(e[..., cells], x[:, None])[:, 0], b)
    out.decouple_fallbacks = nfall
    return out, out.b


def decouple(a: BlockMatrix, b: np.ndarray, kind: str):
    if kind == "none":
        return a, b
    if kind == "quasi_impes":
        return quasi_impes_decouple(a, b)
    if kind == "abf":
        return abf_decouple(a, b)
    raise ValueError(f"unknown decoupling {kind!r}")


# ---------------------------------------------------------------------------
# block ILU(0) smoother


def _safe_inv(blocks: np.ndarray, counter: list) -> np.ndarray:
    """Inverses of (m, m, n) blocks; a block with |det| <= _TINY is counted
    in counter[0] and inverted with a small diagonal shift, or replaced by
    the identity if it stays singular."""
    inv, det = _block_inv(blocks)
    bad = ~(np.abs(det) > _TINY)
    if np.any(bad):
        counter[0] += int(np.count_nonzero(bad))
        eye = np.eye(blocks.shape[0])[:, :, None]
        boost = 1e-12 * (1.0 + np.max(np.abs(blocks[..., bad]), axis=(0, 1)))
        inv_bad, det_bad = _block_inv(blocks[..., bad] + boost * eye)
        inv_bad[..., ~(np.abs(det_bad) > _TINY)] = eye
        inv[..., bad] = inv_bad
    return inv


def _in_runs(source: np.ndarray, m: int, *mid) -> np.ndarray:
    """(m, m, *mid) view of a factor's source, laid out (m, *mid, m) in runs."""
    return np.moveaxis(source.reshape(m, *mid, m), -1, 1)


class BlockILU0:
    """Red-black block ILU(0) on the cell stencil; well rows folded diagonally.

    Cells are coloured by the parity of i+j+k, so every stencil neighbor of a
    red cell is black and vice versa (the multicolour ILU(0) of Saad,
    *Iterative Methods for Sparse Linear Systems*, section 12.4).  The
    factorisation changes only the black diagonal blocks, D~_b = D_b -
    sum L_{b,r} inv(D_r) U_{r,b} over red neighbors r; ``inv_diag`` holds
    inv(D_r) and inv(D~_b), (m, m, ncell) as ``a.diag``.  Folding them into
    the off-diagonal factors leaves a solve of two sparse products in the
    natural unknown order, t = K_lo r and z = t - K_up t: ``k_lo`` holds
    every inverse diagonal block, -inv(D~_b) L_{b,r} inv(D_r) on black rows
    and 1/ww on well rows, ``k_up`` holds inv(D_r) U_{r,b} on red rows.  Both
    are ``PooledMatvec`` products on ``pool``, their values gathered once
    into the layouts of ``a``'s ``CsrPattern``; the block products run entry
    by entry, in passes of ``_ILU_PASS_BYTES`` over the black cells
    (``_block_mm``) whose arrays the pattern keeps (``CsrPattern.ilu_buffers``),
    so set-ups on one pattern run one at a time; ``inv_diag`` and the
    factors are each set-up's own.
    """

    def __init__(self, a: BlockMatrix, pool=None):
        self.a = a
        pattern = a.csr_pattern()
        n, m, mm = a.ncell, a.m, a.m * a.m
        black, nbr = pattern.black, pattern.nbr
        ndir, nb = nbr.shape
        p = max(1, _ILU_PASS_BYTES // (24 * mm * max(1, ndir)))
        counter = [0]
        # K_lo's source: inverse diagonal blocks, then the black rows' folded blocks;
        # K_up's the folded blocks back.  Both are in runs of a block row's m values
        # (see CsrPattern): black cell c's are [..., c] of their (m, m, ndir, nb) views
        lower, upper = np.empty(n * mm + ndir * mm * nb), np.empty(ndir * mm * nb)
        inv, folded = np.empty((m, m, n)), _in_runs(lower[n * mm:], m, ndir, nb)
        # the stencil as (m, m, (1 + ndir) * ncell): cell c's diagonal block
        # at c, its block in direction d at (1 + d) * n + c; d ^ 1 points back
        blocks, d = a.stencil.reshape(m, m, -1), np.arange(ndir)[:, None]
        to, back = (1 + d) * n, (1 + (d ^ 1)) * n
        inv[..., pattern.red] = _safe_inv(np.take(blocks, pattern.red, axis=-1), counter)
        # one pass's arrays, the pattern's; a pass of k cells uses their
        # first entries as (m, m, ndir, k) and (m, m, k) blocks
        q = mm * min(p, nb)
        if pattern.ilu_buffers is None or pattern.ilu_buffers[1].shape[1] != q:
            pattern.ilu_buffers = np.empty((4, ndir * q)), np.empty((2, q))
        wide, narrow = pattern.ilu_buffers
        for c in range(0, nb, p):
            cells, near, k = black[c:c + p], nbr[:, c:c + p], min(p, nb - c)
            # each black cell's block L to its red neighbour r per direction,
            # inv(D_r), and r's block U back; a missing neighbour has zero
            # blocks, so it adds zero terms
            l_br, u_rb, dinv_r, ld = (x[:mm * ndir * k].reshape(m, m, ndir, k) for x in wide)
            upd, pivot = (x[:mm * k].reshape(m, m, k) for x in narrow)
            np.take(blocks, to + cells, axis=-1, mode="clip", out=l_br)
            np.take(blocks, back + near, axis=-1, mode="clip", out=u_rb)
            np.take(inv, near, axis=-1, mode="clip", out=dinv_r)
            _block_mm(l_br, dinv_r, out=ld)
            _block_mm(dinv_r, u_rb, out=_in_runs(upper, m, ndir, nb)[..., c:c + k])
            np.sum(_block_mm(ld, u_rb, out=l_br), axis=2, out=upd)
            np.take(blocks, cells, axis=-1, mode="clip", out=pivot)
            inv[..., cells] = inv_b = _safe_inv(np.subtract(pivot, upd, out=pivot), counter)
            _block_mm(-inv_b[:, :, None], ld, out=folded[..., c:c + k])
        _in_runs(lower[:n * mm], m, n)[...] = inv
        self.k_up = PooledMatvec(pattern.ilu_upper.take(upper), pool)
        del upper
        well_inv = np.where(np.abs(a.ww) > _TINY, 1.0 / np.where(a.ww == 0, 1.0, a.ww), 1.0)
        self.k_lo = PooledMatvec(pattern.ilu_lower.take(lower, (well_inv,)), pool)
        self.inv_diag = inv
        self.pivot_shifts = counter[0]
        if counter[0]:
            log.warning("block ILU(0): %d shifted pivots", counter[0])

    def solve(self, r: np.ndarray) -> np.ndarray:
        t = self.k_lo(r)
        t -= self.k_up(t)
        return t


# ---------------------------------------------------------------------------
# smoothed-aggregation AMG on the pressure block


@dataclass
class AmgLevel:
    a: sp.csr_matrix | None
    dinv: np.ndarray | None
    p: sp.csr_matrix | None = None
    r: sp.csr_matrix | None = None
    omega: float = _JACOBI_OMEGA


@dataclass
class AmgHierarchy:
    levels: list[AmgLevel] = field(default_factory=list)
    coarse_lu: tuple | None = None
    coarse_n: int = 0

    @property
    def nlevels(self) -> int:
        return len(self.levels) + 1

    @property
    def operator_complexity(self) -> float:
        """Entries stored over all levels, the dense coarsest one included,
        over the finest level's."""
        stored = sum(lev.a.nnz for lev in self.levels) + self.coarse_n ** 2
        return stored / (self.levels[0].a.nnz if self.levels else self.coarse_n ** 2)

    def with_fine(self, a_pp: sp.csr_matrix) -> "AmgHierarchy":
        """A hierarchy whose finest level smooths and computes residuals on
        ``a_pp`` and its inverse diagonal; prolongators, restrictions, coarse
        operators, coarse LU and smoothing weights are shared with this one,
        which is left unchanged, so the weights' cap omega <= 1.6/rho stays
        the one set on the operators this hierarchy was built on.  Needs at
        least one level above the coarsest.
        """
        a = a_pp.tocsr()
        fine = replace(self.levels[0], a=a, dinv=_inv_diag(a))
        return replace(self, levels=[fine] + self.levels[1:])

    def template(self) -> "AmgHierarchy":
        """This hierarchy's prolongators, restrictions and smoothing weights
        alone, for ``build_amg(..., like=...)``: no operator, inverse
        diagonal or coarse LU, so keeping it keeps no matrix of a level."""
        return AmgHierarchy(levels=[replace(lev, a=None, dinv=None) for lev in self.levels])


def _inv_diag(a: sp.csr_matrix) -> np.ndarray:
    d = a.diagonal()
    return np.where(d != 0.0, 1.0 / np.where(d == 0.0, 1.0, d), 1.0)


def _pair(a: sp.csr_matrix) -> np.ndarray:
    """One pairwise aggregation pass; returns the pair id of each node.

    In node order, each node i not yet paired pairs with its unpaired
    neighbour j of the strongest negative coupling -a_ij / sqrt(a_ii a_jj),
    ties going to the lower j, or stays single where it has none.  Each
    row's strongest candidate comes from numpy; only a node whose strongest
    candidate is taken scans its row, through memoryviews, so the pass
    builds no Python list of the matrix.
    """
    n = a.shape[0]
    a = a.tocsr()
    if not a.has_canonical_format:              # one entry per column, columns ascending
        a = a.copy()
        a.sum_duplicates()
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    d = np.abs(a.diagonal())
    scale = np.sqrt(d[row] * d[a.indices])
    # when node i comes, every node before it is taken: its candidates are
    # the neighbours after it
    with np.errstate(divide="ignore", invalid="ignore"):
        strength = np.where((scale > 0) & (a.indices > row), -a.data / scale, 0.0)
    strength[~(strength > 0)] = 0.0             # positive couplings and NaN: none
    # each row's strongest candidate, the first of its ties; n (a taken
    # sentinel) where the row has none.  reduceat as in _truncate
    top = np.maximum.reduceat(np.append(strength, 0.0), a.indptr[:-1])
    hit = np.flatnonzero((strength == top[row]) & (strength > 0))
    rows, first = np.unique(row[hit], return_index=True)
    best = np.full(n, n, np.int64)
    best[rows] = a.indices[hit[first]]
    pair = np.full(n + 1, -1, np.int64)
    pair[n] = n
    ids, strongest, cols, s, ptr = (memoryview(x) for x in (
        pair, best, a.indices.astype(np.int64), strength, a.indptr.astype(np.int64)))
    npair = 0
    for i in range(n):
        if ids[i] >= 0:
            continue
        ids[i] = npair
        j = strongest[i]
        if ids[j] < 0:
            ids[j] = npair
        else:
            j, sj = -1, 0.0
            for k in range(ptr[i], ptr[i + 1]):
                if s[k] > sj and ids[cols[k]] < 0:
                    j, sj = cols[k], s[k]
            if j >= 0:
                ids[j] = npair
        npair += 1
    return pair[:n]


def _aggregate(a: sp.csr_matrix) -> np.ndarray:
    """Double pairwise aggregation (Notay, ETNA 37, 2010): pairs of ``a``'s
    nodes, then pairs of those pairs on the tentative coarse operator
    P0^T A P0 (P0 the 0/1 map of the pairs); returns the aggregate id of
    each node, aggregates having at most four nodes."""
    n = a.shape[0]
    pairs = _pair(a)
    p0 = sp.csr_matrix((np.ones(n), (np.arange(n), pairs)), shape=(n, int(pairs.max()) + 1))
    return _pair((p0.T @ a @ p0).tocsr())[pairs]


def _truncate(p: sp.csr_matrix, agg: np.ndarray, tau: float) -> sp.csr_matrix:
    """``p`` without the entries below tau times their row's largest
    magnitude, each row keeping its sum.  A row's tentative entry, column
    agg[i] of row i, is never dropped, so no coarse column empties.  The
    kept positive entries of a row are scaled to the sum of all its positive
    ones, and the negative ones alike, so no cancellation between the two
    inflates a row; where every entry of a sign is dropped, their sum goes
    onto the tentative entry."""
    n = p.shape[0]
    rows = np.repeat(np.arange(n), np.diff(p.indptr))
    mag = np.abs(p.data)
    # an empty row's reduceat reads the next row's first entry, or the
    # appended 0 past the last: it has no entry that reads it
    biggest = np.maximum.reduceat(np.append(mag, 0.0), p.indptr[:-1])
    tentative = p.indices == agg[rows]
    keep = (mag >= tau * biggest[rows]) | tentative
    data = p.data.copy()
    for sign in (1.0, -1.0):
        part = sign * data > 0
        total = np.bincount(rows[part], data[part], minlength=n)
        part &= keep
        kept = np.bincount(rows[part], data[part], minlength=n)
        data[part] *= (total / np.where(kept == 0.0, 1.0, kept))[rows[part]]
        data[tentative] += np.where(kept == 0.0, total, 0.0)[rows[tentative]]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=n))])
    return sp.csr_matrix((data[keep], p.indices[keep], indptr.astype(p.indptr.dtype)),
                         shape=p.shape)


def _spectral_radius(a: sp.csr_matrix, dinv: np.ndarray, iters: int = 10) -> float:
    # fixed-seed start: reproducible, and not aligned with the smooth near-null space
    v = np.random.default_rng(12345).standard_normal(a.shape[0])
    v /= det_norm(v)
    rho = 1.0
    for _ in range(iters):
        w = dinv * (a @ v)
        nrm = det_norm(w)
        if nrm <= 0:
            return 1.0
        rho = nrm
        v = w / nrm
    return rho


def build_amg(a_pp: sp.csr_matrix, like: AmgHierarchy | None = None) -> AmgHierarchy:
    """Smoothed-aggregation hierarchy with a dense coarsest-level factorization.

    Each level aggregates its operator by double pairwise aggregation
    (``_aggregate``), so it coarsens by up to 4x along its strongest
    couplings.  Its prolongator is the tentative one, P0 (the aggregate map,
    columns scaled to unit norm), smoothed by one damped Jacobi step (Vanek,
    Mandel and Brezina, Computing 56, 1996), then truncated (``_truncate``)
    at ``_AMG_TRUNCATE``: the finest level's threshold, or the larger one of
    the coarser levels, whose operators the smoothing widens level by level.
    Its smoothing weight is min(2/3, 1.6/rho(D^-1 A)).

    ``like``, a hierarchy built on a pressure block of this structure (or
    its ``template``), makes this a numeric re-set-up when it has a level
    above the coarsest: every level keeps ``like``'s prolongator,
    restriction and weight, and only the operators R A P down the levels,
    their inverse diagonals and the coarse LU are computed, with no
    aggregation, spectral radius, smoothing or truncation; ``like`` is left
    unchanged.  So the weights' cap is the one set at the full build.  This
    is the only place a hierarchy is built.
    """
    hier = AmgHierarchy()
    a = a_pp.tocsr()
    reused = like.levels if like is not None else []
    for lev in reused:
        hier.levels.append(replace(lev, a=a, dinv=_inv_diag(a)))
        a = (lev.r @ a @ lev.p).tocsr()
    for lvl in range(0 if reused else _AMG_MAX_LEVELS):     # a full build
        n = a.shape[0]
        if n <= _AMG_MIN_COARSE:
            break
        agg = _aggregate(a)
        ncoarse = int(agg.max()) + 1
        if ncoarse >= n:
            break
        counts = np.bincount(agg, minlength=ncoarse).astype(float)
        p0 = sp.csr_matrix((1.0 / np.sqrt(counts[agg]), (np.arange(n), agg)),
                           shape=(n, ncoarse))
        dinv = _inv_diag(a)
        rho = _spectral_radius(a, dinv)
        omega_p = (4.0 / 3.0) / max(rho, 1e-12)
        p = _truncate((p0 - sp.diags(omega_p * dinv) @ (a @ p0)).tocsr(), agg,
                      _AMG_TRUNCATE[min(lvl, 1)])
        r = p.T.tocsr()
        # Jacobi smoothing is stable only for omega < 2/rho(D^-1 A); cap the
        # default weight so decouplings that break diagonal dominance
        # (e.g. ABF on incompressible systems) cannot make the cycle diverge
        omega_s = min(_JACOBI_OMEGA, 1.6 / max(rho, 1e-12))
        hier.levels.append(AmgLevel(a=a, dinv=dinv, p=p, r=r, omega=omega_s))
        a = (r @ a @ p).tocsr()
    hier.coarse_lu = scipy.linalg.lu_factor(a.toarray())
    hier.coarse_n = a.shape[0]
    sizes = [lev.a.shape[0] for lev in hier.levels] + [hier.coarse_n]
    log.info("AMG levels %s, operator complexity %.2f%s", " -> ".join(map(str, sizes)),
             hier.operator_complexity, ", prolongators reused" if reused else "")
    return hier


def amg_vcycle(hier: AmgHierarchy, r_p: np.ndarray, level: int = 0) -> np.ndarray:
    """One V(2,2) cycle: two weighted-Jacobi sweeps before the coarse
    correction and two after, on every level above the coarsest."""
    if level == len(hier.levels):
        return scipy.linalg.lu_solve(hier.coarse_lu, r_p)
    lev = hier.levels[level]
    wd = lev.omega * lev.dinv
    x = wd * r_p
    x += wd * (r_p - lev.a @ x)
    x += lev.p @ amg_vcycle(hier, lev.r @ (r_p - lev.a @ x), level + 1)
    for _ in range(2):
        x += wd * (r_p - lev.a @ x)
    return x


# ---------------------------------------------------------------------------
# CPR-FPF preconditioner


class CprFpf:
    """Two-stage CPR with fine-pressure-fine composition.

    Stage F is the block ILU(0) smoother over the full system (well rows via
    diagonal approximation); stage P is one AMG V-cycle on the pressure block,
    applied multiplicatively between two F stages.  The residual the
    V-cycle reads is formed on the system's pressure rows alone (``a_p``).

    ``amg``, the hierarchy of an earlier pressure block of this structure,
    is reused with this pressure block on its finest level (``with_fine``).
    Without one, or when it has no coarse level (at most ``_AMG_MIN_COARSE``
    cells), ``build_amg`` re-sets up the template kept on ``a``'s
    ``CsrPattern`` (``amg_template``: the prolongators, restrictions and
    weights of the first full build on the pattern, a run's pressure blocks
    all having one structure) on this pressure block; only where the
    pattern has no template with a coarse level does it build in full.
    """

    def __init__(self, a: BlockMatrix, matvec: PooledMatvec,
                 amg: AmgHierarchy | None = None):
        self.a = a
        self.matvec = matvec
        self.smoother = BlockILU0(a, matvec.pool)
        pattern = a.csr_pattern()
        self.a_p = PooledMatvec(matvec.a[:a.ncell * a.m:a.m], matvec.pool)
        self.app = a.extract_app()
        if amg is not None and amg.levels:
            self.amg = amg.with_fine(self.app)
        else:
            self.amg = build_amg(self.app, like=pattern.amg_template)
            pattern.amg_template = self.amg.template()
        self.pslots = slice(0, a.ncell * a.m, a.m)

    def solve(self, r: np.ndarray) -> np.ndarray:
        z = self.smoother.solve(r)
        z[self.pslots] += amg_vcycle(self.amg, r[self.pslots] - self.a_p(z))
        rr = self.matvec(z)
        z += self.smoother.solve(np.subtract(r, rr, out=rr))
        return z


def make_preconditioner(a: BlockMatrix, config: SolverConfig, matvec: PooledMatvec,
                        amg: AmgHierarchy | None = None):
    """The configured preconditioner of ``a``, or None; ``matvec`` is the
    system operator over ``a.to_csr()``, ``amg`` as for ``CprFpf``."""
    if config.preconditioner == "none":
        return None
    if config.preconditioner == "ilu0":
        return BlockILU0(a, matvec.pool)
    return CprFpf(a, matvec, amg=amg)


# ---------------------------------------------------------------------------
# BiCGSTAB


def _usable(v: float) -> bool:
    """A divisor BiCGSTAB can use: finite, and no smaller than _TINY."""
    return _TINY <= abs(v) < math.inf


def bicgstab(a, m, b: np.ndarray, tol: float, max_it: int):
    """Right-preconditioned BiCGSTAB from a zero initial guess.

    Stops when a recursively updated residual, the half-step s or the full
    step r, satisfies ||.|| <= tol * ||b||.  The true residual b - A x can
    drift from the recursive one; ``newton_step`` computes it, restarts this
    solve on it when it misses the tolerance, and records it as
    ``NewtonIterLog.lhs_norm``.  ``a`` is the operator, a
    callable or anything that supports ``a @ x``; ``m`` is None or has
    ``solve``.  Returns (x, iterations, status) with status in
    {'converged', 'max_it', 'breakdown'}: 'breakdown' as soon as rho, the
    step denominator, omega or a residual norm is not finite, or a divisor
    is below _TINY, so a NaN or infinite preconditioner output ends the
    solve in the iteration it appears.
    """
    mv = a if callable(a) else a.__matmul__
    prec = (lambda r: r) if m is None else m.solve
    bnorm = det_norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, "converged"
    target = tol * bnorm
    r = r0 = b                          # vectors are rebound, never written in place
    rho_old = alpha = omega = 1.0
    v = p = np.zeros_like(b)
    for it in range(1, max_it + 1):
        rho = det_dot(r0, r)
        if not _usable(rho) or (it > 1 and not _usable(omega)):
            return x, it - 1, "breakdown"
        p = r if it == 1 else r + (rho / rho_old) * (alpha / omega) * (p - omega * v)
        phat = prec(p)
        v = mv(phat)
        denom = det_dot(r0, v)
        if not _usable(denom):
            return x, it - 1, "breakdown"
        alpha = rho / denom
        s = r - alpha * v
        s_norm = det_norm(s)
        if s_norm <= target:
            return x + alpha * phat, it, "converged"
        if not math.isfinite(s_norm):
            return x, it - 1, "breakdown"
        shat = prec(s)
        t = mv(shat)
        tt = det_dot(t, t)
        if not _usable(tt):
            return x, it, "breakdown"
        omega = det_dot(t, s) / tt
        x = x + alpha * phat + omega * shat
        r = s - omega * t
        rho_old = rho
        r_norm = det_norm(r)
        if r_norm <= target:
            return x, it, "converged"
        if not math.isfinite(r_norm):           # omega, or an update, not finite
            return x, it, "breakdown"
    return x, max_it, "max_it"


def dump_matrix_market(a: BlockMatrix, b: np.ndarray, prefix: str):
    """Write the system as <prefix>_A.mtx and <prefix>_b.mtx."""
    import scipy.io

    scipy.io.mmwrite(f"{prefix}_A.mtx", a.to_csr())
    scipy.io.mmwrite(f"{prefix}_b.mtx", b.reshape(-1, 1))
