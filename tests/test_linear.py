import copy
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp

import resim
from resim import linear
from resim.grid import neighbor_mask
from resim.linear import (AmgHierarchy, AmgLevel, BlockMatrix, BlockILU0, CprFpf,
                          decouple, build_amg, amg_vcycle, bicgstab,
                          dump_matrix_market, make_preconditioner)
from resim.model import ReservoirModel, ReservoirState
from resim import parallel
from resim.parallel import PooledMatvec, WorkerPool, det_dot, det_norm
from resim.driver import initial_state, load_deck
from conftest import deck_path, two_phase_fluid


def entry_major(blocks):
    """(m, m, n) blocks of cell-major (n, m, m) ones."""
    return np.ascontiguousarray(np.moveaxis(blocks, 0, -1))


def cell_major(blocks):
    """(n, m, m) view of entry-major (m, m, n) blocks."""
    return np.moveaxis(blocks, -1, 0)


def random_block_matrix(rng, shape=(3, 3, 3), m=2, nwell=1, dd_boost=4.0):
    """Random well-conditioned stencil matrix with the production layout."""
    nx, ny, nz = shape
    n = nx * ny * nz
    diag = rng.standard_normal((n, m, m))
    diag += dd_boost * np.eye(m) * (1.0 + rng.random((n, 1, 1)))
    axes = [ax for ax, s in enumerate(shape) if s > 1]
    lo, hi = {}, {}
    strides = {0: 1, 1: nx, 2: nx * ny}
    for ax in axes:
        s = strides[ax]
        pos = (np.arange(n) // s) % shape[ax]
        mlo = (pos > 0)[:, None, None]
        mhi = (pos < shape[ax] - 1)[:, None, None]
        lo[ax] = 0.3 * rng.standard_normal((n, m, m)) * mlo
        hi[ax] = 0.3 * rng.standard_normal((n, m, m)) * mhi
    if nwell:
        cw_cells = rng.choice(n, size=nwell, replace=False).astype(int)
        cw_well = np.arange(nwell)
        cw_blocks = 0.3 * rng.standard_normal((nwell, m))
        wc_blocks = 0.3 * rng.standard_normal((nwell, m))
        ww = 2.0 + rng.random(nwell)
    else:
        cw_cells = np.zeros(0, int)
        cw_well = np.zeros(0, int)
        cw_blocks = np.zeros((0, m))
        wc_blocks = np.zeros((0, m))
        ww = np.zeros(0)
    blocks = [diag] + [x[ax] for ax in axes for x in (lo, hi)]     # the stencil's order
    stencil = np.stack([entry_major(x) for x in blocks], axis=2)
    return BlockMatrix(shape, m, stencil, cw_cells, cw_well, cw_blocks.T.copy(),
                       wc_blocks.T.copy(), ww)


def dense_from_blocks(a):
    """The full system filled entry by entry from the block arrays."""
    n, m = a.ncell, a.m
    dense = np.zeros((a.nunk, a.nunk))
    for c in range(n):
        dense[c * m:(c + 1) * m, c * m:(c + 1) * m] += a.diag[..., c]
        for ax in a.axes:
            s = a.stride(ax)
            pos = (c // s) % a.shape[ax]
            if pos > 0:
                dense[c * m:(c + 1) * m, (c - s) * m:(c - s + 1) * m] += a.lo[ax][..., c]
            if pos < a.shape[ax] - 1:
                dense[c * m:(c + 1) * m, (c + s) * m:(c + s + 1) * m] += a.hi[ax][..., c]
    for p, (c, w) in enumerate(zip(a.cw_cells, a.cw_well)):
        dense[c * m:(c + 1) * m, n * m + w] += a.cw_blocks[:, p]
        dense[n * m + w, c * m:(c + 1) * m] += a.wc_blocks[:, p]
    dense[n * m:, n * m:] += np.diag(a.ww)
    return dense


def dense_red_black_factors(a):
    """(perm, lower, upper): the dense red-black block ILU(0) of the cells,
    M = lower @ upper = [[D_R, 0], [L_BR, S]] [[I, D_R^-1 U_RB], [0, I]] in
    the red-then-black unknown order perm, S = D_B - blockdiag(L_BR D_R^-1
    U_RB)."""
    n, m, nm = a.ncell, a.m, a.ncell * a.m
    nx, ny, _ = a.shape
    cell = np.arange(n)
    red = (cell % nx + (cell // nx) % ny + cell // (nx * ny)) % 2 == 0
    order = np.concatenate([cell[red], cell[~red]])
    perm = (order[:, None] * m + np.arange(m)).ravel()
    full = dense_from_blocks(a)[np.ix_(perm, perm)]
    k = np.count_nonzero(red) * m
    d_r, u_rb, l_br = full[:k, :k], full[:k, k:], full[k:, :k]
    dinv_u = np.linalg.solve(d_r, u_rb)
    blocks = np.kron(np.eye(n - k // m), np.ones((m, m)))
    s = (full[k:, k:] - l_br @ dinv_u) * blocks
    lower = np.block([[d_r, np.zeros((k, nm - k))], [l_br, s]])
    upper = np.block([[np.eye(k), dinv_u], [np.zeros((nm - k, k)), np.eye(nm - k)]])
    return perm, lower, upper


def csr_operator(a):
    """The system operator a solver multiplies with: x -> A x on a.to_csr()."""
    return PooledMatvec(a.to_csr(), None)


def assembled_system(rng, shape=(10, 10, 1)):
    """Jacobian from a real two-phase waterflood state with BHP wells."""
    g = resim.Grid(*shape, 20.0, 20.0, 10.0)
    n = g.ncell
    kx = 10 ** rng.uniform(0, 3, n)
    rock = resim.RockFields(kx, 10 ** rng.uniform(0, 3, n), np.full(n, 10.0),
                            rng.uniform(0.1, 0.3, n)).clamped()
    model = ReservoirModel(g, rock, two_phase_fluid())
    old = ReservoirState(np.full(n, 6000.0), np.full(n, 0.2),
                         p_h=np.array([10000.0, 4000.0]))
    st = old.copy()
    st.p_o = st.p_o + rng.uniform(-50, 50, n)
    st.s_w = np.clip(st.s_w + rng.uniform(0, 0.2, n), 0, 1)
    inj = resim.Well("I", kind="injector", inj_phase="w",
                     constraint=resim.Constraint("bhp", 10000.0), slot=0)
    resim.complete_vertical(inj, g, rock, [0])
    prod = resim.Well("P", constraint=resim.Constraint("bhp", 4000.0), slot=1)
    resim.complete_vertical(prod, g, rock, [n - 1])
    a = model.assemble_jacobian(st, old, 1.0, [inj, prod])
    return a, a.b.copy()


class TestBlockMatrix:
    def test_to_csr_matches_dense_fill(self):
        rng = np.random.default_rng(0)
        for m, nwell in ((2, 0), (2, 2), (3, 1)):
            a = random_block_matrix(rng, m=m, nwell=nwell)
            np.testing.assert_array_equal(a.to_csr().toarray(), dense_from_blocks(a))

    @pytest.mark.parametrize("m, nwell", [(2, 0), (2, 2), (3, 1)])
    def test_pattern_reused_across_values(self, m, nwell):
        # a second matrix of the same structure fills the first one's pattern
        rng = np.random.default_rng(40)
        first = random_block_matrix(rng, m=m, nwell=nwell)
        pattern = first.csr_pattern()
        for _ in range(2):
            a = random_block_matrix(rng, m=m, nwell=nwell)
            a.cw_cells, a.cw_well = first.cw_cells.copy(), first.cw_well.copy()
            a.pattern = pattern
            dense = dense_from_blocks(a)
            np.testing.assert_array_equal(a.to_csr().toarray(), dense)
            cells = np.arange(a.ncell) * m
            np.testing.assert_array_equal(a.extract_app().toarray(),
                                          dense[np.ix_(cells, cells)])
            assert a.pattern is pattern

    def test_pattern_rebuilt_for_other_wells(self):
        rng = np.random.default_rng(41)
        first = random_block_matrix(rng, m=2, nwell=2)
        a = random_block_matrix(rng, m=2, nwell=2)
        a.cw_cells = (first.cw_cells + 1) % a.ncell
        a.pattern = first.csr_pattern()
        np.testing.assert_array_equal(a.to_csr().toarray(), dense_from_blocks(a))
        assert a.pattern is not first.pattern

    def test_rejects_cell_major_blocks(self):
        # the stencil array is (m, m, 1 + 2 naxes, n) and the well columns
        # (m, nperf); the cell-major (n, m, m, nblocks) and (nperf, m)
        # layouts are refused, and so is a stencil of any other block count
        rng = np.random.default_rng(50)
        a = random_block_matrix(rng, shape=(5, 1, 1), m=3, nwell=1)
        args = dict(shape=a.shape, m=a.m, stencil=a.stencil, cw_cells=a.cw_cells,
                    cw_well=a.cw_well, cw_blocks=a.cw_blocks, wc_blocks=a.wc_blocks, ww=a.ww)
        BlockMatrix(**args)
        for name, bad in (("stencil", cell_major(a.stencil)), ("stencil", a.stencil[:, :, :1]),
                          ("stencil", np.concatenate([a.stencil, a.stencil[:, :, 1:]], axis=2)),
                          ("cw_blocks", a.cw_blocks.T), ("wc_blocks", a.wc_blocks.T)):
            with pytest.raises(ValueError, match="entry-major"):
                BlockMatrix(**{**args, name: bad})

    def test_block_views_share_the_stencil(self):
        # diag, lo[ax] and hi[ax] are views of the one stencil array, in its
        # block order, for an assembled matrix and for its decoupled forms
        rng = np.random.default_rng(53)
        a, b = assembled_system(rng, shape=(4, 3, 2))
        for x in [a] + [decouple(a, b, kind)[0] for kind in ("quasi_impes", "abf")]:
            m = x.m
            assert x.stencil.shape == (m, m, 7, x.ncell) and x.axes == [0, 1, 2]
            views = [x.diag] + [v[ax] for ax in x.axes for v in (x.lo, x.hi)]
            for k, view in enumerate(views):
                assert np.shares_memory(view, x.stencil)
                assert view.__array_interface__["data"] == \
                    x.stencil[:, :, k].__array_interface__["data"]
        # a write through a view reaches the system's CSR
        a.lo[1][1, 0, 7] = 0.5
        assert a.to_csr()[7 * 2 + 1, (7 - 4) * 2] == 0.5

    def test_repeated_perforation_entries_rejected(self):
        # two perforation entries of one well in one cell would share CSR
        # slots; wells refuse such a completion, and so does the layout
        rng = np.random.default_rng(42)
        a = random_block_matrix(rng, m=3, nwell=2)
        a.cw_cells = np.array([4, 9, 4])
        a.cw_well = np.array([0, 1, 0])
        a.cw_blocks = rng.standard_normal((3, 3))
        a.wc_blocks = rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="more than once"):
            a.to_csr()

    def test_newton_systems_of_a_model_share_one_pattern(self):
        rng = np.random.default_rng(43)
        a, _ = assembled_system(rng)
        pattern = a.pattern
        assert pattern is not None and pattern.fits(a)
        a2, _ = decouple(a, a.b, "quasi_impes")
        assert a2.pattern is pattern

    def test_pattern_symmetric_and_app_stencil(self):
        rng = np.random.default_rng(1)
        a = random_block_matrix(rng, m=2, nwell=1)
        pat = (a.to_csr() != 0).astype(int)
        # structural symmetry of the stencil + borders
        assert (pat != pat.T).nnz == 0
        app = a.extract_app()
        # A_pp stencil: same neighbor pattern as the cell blocks
        for ax in a.axes:
            s = a.stride(ax)
            mhi = neighbor_mask(a.shape, ax, upper=True)
            rows = np.nonzero(mhi)[0]
            assert all(app[r, r + s] == a.hi[ax][0, 0, r] for r in rows[:5])


class TestCsrLayouts:
    """Every closed-form layout of a ``CsrPattern`` against scipy's canonical
    CSR of the same structure, built entry by entry from the dense system."""

    @staticmethod
    def structure(shape, m, wells):
        rng = np.random.default_rng(49)
        a = random_block_matrix(rng, shape=shape, m=m, nwell=0)
        if wells:
            # cell 3 has both wells; the perforations are out of (cell, well)
            # and (well, cell) order
            a.cw_cells, a.cw_well = np.array([3, 1, 3, 0]), np.array([1, 0, 0, 1])
            a.cw_blocks = rng.standard_normal((4, m)).T
            a.wc_blocks = rng.standard_normal((4, m)).T
            a.ww = 2.0 + rng.random(2)
        return a, rng

    @staticmethod
    def assert_canonical(csr, mask, rng):
        rows, cols = np.nonzero(mask)
        shuffled = rng.permutation(len(rows))
        ref = sp.coo_matrix((np.ones(len(rows)), (rows[shuffled], cols[shuffled])),
                            shape=mask.shape).tocsr()
        np.testing.assert_array_equal(csr.indptr, ref.indptr)
        np.testing.assert_array_equal(csr.indices, ref.indices)
        assert csr.has_sorted_indices
        summed = csr.copy()
        summed.sum_duplicates()
        assert summed.nnz == csr.nnz

    @pytest.mark.parametrize("shape", [(1, 4, 3), (5, 1, 1), (3, 3, 3), (4, 3, 2)])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("wells", [False, True])
    def test_layouts_match_canonical_csr(self, shape, m, wells):
        a, rng = self.structure(shape, m, wells)
        system = dense_from_blocks(a) != 0      # random values: no structural zero
        b = rng.standard_normal(a.nunk)
        # a matrix and its decoupled forms (ABF's diagonal blocks hold exact
        # zeros) gather into one pattern
        for kind in ("none", "quasi_impes", "abf"):
            self.check_layouts(decouple(a, b, kind)[0], system, shape, m, rng)

    def check_layouts(self, a, system, shape, m, rng):
        n, nm = a.ncell, a.ncell * m
        cell = np.arange(a.nunk) // m
        in_cells = np.arange(a.nunk) < nm
        nx, ny, _ = shape
        red = in_cells & ((cell % nx + (cell // nx) % ny + cell // (nx * ny)) % 2 == 0)
        own_block = (cell[:, None] == cell) & in_cells[:, None] & in_cells
        to_cells = system & in_cells            # entries in cell columns
        k_lo = own_block | (to_cells & (in_cells & ~red)[:, None]) | np.diag(~in_cells)
        k_up = to_cells & red[:, None] & ~own_block
        ilu = BlockILU0(a)
        p = np.arange(n) * m
        for csr, mask in ((a.to_csr(), system), (a.extract_app(), system[np.ix_(p, p)]),
                          (ilu.k_lo.a, k_lo), (ilu.k_up.a, k_up)):
            self.assert_canonical(csr, mask, rng)
        dense = dense_from_blocks(a)
        np.testing.assert_array_equal(a.to_csr().toarray(), dense)
        np.testing.assert_array_equal(a.extract_app().toarray(), dense[np.ix_(p, p)])
        pattern = a.csr_pattern()
        for layout in (pattern.system, pattern.pressure, pattern.ilu_lower, pattern.ilu_upper):
            assert not layout.indptr.flags.writeable and not layout.indices.flags.writeable
        for layout in (pattern.system, pattern.pressure, pattern.ilu_lower, pattern.ilu_upper):
            assert layout.src.dtype == np.int32

    @pytest.mark.parametrize("m", [2, 3])
    def test_gather_in_passes(self, m, monkeypatch):
        # the layouts gather _TAKE_PASS source entries at a time; passes of 5
        # (the last one short) give every CSR of the default single pass
        a, _ = self.structure((4, 3, 2), m, True)

        def csrs():
            ilu = BlockILU0(a)
            return [x.data.tobytes() for x in (a.to_csr(), a.extract_app(),
                                               ilu.k_lo.a, ilu.k_up.a)]

        whole = csrs()
        monkeypatch.setattr(linear, "_TAKE_PASS", 5)
        assert all(len(layout.src) % 5 for layout in (a.csr_pattern().system,
                                                      a.csr_pattern().pressure))
        assert csrs() == whole

    @pytest.mark.parametrize("shape", [(1, 4, 3), (5, 1, 1), (4, 3, 2)])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("wells", [False, True])
    def test_ilu_factors_match_dense_red_black_reference(self, shape, m, wells):
        # K_lo = lower^-1 and K_up = upper - I on the cells, in red-black
        # order; the wells' rows of K_lo hold 1/ww on the diagonal alone
        a, _ = self.structure(shape, m, wells)
        nm = a.ncell * m
        ilu = BlockILU0(a)
        perm, lower, upper = dense_red_black_factors(a)
        k_lo, k_up = ilu.k_lo.a.toarray(), ilu.k_up.a.toarray()
        np.testing.assert_allclose(k_lo[np.ix_(perm, perm)], np.linalg.inv(lower),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(k_up[np.ix_(perm, perm)], upper - np.eye(nm),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(k_lo[nm:], np.c_[np.zeros((a.nwell, nm)),
                                                       np.diag(1.0 / a.ww)])
        assert not k_lo[:nm, nm:].any() and not k_up[nm:].any() and not k_up[:, nm:].any()


class TestDecoupling:
    def test_quasi_impes_noop_when_uncoupled(self):
        rng = np.random.default_rng(2)
        a = random_block_matrix(rng, m=2, nwell=0)
        a.diag[0, 1] = 0.0  # D_ps = 0
        b = rng.standard_normal(a.nunk)
        a2, b2 = decouple(a, b, "quasi_impes")
        np.testing.assert_allclose(a2.to_csr().toarray(), a.to_csr().toarray(), atol=1e-14)
        np.testing.assert_allclose(b2, b, atol=1e-14)

    def test_quasi_impes_eliminates_saturation_column(self):
        # 2-cell toy system vs direct dense elimination
        rng = np.random.default_rng(3)
        a = random_block_matrix(rng, shape=(2, 1, 1), m=2, nwell=0)
        b = rng.standard_normal(a.nunk)
        dense = a.to_csr().toarray()
        a2, b2 = decouple(a, b, "quasi_impes")
        assert np.max(np.abs(a2.diag[0, 1:])) < 1e-13
        # row operation reproduced densely
        for c in range(2):
            f = dense[2 * c, 2 * c + 1] / dense[2 * c + 1, 2 * c + 1]
            expect = dense[2 * c] - f * dense[2 * c + 1]
            np.testing.assert_allclose(a2.to_csr().toarray()[2 * c], expect, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_quasi_impes_equals_left_multiplication(self, m):
        # only the pressure row changes, by sum_k E[0, k] (row k); the
        # result is the per-cell product E @ blocks with E built as
        # quasi-IMPES defines it, rows k >= 1 copied exactly
        rng = np.random.default_rng(45)
        a = random_block_matrix(rng, shape=(4, 3, 2), m=m, nwell=2)
        a.diag[1:, 1:, 3] = 0.0                 # a singular D_ss: identity row
        b = rng.standard_normal(a.nunk)
        n = a.ncell
        inv, det = linear._block_inv(a.diag[1:, 1:])
        inv[..., ~(np.abs(det) > 1e-30)] = 0.0
        e = np.tile(np.eye(m), (n, 1, 1))
        e[:, 0, 1:] = -np.einsum("jin,jn->ni", inv, a.diag[0, 1:])
        a2, b2 = decouple(a, b, "quasi_impes")
        assert a2.decouple_fallbacks == 1
        pairs = [(cell_major(a2.diag), np.matmul(e, cell_major(a.diag))),
                 (a2.cw_blocks.T, np.matmul(e[a.cw_cells], a.cw_blocks.T[:, :, None])[:, :, 0]),
                 (b2[:n * m].reshape(n, m), np.matmul(e, b[:n * m].reshape(n, m, 1))[:, :, 0])]
        pairs += [(cell_major(a2.lo[ax]), np.matmul(e, cell_major(a.lo[ax]))) for ax in a.axes]
        pairs += [(cell_major(a2.hi[ax]), np.matmul(e, cell_major(a.hi[ax]))) for ax in a.axes]
        for got, ref in pairs:
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
            np.testing.assert_array_equal(got[:, 1:], ref[:, 1:])
        np.testing.assert_array_equal(b2[n * m:], b[n * m:])
        for name in ("wc_blocks", "ww", "cw_cells", "cw_well"):
            np.testing.assert_array_equal(getattr(a2, name), getattr(a, name))

    def test_abf_identity_diagonal(self):
        rng = np.random.default_rng(4)
        for m in (2, 3):
            a = random_block_matrix(rng, m=m, nwell=1)
            b = rng.standard_normal(a.nunk)
            a2, _ = decouple(a, b, "abf")
            assert np.max(np.abs(a2.diag - np.eye(m)[:, :, None])) < 1e-12

    def test_abf_noop_when_identity(self):
        rng = np.random.default_rng(5)
        a = random_block_matrix(rng, m=2, nwell=0)
        a.diag[:] = np.eye(2)[:, :, None]
        b = rng.standard_normal(a.nunk)
        a2, b2 = decouple(a, b, "abf")
        np.testing.assert_allclose(a2.to_csr().toarray(), a.to_csr().toarray(), atol=1e-13)

    @pytest.mark.parametrize("kind", ["quasi_impes", "abf"])
    def test_solution_preserving_sample(self, kind):
        rng = np.random.default_rng(6)
        for m in (2, 3):
            for _ in range(20):
                a = random_block_matrix(rng, m=m, nwell=1)
                b = rng.standard_normal(a.nunk)
                x_ref = np.linalg.solve(a.to_csr().toarray(), b)
                a2, b2 = decouple(a, b, kind)
                x2 = np.linalg.solve(a2.to_csr().toarray(), b2)
                scale = np.max(np.abs(x_ref)) + 1.0
                assert np.max(np.abs(x2 - x_ref)) <= 1e-10 * scale

    @pytest.mark.parametrize("kind", ["none", "quasi_impes", "abf"])
    def test_input_unchanged(self, kind):
        # an assembled-like matrix and the output of either decoupling
        rng = np.random.default_rng(44)
        a0 = random_block_matrix(rng, m=2, nwell=1)
        b0 = rng.standard_normal(a0.nunk)
        for a, b in [(a0, b0)] + [decouple(a0, b0, first) for first in ("quasi_impes", "abf")]:
            before = copy.deepcopy(vars(a))
            b_before = b.copy()
            decouple(a, b, kind)
            assert vars(a).keys() == before.keys()
            for name, value in before.items():
                if isinstance(value, dict):
                    assert value.keys() == vars(a)[name].keys()
                    for ax in value:
                        np.testing.assert_array_equal(vars(a)[name][ax], value[ax])
                else:
                    np.testing.assert_array_equal(vars(a)[name], value)
            np.testing.assert_array_equal(b, b_before)

    def test_singular_dss_fallback(self):
        rng = np.random.default_rng(7)
        a = random_block_matrix(rng, m=2, nwell=0)
        a.diag[1, 1, 3] = 0.0  # singular D_ss at one cell
        b = rng.standard_normal(a.nunk)
        a2, _ = decouple(a, b, "quasi_impes")
        assert a2.decouple_fallbacks == 1
        # fallback row untouched
        np.testing.assert_allclose(a2.diag[..., 3], a.diag[..., 3])

    def test_singular_dss_fallback_three_unknowns(self):
        rng = np.random.default_rng(45)
        a = random_block_matrix(rng, m=3, nwell=1)
        a.diag[1:, 1:, 2] = [[1.0, 2.0], [2.0, 4.0]]      # rank one
        a.diag[1:, 1:, 5] = 0.0
        b = rng.standard_normal(a.nunk)
        a2, b2 = decouple(a, b, "quasi_impes")
        assert a2.decouple_fallbacks == 2
        for c in (2, 5):
            np.testing.assert_array_equal(a2.diag[..., c], a.diag[..., c])
            np.testing.assert_array_equal(b2[3 * c:3 * c + 3], b[3 * c:3 * c + 3])
        assert np.max(np.abs(np.delete(a2.diag[0, 1:], [2, 5], axis=1))) < 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_singular_diagonal_abf_fallback(self, m):
        rng = np.random.default_rng(46)
        a = random_block_matrix(rng, m=m, nwell=1)
        a.diag[..., 1] = 0.0
        a.diag[-1, :, 4] = a.diag[-2, :, 4]                # two equal rows
        b = rng.standard_normal(a.nunk)
        a2, _ = decouple(a, b, "abf")
        assert a2.decouple_fallbacks == 2
        np.testing.assert_array_equal(a2.diag[..., 1], 0.0)
        rowmax = np.max(np.abs(a.diag[..., 4]), axis=1)
        np.testing.assert_allclose(a2.diag[..., 4], a.diag[..., 4] / rowmax[:, None], rtol=1e-15)
        eye = np.eye(m)[:, :, None]
        ok = np.delete(np.arange(a.ncell), [1, 4])
        assert np.max(np.abs(a2.diag[..., ok] - eye)) < 1e-12


class TestBlockKernels:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    def test_block_inv_matches_lapack(self, m, scale):
        rng = np.random.default_rng(60 + m)
        blocks = scale * (rng.standard_normal((500, m, m)) + 4.0 * np.eye(m))
        inv, det = linear._block_inv(entry_major(blocks))
        np.testing.assert_allclose(det, np.linalg.det(blocks), rtol=1e-12)
        ref = np.linalg.inv(blocks)
        np.testing.assert_allclose(cell_major(inv), ref, rtol=1e-10, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exactly_singular_blocks(self, m):
        rng = np.random.default_rng(70 + m)
        blocks = rng.standard_normal((6, m, m)) + 4.0 * np.eye(m)
        blocks[1] = 0.0
        blocks[4, 0] = 0.0                                  # a zero row
        if m > 1:
            blocks[2, -1] = blocks[2, -2]                   # two equal rows
        singular = [1, 4] + ([2] if m > 1 else [])
        _, det = linear._block_inv(entry_major(blocks))
        np.testing.assert_array_equal(det[singular], 0.0)
        counter = [0]
        inv = cell_major(linear._safe_inv(entry_major(blocks), counter))
        assert counter[0] == len(singular)
        assert np.all(np.isfinite(inv))
        fine = np.setdiff1d(np.arange(6), singular)
        np.testing.assert_allclose(inv[fine], np.linalg.inv(blocks[fine]), rtol=1e-10)

    def test_block_mm_sums_in_order(self):
        # entry-major products add the inner terms in order, like the
        # per-entry loop sum_k a[i, k] * b[k, j], bit for bit
        rng = np.random.default_rng(80)
        a = rng.standard_normal((2, 2, 3, 500)) * 10 ** rng.uniform(-8, 8, (2, 2, 3, 500))
        b = rng.standard_normal((2, 2, 3, 500))
        ref = np.empty_like(a)
        for i in range(2):
            for j in range(2):
                ref[i, j] = a[i, 0] * b[0, j] + a[i, 1] * b[1, j]
        np.testing.assert_array_equal(linear._block_mm(a, b), ref)

    def test_block_mm_three_unknowns(self):
        # leading entry axes, broadcast trailing axes
        rng = np.random.default_rng(81)
        a = rng.standard_normal((3, 3, 1, 300))
        b = rng.standard_normal((3, 3, 4, 300))
        ref = np.matmul(np.moveaxis(a, (0, 1), (-2, -1)), np.moveaxis(b, (0, 1), (-2, -1)))
        np.testing.assert_allclose(linear._block_mm(a, b), np.moveaxis(ref, (-2, -1), (0, 1)),
                                   rtol=1e-13, atol=1e-15)


class TestBicgstab:
    def test_zero_rhs(self):
        rng = np.random.default_rng(8)
        a = random_block_matrix(rng)
        x, it, status = bicgstab(a.to_csr(), None, np.zeros(a.nunk), 1e-8, 50)
        assert it == 0 and status == "converged"
        np.testing.assert_array_equal(x, 0.0)

    def test_identity_one_iteration(self):
        n = 40
        a = sp.identity(n, format="csr")
        b = np.random.default_rng(9).standard_normal(n)
        x, it, status = bicgstab(a, None, b, 1e-10, 50)
        assert status == "converged" and it == 1
        np.testing.assert_allclose(x, b, rtol=1e-12)

    def test_laplacian_against_dense(self):
        # 100x100 1D finite-difference Laplacian, ILU(0) preconditioner
        rng = np.random.default_rng(10)
        n = 100
        g = resim.Grid(n, 1, 1, 1.0, 1.0, 1.0)
        stencil = np.full((1, 1, 3, n), -1.0)     # diagonal, lower, upper
        stencil[:, :, 0] = 2.0
        stencil[:, :, 1, 0] = stencil[:, :, 2, -1] = 0.0
        a = BlockMatrix((n, 1, 1), 1, stencil, np.zeros(0, int),
                        np.zeros(0, int), np.zeros((1, 0)), np.zeros((1, 0)),
                        np.zeros(0))
        b = rng.standard_normal(n)
        op = csr_operator(a)
        x, it, status = bicgstab(op, BlockILU0(a), b, 1e-8, 200)
        assert status == "converged"
        x_ref = np.linalg.solve(a.to_csr().toarray(), b)
        assert np.max(np.abs(x - x_ref)) <= 1e-6 * np.max(np.abs(x_ref))

    def test_true_residual_on_convergence(self):
        rng = np.random.default_rng(11)
        a, b = assembled_system(rng)
        a2, b2 = decouple(a, b, "quasi_impes")
        op = csr_operator(a2)
        tol = 1e-6
        x, it, status = bicgstab(op, CprFpf(a2, op), b2, tol, 100)
        assert status == "converged"
        # independent recomputation of the stopping inequality
        r = b2 - a2.to_csr() @ x
        assert det_norm(r) <= tol * det_norm(b2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_preconditioner_breaks_down_at_once(self, bad):
        # a NaN or infinite preconditioner output (a singular coarse LU
        # gives +-inf) ends the solve in its first iteration, not at max_it
        rng = np.random.default_rng(46)
        a, b = assembled_system(rng)
        calls = []

        class Broken:
            def solve(self, r):
                calls.append(1)
                return np.full_like(r, bad)

        x, it, status = bicgstab(csr_operator(a), Broken(), b, 1e-8, 50)
        assert status == "breakdown" and it == 0 and len(calls) == 1
        np.testing.assert_array_equal(x, 0.0)

    def test_max_it_status(self):
        rng = np.random.default_rng(12)
        a, b = assembled_system(rng)
        x, it, status = bicgstab(a.to_csr(), None, b, 1e-14, 3)
        assert status == "max_it" and it == 3


class TestBlockILU0:
    def test_preconditions_bicgstab(self):
        rng = np.random.default_rng(14)
        a, b = assembled_system(rng)
        a2, b2 = decouple(a, b, "quasi_impes")
        op = csr_operator(a2)
        x, it, status = bicgstab(op, BlockILU0(a2), b2, 1e-8, 200)
        assert status == "converged"
        x_ref = np.linalg.solve(a2.to_csr().toarray(), b2)
        assert np.max(np.abs(x - x_ref)) <= 1e-6 * np.max(np.abs(x_ref))

    def test_input_unchanged(self):
        # the set-up reads the blocks in place (a singular red pivot
        # included) and writes only into its own factors
        rng = np.random.default_rng(52)
        a = random_block_matrix(rng, shape=(4, 3, 2), m=3, nwell=2)
        a.diag[..., 0] = 0.0
        arrays = [a.diag, *a.lo.values(), *a.hi.values(), a.cw_blocks, a.wc_blocks, a.ww]
        before = [x.tobytes() for x in arrays]
        assert BlockILU0(a).pivot_shifts == 1
        assert [x.tobytes() for x in arrays] == before

    def test_pivot_shift_counter(self):
        rng = np.random.default_rng(15)
        for m in (2, 3):
            a = random_block_matrix(rng, m=m, nwell=0)
            a.diag[..., 0] = 0.0  # fully singular diagonal block on a red cell
            ilu = BlockILU0(a)
            assert ilu.pivot_shifts >= 1
            z = ilu.solve(np.ones(a.nunk))
            assert np.all(np.isfinite(z))

    @pytest.mark.parametrize("alpha", [2.0, 0.3])
    def test_linearity(self, alpha):
        rng = np.random.default_rng(16)
        a, b = assembled_system(rng)
        a2, _ = decouple(a, b, "quasi_impes")
        m = BlockILU0(a2)
        r = rng.standard_normal(a2.nunk)
        lhs = m.solve(alpha * r)
        rhs = alpha * m.solve(r)
        if alpha == 2.0:
            np.testing.assert_array_equal(lhs, rhs)  # power of two: exact
        else:
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 3, 1), (3, 3, 3), (4, 3, 2), (5, 1, 3)])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("nwell", [0, 2])
    def test_solve_matches_dense_red_black_ilu(self, shape, m, nwell):
        # M = lower @ upper on the cells (dense_red_black_factors); well
        # unknowns are divided by their diagonal.  Odd extents put a red
        # cell just past the row end of a black one
        rng = np.random.default_rng(30)
        a = random_block_matrix(rng, shape=shape, m=m, nwell=nwell)
        ilu = BlockILU0(a)
        assert ilu.pivot_shifts == 0
        nm = a.ncell * a.m
        perm, lower, upper = dense_red_black_factors(a)
        r = rng.standard_normal(a.nunk)
        ref = np.empty(a.nunk)
        ref[perm] = np.linalg.solve(lower @ upper, r[perm])
        ref[nm:] = r[nm:] / a.ww
        np.testing.assert_allclose(ilu.solve(r), ref, rtol=1e-12)

    def test_set_up_in_passes_over_black_cells(self, monkeypatch):
        # the set-up passes over the black cells a few at a time; passes of
        # 1 and 3 cells (the last one short) on the same pattern give the
        # same factors bit for bit as the default's one pass
        rng = np.random.default_rng(47)
        a = random_block_matrix(rng, shape=(5, 3, 3), m=3, nwell=2)
        r = rng.standard_normal(a.nunk)
        whole = BlockILU0(a)
        pattern = a.pattern
        assert len(pattern.black) % 3 == 1 and len(pattern.black) <= linear._ILU_PASS_CELLS
        for cells in (1, 3):
            monkeypatch.setattr(linear, "_ILU_PASS_CELLS", cells)
            passes = BlockILU0(a)
            assert a.pattern is pattern
            for x, y in ((passes.k_lo.a, whole.k_lo.a), (passes.k_up.a, whole.k_up.a)):
                assert x.data.tobytes() == y.data.tobytes()
            np.testing.assert_array_equal(passes.inv_diag, whole.inv_diag)
            assert passes.solve(r).tobytes() == whole.solve(r).tobytes()

    def test_set_ups_write_nothing_to_their_pattern(self, monkeypatch):
        # a set-up leaves every attribute of its pattern, and of the
        # pattern's layouts, the very object it was; so a second matrix's
        # set-up started in the middle of the first's (at the first's second
        # pivot inversion, inside a pass) changes neither's factors: both
        # are byte for byte the set-ups run one after the other
        monkeypatch.setattr(linear, "_ILU_PASS_CELLS", 3)
        rng = np.random.default_rng(54)
        first = random_block_matrix(rng, shape=(5, 3, 3), m=3, nwell=2)
        second = random_block_matrix(rng, shape=(5, 3, 3), m=3, nwell=2)
        second.cw_cells, second.cw_well = first.cw_cells.copy(), first.cw_well.copy()
        second.pattern = pattern = first.csr_pattern()

        def state(x):
            return {k: id(v) for k, v in vars(x).items()}

        def factors(ilu):
            return [x.tobytes() for x in (ilu.inv_diag, ilu.k_lo.a.data, ilu.k_up.a.data)]

        layouts = [pattern.system, pattern.pressure, pattern.ilu_lower, pattern.ilu_upper]
        before = [state(x) for x in [pattern] + layouts]
        sequential = [factors(BlockILU0(a)) for a in (first, second)]
        assert [state(x) for x in [pattern] + layouts] == before
        inner, safe_inv, calls = [], linear._safe_inv, []

        def interleaving(blocks, counter):
            calls.append(1)
            if len(calls) == 2:
                inner.append(BlockILU0(second))
            return safe_inv(blocks, counter)

        monkeypatch.setattr(linear, "_safe_inv", interleaving)
        outer = BlockILU0(first)
        assert first.pattern is second.pattern is pattern and len(inner) == 1
        assert [factors(outer), factors(inner[0])] == sequential
        assert [state(x) for x in [pattern] + layouts] == before

    def test_pooled_sweeps_match_one_worker(self, monkeypatch):
        # both sweeps are row-sliced products on the pool; with two workers
        # the solve is bitwise the one-worker solve
        rng = np.random.default_rng(48)
        a, b = assembled_system(rng)
        a2, _ = decouple(a, b, "quasi_impes")
        r = rng.standard_normal(a2.nunk)
        serial = BlockILU0(a2).solve(r)
        monkeypatch.setattr(parallel, "MIN_ROWS", 1)
        with WorkerPool(2) as pool:
            ilu = BlockILU0(a2, pool)
            assert ilu.k_lo.slices is not None and ilu.k_up.slices is not None
            assert ilu.solve(r).tobytes() == serial.tobytes()

    def test_solve_replaced_on_the_class_is_called(self, monkeypatch):
        # profilers and samplers wrap BlockILU0.solve on the class; BiCGSTAB
        # must reach the wrapper, not a copy bound when the class was made
        calls = []
        original = BlockILU0.solve

        def counting(self, r):
            calls.append(1)
            return original(self, r)

        monkeypatch.setattr(BlockILU0, "solve", counting)
        rng = np.random.default_rng(31)
        a, b = assembled_system(rng)
        a2, b2 = decouple(a, b, "quasi_impes")
        op = csr_operator(a2)
        _, it, status = bicgstab(op, BlockILU0(a2), b2, 1e-8, 200)
        assert status == "converged"
        assert it <= len(calls) <= 2 * it


def pair_strengths(a: sp.csr_matrix) -> np.ndarray:
    """Dense -a_ij / sqrt(a_ii a_jj) off the diagonal, 0 where not positive."""
    dense = a.toarray()
    d = np.sqrt(np.abs(np.diag(dense)))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -dense / np.outer(d, d)
    s[~(s > 0)] = 0.0
    np.fill_diagonal(s, 0.0)
    return s


def amg_test_matrix(case: str) -> sp.csr_matrix:
    if case == "laplacian_2d":
        return laplacian_2d(23, 17)
    if case == "anisotropic_3d":
        return laplacian_3d_anisotropic(9, 8, 5)
    if case == "assembled":
        a, b = assembled_system(np.random.default_rng(27), shape=(14, 12, 3))
        return decouple(a, b, "quasi_impes")[0].extract_app()
    # unsymmetric strengths, positive couplings, and nodes with no negative one
    rng = np.random.default_rng(55)
    a = sp.random(600, 600, density=0.01, random_state=rng, format="csr")
    a.data = rng.standard_normal(a.nnz)
    return (a + sp.diags(1.0 + rng.random(600))).tocsr()


def laplacian_2d(nx, ny):
    ix = sp.diags([-np.ones(nx - 1), 2 * np.ones(nx), -np.ones(nx - 1)], [-1, 0, 1])
    iy = sp.diags([-np.ones(ny - 1), 2 * np.ones(ny), -np.ones(ny - 1)], [-1, 0, 1])
    return (sp.kron(sp.eye(ny), ix) + sp.kron(iy, sp.eye(nx))).tocsr()


def laplacian_3d_anisotropic(nx, ny, nz, ex=1.0, ey=0.01, ez=100.0):
    def d1(k):
        return sp.diags([-np.ones(k - 1), 2 * np.ones(k), -np.ones(k - 1)], [-1, 0, 1])

    return (ex * sp.kron(sp.eye(ny * nz), d1(nx))
            + ey * sp.kron(sp.kron(sp.eye(nz), d1(ny)), sp.eye(nx))
            + ez * sp.kron(d1(nz), sp.eye(nx * ny))).tocsr()


def counting_build_amg(monkeypatch):
    """Replace ``linear.build_amg`` with a wrapper that records each call."""
    calls = []
    original = linear.build_amg

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(linear, "build_amg", counted)
    return calls


def count_full_build_work(monkeypatch):
    """Per ``linear.build_amg`` call, the calls it makes to aggregate, take a
    spectral radius and truncate: all zero in a numeric re-set-up."""
    work = []
    build = linear.build_amg

    def counted_build(*args, **kwargs):
        work.append(0)
        return build(*args, **kwargs)

    monkeypatch.setattr(linear, "build_amg", counted_build)
    for name in ("_aggregate", "_spectral_radius", "_truncate"):
        def counted(*args, _fn=getattr(linear, name), **kwargs):
            work[-1] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(linear, name, counted)
    return work


class TestAmg:
    def build_app(self, shape=(16, 16, 1), hetero=False, dz=10.0):
        rng = np.random.default_rng(17)
        g = resim.Grid(*shape, 20.0, 20.0, dz)
        n = g.ncell
        k = 10 ** rng.uniform(0, 3, n) if hetero else np.full(n, 100.0)
        rock = resim.RockFields(k, k, k, np.full(n, 0.2))
        fl = two_phase_fluid(c=3e-6)
        model = ReservoirModel(g, rock, fl)
        st = ReservoirState(np.full(n, 5000.0), np.full(n, 0.4))
        return model.assemble_jacobian(st, st, 1.0, []).extract_app()

    def test_zero_residual(self):
        app = self.build_app()
        hier = build_amg(app)
        np.testing.assert_array_equal(amg_vcycle(hier, np.zeros(app.shape[0])), 0.0)

    def test_restriction_is_prolongation_transpose(self):
        app = self.build_app(hetero=True)
        hier = build_amg(app)
        rng = np.random.default_rng(18)
        for lev in hier.levels:
            v = rng.standard_normal(lev.p.shape[0])
            w = rng.standard_normal(lev.p.shape[1])
            assert det_dot(lev.r @ v, w) == pytest.approx(det_dot(v, lev.p @ w),
                                                          rel=1e-12)

    def test_level_sizes_strictly_decreasing_and_ratio(self):
        app = self.build_app()
        hier = build_amg(app)
        sizes = [lev.a.shape[0] for lev in hier.levels] + [hier.coarse_n]
        assert len(sizes) >= 2
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] / sizes[1] >= 2.0

    def test_single_cell_direct(self):
        a = sp.csr_matrix(np.array([[3.0]]))
        hier = build_amg(a)
        assert len(hier.levels) == 0
        assert amg_vcycle(hier, np.array([6.0]))[0] == pytest.approx(2.0)

    def test_poisson_1d_error_reduction(self):
        # classical SA with V(1,1) weighted Jacobi on aggregates of ~3:
        # measured asymptotic factor ~0.37 (pyamg: 0.50-0.62 multilevel);
        # assert the honest envelope
        n = 64
        a = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        hier = build_amg(a)
        x = np.random.default_rng(19).standard_normal(n)
        errs = [np.linalg.norm(x)]
        for _ in range(8):
            x += amg_vcycle(hier, -(a @ x))
            errs.append(np.linalg.norm(x))
        ratios = [e2 / e1 for e1, e2 in zip(errs, errs[1:])]
        assert max(ratios) <= 0.5
        assert errs[-1] <= 1e-2 * errs[0]

    def test_pairs_a_chain_in_node_order(self):
        # chain 0-1-2-3-4 with couplings 1, 5, 1, 2: node 0 takes node 1, its
        # only neighbour, although 1's strongest link is to 2; node 2 then
        # takes 3, and node 4, whose one neighbour is taken, stays single.
        # Node 5's only coupling is positive, so it stays single too
        a = np.zeros((6, 6))
        for i, w in enumerate([1.0, 5.0, 1.0, 2.0, -0.5]):
            a[i, i + 1] = a[i + 1, i] = -w
        np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
        np.testing.assert_array_equal(linear._pair(sp.csr_matrix(a)), [0, 0, 1, 1, 2, 3])

    @pytest.mark.parametrize("case", ["laplacian_2d", "anisotropic_3d", "assembled", "random"])
    def test_pairs_along_strongest_negative_coupling(self, case):
        # in node order, a node not yet taken opens a pair and takes its
        # neighbour of the strongest negative coupling among those not yet
        # taken (the first of ties), or stays single when it has none
        a = amg_test_matrix(case)
        n = a.shape[0]
        pair = linear._pair(a)
        sizes = np.bincount(pair)
        assert sizes.min() >= 1 and sizes.max() <= 2
        opener = np.full(len(sizes), n)
        np.minimum.at(opener, pair, np.arange(n))
        assert np.all(np.diff(opener) > 0)              # ids in the order pairs open
        s = pair_strengths(a)
        singles = 0
        for i in opener:
            free = opener[pair] >= i                    # not taken when i comes
            free[i] = False
            candidates = np.where(free, s[i], 0.0)
            partner = np.flatnonzero(pair == pair[i])
            if candidates.max() > 0:
                assert partner.tolist() == [i, np.argmax(candidates)]
            else:
                assert partner.tolist() == [i]
                singles += 1
        assert singles < len(opener)

    @pytest.mark.parametrize("case", ["laplacian_2d", "anisotropic_3d", "assembled", "random"])
    def test_aggregates_pair_the_pairs(self, case):
        # the second pass pairs the first pass's pairs on P0^T A P0: an
        # aggregate joins whole pairs and has at most four nodes
        a = amg_test_matrix(case)
        n = a.shape[0]
        pairs = linear._pair(a)
        p0 = sp.csr_matrix((np.ones(n), (np.arange(n), pairs)))
        agg = linear._aggregate(a)
        assert agg.tobytes() == linear._pair((p0.T @ a @ p0).tocsr())[pairs].tobytes()
        sizes = np.bincount(agg)
        assert sizes.min() >= 1 and sizes.max() <= 4
        assert len(np.unique(np.c_[pairs, agg], axis=0)) == pairs.max() + 1
        assert agg.max() + 1 < pairs.max() + 1 < n

    def test_aggregates_identical_on_a_rerun(self):
        a = amg_test_matrix("assembled")
        first = linear._aggregate(a)
        assert linear._aggregate(a.copy()).tobytes() == first.tobytes()
        assert linear._aggregate(a).tobytes() == first.tobytes()
        h1, h2 = build_amg(a), build_amg(a.copy())
        for lx, ly in zip(h1.levels, h2.levels):
            for mx, my in ((lx.a, ly.a), (lx.p, ly.p)):
                for attr in ("data", "indices", "indptr"):
                    assert getattr(mx, attr).tobytes() == getattr(my, attr).tobytes()

    def test_truncate_keeps_row_sums_and_tentative_entries(self):
        p = sp.csr_matrix(np.array([[0.5, 0.04, 0.2, 0.0],      # 0.04 < 0.1 * 0.5
                                    [0.01, 0.9, 0.0, 0.05],     # 0.01 and 0.05 go
                                    [0.02, 0.0, 0.0, 0.6],      # 0.02 is tentative
                                    [0.4, -0.01, -0.3, 0.0],    # signs scale apart
                                    [0.5, 0.0, 0.0, -0.02],     # a lost sign: onto 0.5
                                    [0.0, 0.0, 0.0, 0.0]]))     # an empty last row
        out = linear._truncate(p, np.array([0, 1, 0, 0, 0, 3]), 0.1)
        np.testing.assert_allclose(out.toarray(), [[0.5 * 0.74 / 0.7, 0.0, 0.2 * 0.74 / 0.7, 0.0],
                                                   [0.0, 0.96, 0.0, 0.0],
                                                   [0.02, 0.0, 0.0, 0.6],
                                                   [0.4, 0.0, -0.31, 0.0],
                                                   [0.48, 0.0, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0, 0.0]], rtol=1e-14)
        assert out.nnz == 8
        np.testing.assert_allclose(out.sum(axis=1), p.sum(axis=1), rtol=1e-14)

    def test_prolongators_keep_tentative_entries(self):
        # every row keeps its own aggregate's column, so no coarse column
        # is empty, and truncation keeps P sparse
        app = self.build_app(shape=(16, 16, 4), hetero=True)
        hier = build_amg(app)
        assert len(hier.levels) >= 2
        for lev in hier.levels:
            agg = linear._aggregate(lev.a)
            n = lev.p.shape[0]
            assert np.all(np.asarray(lev.p[np.arange(n), agg]).ravel() > 0)
            assert np.all(np.diff(lev.p.tocsc().indptr) > 0)
            assert lev.p.nnz < 3 * n

    def test_thin_layers_aggregate_in_columns(self, caplog):
        # 2 ft layers of 20 ft cells: z-transmissibility 100x the lateral, so
        # the strongest couplings are vertical: the first pass pairs layers
        # 0-1, 2-3 and 4-5 of each column, and the second joins the first two
        # pairs, so aggregates of four cells coarsen the block about 4x
        app = self.build_app(shape=(16, 16, 6), dz=2.0)
        with caplog.at_level(logging.INFO, logger="resim.linear"):
            hier = build_amg(app)
        sizes = [lev.a.shape[0] for lev in hier.levels] + [hier.coarse_n]
        agg = linear._aggregate(app).reshape(6, 256)
        assert np.all(agg[:4] == agg[0])                # layers 0-3 of each column
        assert len(np.unique(agg[:4])) == 256 and not np.isin(agg[4:], agg[:4]).any()
        assert sizes[0] >= 3.9 * sizes[1]
        lines = [r.getMessage() for r in caplog.records if r.name == "resim.linear"]
        assert lines == [f"AMG levels {' -> '.join(map(str, sizes))}, operator complexity "
                         f"{hier.operator_complexity:.2f}"]
        x = np.random.default_rng(29).standard_normal(app.shape[0])
        errs = [np.linalg.norm(x)]
        for _ in range(8):
            x += amg_vcycle(hier, -(app @ x))
            errs.append(np.linalg.norm(x))
        # the last layers' pairs join across columns, which slows the cycle
        # here to about 0.9 (0.7 with the greedy aggregation this replaced);
        # thin-layered decks still take fewer linear iterations with it
        assert max(e2 / e1 for e1, e2 in zip(errs, errs[1:])) <= 0.95
        assert errs[-1] <= 0.25 * errs[0]

    def resetup_pair(self):
        """Two pressure blocks of one structure with different values."""
        a = amg_test_matrix("assembled")
        c, d = assembled_system(np.random.default_rng(28), shape=(14, 12, 3))
        c2 = decouple(c, d, "quasi_impes")[0].extract_app()
        assert (a.indptr.tobytes(), a.indices.tobytes()) == \
            (c2.indptr.tobytes(), c2.indices.tobytes())
        assert not np.array_equal(a.data, c2.data)
        return a, c2

    def test_resetup_on_its_own_block_is_bitwise_a_full_build(self):
        a, _ = self.resetup_pair()
        full = build_amg(a)
        again = build_amg(a, like=build_amg(a))
        assert len(full.levels) >= 2 and len(again.levels) == len(full.levels)
        for lx, ly in zip(full.levels, again.levels):
            for mx, my in ((lx.a, ly.a), (lx.p, ly.p), (lx.r, ly.r)):
                for attr in ("data", "indices", "indptr"):
                    assert getattr(mx, attr).tobytes() == getattr(my, attr).tobytes()
            assert lx.dinv.tobytes() == ly.dinv.tobytes() and lx.omega == ly.omega
        assert again.coarse_n == full.coarse_n
        for x, y in zip(full.coarse_lu, again.coarse_lu):
            assert x.tobytes() == y.tobytes()

    def test_resetup_takes_galerkin_products_of_the_template(self):
        # every level of a re-set-up is R A P of the level above it, with the
        # template's P, R and weight; the template is left as it was
        a, c = self.resetup_pair()
        template = build_amg(a)
        before = [[arr.copy() for m in (lev.a, lev.p, lev.r)
                   for arr in (m.data, m.indices, m.indptr)] + [lev.dinv.copy()]
                  for lev in template.levels]
        lu_before = [x.copy() for x in template.coarse_lu]
        hier = build_amg(c, like=template)
        assert len(hier.levels) == len(template.levels)
        op = c
        for lev, tmp in zip(hier.levels, template.levels):
            assert lev.p is tmp.p and lev.r is tmp.r and lev.omega == tmp.omega
            assert (lev.a != op).nnz == 0
            np.testing.assert_array_equal(lev.dinv, 1.0 / op.diagonal())
            op = (tmp.r @ op @ tmp.p).tocsr()
        assert hier.coarse_n == op.shape[0]
        np.testing.assert_allclose(scipy.linalg.lu_solve(hier.coarse_lu, np.ones(op.shape[0])),
                                   np.linalg.solve(op.toarray(), np.ones(op.shape[0])),
                                   rtol=1e-9)
        after = [[arr for m in (lev.a, lev.p, lev.r) for arr in (m.data, m.indices, m.indptr)]
                 + [lev.dinv] for lev in template.levels]
        for xs, ys in zip(before, after):
            for x, y in zip(xs, ys):
                assert x.tobytes() == y.tobytes()
        for x, y in zip(lu_before, template.coarse_lu):
            assert x.tobytes() == y.tobytes()

    def test_resetup_aggregates_smooths_and_truncates_nothing(self, monkeypatch, caplog):
        a, c = self.resetup_pair()
        like = build_amg(a)
        work = count_full_build_work(monkeypatch)
        with caplog.at_level(logging.INFO, logger="resim.linear"):
            hier = linear.build_amg(c, like=like)
        assert work == [0] and len(hier.levels) == len(like.levels) >= 2
        assert [r.getMessage().endswith(", prolongators reused") for r in caplog.records
                if r.name == "resim.linear"] == [True]
        linear.build_amg(c)
        assert work[1] >= 3 * len(hier.levels)

    def test_spe10_subset_pressure_block_converges(self):
        # the first quasi-IMPES pressure block of the shipped SPE10 subset
        # deck (13,200 cells, permeability 1e-3 to 2e4 md): ten V-cycles
        # from zero cut a random residual 100x at least
        deck = load_deck(deck_path("spe10_subset.deck"))
        model = ReservoirModel(deck.grid, deck.rock, deck.fluid)
        state = initial_state(deck)
        jac = model.assemble_jacobian(state, state, deck.controller.dt_init, deck.wells)
        app = decouple(jac, jac.b, "quasi_impes")[0].extract_app()
        assert app.shape[0] == 13200
        hier = build_amg(app)
        r = np.random.default_rng(30).standard_normal(app.shape[0])
        x = np.zeros_like(r)
        for _ in range(10):
            x += amg_vcycle(hier, r - app @ x)
        assert np.linalg.norm(r - app @ x) <= 1e-2 * np.linalg.norm(r)

    def test_homogeneous_field_converges(self):
        app = self.build_app()
        hier = build_amg(app)
        rng = np.random.default_rng(20)
        r = rng.standard_normal(app.shape[0])
        x = np.zeros_like(r)
        for _ in range(25):
            x += amg_vcycle(hier, r - app @ x)
        assert np.linalg.norm(r - app @ x) <= 1e-8 * np.linalg.norm(r)


class TestCprFpf:
    def test_zero_residual(self):
        rng = np.random.default_rng(21)
        a, b = assembled_system(rng)
        a2, _ = decouple(a, b, "quasi_impes")
        m = CprFpf(a2, csr_operator(a2))
        np.testing.assert_array_equal(m.solve(np.zeros(a2.nunk)), 0.0)

    def test_single_cell_exact(self):
        rng = np.random.default_rng(22)
        a = random_block_matrix(rng, shape=(1, 1, 1), m=2, nwell=0)
        m = CprFpf(a, csr_operator(a))
        r = rng.standard_normal(2)
        np.testing.assert_allclose(m.solve(r), np.linalg.solve(a.to_csr().toarray(), r),
                                   rtol=1e-12)

    @pytest.mark.parametrize("alpha", [2.0, 0.3])
    def test_linearity(self, alpha):
        rng = np.random.default_rng(23)
        a, b = assembled_system(rng)
        a2, _ = decouple(a, b, "quasi_impes")
        m = CprFpf(a2, csr_operator(a2))
        r = rng.standard_normal(a2.nunk)
        lhs = m.solve(alpha * r)
        rhs = alpha * m.solve(r)
        if alpha == 2.0:
            np.testing.assert_array_equal(lhs, rhs)
        else:
            np.testing.assert_allclose(lhs, rhs, rtol=1e-11)

    def test_beats_ilu_alone(self):
        # head-to-head on a heterogeneous waterflood system
        rng = np.random.default_rng(24)
        a, b = assembled_system(rng, shape=(20, 20, 1))
        a2, b2 = decouple(a, b, "quasi_impes")
        op = csr_operator(a2)
        _, it_ilu, st_ilu = bicgstab(op, BlockILU0(a2), b2, 1e-8, 400)
        _, it_cpr, st_cpr = bicgstab(op, CprFpf(a2, op), b2, 1e-8, 400)
        assert st_ilu == "converged" and st_cpr == "converged"
        assert it_cpr <= 0.5 * it_ilu

    def test_pressure_row_residual_matches_full_product(self):
        # the V-cycle's residual comes from the system's pressure rows
        # alone, bitwise equal to the full product's pressure entries
        rng = np.random.default_rng(49)
        a, b = assembled_system(rng)
        for m, kind in ((2, "quasi_impes"), (3, "abf")):
            if m == 3:
                a = random_block_matrix(rng, shape=(4, 3, 2), m=3, nwell=2)
            a2, _ = decouple(a, a.to_csr() @ np.ones(a.nunk), kind)
            op = csr_operator(a2)
            cpr = CprFpf(a2, op)
            z, r = rng.standard_normal((2, a2.nunk))
            assert cpr.a_p(z).tobytes() == op(z)[cpr.pslots].tobytes()
            # the solve as first written, with the full product
            zf = cpr.smoother.solve(r)
            zf[cpr.pslots] += amg_vcycle(cpr.amg, (r - op(zf))[cpr.pslots])
            full = zf + cpr.smoother.solve(r - op(zf))
            assert cpr.solve(r).tobytes() == full.tobytes()

    def test_pooled_solve_matches_one_worker(self, monkeypatch):
        rng = np.random.default_rng(50)
        a, b = assembled_system(rng)
        a2, _ = decouple(a, b, "quasi_impes")
        r = rng.standard_normal(a2.nunk)
        serial = CprFpf(a2, csr_operator(a2)).solve(r)
        monkeypatch.setattr(parallel, "MIN_ROWS", 1)
        with WorkerPool(2) as pool:
            cpr = CprFpf(a2, PooledMatvec(a2.to_csr(), pool))
            assert cpr.a_p.slices is not None and cpr.smoother.k_lo.slices is not None
            assert cpr.solve(r).tobytes() == serial.tobytes()

    def reuse_pair(self):
        """Two decoupled Newton systems of one structure with different values,
        large enough for a hierarchy of two levels above the coarsest, on one
        ``CsrPattern`` (as ReservoirModel hands it on)."""
        rng = np.random.default_rng(25)
        a, b = assembled_system(rng, shape=(30, 30, 1))
        a2, _ = decouple(a, b, "quasi_impes")
        c, d = assembled_system(rng, shape=(30, 30, 1))
        c2, _ = decouple(c, d, "quasi_impes")
        c2.pattern = a2.csr_pattern()
        assert not np.array_equal(a2.extract_app().data, c2.extract_app().data)
        return rng, a2, c2

    def test_hierarchy_reuse(self, monkeypatch):
        # a later Newton iteration's preconditioner (not fresh) reuses the
        # pattern's hierarchy with its own finest level, and builds nothing
        rng, a2, c2 = self.reuse_pair()
        calls = counting_build_amg(monkeypatch)
        m1 = CprFpf(a2, csr_operator(a2))
        assert len(calls) == 1 and len(m1.amg.levels) >= 2
        assert a2.csr_pattern().amg is m1.amg
        op = csr_operator(c2)
        m2 = CprFpf(c2, op, fresh=False)
        assert len(calls) == 1 and c2.csr_pattern().amg is m2.amg
        fine1, fine2 = m1.amg.levels[0], m2.amg.levels[0]
        app = c2.extract_app()
        for attr in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(fine2.a, attr), getattr(app, attr))
        np.testing.assert_array_equal(fine2.dinv, 1.0 / app.diagonal())
        assert fine2.p is fine1.p and fine2.r is fine1.r and fine2.omega == fine1.omega
        assert all(x is y for x, y in zip(m2.amg.levels[1:], m1.amg.levels[1:]))
        assert m2.amg.coarse_lu is m1.amg.coarse_lu
        assert m2.amg.coarse_n == m1.amg.coarse_n
        # bitwise equal to a preconditioner on a hierarchy edited by hand
        ref = CprFpf(c2, op)
        ref.amg = AmgHierarchy(
            levels=[AmgLevel(a=app, dinv=1.0 / app.diagonal(), p=fine1.p, r=fine1.r,
                             omega=fine1.omega)] + m1.amg.levels[1:],
            coarse_lu=m1.amg.coarse_lu, coarse_n=m1.amg.coarse_n)
        r = rng.standard_normal(c2.nunk)
        np.testing.assert_array_equal(m2.solve(r), ref.solve(r))

    def test_reuse_leaves_first_preconditioner_unchanged(self):
        rng, a2, c2 = self.reuse_pair()
        m1 = CprFpf(a2, csr_operator(a2))
        fine = m1.amg.levels[0]
        before = [arr.copy() for arr in (fine.a.data, fine.a.indices, fine.a.indptr,
                                         fine.dinv)]
        r = rng.standard_normal(a2.nunk)
        z = m1.solve(r)
        m2 = CprFpf(c2, csr_operator(c2), fresh=False)
        assert m2.amg is not m1.amg and m1.amg.levels[0] is fine
        after = (fine.a.data, fine.a.indices, fine.a.indptr, fine.dinv)
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(m1.solve(r), z)

    def test_zero_level_hierarchy_rebuilds(self, monkeypatch):
        # at most _AMG_MIN_COARSE cells: the "hierarchy" is an LU of the
        # whole pressure block, so every preconditioner builds its own
        rng = np.random.default_rng(28)
        mats = [random_block_matrix(rng, shape=(4, 3, 1), m=2, nwell=1)
                for _ in range(3)]
        for a in mats[1:]:                  # one structure: the first one's well
            a.cw_cells = mats[0].cw_cells
        r = rng.standard_normal(mats[0].nunk)
        fresh = [CprFpf(a, csr_operator(a)).solve(r) for a in mats]
        calls = counting_build_amg(monkeypatch)
        pattern = mats[0].csr_pattern()
        for k, (a, z) in enumerate(zip(mats, fresh), start=1):
            a.pattern = pattern
            m = CprFpf(a, csr_operator(a), fresh=False)
            assert len(calls) == k and m.amg.levels == [] and pattern.amg is m.amg
            np.testing.assert_array_equal(m.solve(r), z)

    def test_prolongators_kept_on_the_pattern(self, monkeypatch):
        # a fresh preconditioner on the pattern re-sets up the pattern's
        # hierarchy: every level keeps its prolongator, restriction and
        # weight, and takes its own operators; nothing is aggregated again
        rng, a2, c2 = self.reuse_pair()
        aggregated = []
        aggregate = linear._aggregate

        def counted(a):
            aggregated.append(a.shape[0])
            return aggregate(a)

        monkeypatch.setattr(linear, "_aggregate", counted)
        m1 = CprFpf(a2, csr_operator(a2))
        # one aggregation per level, on the level's operator
        sizes = [lev.a.shape[0] for lev in m1.amg.levels]
        assert aggregated == sizes and len(sizes) >= 2
        calls = counting_build_amg(monkeypatch)
        m2 = CprFpf(c2, csr_operator(c2))
        assert aggregated == sizes and calls == [c2.ncell]
        # the pattern keeps the last hierarchy set up on it, the second one
        assert c2.csr_pattern().amg is m2.amg
        for lev1, lev2 in zip(m1.amg.levels, m2.amg.levels):
            assert lev2.p is lev1.p and lev2.r is lev1.r
            assert lev2.omega == lev1.omega
            assert lev2.a is not lev1.a
        app = c2.extract_app()
        assert (m2.amg.levels[0].a != app).nnz == 0
        coarse = m2.amg.levels[0]
        assert (m2.amg.levels[1].a != (coarse.r @ app @ coarse.p)).nnz == 0
        assert m2.amg.coarse_n == m1.amg.coarse_n


    def test_fresh_resets_up_the_pattern_hierarchy(self, monkeypatch):
        # an attempt's first Newton iteration: every level keeps the pattern
        # hierarchy's P, R and weight objects, and its operators, inverse
        # diagonals and coarse LU are those of R A P down from the new block
        _, a2, c2 = self.reuse_pair()
        m1 = CprFpf(a2, csr_operator(a2))
        work = count_full_build_work(monkeypatch)
        m2 = make_preconditioner(c2, csr_operator(c2), True)
        assert isinstance(m2, CprFpf) and work == [0]
        assert c2.csr_pattern().amg is m2.amg
        assert len(m2.amg.levels) == len(m1.amg.levels) >= 2
        op = c2.extract_app()
        for lev1, lev2 in zip(m1.amg.levels, m2.amg.levels):
            assert lev2.p is lev1.p and lev2.r is lev1.r and lev2.omega is lev1.omega
            assert lev2.a is not lev1.a and (lev2.a != op).nnz == 0
            assert lev2.dinv.tobytes() == (1.0 / op.diagonal()).tobytes()
            op = (lev1.r @ op @ lev1.p).tocsr()
        assert m2.amg.coarse_n == op.shape[0]
        for x, y in zip(m2.amg.coarse_lu, scipy.linalg.lu_factor(op.toarray())):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("fresh", [True, False])
    def test_pattern_without_hierarchy_builds_in_full(self, monkeypatch, fresh):
        # the first preconditioner on a pattern, fresh or not, aggregates,
        # smooths and truncates every level, bitwise as build_amg on its
        # pressure block alone, and leaves its hierarchy on the pattern
        _, a2, _ = self.reuse_pair()
        assert a2.csr_pattern().amg is None
        work = count_full_build_work(monkeypatch)
        m = CprFpf(a2, csr_operator(a2), fresh)
        assert len(work) == 1 and work[0] == 3 * len(m.amg.levels) >= 6
        assert a2.csr_pattern().amg is m.amg
        full = build_amg(a2.extract_app())
        assert len(full.levels) == len(m.amg.levels)
        for x, y in zip(full.levels, m.amg.levels):
            for mx, my in ((x.a, y.a), (x.p, y.p), (x.r, y.r)):
                for attr in ("data", "indices", "indptr"):
                    assert getattr(mx, attr).tobytes() == getattr(my, attr).tobytes()
            assert x.omega == y.omega
        for x, y in zip(full.coarse_lu, m.amg.coarse_lu):
            assert x.tobytes() == y.tobytes()


class TestDumps:
    def test_matrix_market_roundtrip(self, tmp_path):
        rng = np.random.default_rng(26)
        a, b = assembled_system(rng)
        prefix = str(tmp_path / "sys")
        dump_matrix_market(a, b, prefix)
        a_back = scipy.io.mmread(prefix + "_A.mtx").tocsr()
        b_back = np.asarray(scipy.io.mmread(prefix + "_b.mtx")).ravel()
        np.testing.assert_allclose(a_back.toarray(), a.to_csr().toarray(), rtol=1e-12)
        np.testing.assert_allclose(b_back, b, rtol=1e-12)


class TestDeterministicReductions:
    def test_det_dot_matches_numpy(self):
        rng = np.random.default_rng(27)
        for n in (10, 1 << 16, (1 << 17) + 13):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            assert det_dot(a, b) == pytest.approx(float(a @ b), rel=1e-12)

    def test_det_dot_blockwise_stable(self):
        rng = np.random.default_rng(28)
        a = rng.standard_normal((1 << 17) + 5)
        b = rng.standard_normal((1 << 17) + 5)
        assert det_dot(a, b) == det_dot(a.copy(), b.copy())

    def test_det_dot_independent_of_blas_threads(self):
        # the 60x220x6 system's length: three blocks, the last one partial
        code = ("import numpy as np; from resim.parallel import det_dot; "
                "rng = np.random.default_rng(29); a, b = rng.standard_normal((2, 158405)); "
                "print(det_dot(a, b).hex())")
        src = os.path.dirname(os.path.dirname(parallel.__file__))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
        assert out[0] == out[1]


class TestPooledMatvec:
    def test_bitwise_identical_to_serial(self, monkeypatch):
        # worker determinism rests on the row-partitioned product matching
        # the serial one bit for bit; its row blocks are views of the operator
        rng = np.random.default_rng(32)
        a = random_block_matrix(rng, shape=(5, 4, 3), m=3, nwell=2)
        csr = a.to_csr()
        x = rng.standard_normal(a.nunk)
        monkeypatch.setattr(parallel, "MIN_ROWS", 1)
        with WorkerPool(2) as pool:
            pooled = PooledMatvec(csr, pool)
            # well rows are plain rows of the last slice
            assert [(r0, r1) for r0, r1, _ in pooled.slices] == pool.ranges(a.nunk, 1)
            assert pooled(x).tobytes() == (csr @ x).tobytes()
            serial = PooledMatvec(csr, None)
            assert serial.slices is None
            for _, _, block in pooled.slices:
                assert np.shares_memory(block.data, csr.data)
                assert np.shares_memory(block.indices, csr.indices)
