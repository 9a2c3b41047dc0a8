"""Fully implicit residual and analytic Jacobian assembly.

Backward Euler in time, two-point flux with per-phase potential upwinding in
space.  Component equations per cell are ordered (oil, water[, gas]); cell
unknowns are (p_o, s_w[, s_g or p_b]).  Well bottom-hole pressures follow all
cell blocks.  The residual of cell i, component c is

    accumulation - sum(face fluxes into i) - well sources,

with no-flow exterior boundaries.  Assembly is partitioned by contiguous cell
ranges; boundary faces are computed redundantly by both owners so the result
is bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import units
from .diff import CellVal
from .grid import Grid, RockFields, face_transmissibilities
from .linear import BlockMatrix
from .pvt import FluidSystem, evaluate_properties
from .wells import Well, well_component_rates, surface_rate_weights


# below this many cells per range, thread dispatch costs more than it buys
MIN_CELLS = 6000


class AssemblyError(RuntimeError):
    """Raised when assembly produces non-finite entries."""


@dataclass
class ReservoirState:
    """Per-cell unknowns, well BHPs and the time level.

    For black oil, x3[i] is s_g where sat[i] else p_b; for two-phase runs x3
    and sat are None.
    """

    p_o: np.ndarray
    s_w: np.ndarray
    x3: np.ndarray | None = None
    sat: np.ndarray | None = None
    p_h: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t: float = 0.0

    def copy(self) -> "ReservoirState":
        return ReservoirState(
            self.p_o.copy(), self.s_w.copy(),
            None if self.x3 is None else self.x3.copy(),
            None if self.sat is None else self.sat.copy(),
            self.p_h.copy(), self.t)


class ReservoirModel:
    """Grid + rock + fluid bundle with assembly routines."""

    def __init__(self, grid: Grid, rock: RockFields, fluid: FluidSystem):
        self.grid = grid
        self.rock = rock
        self.fluid = fluid
        self.axes = [ax for ax, nax in enumerate(grid.shape()) if nax > 1]
        self.tgeo = {ax: face_transmissibilities(grid, rock, ax) for ax in self.axes}
        self._pattern = None    # CsrPattern of the last Jacobian

    @property
    def m(self) -> int:
        return self.fluid.m

    @property
    def components(self) -> tuple[str, ...]:
        return self.fluid.components

    def comp_row(self, comp: str) -> int:
        return self.components.index(comp)

    # -- property evaluation helpers -------------------------------------

    def _props(self, state: ReservoirState, derivs: bool, cells=slice(None)):
        """Properties at ``cells``, a slice or an array of cell ids."""
        x3 = None if state.x3 is None else state.x3[cells]
        sat = None if state.sat is None else state.sat[cells]
        return evaluate_properties(state.p_o[cells], state.s_w[cells], x3, sat,
                                   self.fluid, derivs=derivs)

    def _well_rates(self, state: ReservoirState, wells: list[Well], derivs: bool):
        """``(cells, *well_component_rates(...))`` at every perforation, with
        properties evaluated at the perforated cells, one row per perforation."""
        cells = np.array([p.cell for w in wells for p in w.perforations], dtype=int)
        props = self._props(state, derivs, cells)
        return (cells, *well_component_rates(wells, state.p_h, props, self.fluid, derivs))

    def _phi(self, props, cells=slice(None)) -> CellVal:
        pv = self.fluid.pvt
        poro = self.rock.poro[cells]
        return CellVal.const(poro, None if props.p_o.d is None else self.m) \
            * (1.0 + pv.c_r * (props.p_o - pv.p_ref))

    def _masses(self, props, phi) -> dict[str, CellVal]:
        out = {"w": phi * (props.s_w * props.rho_w),
               "o": phi * (props.s_o * props.rho_oo)}
        if self.fluid.kind == "black_oil":
            out["g"] = phi * (props.rho_og * props.s_o + props.rho_g * props.s_g)
        return out

    # -- whole-grid assembly: accumulation, fluxes and wells -------------

    def assemble_residual(self, state_new: ReservoirState, state_old: ReservoirState,
                          dt: float, wells: list[Well], pool=None) -> np.ndarray:
        """Residual vector F(x), cells (row-major by cell, component) then wells."""
        r_cells, r_wells = self._assemble(state_new, state_old, dt, wells,
                                          derivs=False, pool=pool)[0:2]
        return _flatten_check(r_cells, r_wells, self.m)

    def assemble_jacobian(self, state_new: ReservoirState, state_old: ReservoirState,
                          dt: float, wells: list[Well], pool=None) -> BlockMatrix:
        """Analytic block Jacobian; the Newton rhs b = -F is attached as .b.
        A non-finite residual or block entry raises ``AssemblyError``."""
        r_cells, r_wells, mat = self._assemble(state_new, state_old, dt, wells,
                                               derivs=True, pool=pool)
        f = _flatten_check(r_cells, r_wells, self.m)
        if not all(np.isfinite(v).all()
                   for v in (mat.stencil, mat.cw_blocks, mat.wc_blocks, mat.ww)):
            raise AssemblyError("non-finite Jacobian entry")
        mat.b = -f
        # the Newton systems of a run share their stencil and perforations,
        # so each reuses the last one's CSR pattern (rebuilt if they differ)
        mat.pattern = self._pattern
        self._pattern = mat.csr_pattern()
        return mat

    def _assemble(self, state_new, state_old, dt, wells, derivs, pool=None):
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        n, m = self.grid.ncell, self.m
        r = np.zeros((n, m))
        # the diagonal blocks, then the lower and upper ones per axis
        stencil = np.zeros((m, m, 1 + 2 * len(self.axes), n)) if derivs else None

        ranges = [(0, n)] if pool is None else pool.ranges(n, MIN_CELLS)

        def run_range(rng):
            self._assemble_range(rng, state_new, state_old, dt, derivs, r, stencil)

        if len(ranges) == 1:
            run_range(ranges[0])
        else:
            pool.run(run_range, ranges)

        # wells are single-owner; their few rows touch arbitrary cells, so every
        # perforation of every well is applied after the parallel cell phase,
        # in one rate pass and one scatter that adds up wells sharing a cell
        nwell = len(wells)
        cells, q, dq_dcell, dq_dph, slots = self._well_rates(state_new, wells, derivs)
        np.subtract.at(r, cells, q.T)
        # well rows: a bhp well's pressure, a rate well's surface rate, each
        # less its target; a bhp well counts no component
        wt = surface_rate_weights(wells, self.fluid)
        bhp = ~wt.any(axis=0)
        target = np.zeros(nwell)
        target[[w.slot for w in wells]] = [w.constraint.value for w in wells]
        wt = wt[:, slots]
        rate = np.bincount(slots, (wt * q).sum(axis=0), minlength=nwell)
        r_wells = np.where(bhp, state_new.p_h[:nwell] - target, rate - target)
        if not derivs:
            return r, r_wells, None
        np.subtract.at(stencil, (slice(None), slice(None), 0, cells), dq_dcell)
        ww = np.where(bhp, 1.0, np.bincount(slots, (wt * dq_dph).sum(axis=0),
                                            minlength=nwell))
        # per perforation: the (m,) columns of the cell-row coupling
        # d(cell eq)/d(p_h) and of the well row d(well eq)/d(cell unknowns)
        wc_blocks = (wt[:, None] * dq_dcell).sum(axis=0)
        mat = BlockMatrix(self.grid.shape(), m, stencil, cells, slots, -dq_dph, wc_blocks, ww)
        return r, r_wells, mat

    def _assemble_range(self, rng, state_new, state_old, dt, derivs, r, stencil):
        n, m = self.grid.ncell, self.m
        c0, c1 = rng
        smax = max((self.grid.stride(ax) for ax in self.axes), default=1)
        w0, w1 = max(0, c0 - smax), min(n, c1 + smax)
        win = slice(w0, w1)
        props = self._props(state_new, derivs, win)
        props_old = self._props(state_old, False, win)
        masses = self._masses(props, self._phi(props, win))
        masses_old = self._masses(props_old, self._phi(props_old, win))

        vol_dt = self.grid.cell_volume / dt
        own = slice(c0 - w0, c1 - w0)
        for comp in self.components:
            ci = self.comp_row(comp)
            acc = vol_dt * (masses[comp] - masses_old[comp].v)
            r[c0:c1, ci] += acc.v[own]
            if derivs:
                stencil[ci, :, 0, c0:c1] += acc.d[:, own]

        for k, ax in enumerate(self.axes):
            s = self.grid.stride(ax)
            # faces keyed by their lower cell a; rows c0..c1 need faces
            # a in [c0 - s, c1)
            f0, f1 = max(0, c0 - s), min(n - s, c1)
            if f1 <= f0:
                continue
            idxa = slice(f0 - w0, f1 - w0)
            idxb = slice(f0 - w0 + s, f1 - w0 + s)
            tface = self.tgeo[ax][f0:f1]
            dz = self.grid.cell_depth[f0:f1] - self.grid.cell_depth[f0 + s:f1 + s]
            # sub-slices of the face window owned by this range
            a_lo, a_hi = max(f0, c0), min(f1, c1)          # rows a
            b_lo, b_hi = max(f0, c0 - s), min(f1, c1 - s)  # rows b = a + s
            asl = slice(a_lo - f0, a_hi - f0)
            bsl = slice(b_lo - f0, b_hi - f0)
            for comp, lam, p, rho in self.fluid.streams:
                ci = self.comp_row(comp)
                v, da, db = _stream_flux(props, lam, p, rho, idxa, idxb, tface, dz)
                if a_hi > a_lo:
                    r[a_lo:a_hi, ci] += v[asl]
                    if derivs:
                        stencil[ci, :, 0, a_lo:a_hi] += da[:, asl]
                        stencil[ci, :, 2 + 2 * k, a_lo:a_hi] += db[:, asl]
                if b_hi > b_lo:
                    r[b_lo + s:b_hi + s, ci] -= v[bsl]
                    if derivs:
                        stencil[ci, :, 0, b_lo + s:b_hi + s] -= db[:, bsl]
                        stencil[ci, :, 1 + 2 * k, b_lo + s:b_hi + s] -= da[:, bsl]

    # -- conservation bookkeeping ------------------------------------------

    def mass_in_place(self, state: ReservoirState) -> dict[str, float]:
        """Component masses (lbm) over the whole grid."""
        props = self._props(state, False)
        masses = self._masses(props, self._phi(props))
        v = self.grid.cell_volume
        return {comp: v * float(np.sum(m.v)) for comp, m in masses.items()}

    def well_mass_rates(self, state: ReservoirState,
                        wells: list[Well]) -> dict[str, tuple[float, float]]:
        """Per component: (injected, produced) mass rates in lbm/day, both >= 0."""
        q = self._well_rates(state, wells, False)[1]
        return {comp: (float(np.sum(qc[qc > 0])), float(np.sum(-qc[qc < 0])))
                for comp, qc in zip(self.components, q)}


def _stream_flux(props, lam_attr, p_attr, rho_attr, idxa, idxb, tface, dz):
    """Upwinded two-point mass flux of one stream over the faces a -> b.

    Returns ``(v, da, db)``: the (nf,) fluxes, positive from a to b, and
    their (nder, nf) derivatives with respect to the unknowns of cell a and
    of cell b, or None for both when the properties carry no derivatives.
    With potential difference dphi = (p_a - p_b) - (rho_a + rho_b) / 2 * g dz
    and the mobility lam taken from cell a where dphi >= 0, else from b,

        v  = lam * C * dphi,                               C = DARCY * T
        da = [up] dlam_a * C * dphi + (dp_a - drho_a / 2 * g dz) * lam * C
        db = [down] dlam_b * C * dphi + (-dp_b - drho_b / 2 * g dz) * lam * C
    """
    lam = getattr(props, lam_attr)
    p = getattr(props, p_attr)
    rho = getattr(props, rho_attr)
    g = units.GRAVITY * dz
    half = (rho.v[idxa] + rho.v[idxb]) * 0.5
    dphi = (p.v[idxa] - p.v[idxb]) - half * g
    up = dphi >= 0.0
    c = units.DARCY * tface
    lam_c = np.where(up, lam.v[idxa], lam.v[idxb]) * c
    v = lam_c * dphi
    if lam.d is None:
        return v, None, None
    da = np.where(up, lam.d[:, idxa], 0.0) * c * dphi \
        + (p.d[:, idxa] - rho.d[:, idxa] * 0.5 * g) * lam_c
    db = np.where(up, 0.0, lam.d[:, idxb]) * c * dphi \
        + (-p.d[:, idxb] - rho.d[:, idxb] * 0.5 * g) * lam_c
    return v, da, db


def _flatten_check(r_cells: np.ndarray, r_wells: np.ndarray, m: int) -> np.ndarray:
    f = np.concatenate([r_cells.ravel(), r_wells])
    if not np.all(np.isfinite(f)):
        bad = int(np.nonzero(~np.isfinite(f))[0][0])
        ncell_rows = r_cells.size
        if bad < ncell_rows:
            raise AssemblyError(f"non-finite residual at cell {bad // m}, "
                                f"component row {bad % m}")
        raise AssemblyError(f"non-finite residual at well row {bad - ncell_rows}")
    return f

