"""Fully implicit residual and analytic Jacobian assembly.

Backward Euler in time, two-point flux with per-phase potential upwinding in
space.  Component equations per cell are ordered (oil, water[, gas]); cell
unknowns are (p_o, s_w[, s_g or p_b]).  Well bottom-hole pressures follow all
cell blocks.  The residual of cell i, component c is

    accumulation - sum(face fluxes into i) - well sources,

with no-flow exterior boundaries.  Assembly runs in two phases over the same
contiguous cell ranges, at most one per worker, each range walked in passes
of at most ``PASS_ROWS`` property rows.  The cell phase evaluates each
pass's cells once at the new state, adds the accumulation, and keeps only
the flux streams' properties, in a whole-grid table; the face phase adds the
fluxes into each pass's own rows from that table, and the wells read their
perforated cells from it.  The old state's masses come from that state's
one evaluation: the model keeps the per-cell masses of the last state it
evaluated, filled in passes by whichever of ``mass_in_place`` (at each step
record) and the assembly needs them first.  Every row's terms are added in
one order (accumulation, then per axis and stream the face to
the upper cell, then the face from the lower one), so the result is
bit-identical for any worker count and pass size.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import units
from .diff import CellVal
from .grid import Grid, RockFields, face_transmissibilities
from .linear import BlockMatrix
from .pvt import FluidSystem, evaluate_properties
from .wells import Well, well_component_rates, surface_rate_weights


# below this many cells per range, thread dispatch costs more than it buys
MIN_CELLS = 6000
# property rows per assembly pass.  A pass evaluates its cells' bundles at
# the new state, each a value row and, for a Jacobian, m derivative rows, and
# is sized for 2 + m rows a cell, or 2; a state's masses, values only, are
# evaluated in passes of PASS_ROWS // 2 cells.  Bundles and their
# temporaries take about 160 bytes a cell and row, so a pass stays near 5 MB.
PASS_ROWS = 1 << 15


class AssemblyError(RuntimeError):
    """Raised when assembly produces non-finite entries."""


@dataclass
class ReservoirState:
    """Per-cell unknowns, well BHPs and the time level.

    For black oil, x3[i] is s_g where sat[i] else p_b; for two-phase runs x3
    and sat are None.  Once a state has been assembled against or its mass
    taken, ``ReservoirModel`` keeps its masses, keyed by the state and its
    arrays, and makes p_o, s_w, x3 and sat read-only: a new state, or a
    field bound to a new array, is evaluated afresh.
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
        # (_mass_key(state), its (m, ncell) masses) of the last state evaluated
        self._kept = (None, None)

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

    def _state_masses(self, state: ReservoirState) -> np.ndarray:
        """The (m, ncell) masses per unit volume of ``state``, in component-row
        order: the kept ones, else evaluated in passes of ``PASS_ROWS // 2``
        cells and kept, and the state's keyed arrays made read-only."""
        key, masses = self._kept
        if key is not None and all(map(operator.is_, key, _mass_key(state))):
            return masses
        n = self.grid.ncell
        masses, step = np.empty((self.m, n)), PASS_ROWS // 2
        for c0 in range(0, n, step):
            cells = slice(c0, min(c0 + step, n))
            props = self._props(state, False, cells)
            for comp, mass in self._masses(props, self._phi(props, cells)).items():
                masses[self.comp_row(comp), cells] = mass.v
            del props   # not held while the next pass is evaluated
        key = _mass_key(state)
        for x in key[1:]:
            if x is not None:
                x.flags.writeable = False
        self._kept = (key, masses)
        return masses

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
        masses_old = self._state_masses(state_old)
        r = np.zeros((n, m))
        # the diagonal blocks, then the lower and upper ones per axis
        stencil = np.zeros((m, m, 1 + 2 * len(self.axes), n)) if derivs else None
        # the flux streams' properties at every cell: per stream its mobility,
        # potential pressure and density (table[0], [1], [2]), each the
        # values, then the derivative rows
        streams = self.fluid.streams
        table = np.empty((3, len(streams), 1 + m if derivs else 1, n))
        phases = (partial(self._cell_pass, state_new, masses_old, dt, table, r, stencil),
                  partial(self._face_pass, table, r, stencil))

        ranges = [(0, n)] if pool is None else pool.ranges(n, MIN_CELLS)
        step = max(1, PASS_ROWS // (2 + m if derivs else 2))
        for phase in phases:
            def run_range(rng, phase=phase):
                for c0 in range(rng[0], rng[1], step):
                    phase(c0, min(c0 + step, rng[1]))

            if len(ranges) == 1:
                run_range(ranges[0])
            else:
                pool.run(run_range, ranges)

        # wells are single-owner; their few rows touch arbitrary cells, so every
        # perforation of every well is applied after the parallel phases, in
        # one rate pass over the table's perforated cells and one scatter that
        # adds up wells sharing a cell
        nwell = len(wells)
        cells = _perforated_cells(wells)
        perf = table[..., cells]
        props = SimpleNamespace(**{
            name: CellVal(perf[kind, j, 0], perf[kind, j, 1:] if derivs else None)
            for j, stream in enumerate(streams) for kind, name in enumerate(stream[1:])})
        q, dq_dcell, dq_dph, slots = well_component_rates(wells, state_new.p_h, props,
                                                          self.fluid, derivs)
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

    def _cell_pass(self, state_new, masses_old, dt, table, r, stencil, c0, c1):
        """Cells c0..c1: accumulation rows and diagonal blocks, and the
        cells' columns of the property table."""
        cells = slice(c0, c1)
        derivs = stencil is not None
        props = self._props(state_new, derivs, cells)
        masses = self._masses(props, self._phi(props, cells))
        vol_dt = self.grid.cell_volume / dt
        for comp in self.components:
            ci = self.comp_row(comp)
            acc = vol_dt * (masses[comp] - masses_old[ci, cells])
            r[cells, ci] += acc.v
            if derivs:
                stencil[ci, :, 0, cells] += acc.d
        for j, stream in enumerate(self.fluid.streams):
            for kind, name in enumerate(stream[1:]):
                val = getattr(props, name)
                table[kind, j, 0, cells] = val.v
                if derivs:
                    table[kind, j, 1:, cells] = val.d

    def _face_pass(self, table, r, stencil, c0, c1):
        """Rows c0..c1: the fluxes over every face of their cells."""
        n = self.grid.ncell
        derivs = stencil is not None
        depth = self.grid.cell_depth
        rows = [self.comp_row(stream[0]) for stream in self.fluid.streams]
        for k, ax in enumerate(self.axes):
            s = self.grid.stride(ax)
            # faces keyed by their lower cell a: rows c0..c1 take the a side
            # of faces c0..a1 and the b side (b = a + s) of faces b0..b1,
            # from one window of faces where the two meet, else one each
            a1, b0, b1 = min(c1, n - s), max(0, c0 - s), c1 - s
            wins = [(b0, a1)] if b1 >= c0 else [(c0, a1), (b0, b1)]
            fluxes = [_stream_flux(*table, slice(f0, f1), slice(f0 + s, f1 + s),
                                   self.tgeo[ax][f0:f1], depth[f0:f1] - depth[f0 + s:f1 + s])
                      if f1 > f0 else None for f0, f1 in wins]
            lo = c0 - wins[0][0]
            if a1 > c0:
                va, daa, dba = (x if x is None else x[..., lo:lo + a1 - c0] for x in fluxes[0])
            if b1 > b0:
                vb, dab, dbb = (x if x is None else x[..., :b1 - b0] for x in fluxes[-1])
            for j, ci in enumerate(rows):
                if a1 > c0:
                    r[c0:a1, ci] += va[j]
                    if derivs:
                        stencil[ci, :, 0, c0:a1] += daa[j]
                        stencil[ci, :, 2 + 2 * k, c0:a1] += dba[j]
                if b1 > b0:
                    r[b0 + s:b1 + s, ci] -= vb[j]
                    if derivs:
                        stencil[ci, :, 0, b0 + s:b1 + s] -= dbb[j]
                        stencil[ci, :, 1 + 2 * k, b0 + s:b1 + s] -= dab[j]

    # -- conservation bookkeeping ------------------------------------------

    def mass_in_place(self, state: ReservoirState) -> dict[str, float]:
        """Component masses (lbm) over the whole grid, from the state's kept
        masses (``_state_masses``)."""
        masses = self._state_masses(state)
        v = self.grid.cell_volume
        return {comp: v * float(np.sum(masses[ci])) for ci, comp in enumerate(self.components)}

    def well_mass_rates(self, state: ReservoirState,
                        wells: list[Well]) -> dict[str, tuple[float, float]]:
        """Per component: (injected, produced) mass rates in lbm/day, both >= 0."""
        props = self._props(state, False, _perforated_cells(wells))
        q = well_component_rates(wells, state.p_h, props, self.fluid)[0]
        return {comp: (float(np.sum(qc[qc > 0])), float(np.sum(-qc[qc < 0])))
                for comp, qc in zip(self.components, q)}


def _mass_key(state: ReservoirState) -> tuple:
    """What a state's masses depend on: the state and its arrays, held so
    that no id is reused while the masses are kept."""
    return state, state.p_o, state.s_w, state.x3, state.sat


def _perforated_cells(wells: list[Well]) -> np.ndarray:
    """The cell of every perforation, in well order and then completion order."""
    return np.array([p.cell for w in wells for p in w.perforations], dtype=int)


def _stream_flux(lam, p, rho, idxa, idxb, tface, dz):
    """Upwinded two-point mass fluxes of every stream over the faces a -> b.

    ``lam``, ``p`` and ``rho`` are the streams' mobility, potential pressure
    and density: (nstream, 1, n) values, or (nstream, 1 + m, n) values and
    their derivatives with respect to the cell unknowns.  Returns
    ``(v, da, db)``: the (nstream, nf) fluxes, positive from a to b, and
    their (nstream, m, nf) derivatives with respect to the unknowns of cell
    a and of cell b, or None for both without derivatives.  With potential
    difference dphi = (p_a - p_b) - (rho_a + rho_b) / 2 * g dz and the
    mobility lam taken from cell a where dphi >= 0, else from b,

        v  = lam * C * dphi,                               C = DARCY * T
        da = [up] dlam_a * C * dphi + (dp_a - drho_a / 2 * g dz) * lam * C
        db = [down] dlam_b * C * dphi + (-dp_b - drho_b / 2 * g dz) * lam * C
    """
    g = units.GRAVITY * dz
    half = (rho[:, 0, idxa] + rho[:, 0, idxb]) * 0.5
    dphi = (p[:, 0, idxa] - p[:, 0, idxb]) - half * g
    up = dphi >= 0.0
    c = units.DARCY * tface
    lam_c = np.where(up, lam[:, 0, idxa], lam[:, 0, idxb]) * c
    v = lam_c * dphi
    if lam.shape[1] == 1:
        return v, None, None
    up, dphi, lam_c = up[:, None], dphi[:, None], lam_c[:, None]
    da = np.where(up, lam[:, 1:, idxa], 0.0) * c * dphi \
        + (p[:, 1:, idxa] - rho[:, 1:, idxa] * 0.5 * g) * lam_c
    db = np.where(up, 0.0, lam[:, 1:, idxb]) * c * dphi \
        + (-p[:, 1:, idxb] - rho[:, 1:, idxb] * 0.5 * g) * lam_c
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

