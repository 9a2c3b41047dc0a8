"""Rock-fluid and PVT property evaluation with analytic derivatives.

Relative permeabilities use Corey-quadratic curves (oil-water and gas) and
the Stone II combination for three-phase oil.  Pressure-dependent properties
come from piecewise-linear tables with flat two-sided clamping.  Each formula
is written once, in :func:`evaluate_properties`, which returns every property
of a set of cells as :class:`resim.diff.CellVal` bundles: values, plus the
partial derivatives with respect to the cell unknowns unless
``derivs=False``.  Single values, such as the datum oil density of the
initial state, are read from a length-1 evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diff import CellVal


class Table1D:
    """Piecewise-linear table with flat clamping beyond the ends.

    Evaluations outside the abscissa range return the end value with zero
    slope.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("table columns must be 1-D and equally long")
        if len(self.x) < 1:
            raise ValueError("table needs at least one row")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("table abscissae must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "Table1D":
        return cls([0.0], [value])

    def __call__(self, v):
        """Return (value, slope) arrays; flat outside the table."""
        v = np.asarray(v, dtype=float)
        x, y = self.x, self.y
        if len(x) == 1:
            return np.full(v.shape, y[0]), np.zeros(v.shape)
        below = v < x[0]
        above = v > x[-1]
        seg = np.clip(np.searchsorted(x, v, side="right") - 1, 0, len(x) - 2)
        slope = (y[seg + 1] - y[seg]) / (x[seg + 1] - x[seg])
        val = y[seg] + slope * (v - x[seg])
        val = np.where(below, y[0], np.where(above, y[-1], val))
        slope = np.where(below | above, 0.0, slope)
        return val, slope

    def cv(self, arg: CellVal) -> CellVal:
        val, slope = self(arg.v)
        return CellVal.lift(val, slope, arg)


def _zero_table() -> Table1D:
    return Table1D.constant(0.0)


@dataclass
class CoreyTwoPhase:
    """Corey-quadratic oil-water relative permeability endpoints."""

    s_wc: float = 0.2
    s_or: float = 0.2

    def __post_init__(self):
        if self.s_wc < 0 or self.s_or < 0 or self.s_wc + self.s_or >= 1:
            raise ValueError(f"need 0 <= s_wc, s_or and s_wc + s_or < 1, "
                             f"got s_wc={self.s_wc}, s_or={self.s_or}")

    @property
    def _span(self) -> float:
        return 1.0 - self.s_wc - self.s_or


def _corey_cv(s: CellVal, s0: float, span: float) -> CellVal:
    """Corey-quadratic curve u^2 with u = clip((s - s0) / span, 0, 1).

    A negative ``span`` gives the decreasing curve, u = clip((s0 - s) / |span|).
    """
    u = np.clip((s.v - s0) / span, 0.0, 1.0)
    interior = (u > 0.0) & (u < 1.0)
    return CellVal.lift(u * u, np.where(interior, 2.0 * u / span, 0.0), s)


def _krw_cv(s_w: CellVal, model: CoreyTwoPhase) -> CellVal:
    """Water: (s_w - s_wc)^2 / (1 - s_wc - s_or)^2, clamped to [0, 1]."""
    return _corey_cv(s_w, model.s_wc, model._span)


def _kro2_cv(s_w: CellVal, model: CoreyTwoPhase) -> CellVal:
    """Oil against water: (1 - s_or - s_w)^2 / (1 - s_wc - s_or)^2, in [0, 1]."""
    return _corey_cv(s_w, 1.0 - model.s_or, -model._span)


@dataclass
class ThreePhaseRelPerm:
    """Corey oil-water curves plus gas curves feeding the Stone II formula."""

    corey: CoreyTwoPhase = field(default_factory=CoreyTwoPhase)
    s_gc: float = 0.0

    def __post_init__(self):
        if self.s_gc < 0 or self.corey.s_wc + self.s_gc >= 1:
            raise ValueError(f"need 0 <= s_gc and s_wc + s_gc < 1, "
                             f"got s_wc={self.corey.s_wc}, s_gc={self.s_gc}")

    @property
    def krocw(self) -> float:
        """Oil relative permeability at connate water and no gas."""
        return float(_kro2_cv(CellVal.const([self.corey.s_wc]), self.corey).v[0])


def _kro_stone2_cv(s_w: CellVal, s_g: CellVal, rw: CellVal, rg: CellVal,
                   tables: ThreePhaseRelPerm) -> CellVal:
    """Stone II three-phase oil relative permeability, clamped below at 0,
    from the water and gas curves ``rw`` and ``rg`` at (s_w, s_g).

    Reduces exactly to the two-phase oil curve at s_g = 0.
    """
    corey = tables.corey
    a = tables.krocw
    row = _kro2_cv(s_w, corey)
    rog = _corey_cv(s_g, 1.0 - corey.s_wc - corey.s_or, -corey._span)
    kro = a * ((row / a + rw) * (rog / a + rg) - rw - rg)
    neg = kro.v < 0.0
    if np.any(neg):
        kro = CellVal(np.where(neg, 0.0, kro.v),
                      None if kro.d is None else np.where(neg, 0.0, kro.d))
    # exact two-phase limit: the rw terms cancel analytically at s_g = 0 but
    # not in floating point, so substitute the two-phase curve there (keeping
    # the formula's gas-slot derivative, which is one-sided growth into gas)
    zero_gas = s_g.v == 0.0
    if np.any(zero_gas):
        kro.v = np.where(zero_gas, row.v, kro.v)
        if kro.d is not None:
            kro.d[:2, zero_gas] = row.d[:2, zero_gas]
    return kro


@dataclass
class PvtModel:
    """Reference densities, compressibilities, viscosity and PVT tables.

    Saturated-oil tables are functions of bubble point pressure; the
    undersaturated branch extends them linearly:
    B_o(p_o, p_b) = B_o,sat(p_b) * (1 - c_o (p_o - p_b)) and
    mu_o(p_o, p_b) = mu_o,sat(p_b) * (1 + c_mu (p_o - p_b)).
    R_s is in surface-ft^3 gas per surface-ft^3 oil, B factors in
    reservoir-ft^3 per surface-ft^3.
    """

    rho_w_ref: float = 62.4
    rho_o_ref: float = 53.0
    rho_g_ref: float = 0.0624
    c_w: float = 0.0
    c_o: float = 0.0
    c_r: float = 0.0
    c_mu: float = 0.0
    p_ref: float = 14.7
    mu_w: float = 0.3
    mu_g: float = 0.015
    mu_o_table: Table1D = field(default_factory=lambda: Table1D.constant(3.0))
    mu_o_slope_table: Table1D | None = None   # per-p_b undersaturated slope; else c_mu
    rs_table: Table1D = field(default_factory=_zero_table)
    bo_table: Table1D = field(default_factory=lambda: Table1D.constant(1.0))
    bg_table: Table1D = field(default_factory=lambda: Table1D.constant(1.0))
    pcow_table: Table1D = field(default_factory=_zero_table)
    pcog_table: Table1D = field(default_factory=_zero_table)

    def __post_init__(self):
        for name in ("c_w", "c_o", "c_r"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mu_w <= 0:
            raise ValueError("mu_w must be > 0")
        if self.mu_g <= 0:
            raise ValueError("mu_g must be > 0")
        if np.any(self.mu_o_table.y <= 0):
            raise ValueError("oil viscosity table must be positive")
        if np.any(self.bo_table.y <= 0):
            raise ValueError("B_o table must be positive")
        if np.any(self.bg_table.y <= 0):
            raise ValueError("B_g table must be positive")
        if np.any(np.diff(self.rs_table.y) < 0):
            raise ValueError("R_s table must be nondecreasing in p_b")

    @classmethod
    def spe1_like(cls, **overrides) -> "PvtModel":
        """Default black-oil tables with SPE1-style magnitudes."""
        p = [14.7, 264.7, 514.7, 1014.7, 2014.7, 2514.7, 3014.7, 4014.7, 5014.7, 9014.7]
        rs_mscf_stb = [0.001, 0.0905, 0.18, 0.371, 0.636, 0.775, 0.93, 1.27, 1.618, 2.984]
        rs = [v * 1000.0 / 5.614583 for v in rs_mscf_stb]
        bo = [1.062, 1.15, 1.207, 1.295, 1.435, 1.5, 1.565, 1.695, 1.827, 2.357]
        muo = [1.04, 0.975, 0.91, 0.83, 0.695, 0.641, 0.594, 0.51, 0.449, 0.203]
        # near-ideal-gas expansion at 160 F, z ~ 0.9
        bg = [15.77 / v for v in p]
        kw = dict(
            rho_o_ref=49.1, rho_g_ref=0.06054, rho_w_ref=62.4,
            c_w=3.0e-6, c_o=1.0e-5, c_r=4.0e-6, c_mu=1.0e-6, mu_w=0.31,
            mu_o_table=Table1D(p, muo), rs_table=Table1D(p, rs),
            bo_table=Table1D(p, bo), bg_table=Table1D(p, bg),
        )
        kw.update(overrides)
        return cls(**kw)


@dataclass
class FluidSystem:
    """Model kind plus rel-perm and PVT data; m is the per-cell unknown count."""

    kind: str = "two_phase"  # 'two_phase' | 'black_oil'
    relperm: ThreePhaseRelPerm = field(default_factory=ThreePhaseRelPerm)
    pvt: PvtModel = field(default_factory=PvtModel)

    def __post_init__(self):
        if self.kind not in ("two_phase", "black_oil"):
            raise ValueError(f"unknown fluid kind {self.kind!r}")

    @property
    def m(self) -> int:
        return 2 if self.kind == "two_phase" else 3

    @property
    def components(self) -> tuple[str, ...]:
        return ("o", "w") if self.kind == "two_phase" else ("o", "w", "g")

    @property
    def streams(self) -> tuple[tuple[str, str, str, str], ...]:
        """(component, mass mobility, potential pressure, density) of every
        flux stream, named as ``CellProps`` attributes.  Solution gas travels
        with the oil phase, at its pressure and density."""
        water_oil = (("w", "lam_w", "p_w", "rho_w"), ("o", "lam_o", "p_o", "rho_o"))
        if self.kind == "two_phase":
            return water_oil
        return water_oil + (("g", "lam_og", "p_o", "rho_o"), ("g", "lam_g", "p_g", "rho_g"))


class CellProps:
    """Property bundles (CellVal) for every cell at one state.

    Derivative slots: 0 = p_o, 1 = s_w, 2 = s_g (saturated) or p_b
    (undersaturated).  For saturated black-oil cells p_b tracks p_o, so
    bubble-point sensitivities fold into slot 0.
    """

    __slots__ = ("p_o", "p_w", "p_g", "s_w", "s_o", "s_g", "p_b", "krw", "kro",
                 "krg", "rho_w", "rho_oo", "rho_og", "rho_o", "rho_g", "mu_o",
                 "mu_w", "lam_w", "lam_o", "lam_og", "lam_g")


def evaluate_properties(p_o, s_w, x3, sat_mask, fluid: FluidSystem,
                        derivs: bool = True) -> CellProps:
    """Evaluate all phase properties (and their derivatives) at a state.

    x3/sat_mask are ignored for two-phase systems.  Mobilities lam_* are the
    mass mobilities rho*k_r/mu used by upwinded fluxes.
    """
    pv = fluid.pvt
    nder = fluid.m if derivs else None
    n = len(np.asarray(p_o))
    pr = CellProps()

    po = CellVal.var(p_o, 0, nder) if derivs else CellVal.const(p_o)
    sw = CellVal.var(s_w, 1, nder) if derivs else CellVal.const(s_w)
    pr.p_o, pr.s_w = po, sw

    if fluid.kind == "two_phase":
        sg = CellVal.const(np.zeros(n), nder)
        # dead oil: saturated tables read at p_o, compressibility corrections
        # expanded around p_ref
        pb = po
        dp_usat = po - pv.p_ref
        pr.s_o = 1.0 - sw
    else:
        sat = np.asarray(sat_mask, dtype=bool)
        if derivs:
            x3v = np.asarray(x3, dtype=float)
            d = np.zeros((3, n))
            d[2, sat] = 1.0
            sg = CellVal(np.where(sat, x3v, 0.0), d)
            dpb = np.zeros((3, n))
            dpb[0, sat] = 1.0
            dpb[2, ~sat] = 1.0
            pb = CellVal(np.where(sat, np.asarray(p_o), x3v), dpb)
        else:
            sg = CellVal.const(np.where(sat, x3, 0.0))
            pb = CellVal.const(np.where(sat, p_o, x3))
        dp_usat = po - pb
        pr.s_o = 1.0 - sw - sg
    pr.s_g, pr.p_b = sg, pb

    pcow = pv.pcow_table.cv(sw)
    pcog = pv.pcog_table.cv(sg)
    pr.p_w = po - pcow
    pr.p_g = po + pcog

    rp = fluid.relperm
    pr.krw = _krw_cv(sw, rp.corey)
    if fluid.kind == "two_phase":
        pr.kro = _kro2_cv(sw, rp.corey)
        pr.krg = CellVal.const(np.zeros(n), nder)
    else:
        pr.krg = _corey_cv(sg, rp.s_gc, 1.0 - rp.corey.s_wc - rp.s_gc)
        pr.kro = _kro_stone2_cv(sw, sg, pr.krw, pr.krg, rp)

    pr.rho_w = pv.rho_w_ref * (1.0 + pv.c_w * (pr.p_w - pv.p_ref))
    bo = pv.bo_table.cv(pb) * (1.0 - pv.c_o * dp_usat)
    rs = pv.rs_table.cv(pb)
    pr.rho_oo = pv.rho_o_ref / bo
    pr.rho_og = (pv.rho_g_ref * rs) / bo
    pr.rho_o = pr.rho_oo + pr.rho_og
    pr.rho_g = pv.rho_g_ref / pv.bg_table.cv(pr.p_g)
    slope = pv.mu_o_slope_table.cv(pb) if pv.mu_o_slope_table is not None else pv.c_mu
    pr.mu_o = pv.mu_o_table.cv(pb) * (1.0 + slope * dp_usat)
    pr.mu_w = pv.mu_w

    pr.lam_w = pr.rho_w * pr.krw / pv.mu_w
    pr.lam_o = pr.rho_oo * pr.kro / pr.mu_o
    pr.lam_og = pr.rho_og * pr.kro / pr.mu_o
    pr.lam_g = pr.rho_g * pr.krg / pv.mu_g
    return pr
