"""Peaceman sink-source well model: indices, rates, constraints, schedules.

Rates are signed with injection positive.  Rate constraints are surface
volumetric: STB/day for water, oil and liquid, Mscf/day for gas (free plus
solution gas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import units
from .grid import Grid, RockFields

RATE_KINDS = ("water_rate", "oil_rate", "liquid_rate", "gas_rate")
CONSTRAINT_KINDS = ("bhp",) + RATE_KINDS


class WellConfigError(ValueError):
    """Raised for inconsistent well or schedule definitions."""


@dataclass(frozen=True)
class Constraint:
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise WellConfigError(f"unknown constraint kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise WellConfigError(f"constraint value must be finite, got {self.value}")


@dataclass
class Perforation:
    cell: int
    wi: float          # Peaceman well index, md*ft
    depth: float       # perforation center depth, ft

    def __post_init__(self):
        if self.wi <= 0:
            raise WellConfigError(f"well index must be > 0, got {self.wi}")


@dataclass
class Well:
    name: str
    kind: str = "producer"          # 'producer' | 'injector'
    inj_phase: str = "w"            # injected phase for injectors: 'w' | 'g'
    r_w: float = 0.3
    skin: float = 0.0
    ref_depth: float = 0.0          # z_h, depth of the BHP datum
    perforations: list[Perforation] = field(default_factory=list)
    constraint: Constraint = field(default_factory=lambda: Constraint("bhp", 0.0))
    slot: int = 0                   # position in the state's p_h array

    def __post_init__(self):
        if self.kind not in ("producer", "injector"):
            raise WellConfigError(f"well {self.name}: unknown kind {self.kind!r}")
        if self.inj_phase not in ("w", "g"):
            raise WellConfigError(f"well {self.name}: unknown injected phase {self.inj_phase!r}")
        cells = [p.cell for p in self.perforations]
        if len(set(cells)) != len(cells):
            raise WellConfigError(f"well {self.name}: duplicate perforation cells")


@dataclass
class Schedule:
    """Ordered (start time, well name, constraint) entries; start-inclusive."""

    entries: list[tuple[float, str, Constraint]] = field(default_factory=list)

    def __post_init__(self):
        latest: dict[str, float] = {}
        for t, name, _ in self.entries:
            if t < latest.get(name, -math.inf):
                raise WellConfigError(f"schedule times for well {name} must be nondecreasing")
            latest[name] = t

    def validate_names(self, wells: list[Well]):
        known = {w.name for w in wells}
        for _, name, _ in self.entries:
            if name not in known:
                raise WellConfigError(f"schedule references undeclared well {name!r}")


def apply_schedule(schedule: Schedule, t: float, wells: list[Well]) -> tuple[list[Well], bool]:
    """Activate, per well, the latest schedule entry with start <= t.

    Returns (wells, changed): the wells with those constraints, a new
    ``Well`` for each whose constraint switched, and whether any did (the
    driver restarts the step-size ramp on a switch).  The wells passed in
    are not changed.
    """
    active = {w.name: w.constraint for w in wells}
    for t0, name, constraint in schedule.entries:
        if t0 <= t:
            if name not in active:
                raise WellConfigError(f"schedule references undeclared well {name!r}")
            active[name] = constraint
    out = [w if w.constraint == active[w.name] else replace(w, constraint=active[w.name])
           for w in wells]
    return out, any(new is not old for new, old in zip(out, wells))


def peaceman_wi(dx: float, dy: float, dz: float, kx: float, ky: float,
                r_w: float, skin: float = 0.0) -> float:
    """Peaceman well index (md*ft) of a vertical completion in one cell."""
    if kx <= 0 or ky <= 0:
        raise WellConfigError("permeability must be positive at a completion")
    if r_w <= 0:
        raise WellConfigError("wellbore radius must be positive")
    beta = math.sqrt(ky / kx)
    r_e = (0.28 * math.sqrt(beta * dx * dx + dy * dy / beta)
           / (math.sqrt(beta) + 1.0 / math.sqrt(beta)))
    if r_e <= r_w:
        raise WellConfigError(
            f"equivalent radius {r_e:.4g} ft <= wellbore radius {r_w:.4g} ft: cell too small")
    return 2.0 * math.pi * math.sqrt(kx * ky) * dz / (math.log(r_e / r_w) + skin)


def complete_vertical(well: Well, grid: Grid, rock: RockFields, cells: list[int],
                      wi: float | None = None) -> None:
    """Perforate the cells, each at most once (Peaceman index unless ``wi`` given)."""
    taken = [p.cell for p in well.perforations]
    for c in cells:
        if c in taken:
            raise WellConfigError(f"well {well.name}: cell {c} is perforated twice")
        taken.append(c)
    for c in cells:
        w = wi if wi is not None else peaceman_wi(
            grid.dx, grid.dy, grid.dz, rock.kx[c], rock.ky[c], well.r_w, well.skin)
        well.perforations.append(Perforation(c, w, float(grid.cell_depth[c])))
    if well.ref_depth == 0.0 and well.perforations:
        well.ref_depth = min(p.depth for p in well.perforations)


class WellRates:
    """Per-perforation signed component mass rates of one well.

    q[comp]: (nperf,) lbm/day; with derivatives, dq_dcell[comp]: (m, nperf)
    w.r.t. the perforated cell's unknowns and dq_dph[comp]: (nperf,).
    """

    __slots__ = ("cells", "q", "dq_dcell", "dq_dph")

    def __init__(self, cells):
        self.cells = cells
        self.q: dict[str, np.ndarray] = {}
        self.dq_dcell: dict[str, np.ndarray] = {}
        self.dq_dph: dict[str, np.ndarray] = {}


def _phase_term(rates: WellRates, comp: str, wi, dz, p_h, lam_v, lam_d,
                p_v, p_d, rho_v, rho_d, derivs: bool):
    """Accumulate C*wi*lam*(p_h - p - rho*g*dz) for one phase into one component."""
    g_dz = units.GRAVITY * dz
    dd = p_h - p_v - rho_v * g_dz
    coef = units.DARCY * wi
    q = coef * lam_v * dd
    rates.q[comp] = rates.q.get(comp, 0.0) + q
    if derivs:
        ddd = -p_d - rho_d * g_dz
        dq = coef * (lam_d * dd + lam_v * ddd)
        rates.dq_dcell[comp] = rates.dq_dcell.get(comp, 0.0) + dq
        rates.dq_dph[comp] = rates.dq_dph.get(comp, 0.0) + coef * lam_v


def well_component_rates(well: Well, p_h: float, props, fluid,
                         derivs: bool = False, cell_map=None) -> WellRates:
    """Signed component mass rates at every perforation of one well.

    Producers draw every stream of ``fluid.streams`` at the perforated
    cell's mobilities, so solution gas leaves with the oil phase; injectors
    deliver their declared phase at endpoint relative permeability with
    in-cell pressure, density and viscosity of that phase.
    ``cell_map`` translates grid cell ids into rows of ``props`` when the
    properties were evaluated on a subset of cells.
    """
    perfs = well.perforations
    cells = np.array([p.cell for p in perfs], dtype=int)
    rows = cells if cell_map is None else np.array([cell_map[c] for c in cells])
    wi = np.array([p.wi for p in perfs])
    dz = well.ref_depth - np.array([p.depth for p in perfs])
    r = WellRates(cells)
    m = fluid.m
    zero = np.zeros(len(perfs))
    zerod = np.zeros((m, len(perfs)))

    def gat(cv):
        v = cv.v[rows]
        d = cv.d[:, rows] if (derivs and cv.d is not None) else zerod
        return v, d

    if well.kind == "injector":
        ph = well.inj_phase
        mu = getattr(fluid.pvt, "mu_" + ph)
        rho_v, rho_d = gat(getattr(props, "rho_" + ph))
        p_v, p_d = gat(getattr(props, "p_" + ph))
        _phase_term(r, ph, wi, dz, p_h, rho_v / mu, rho_d / mu, p_v, p_d,
                    rho_v, rho_d, derivs)
    else:
        for comp, lam, p, rho in fluid.streams:
            lam_v, lam_d = gat(getattr(props, lam))
            p_v, p_d = gat(getattr(props, p))
            rho_v, rho_d = gat(getattr(props, rho))
            _phase_term(r, comp, wi, dz, p_h, lam_v, lam_d, p_v, p_d,
                        rho_v, rho_d, derivs)

    for comp in ("w", "o", "g"):
        if comp not in r.q:
            r.q[comp] = zero
            if derivs:
                r.dq_dcell[comp] = zerod
                r.dq_dph[comp] = zero
    return r


def surface_rate_scale(comp: str, pvt) -> float:
    """Mass rate (lbm/day) -> surface volumetric rate (STB/day or Mscf/day)."""
    if comp == "w":
        return 1.0 / (pvt.rho_w_ref * units.FT3_PER_BBL)
    if comp == "o":
        return 1.0 / (pvt.rho_o_ref * units.FT3_PER_BBL)
    return 1.0 / (pvt.rho_g_ref * units.FT3_PER_MSCF)


RATE_COMPONENTS = {"water_rate": ("w",), "oil_rate": ("o",),
                    "liquid_rate": ("o", "w"), "gas_rate": ("g",)}
