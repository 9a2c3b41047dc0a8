"""Peaceman sink-source well model: indices, rates, constraints, schedules.

The perforations of all wells form one table, in well order and then
completion order, and the rates of every perforation come from one pass over
it.  Rates are signed with injection positive.  Rate constraints are surface
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


def well_component_rates(wells: list[Well], p_h, props, fluid, derivs: bool = False):
    """Signed component mass rates at every perforation of every well.

    ``props`` holds the properties of the perforated cells, one row per
    perforation, in well order and then completion order.  Each perforation
    draws every stream of ``fluid.streams`` as
    DARCY * wi * lam * (p_h - p - rho * g * dz), so a producer's solution gas
    leaves with its oil phase.  An injector takes the same formula with
    mobility rho / mu, endpoint relative permeability at the cell's pressure,
    density and viscosity, on the free-phase stream of its injected phase,
    and zero on every other stream.

    Returns ``(q, dq_dcell, dq_dph, slots)``: q (m, nperf) in lbm/day, rows in
    component-row order; dq_dcell (m, m, nperf) with respect to the perforated
    cell's unknowns and dq_dph (m, nperf), both None unless ``derivs``; and
    the slot of each perforation's well.
    """
    perfs = [(w, p) for w in wells for p in w.perforations]
    slots = np.array([w.slot for w, _ in perfs], dtype=int)
    coef = units.DARCY * np.array([p.wi for _, p in perfs])
    g_dz = units.GRAVITY * np.array([w.ref_depth - p.depth for w, p in perfs])
    # an injector's one stream, named by its mobility, and that phase's viscosity
    injected = np.array(["lam_" + w.inj_phase if w.kind == "injector" else ""
                         for w, _ in perfs], dtype=str)
    producer = injected == ""
    mu_inj = np.array([getattr(fluid.pvt, "mu_" + w.inj_phase) for w, _ in perfs])
    p_h = np.asarray(p_h, dtype=float)[slots]
    m, n = fluid.m, len(perfs)
    q = np.zeros((m, n))
    dq_dcell = np.zeros((m, m, n)) if derivs else None
    dq_dph = np.zeros((m, n)) if derivs else None
    for comp, lam_name, p_name, rho_name in fluid.streams:
        lam, p, rho = (getattr(props, a) for a in (lam_name, p_name, rho_name))
        ci = fluid.components.index(comp)
        own = injected == lam_name
        lam_v = np.where(producer, lam.v, own * rho.v / mu_inj)
        dd = p_h - p.v - rho.v * g_dz
        q[ci] += coef * lam_v * dd
        if derivs:
            lam_d = np.where(producer, lam.d, own * rho.d / mu_inj)
            ddd = -p.d - rho.d * g_dz
            dq_dcell[ci] += coef * (lam_d * dd + lam_v * ddd)
            dq_dph[ci] += coef * lam_v
    return q, dq_dcell, dq_dph, slots


def surface_rate_weights(wells: list[Well], fluid) -> np.ndarray:
    """(m, nwell) factors, columns by well slot, that turn each component's
    mass rate (lbm/day) into the surface rate (STB/day or Mscf/day) its
    well's rate constraint counts; zero for components the constraint does
    not count and for every component of a bhp well."""
    pvt = fluid.pvt
    per_bbl = units.FT3_PER_BBL
    scale = {"o": 1.0 / (pvt.rho_o_ref * per_bbl), "w": 1.0 / (pvt.rho_w_ref * per_bbl),
             "g": 1.0 / (pvt.rho_g_ref * units.FT3_PER_MSCF)}
    counted = {"bhp": "", "water_rate": "w", "oil_rate": "o", "liquid_rate": "ow",
               "gas_rate": "g"}
    wt = np.zeros((fluid.m, len(wells)))
    wt[:, [w.slot for w in wells]] = np.array(
        [[scale[c] * (c in counted[w.constraint.kind]) for w in wells]
         for c in fluid.components])
    return wt
