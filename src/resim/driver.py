"""Input decks, simulation orchestration, output, CLI.

Deck format: sectioned plain text, ``key = value`` lines, ``#`` comments.
Sections: [grid], [fields], [fluid], [init], [wells], [schedule], [solver],
[time], [output] and numeric [table:NAME] blocks (rs, bo, bg, muo, pcow,
pcog).  Repeatable keys: ``well``, ``perf`` (in [wells]) and ``at`` (in
[schedule]).  Rates are signed, injection positive, in STB/day (liquids) or
Mscf/day (gas); R_s tables are surface-ft^3 per surface-ft^3.
See decks/ for complete examples.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .grid import Grid, RockFields, cell_index, load_spe10_fields
from .linear import SolverConfig
from .model import ReservoirModel, ReservoirState
from .nonlinear import (NewtonConfig, StepController, RunReport, SimulationAbort,
                        advance_timestep)
from .parallel import WorkerPool
from .pvt import (CoreyTwoPhase, FluidSystem, PvtModel, Table1D, ThreePhaseRelPerm,
                  evaluate_properties)
from .wells import (CONSTRAINT_KINDS, RATE_KINDS, Constraint, Schedule, Well,
                    WellConfigError, apply_schedule, complete_vertical)
from . import units

log = logging.getLogger(__name__)


class DeckError(ValueError):
    """Raised for malformed or inconsistent input decks."""


_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | \
    dict.fromkeys(("0", "false", "no", "off"), False)


@dataclass
class OutputConfig:
    report_csv: str = ""
    vtk_every: int = 0
    vtk_prefix: str = "resim_out"
    dump_matrices: bool = False

    def __post_init__(self):
        if self.vtk_every < 0:
            raise ValueError(f"vtk_every must be >= 0, got {self.vtk_every}")


@dataclass
class Deck:
    grid: Grid
    rock: RockFields
    fluid: FluidSystem
    wells: list[Well]
    schedule: Schedule
    newton: NewtonConfig
    solver: SolverConfig
    controller: StepController
    t_end: float
    p_init: float
    p_b_init: float
    s_w_init: float
    s_g_init: float
    output: OutputConfig = field(default_factory=OutputConfig)
    effective: dict[str, str] = field(default_factory=dict)

    def echo_lines(self) -> list[str]:
        return [f"{k} = {v}" for k, v in self.effective.items()]


# the keys [grid], [init], [time] and [fields] read beyond a config class's
# fields, with their defaults (None: a float the deck must set, or for ky and
# kz kx's value; a negative s_w_init: s_wc).  [fields] reads its constants
# only without a perm file.
_GRID_DEFAULTS = dict(nx=1, ny=1, nz=1, dx=10.0, dy=10.0, dz=10.0, depth_top=0.0)
_INIT_DEFAULTS = dict(p_init=4000.0, p_b_init=0.0, s_w_init=-1.0, s_g_init=0.0)
_TIME_DEFAULTS = dict(t_end=None)
_FIELD_DEFAULTS = dict(kx=100.0, ky=None, kz=None, poro=0.2)

# config fields read from a deck key of another name
_RENAMED = {NewtonConfig: dict(tol="newton_tol", atol="newton_atol", max_newton="newton_max"),
              SolverConfig: dict(max_iterations="linear_max_it")}


def _deck_keys(cls) -> set[str]:
    renamed = _RENAMED.get(cls, {})
    return {renamed.get(fld.name, fld.name) for fld in fields(cls)}


# [fluid] numbers that override a PvtModel field of the same name
_PVT_SCALARS = ("rho_w_ref", "rho_o_ref", "rho_g_ref", "c_w", "c_o", "c_r",
                "c_mu", "p_ref", "mu_w", "mu_g")

_SECTION_KEYS = {
    "grid": set(_GRID_DEFAULTS),
    "fields": {"perm", *_FIELD_DEFAULTS},
    "fluid": {"model", "pvt_defaults", "s_wc", "s_or", "s_gc", "mu_o", *_PVT_SCALARS},
    "init": set(_INIT_DEFAULTS),
    "wells": {"well", "perf"},
    "schedule": {"at"},
    "solver": _deck_keys(NewtonConfig) | _deck_keys(SolverConfig),
    "time": set(_TIME_DEFAULTS) | _deck_keys(StepController),
    "output": _deck_keys(OutputConfig),
}

# [table:NAME] blocks; muo is the mu_o_table, each other one the NAME_table
_TABLES = ("rs", "bo", "bg", "muo", "pcow", "pcog")

_WELL_KEYS = {"type", "fluid", "rw", "skin", "refdepth", "wi", *CONSTRAINT_KINDS}


def load_deck(path: str) -> Deck:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_deck(text, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_deck(text: str, base_dir: str = ".") -> Deck:
    """Parse and fully validate a deck; defaults are applied and recorded."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    tables: dict[str, list[list[float]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name.startswith("table:"):
                tname = name.split(":", 1)[1]
                if tname not in _TABLES:
                    raise DeckError(f"line {lineno}: unknown table {tname!r} "
                                    f"(known: {', '.join(_TABLES)})")
                current = ("table", tname)
                tables.setdefault(tname, [])
            elif name in _SECTION_KEYS:
                current = ("section", name)
                sections.setdefault(name, [])
            else:
                raise DeckError(f"line {lineno}: unknown section [{name}]")
            continue
        if current is None:
            raise DeckError(f"line {lineno}: content before any section")
        kind, name = current
        if kind == "table":
            what = f"non-finite table row {line!r}: each value"
            tables[name].append([_number(lineno, what, tok) for tok in line.split()])
            continue
        if "=" not in line:
            raise DeckError(f"line {lineno}: expected key = value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _SECTION_KEYS[name]:
            raise DeckError(f"line {lineno}: unknown key {key!r} in [{name}]")
        sections[name].append((lineno, key, val))
    return _build_deck(sections, tables, base_dir)


def _number(lineno: int, what: str, text: str) -> float:
    """``text`` as a finite float, or a DeckError naming the line."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DeckError(f"line {lineno}: {what} must be a finite number, got {text!r}")
    return value


class _Section:
    def __init__(self, rows, name):
        self.name = name
        self.rows = rows
        self.single: dict[str, tuple[int, str]] = {}
        for lineno, key, val in rows:
            if key in ("well", "perf", "at"):
                continue
            if key in self.single:
                raise DeckError(f"line {lineno}: duplicate key {key!r} in [{name}]")
            self.single[key] = (lineno, val)

    def get(self, key, default=None, cast=str):
        if key not in self.single:
            return default
        lineno, val = self.single[key]
        if cast is float:
            return _number(lineno, key, val)
        try:
            return _BOOLS[val.lower()] if cast is bool else cast(val)
        except (KeyError, ValueError):
            raise DeckError(f"line {lineno}: bad value for {key}: {val!r}") from None

    def repeated(self, key):
        return [(lineno, val) for lineno, k, val in self.rows if k == key]


def _required(sections, name):
    if name not in sections:
        raise DeckError(f"missing required section [{name}]")
    return _Section(sections[name], name)


def _make(section: _Section, cls, kw: dict, defaults: dict | None = None,
          keys: dict | None = None):
    """``cls(**kw)``, with a value the class rejects raised as a DeckError.

    The error names the section, and the line of the first deck key whose
    value the class rejects with every other field at its default (the
    class's own, or ``defaults``).  ``keys`` maps field names to deck keys
    where the two differ.
    """
    try:
        return cls(**kw)
    except ValueError as exc:
        where = f"[{section.name}]"
        for name, value in kw.items():
            key = (keys or {}).get(name, name)
            if key not in section.single:
                continue
            try:
                cls(**{**(defaults or {}), name: value})
            except ValueError:
                where = f"line {section.single[key][0]}: {where}"
                break
        raise DeckError(f"{where} {exc}") from None


def _read(section: _Section, defaults: dict, keys: dict | None = None) -> dict:
    """Each name of ``defaults`` read from the deck key of that name (``keys``
    maps names to deck keys where the two differ), cast as the type of its
    default (a None default casts as float) and defaulting to it."""
    keys = keys or {}
    return {name: section.get(keys.get(name, name), d, float if d is None else type(d))
            for name, d in defaults.items()}


def _config(section: _Section, cls, rec, defaults: dict | None = None):
    """A config dataclass from a deck section, echoed under the section name:
    its fields (the names of ``defaults`` for a class with fields that have
    none) read through ``_read``, each from the deck key of its name or the
    one ``_RENAMED`` gives it."""
    defaults = defaults or {fld.name: fld.default for fld in fields(cls)}
    keys = _RENAMED.get(cls)
    kw = _read(section, defaults, keys)
    obj = _make(section, cls, kw, defaults, keys)
    for name in kw:
        rec(section.name, name, getattr(obj, name))
    return obj


def _build_deck(sections, tables, base_dir) -> Deck:
    eff: dict[str, str] = {}

    def rec(section, key, value):
        eff[f"{section}.{key}"] = str(value)

    grid = _config(_required(sections, "grid"), Grid, rec, _GRID_DEFAULTS)

    f = _Section(sections.get("fields", []), "fields")
    rock = _load_fields(f, grid, base_dir, rec)

    fl = _required(sections, "fluid")
    fluid = _build_fluid(fl, tables, rec)

    init = _read(_Section(sections.get("init", []), "init"), _INIT_DEFAULTS)
    for k, v in init.items():
        rec("init", k, "s_wc" if k == "s_w_init" and v < 0 else v)

    w = _Section(sections.get("wells", []), "wells")
    wells, unconstrained = _build_wells(w, grid, rock, rec, fluid.kind)

    s = _Section(sections.get("schedule", []), "schedule")
    schedule = _build_schedule(s, rec, wells, fluid.kind)
    try:
        schedule.validate_names(wells)
    except WellConfigError as exc:
        raise DeckError(str(exc)) from None
    _check_constraints_at_start(unconstrained, schedule)

    sv = _Section(sections.get("solver", []), "solver")
    newton = _config(sv, NewtonConfig, rec)
    solver = _config(sv, SolverConfig, rec)

    t = _required(sections, "time")
    t_end = _read(t, _TIME_DEFAULTS)["t_end"]
    if t_end is None or t_end < 0:
        raise DeckError("[time] must set t_end >= 0")
    rec("time", "t_end", t_end)
    controller = _config(t, StepController, rec)

    o = _Section(sections.get("output", []), "output")
    output = _config(o, OutputConfig, rec)

    return Deck(grid=grid, rock=rock, fluid=fluid, wells=wells, schedule=schedule,
                newton=newton, solver=solver, controller=controller, t_end=t_end,
                output=output, effective=eff, **init)


def _load_fields(f: _Section, grid: Grid, base_dir: str, rec) -> RockFields:
    n = grid.ncell
    perm = f.get("perm")
    if perm is None:
        def filled(values):   # ky and kz take kx's value by default
            return {k: values["kx"] if v is None else v for k, v in values.items()}

        values = filled(_read(f, _FIELD_DEFAULTS))
        rock = _make(f, RockFields, {k: np.full(n, v) for k, v in values.items()},
                     {k: np.full(n, d) for k, d in filled(_FIELD_DEFAULTS).items()}).clamped()
        for k, v in values.items():
            rec("fields", k, v)
        return rock

    def resolve(ref):
        path = os.path.join(base_dir, ref[5:].strip())
        if not os.path.exists(path):
            raise DeckError(f"referenced field file does not exist: {path}")
        return path

    if any(f.get(k) is not None for k in ("kx", "ky", "kz")):
        raise DeckError("[fields] perm file and kx/ky/kz constants are exclusive")
    if not perm.startswith("file:"):
        raise DeckError("[fields] perm must be a file: reference")
    ppath = resolve(perm)
    poro = f.get("poro", str(_FIELD_DEFAULTS["poro"]))   # a file: reference or one value
    if poro.startswith("file:"):
        poro_src: object = open(resolve(poro), "rb")
    else:
        poro_src = " ".join([poro] * n)
    try:
        with open(ppath, "rb") as pf:
            rock = load_spe10_fields(pf, poro_src, grid)
    except ValueError as exc:      # a FieldFormatError, or a porosity above 1
        raise DeckError(f"[fields] {exc}") from None
    finally:
        if hasattr(poro_src, "close"):
            poro_src.close()
    rec("fields", "perm", perm)
    rec("fields", "poro", poro)
    return rock


def _build_fluid(fl: _Section, tables, rec) -> FluidSystem:
    kind = fl.get("model", "two_phase")
    if kind not in ("two_phase", "black_oil"):
        raise DeckError(f"[fluid] model must be two_phase or black_oil, got {kind!r}")
    corey = _make(fl, CoreyTwoPhase, dict(s_wc=fl.get("s_wc", 0.2, float),
                                          s_or=fl.get("s_or", 0.2, float)))
    relperm = _make(fl, ThreePhaseRelPerm,
                    dict(corey=corey, s_gc=fl.get("s_gc", 0.0, float)), dict(corey=corey))

    use_spe1 = fl.get("pvt_defaults", "spe1" if kind == "black_oil" else "none")
    base = PvtModel.spe1_like() if use_spe1 == "spe1" else PvtModel()
    kw = {key: fl.get(key, getattr(base, key), float) for key in _PVT_SCALARS}
    mu_o = fl.get("mu_o", None, float)
    kw["mu_o_table"] = Table1D.constant(mu_o) if mu_o is not None else base.mu_o_table
    plain = [tname for tname in _TABLES if tname != "muo"]
    for tname in plain:
        attr = f"{tname}_table"
        kw[attr] = _table_from_rows(tables.get(tname), tname) or getattr(base, attr)
    muo_rows = tables.get("muo")
    if muo_rows:
        kw["mu_o_table"] = _table_from_rows(muo_rows, "muo")
        slopes = [r[2] for r in muo_rows if len(r) > 2]
        if slopes:
            if len(slopes) != len(muo_rows):
                raise DeckError("[table:muo] third column must be on every row or none")
            kw["mu_o_slope_table"] = Table1D([r[0] for r in muo_rows], slopes)
    pvt = _make(fl, PvtModel, kw, keys=dict(mu_o_table="mu_o"))
    rec("fluid", "model", kind)
    rec("fluid", "s_wc", corey.s_wc)
    rec("fluid", "s_or", corey.s_or)
    rec("fluid", "s_gc", relperm.s_gc)
    for key in _PVT_SCALARS:
        rec("fluid", key, getattr(pvt, key))
    for attr in ("mu_o_table", *(f"{tname}_table" for tname in plain)):
        rec("fluid", attr, _table_summary(getattr(pvt, attr)))
    return FluidSystem(kind=kind, relperm=relperm, pvt=pvt)


def _table_summary(tab: Table1D) -> str:
    if len(tab.x) == 1:
        return f"constant {tab.y[0]:g}"
    return f"{len(tab.x)} rows on [{tab.x[0]:g}, {tab.x[-1]:g}]"


def _table_from_rows(rows, name) -> Table1D | None:
    if not rows:
        return None
    if any(len(r) < 2 for r in rows):
        raise DeckError(f"[table:{name}] rows need at least two columns")
    try:
        return Table1D([r[0] for r in rows], [r[1] for r in rows])
    except ValueError as exc:
        raise DeckError(f"[table:{name}]: {exc}") from None


def _build_wells(w: _Section, grid: Grid, rock: RockFields, rec, model: str):
    """The deck's wells, and the names of those whose line sets no constraint."""
    wells: list[Well] = []
    unconstrained: list[str] = []
    by_name: dict[str, Well] = {}
    explicit_wi: dict[str, float] = {}
    for lineno, val in w.repeated("well"):
        parts = val.split()
        if not parts:
            raise DeckError(f"line {lineno}: empty well definition")
        name = parts[0]
        if name in by_name:
            raise DeckError(f"line {lineno}: duplicate well {name!r}")
        kv = {}
        for tok in parts[1:]:
            if "=" not in tok:
                raise DeckError(f"line {lineno}: expected key=value, got {tok!r}")
            k, v = tok.split("=", 1)
            if k not in _WELL_KEYS:
                raise DeckError(f"line {lineno}: unknown well key {k!r}")
            kv[k] = v
        num = {k: _number(lineno, k, v) for k, v in kv.items()
               if k not in ("type", "fluid")}
        fluid = kv.get("fluid", "water")
        try:
            well = Well(name=name, kind=kv.get("type", "producer"),
                        inj_phase={"water": "w", "gas": "g"}.get(fluid, fluid),
                        r_w=num.get("rw", 0.3), skin=num.get("skin", 0.0),
                        ref_depth=num.get("refdepth", 0.0))
        except WellConfigError as exc:
            raise DeckError(f"line {lineno}: {exc}") from None
        given = [ckind for ckind in CONSTRAINT_KINDS if ckind in kv]
        for ckind in given or [None]:
            _check_meetable(lineno, well, ckind, model)
        for ckind in given:
            well.constraint = Constraint(ckind, num[ckind])
        if not given:
            unconstrained.append(name)
        if "wi" in kv:
            explicit_wi[name] = num["wi"]
        well.slot = len(wells)
        wells.append(well)
        by_name[name] = well
        rec("wells", f"well.{name}", val[len(name):].strip() or "producer")
    for lineno, val in w.repeated("perf"):
        parts = val.split()
        if len(parts) != 4:
            raise DeckError(f"line {lineno}: perf needs: well_name i j k (k may be k0:k1)")
        name = parts[0]
        if name not in by_name:
            raise DeckError(f"line {lineno}: perf references undeclared well {name!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
            if ":" in parts[3]:
                k0, k1 = (int(p) for p in parts[3].split(":", 1))
            else:
                k0 = int(parts[3])
                k1 = k0 + 1
            if k1 <= k0:
                raise ValueError(f"empty perf range {parts[3]!r} (need k0 < k1)")
            cells = [cell_index(i, j, k, grid) for k in range(k0, k1)]
        except (ValueError, IndexError) as exc:
            raise DeckError(f"line {lineno}: {exc}") from None
        try:
            complete_vertical(by_name[name], grid, rock, cells,
                              wi=explicit_wi.get(name))
        except WellConfigError as exc:
            raise DeckError(f"line {lineno}: {exc}") from None
        rec("wells", f"perf.{name}.{len(by_name[name].perforations) - 1}",
            f"({i},{j},{parts[3]})")
    for well in wells:
        if not well.perforations:
            raise DeckError(f"well {well.name} has no perforations")
    return wells, unconstrained


def _check_meetable(lineno: int, well: Well, kind: str | None, model: str):
    """Reject a well, or a constraint kind given for it, that the model can
    never meet: gas injectors and gas_rate need black oil, and an injector's
    rate constraint must count the component it injects."""
    injector = well.kind == "injector"
    if model != "black_oil" and (kind == "gas_rate" or (injector and well.inj_phase == "g")):
        raise DeckError(f"line {lineno}: well {well.name}: gas injectors and gas_rate "
                        f"need model = black_oil")
    phase, rates = {"w": ("water", ("water_rate", "liquid_rate")),
                    "g": ("gas", ("gas_rate",))}[well.inj_phase]
    if injector and kind in RATE_KINDS and kind not in rates:
        raise DeckError(f"line {lineno}: well {well.name}: a {phase} injector's rate "
                        f"constraint must be {' or '.join(rates)}, not {kind}")


def _build_schedule(s: _Section, rec, wells: list[Well], model: str) -> Schedule:
    entries, by_name = [], {well.name: well for well in wells}
    for i, (lineno, val) in enumerate(s.repeated("at")):
        parts = val.split()
        if len(parts) != 4:
            raise DeckError(f"line {lineno}: at needs: time well_name kind value")
        when, value = _number(lineno, "time", parts[0]), _number(lineno, parts[2], parts[3])
        try:
            entries.append((when, parts[1], Constraint(parts[2], value)))
        except WellConfigError as exc:
            raise DeckError(f"line {lineno}: {exc}") from None
        if parts[1] in by_name:           # an undeclared name is reported below
            _check_meetable(lineno, by_name[parts[1]], parts[2], model)
        rec("schedule", f"at.{i}", val)
    try:
        return Schedule(entries)
    except WellConfigError as exc:
        raise DeckError(str(exc)) from None


def _check_constraints_at_start(unconstrained, schedule):
    starts = {name for t, name, _ in schedule.entries if t <= 0.0}
    for name in unconstrained:
        if name not in starts:
            raise DeckError(f"well {name} has no constraint at t = 0 "
                            f"(set one on the well line or in [schedule])")


def initial_state(deck: Deck) -> ReservoirState:
    """Uniform pressure at the top datum, hydrostatically adjusted by depth
    with the model's oil density at the datum state."""
    grid, fluid = deck.grid, deck.fluid
    s_w0 = deck.s_w_init if deck.s_w_init >= 0 else fluid.relperm.corey.s_wc

    def switched(p_o):
        """(x3, sat) of the black-oil state at oil pressures p_o."""
        if fluid.kind != "black_oil":
            return None, None
        sat = (deck.p_b_init >= p_o - 1e-12) | (deck.s_g_init > 0)
        return np.where(sat, deck.s_g_init, deck.p_b_init), sat

    datum = np.array([deck.p_init])
    rho0 = evaluate_properties(datum, np.array([s_w0]), *switched(datum), fluid,
                               derivs=False).rho_o.v[0]
    p_o = deck.p_init + rho0 * units.GRAVITY * (grid.cell_depth - grid.depth_top)
    s_w = np.full(grid.ncell, s_w0)
    x3, sat = switched(p_o)
    p_h = np.zeros(len(deck.wells))
    for well in deck.wells:
        if well.constraint.kind == "bhp":
            p_h[well.slot] = well.constraint.value
        else:
            cells = [p.cell for p in well.perforations]
            p_h[well.slot] = float(np.mean(p_o[cells]))
    return ReservoirState(p_o=p_o, s_w=s_w, x3=x3, sat=sat, p_h=p_h, t=0.0)


def write_vtk(grid: Grid, state: ReservoirState, rock: RockFields, path: str):
    """Legacy-VTK structured-points file with BINARY cell-data arrays:
    big-endian float64, so the file holds the state bit for bit."""
    arrays = [("pressure", state.p_o), ("s_w", state.s_w)]
    if state.x3 is not None:
        arrays.append(("s_g", np.where(state.sat, state.x3, 0.0)))
    arrays += [("kx", rock.kx), ("poro", rock.poro)]
    try:
        with open(path, "wb") as fh:
            fh.write(f"# vtk DataFile Version 3.0\nresim state t={state.t:g} days\n"
                     f"BINARY\nDATASET STRUCTURED_POINTS\n"
                     f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} {grid.nz + 1}\n"
                     f"ORIGIN 0 0 0\nSPACING {grid.dx:g} {grid.dy:g} {grid.dz:g}\n"
                     f"CELL_DATA {grid.ncell}\n".encode("ascii"))
            for name, arr in arrays:
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode("ascii"))
                fh.write(np.asarray(arr, ">f8").tobytes() + b"\n")
    except OSError as exc:
        raise OSError(f"cannot write VTK file {path}: {exc}") from exc


def run_simulation(deck: Deck, workers: int = 1, report_csv: str | None = None,
                   vtk_every: int | None = None, dump_matrices: bool | None = None,
                   output_dir: str = ".") -> RunReport:
    """Execute the deck to t_end; returns the report and writes outputs.

    Per-step records go to CSV, the final state to legacy VTK, and a summary
    table to the log.  Iteration counts are deterministic in ``workers``.
    Each step but the first, and the first after a schedule switch, is
    handed the accepted state before its old state to extrapolate from.
    """
    given = dict(report_csv=report_csv, vtk_every=vtk_every, dump_matrices=dump_matrices)
    out = replace(deck.output, **{k: v for k, v in given.items() if v is not None})
    vtk_path = os.path.join(output_dir, f"{out.vtk_prefix}_final.vtk")
    csv_path = os.path.join(output_dir, out.report_csv) if out.report_csv else None
    for path in (vtk_path, csv_path or vtk_path):   # so a bad output path fails at once
        os.makedirs(os.path.dirname(path), exist_ok=True)

    for line in deck.echo_lines():
        log.info("deck: %s", line)
    log.info("run: workers = %d", workers)

    grid = deck.grid
    model = ReservoirModel(grid, deck.rock, deck.fluid)
    state = initial_state(deck)
    report = RunReport(workers=workers)
    report.initial_mass = model.mass_in_place(state)
    wells = deck.wells

    switch_times = sorted({entry[0] for entry in deck.schedule.entries})

    with WorkerPool(workers) as pool:
        t = 0.0
        dt = min(deck.controller.dt_init, deck.t_end) if deck.t_end > 0 else 0.0
        step = 0
        state_prev = None   # the accepted state before ``state``, to extrapolate from
        contraction = None  # the last step's first Newton contraction
        try:
            while t < deck.t_end - 1e-9:
                wells, changed = apply_schedule(deck.schedule, t, wells)
                if changed and step > 0:
                    dt = deck.controller.dt_init
                    state_prev = contraction = None
                    log.info("t=%g: schedule switch, dt reset to %g", t, dt)
                dt = min(dt, deck.t_end - t)
                # land steps exactly on upcoming schedule switches
                for ts in switch_times:
                    if ts > t + 1e-9:
                        dt = min(dt, ts - t)
                        break
                prefix = os.path.join(output_dir, f"step{step:04d}") \
                    if out.dump_matrices else None
                wall0 = time.perf_counter()
                state_new, rec = advance_timestep(
                    model, state, dt, wells, deck.newton, deck.solver,
                    deck.controller, pool=pool, dump_prefix=prefix,
                    state_prev=state_prev, contraction=contraction)
                state_prev, state = state, state_new
                contraction = rec.contraction
                rec.wall_time = time.perf_counter() - wall0
                t += rec.dt
                step += 1
                rec.step, rec.t = step, t
                rec.mass_in_place = model.mass_in_place(state)
                rates = model.well_mass_rates(state, wells)
                rec.well_injected = {c: r[0] * rec.dt for c, r in rates.items()}
                rec.well_produced = {c: r[1] * rec.dt for c, r in rates.items()}
                report.steps.append(rec)
                dt = min(rec.dt * deck.controller.growth, deck.controller.dt_max)
                if out.vtk_every and step % out.vtk_every == 0:
                    write_vtk(grid, state, deck.rock,
                              os.path.join(output_dir, f"{out.vtk_prefix}_{step:04d}.vtk"))
        except SimulationAbort as abort:
            abort.state = state
            abort.report = report
            log.error("simulation aborted at t=%g: %s", t, abort)
            raise
        finally:
            if csv_path:
                report.to_csv(csv_path)
            write_vtk(grid, state, deck.rock, vtk_path)

    log.info("summary:\n%s", report.format_table())
    report.final_state = state
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="resim",
                                     description="fully implicit reservoir simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a simulation deck")
    run.add_argument("deck", help="path to the input deck")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--report", default=None, help="per-step CSV output path")
    run.add_argument("--vtk-every", type=int, default=None,
                     help="write VTK snapshots every K accepted steps")
    run.add_argument("--dump-matrices", action="store_true", default=None,
                     help="write Matrix Market dumps per Newton iteration")
    run.add_argument("--output-dir", default=".")
    run.add_argument("-q", "--quiet", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:      # --help, or a usage error argparse printed
        return 0 if exc.code == 0 else 1

    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 1
    if args.vtk_every is not None and args.vtk_every < 0:
        print(f"error: --vtk-every must be >= 0, got {args.vtk_every}", file=sys.stderr)
        return 1
    try:
        deck = load_deck(args.deck)
    except (DeckError, OSError) as exc:
        print(f"deck error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_simulation(deck, workers=args.workers, report_csv=args.report,
                                vtk_every=args.vtk_every,
                                dump_matrices=args.dump_matrices,
                                output_dir=args.output_dir)
    except SimulationAbort as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:          # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.format_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
