"""Whole-loop physics checks that cross module boundaries."""

import numpy as np
import pytest

import resim
from resim import units
from resim.model import ReservoirModel, ReservoirState
from resim.nonlinear import NewtonConfig, StepController, advance_timestep
from resim.linear import SolverConfig
from conftest import two_phase_fluid, black_oil_fluid


def column_model(nz=10, c=0.0):
    g = resim.Grid(1, 1, nz, 10.0, 10.0, 5.0, depth_top=6000.0)
    rock = resim.RockFields.uniform(g, 200.0, 0.2)
    return ReservoirModel(g, rock, two_phase_fluid(c=c))


class TestGravity:
    def test_hydrostatic_column_is_equilibrium(self):
        # immobile water (s_w = s_wc), oil-hydrostatic pressure profile:
        # no flow, Newton accepts the step immediately
        model = column_model()
        g = model.grid
        rho_o = 53.0  # incompressible oil density
        p = 4000.0 + rho_o * units.GRAVITY * (g.cell_depth - g.depth_top)
        st = ReservoirState(p, np.full(g.ncell, 0.2))
        f = model.assemble_residual(st, st, 1.0, [])
        assert np.max(np.abs(f)) < 1e-8
        new, stats = advance_timestep(model, st, 5.0, [], NewtonConfig(),
                                      SolverConfig(),
                                      StepController(dt_max=5.0))
        assert stats.newtons <= 1
        np.testing.assert_allclose(new.s_w, st.s_w)

    def test_water_sinks_below_oil(self):
        # denser water starts on top of a closed box; gravity segregates it
        # (slightly compressible: a sealed incompressible box leaves the
        # pressure level undetermined and the system singular)
        model = column_model(c=3e-6)
        g = model.grid
        n = g.ncell
        s_w = np.where(g.cell_depth < g.cell_depth.mean(), 0.7, 0.25)
        rho_o = 53.0
        p = 4000.0 + rho_o * units.GRAVITY * (g.cell_depth - g.depth_top)
        st = ReservoirState(p, s_w)
        mass0 = model.mass_in_place(st)
        depth_com0 = float(np.sum(st.s_w * g.cell_depth) / np.sum(st.s_w))
        ncfg = NewtonConfig(tol=1e-3)
        ctl = StepController(dt_init=1.0, dt_max=5.0)
        t, dt = 0.0, 1.0
        while t < 60.0:
            st, rec = advance_timestep(model, st, dt, [], ncfg, SolverConfig(), ctl)
            t += rec.dt
            dt = min(rec.dt * 2, 5.0)
        depth_com1 = float(np.sum(st.s_w * g.cell_depth) / np.sum(st.s_w))
        assert depth_com1 > depth_com0 + 1.0  # water center of mass moved down
        # closed box: component masses conserved
        mass1 = model.mass_in_place(st)
        for comp in ("w", "o"):
            assert mass1[comp] == pytest.approx(mass0[comp], rel=1e-7)


class TestCompressibleConservation:
    def test_two_phase_compressible_balance(self, tmp_path):
        g = resim.Grid(8, 8, 1, 20.0, 20.0, 10.0)
        rock = resim.RockFields.uniform(g, 100.0, 0.2)
        model = ReservoirModel(g, rock, two_phase_fluid(c=5e-6))
        n = g.ncell
        inj = resim.Well("I", kind="injector", inj_phase="w",
                         constraint=resim.Constraint("water_rate", 30.0), slot=0)
        resim.complete_vertical(inj, g, rock, [0])
        prod = resim.Well("P", constraint=resim.Constraint("bhp", 3500.0), slot=1)
        resim.complete_vertical(prod, g, rock, [n - 1])
        wells = [inj, prod]
        st = ReservoirState(np.full(n, 4000.0), np.full(n, 0.25),
                            p_h=np.array([4200.0, 3500.0]))
        ncfg = NewtonConfig()
        ctl = StepController(dt_init=0.5, dt_max=2.0)
        worst = 0.0
        t, dt = 0.0, 0.5
        masses = model.mass_in_place(st)
        while t < 10.0:
            st, rec = advance_timestep(model, st, dt, wells, ncfg, SolverConfig(), ctl)
            new_masses = model.mass_in_place(st)
            rates = model.well_mass_rates(st, wells)
            for comp in ("w", "o"):
                dm = new_masses[comp] - masses[comp]
                net = (rates[comp][0] - rates[comp][1]) * rec.dt
                worst = max(worst, abs(dm - net) / max(new_masses[comp], 1.0))
            masses = new_masses
            t += rec.dt
            dt = min(rec.dt * 2, 2.0)
        assert worst <= 1e-6  # compressible tolerance


class TestBlackOilWaterflood:
    def test_water_injection_into_live_oil(self):
        # exercises the black-oil water-injector branch through full steps
        g = resim.Grid(5, 5, 2, 20.0, 20.0, 10.0, depth_top=7000.0)
        rock = resim.RockFields.uniform(g, 150.0, 0.2)
        model = ReservoirModel(g, rock, black_oil_fluid())
        n = g.ncell
        inj = resim.Well("WI", kind="injector", inj_phase="w",
                         constraint=resim.Constraint("water_rate", 80.0), slot=0)
        resim.complete_vertical(inj, g, rock, [0])
        prod = resim.Well("PR", constraint=resim.Constraint("bhp", 3200.0), slot=1)
        resim.complete_vertical(prod, g, rock, [n - 1])
        wells = [inj, prod]
        st = ReservoirState(np.full(n, 4000.0), np.full(n, 0.12),
                            x3=np.full(n, 3514.7), sat=np.zeros(n, bool),
                            p_h=np.array([4400.0, 3200.0]))
        ncfg = NewtonConfig(max_newton=15)
        ctl = StepController(dt_init=0.25, dt_max=1.0)
        t, dt = 0.0, 0.25
        masses0 = model.mass_in_place(st)
        while t < 5.0:
            st, rec = advance_timestep(model, st, dt, wells, ncfg,
                                       SolverConfig(decoupling="abf", max_iterations=20),
                                       ctl)
            t += rec.dt
            dt = min(rec.dt * 2, 1.0)
        assert st.s_w[0] > 0.2  # water accumulated at the injector
        assert model.mass_in_place(st)["w"] > masses0["w"]
        # producer drawdown frees gas nowhere above bubble point
        assert np.all(np.where(st.sat, st.p_o, st.x3) <= st.p_o + 1e-9)


class TestStateViews:
    def test_saturation_closure_by_construction(self):
        from resim.pvt import evaluate_properties

        rng = np.random.default_rng(4)
        fluid = black_oil_fluid()
        n = 50
        sat = rng.random(n) < 0.5
        sw = rng.uniform(0.1, 0.6, n)
        x3 = np.where(sat, rng.uniform(0.0, 0.3, n), 3000.0)
        pr = evaluate_properties(rng.uniform(3000, 4500, n), sw, x3, sat, fluid,
                                 derivs=False)
        np.testing.assert_allclose(pr.s_o.v + pr.s_w.v + pr.s_g.v, 1.0,
                                   rtol=0, atol=1e-15)
