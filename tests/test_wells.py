import math
from dataclasses import replace

import numpy as np
import pytest

import resim
from resim import units
from resim.model import ReservoirModel, ReservoirState
from resim.pvt import evaluate_properties
from resim.wells import WellConfigError, well_component_rates
from conftest import (two_phase_fluid, black_oil_fluid, random_two_phase_model,
                      random_two_phase_state)


def one_cell_model(fluid=None):
    g = resim.Grid(1, 1, 1, 20.0, 20.0, 10.0, depth_top=5000.0)
    rock = resim.RockFields.uniform(g, 100.0, 0.2)
    return ReservoirModel(g, rock, fluid or two_phase_fluid())


def perf_rates(well, st, fluid):
    """Signed component mass rates (lbm/day) at each of the well's perforations."""
    cells = [p.cell for p in well.perforations]
    props = evaluate_properties(st.p_o[cells], st.s_w[cells],
                                None if st.x3 is None else st.x3[cells],
                                None if st.sat is None else st.sat[cells], fluid, derivs=False)
    q = well_component_rates([well], st.p_h, props, fluid)[0]
    return dict(zip(fluid.components, q))


def well_row(model, st, well):
    """The residual of the well's constraint: its row of the assembled residual."""
    f = model.assemble_residual(st, st, 1.0, [well])
    return f[model.grid.ncell * model.m + well.slot]


class TestPeaceman:
    def test_isotropic_equivalent_radius(self):
        # r_e = 0.14*sqrt(dx^2 + dy^2) = 0.198*dx for dx = dy
        dx = dy = 20.0
        wi = resim.peaceman_wi(dx, dy, 10.0, 100.0, 100.0, 0.25)
        r_e = 0.14 * math.sqrt(dx * dx + dy * dy)
        assert r_e == pytest.approx(0.198 * dx, rel=1e-3)
        expected = 2.0 * math.pi * 100.0 * 10.0 / math.log(r_e / 0.25)
        assert wi == pytest.approx(expected, rel=1e-12)

    def test_skin_monotone_to_zero(self):
        skins = [0.0, 1.0, 5.0, 50.0, 500.0, 5e4]
        wis = [resim.peaceman_wi(20.0, 20.0, 10.0, 100.0, 100.0, 0.25, s)
               for s in skins]
        assert all(a > b for a, b in zip(wis, wis[1:]))
        assert wis[-1] < 1e-2 * wis[0]

    def test_anisotropic_hand_value(self):
        # independent evaluation of the Peaceman formula
        kx, ky, dx, dy, dz, rw = 100.0, 400.0, 20.0, 20.0, 10.0, 0.25
        beta = math.sqrt(ky / kx)
        r_e = 0.28 * math.sqrt(beta * dx ** 2 + dy ** 2 / beta) \
            / (beta ** 0.5 + beta ** -0.5)
        expected = 2.0 * math.pi * math.sqrt(kx * ky) * dz / math.log(r_e / rw)
        assert resim.peaceman_wi(dx, dy, dz, kx, ky, rw) == pytest.approx(expected, rel=1e-12)

    def test_wellbore_larger_than_cell(self):
        with pytest.raises(WellConfigError, match="too small"):
            resim.peaceman_wi(0.5, 0.5, 10.0, 100.0, 100.0, 0.25)


class TestPerforationRate:
    def test_zero_drawdown_zero_rate(self):
        model = one_cell_model()
        w = resim.Well("P", constraint=resim.Constraint("bhp", 3000.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        # p_h = p_alpha + rho*g*(z_h - z): z_h == z here, so p_h = p_o
        st = ReservoirState(np.array([3000.0]), np.array([0.5]),
                            p_h=np.array([3000.0]))
        q = perf_rates(w, st, model.fluid)
        assert q["o"][0] == 0.0
        # water sees p_w = p_o (zero capillary): also exactly zero
        assert q["w"][0] == 0.0

    def test_linear_in_drawdown(self):
        model = one_cell_model()
        w = resim.Well("P", constraint=resim.Constraint("bhp", 0.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        base = ReservoirState(np.array([6000.0]), np.array([0.5]),
                              p_h=np.array([5000.0]))
        double = ReservoirState(np.array([6000.0]), np.array([0.5]),
                                p_h=np.array([4000.0]))
        q1 = perf_rates(w, base, model.fluid)["o"][0]
        q2 = perf_rates(w, double, model.fluid)["o"][0]
        # cell properties frozen; drawdown doubles
        assert q2 == pytest.approx(2.0 * q1, rel=1e-12)

    def test_producer_hand_value(self):
        # BHP 4000, cell pressure 6000, mobility from the cell
        model = one_cell_model()
        w = resim.Well("P", constraint=resim.Constraint("bhp", 4000.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        perf = w.perforations[0]
        st = ReservoirState(np.array([6000.0]), np.array([0.5]),
                            p_h=np.array([4000.0]))
        kro = evaluate_properties(st.p_o, st.s_w, None, None, model.fluid,
                                  derivs=False).kro.v[0]
        lam_o = kro * 53.0 / 3.0
        expected = units.DARCY * perf.wi * lam_o * (4000.0 - 6000.0)
        assert perf_rates(w, st, model.fluid)["o"][0] == pytest.approx(expected, rel=1e-12)
        assert expected < 0  # production is negative

    def test_injector_uses_endpoint_mobility(self):
        model = one_cell_model()
        w = resim.Well("I", kind="injector", inj_phase="w",
                       constraint=resim.Constraint("bhp", 7000.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        perf = w.perforations[0]
        st = ReservoirState(np.array([6000.0]), np.array([0.2]),  # krw(0.2) = 0
                            p_h=np.array([7000.0]))
        pvt = model.fluid.pvt
        q = perf_rates(w, st, model.fluid)
        # endpoint k_r = 1 even at connate water
        expected = units.DARCY * perf.wi * (pvt.rho_w_ref / pvt.mu_w) * 1000.0
        assert q["w"][0] == pytest.approx(expected, rel=1e-12)
        assert q["o"][0] == 0.0


class TestConstraintResidual:
    def test_bhp_at_target(self):
        model = one_cell_model()
        w = resim.Well("P", constraint=resim.Constraint("bhp", 4321.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        st = ReservoirState(np.array([6000.0]), np.array([0.5]),
                            p_h=np.array([4321.0]))
        assert well_row(model, st, w) == 0.0

    def test_single_perforation_rate_at_target(self):
        model = one_cell_model()
        w = resim.Well("I", kind="injector", inj_phase="w", slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        st = ReservoirState(np.array([6000.0]), np.array([0.5]),
                            p_h=np.array([6500.0]))
        q_surface = perf_rates(w, st, model.fluid)["w"][0] \
            / (model.fluid.pvt.rho_w_ref * units.FT3_PER_BBL)
        w.constraint = resim.Constraint("water_rate", q_surface)
        assert well_row(model, st, w) == pytest.approx(0.0, abs=1e-12)

    def test_two_perforation_sum_oracle(self):
        g = resim.Grid(1, 1, 2, 20.0, 20.0, 10.0, depth_top=5000.0)
        model = ReservoirModel(g, resim.RockFields.uniform(g, 100.0, 0.2),
                               two_phase_fluid())
        w = resim.Well("P", constraint=resim.Constraint("liquid_rate", -500.0), slot=0)
        resim.complete_vertical(w, g, model.rock, [0, 1])
        rng = np.random.default_rng(3)
        st = ReservoirState(6000.0 + 100 * rng.standard_normal(2),
                            rng.uniform(0.3, 0.6, 2), p_h=np.array([5000.0]))
        q = perf_rates(w, st, model.fluid)
        total = 0.0
        for i in range(len(w.perforations)):
            for comp, rho in (("o", 53.0), ("w", 62.4)):
                total += q[comp][i] / (rho * units.FT3_PER_BBL)
        assert well_row(model, st, w) == pytest.approx(total + 500.0, rel=1e-12)

    def test_gas_rate_includes_solution_gas(self):
        model = one_cell_model(black_oil_fluid())
        w = resim.Well("P", constraint=resim.Constraint("gas_rate", -100.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        st = ReservoirState(np.array([4000.0]), np.array([0.3]),
                            x3=np.array([0.15]), sat=np.array([True]),
                            p_h=np.array([3000.0]))
        q_g = perf_rates(w, st, model.fluid)["g"][0]
        res = well_row(model, st, w)
        scale = model.fluid.pvt.rho_g_ref * units.FT3_PER_MSCF
        assert res == pytest.approx(q_g / scale + 100.0, rel=1e-12)


class TestPerforationTable:
    """Every perforation of every well goes through one rate pass and one scatter."""

    @staticmethod
    def setup():
        rng = np.random.default_rng(11)
        model = random_two_phase_model(rng)
        st = random_two_phase_state(rng, model, nwell=2)
        st.p_h = np.array([5200.0, 7000.0])
        prod = resim.Well("P", constraint=resim.Constraint("liquid_rate", -200.0), slot=0)
        resim.complete_vertical(prod, model.grid, model.rock, [13, 22])
        inj = resim.Well("I", kind="injector", inj_phase="w",
                         constraint=resim.Constraint("bhp", 7000.0), slot=1)
        resim.complete_vertical(inj, model.grid, model.rock, [13])
        return model, st, prod, inj

    def test_wells_sharing_a_cell_add_up(self):
        model, st, prod, inj = self.setup()
        nm = model.grid.ncell * model.m
        alone = [(model, replace(st, p_h=st.p_h[[k]]), [replace(w, slot=0)])
                 for k, w in enumerate((prod, inj))]
        f_none = model.assemble_residual(st, st, 1.0, [])
        j_none = model.assemble_jacobian(st, st, 1.0, []).to_csr().toarray()
        f_both = model.assemble_residual(st, st, 1.0, [prod, inj])
        j_both = model.assemble_jacobian(st, st, 1.0, [prod, inj]).to_csr().toarray()
        f_alone = [m.assemble_residual(s, s, 1.0, w) for m, s, w in alone]
        j_alone = [m.assemble_jacobian(s, s, 1.0, w).to_csr().toarray() for m, s, w in alone]
        # cell rows: each well's sources on top of the well-free rows
        np.testing.assert_allclose(
            f_both[:nm] - f_none, sum(f[:nm] - f_none for f in f_alone),
            rtol=0, atol=1e-12 * np.abs(f_both).max())
        np.testing.assert_allclose(
            j_both[:nm, :nm] - j_none, sum(j[:nm, :nm] - j_none for j in j_alone),
            rtol=0, atol=1e-12 * np.abs(j_both).max())
        # well rows and columns: each well's own, at its slot
        for k, (f, j) in enumerate(zip(f_alone, j_alone)):
            assert f_both[nm + k] == f[nm]
            np.testing.assert_array_equal(j_both[:nm, nm + k], j[:nm, nm])
            np.testing.assert_array_equal(j_both[nm + k, :nm], j[nm, :nm])
            assert j_both[nm + k, nm + k] == j[nm, nm]
        assert j_both[nm, nm + 1] == j_both[nm + 1, nm] == 0.0

    def test_well_order_does_not_matter(self):
        model, st, prod, inj = self.setup()
        resim.complete_vertical(inj, model.grid, model.rock, [4])
        inj.perforations = inj.perforations[1:]      # no longer shares cell 13
        ordered = model.assemble_residual(st, st, 1.0, [prod, inj])
        swapped = model.assemble_residual(st, st, 1.0, [inj, prod])
        np.testing.assert_array_equal(ordered, swapped)
        j_ordered = model.assemble_jacobian(st, st, 1.0, [prod, inj]).to_csr()
        j_swapped = model.assemble_jacobian(st, st, 1.0, [inj, prod]).to_csr()
        np.testing.assert_array_equal(j_ordered.toarray(), j_swapped.toarray())


class TestSignConventions:
    def test_bhp_injector_never_produces(self):
        model = one_cell_model()
        w = resim.Well("I", kind="injector", inj_phase="w",
                       constraint=resim.Constraint("bhp", 9000.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            st = ReservoirState(np.array([rng.uniform(2000, 8000)]),
                                np.array([rng.uniform(0.2, 0.8)]),
                                p_h=np.array([9000.0]))
            assert perf_rates(w, st, model.fluid)["w"][0] >= 0.0

    def test_bhp_producer_never_injects(self):
        model = one_cell_model()
        w = resim.Well("P", constraint=resim.Constraint("bhp", 1000.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        rng = np.random.default_rng(2)
        for _ in range(20):
            st = ReservoirState(np.array([rng.uniform(2000, 8000)]),
                                np.array([rng.uniform(0.25, 0.75)]),
                                p_h=np.array([1000.0]))
            q = perf_rates(w, st, model.fluid)
            assert q["w"][0] <= 0.0 and q["o"][0] <= 0.0


class TestSchedule:
    def make_wells(self):
        w1 = resim.Well("A", constraint=resim.Constraint("bhp", 1000.0), slot=0)
        w2 = resim.Well("B", constraint=resim.Constraint("bhp", 2000.0), slot=1)
        return [w1, w2]

    def test_empty_schedule_unchanged(self):
        wells = self.make_wells()
        out, changed = resim.apply_schedule(resim.Schedule([]), 100.0, wells)
        assert changed is False
        assert out == wells and all(a is b for a, b in zip(out, wells))

    def test_single_entry_always_active(self):
        wells = self.make_wells()
        sched = resim.Schedule([(0.0, "A", resim.Constraint("bhp", 5000.0))])
        out, _ = resim.apply_schedule(sched, 0.0, wells)
        assert out[0].constraint.value == 5000.0
        out, _ = resim.apply_schedule(sched, 1e6, out)
        assert out[0].constraint.value == 5000.0

    def test_start_inclusive_boundary(self):
        wells = self.make_wells()
        sched = resim.Schedule([
            (0.0, "A", resim.Constraint("bhp", 5000.0)),
            (500.0, "A", resim.Constraint("water_rate", 300.0)),
        ])
        out, _ = resim.apply_schedule(sched, 499.99, wells)
        assert out[0].constraint == resim.Constraint("bhp", 5000.0)
        out, _ = resim.apply_schedule(sched, 500.0, out)
        assert out[0].constraint == resim.Constraint("water_rate", 300.0)

    def test_unknown_well_rejected(self):
        wells = self.make_wells()
        sched = resim.Schedule([(0.0, "Z", resim.Constraint("bhp", 1.0))])
        with pytest.raises(WellConfigError, match="undeclared well 'Z'"):
            sched.validate_names(wells)
        with pytest.raises(WellConfigError):
            resim.apply_schedule(sched, 0.0, wells)

    def test_times_nondecreasing_per_well(self):
        with pytest.raises(WellConfigError, match="nondecreasing"):
            resim.Schedule([(10.0, "A", resim.Constraint("bhp", 1.0)),
                            (5.0, "A", resim.Constraint("bhp", 2.0))])

    def test_switch_returns_changed_flag(self):
        wells = self.make_wells()
        sched = resim.Schedule([(0.0, "A", resim.Constraint("bhp", 5000.0))])
        out, changed = resim.apply_schedule(sched, 0.0, wells)
        assert changed is True
        assert resim.apply_schedule(sched, 0.0, out)[1] is False

    def test_no_change_after_the_last_of_several_entries(self):
        # the earlier entries of a well are superseded, not switched through
        wells = self.make_wells()
        sched = resim.Schedule([
            (0.0, "A", resim.Constraint("bhp", 5000.0)),
            (500.0, "A", resim.Constraint("water_rate", 300.0)),
        ])
        out, changed = resim.apply_schedule(sched, 600.0, wells)
        assert changed is True
        assert resim.apply_schedule(sched, 700.0, out)[1] is False

    def test_passed_wells_keep_their_constraints(self):
        wells = self.make_wells()
        before = [w.constraint for w in wells]
        sched = resim.Schedule([(0.0, "A", resim.Constraint("water_rate", 300.0)),
                                (0.0, "B", resim.Constraint("bhp", 2500.0))])
        out, changed = resim.apply_schedule(sched, 0.0, wells)
        assert changed is True
        assert [w.constraint for w in wells] == before
        assert [w.constraint for w in out] == [resim.Constraint("water_rate", 300.0),
                                               resim.Constraint("bhp", 2500.0)]
        assert out[0].perforations is wells[0].perforations and out[0].slot == 0


class TestMatrixStructure:
    def test_bhp_well_gives_identity_ww_block(self):
        model = one_cell_model()
        w = resim.Well("P", constraint=resim.Constraint("bhp", 4000.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [0])
        st = ReservoirState(np.array([6000.0]), np.array([0.5]),
                            p_h=np.array([4000.0]))
        a = model.assemble_jacobian(st, st, 1.0, [w])
        assert a.ww[0] == 1.0
        np.testing.assert_array_equal(a.wc_blocks, 0.0)

    def test_duplicate_perforation_rejected(self):
        with pytest.raises(WellConfigError, match="duplicate"):
            resim.Well("X", perforations=[
                resim.Perforation(0, 1.0, 10.0), resim.Perforation(0, 2.0, 10.0)])

    def test_complete_vertical_rejects_a_perforated_cell(self):
        g = resim.Grid(1, 1, 3, 20.0, 20.0, 10.0)
        rock = resim.RockFields.uniform(g, 100.0, 0.2)
        w = resim.Well("X")
        resim.complete_vertical(w, g, rock, [0])
        with pytest.raises(WellConfigError, match="cell 0 is perforated twice"):
            resim.complete_vertical(w, g, rock, [1, 0])
        with pytest.raises(WellConfigError, match="cell 2 is perforated twice"):
            resim.complete_vertical(w, g, rock, [2, 2])
        assert [p.cell for p in w.perforations] == [0]
