import numpy as np
import pytest

import resim
from resim.pvt import evaluate_properties
from conftest import two_phase_fluid, black_oil_fluid

# table breakpoints where piecewise-linear properties are non-differentiable
SAT_KINKS = np.array([0.1, 0.2, 0.5, 0.8, 0.9])


def _pressure_kinks(fluid):
    pv = fluid.pvt
    return np.unique(np.concatenate([pv.mu_o_table.x, pv.rs_table.x,
                                     pv.bo_table.x, pv.bg_table.x]))


def _nudge(values, kinks, margin):
    """Push values off non-differentiable points so central FD is clean."""
    v = values.copy()
    for k in kinks:
        close = np.abs(v - k) < margin
        v[close] = k + margin * np.where(v[close] >= k, 1.0, -1.0)
    return v


def two_phase_kr(s_w, corey):
    """(k_rw, k_ro) of a two-phase fluid at the water saturations s_w."""
    s = np.atleast_1d(np.asarray(s_w, dtype=float))
    fluid = resim.FluidSystem("two_phase", resim.ThreePhaseRelPerm(corey))
    pr = evaluate_properties(np.full(s.shape, 3000.0), s, None, None, fluid,
                             derivs=False)
    return pr.krw.v, pr.kro.v


def stone2(s_w, s_g, tables, derivs=False):
    """Stone II k_ro bundle of saturated black-oil cells at (s_w, s_g)."""
    s_w, s_g = np.broadcast_arrays(np.atleast_1d(np.asarray(s_w, dtype=float)),
                                   np.atleast_1d(np.asarray(s_g, dtype=float)))
    n = len(s_w)
    fluid = resim.FluidSystem("black_oil", tables)
    return evaluate_properties(np.full(n, 3000.0), s_w, s_g, np.ones(n, bool),
                               fluid, derivs=derivs).kro


class TestCorey:
    def test_krw_endpoints(self, corey):
        krw, _ = two_phase_kr([0.2, 0.8, 0.1], corey)
        assert krw[0] == 0.0
        assert krw[1] == pytest.approx(1.0)
        assert krw[2] == 0.0

    def test_krw_midpoint(self, corey):
        # (0.3)^2 / (0.6)^2
        assert two_phase_kr(0.5, corey)[0][0] == pytest.approx(0.25)

    def test_kro_endpoints(self, corey):
        _, kro = two_phase_kr([0.2, 0.8], corey)
        assert kro[0] == pytest.approx(1.0)
        assert kro[1] == 0.0

    def test_kro_midpoint(self, corey):
        assert two_phase_kr(0.5, corey)[1][0] == pytest.approx(0.25)

    def test_bounds_and_monotonicity(self, corey):
        w, o = two_phase_kr(np.linspace(0, 1, 101), corey)
        assert np.all((0 <= w) & (w <= 1)) and np.all((0 <= o) & (o <= 1))
        assert np.all(np.diff(w) >= 0)
        assert np.all(np.diff(o) <= 0)

    def test_invalid_endpoints(self):
        with pytest.raises(ValueError):
            resim.CoreyTwoPhase(s_wc=0.6, s_or=0.5)


class TestStone2:
    def test_reduces_to_two_phase_at_zero_gas(self, corey):
        tables = resim.ThreePhaseRelPerm(corey)
        s = np.linspace(0.0, 1.0, 41)
        kro = stone2(s, 0.0, tables, derivs=True)
        two_phase = evaluate_properties(np.full(s.shape, 3000.0), s, None, None,
                                        resim.FluidSystem("two_phase", tables)).kro
        np.testing.assert_array_equal(kro.v, two_phase.v)
        # the (p_o, s_w) derivatives are the two-phase curve's too
        np.testing.assert_array_equal(kro.d[:2], two_phase.d)

    def test_connate_endpoint(self, corey):
        tables = resim.ThreePhaseRelPerm(corey)
        assert stone2(0.2, 0.0, tables).v[0] == pytest.approx(tables.krocw)

    def test_against_independent_formula(self, corey):
        # independent scripted Stone II evaluation (krocw-normalized form)
        tables = resim.ThreePhaseRelPerm(corey)
        s_w, s_g = 0.3, 0.2
        span = 1.0 - 0.2 - 0.2
        krow = ((1.0 - 0.2 - s_w) / span) ** 2
        krw_ = ((s_w - 0.2) / span) ** 2
        krog = ((1.0 - 0.2 - 0.2 - s_g) / span) ** 2
        krg_ = (s_g / (1.0 - 0.2)) ** 2
        krocw = 1.0
        expected = krocw * ((krow / krocw + krw_) * (krog / krocw + krg_) - krw_ - krg_)
        assert stone2(s_w, s_g, tables).v[0] == pytest.approx(expected, rel=1e-12)

    def test_clamped_nonnegative(self, corey):
        tables = resim.ThreePhaseRelPerm(corey)
        s = np.linspace(0, 1, 21)
        sw, sg = np.meshgrid(s, s)
        keep = sw + sg <= 1.0
        vals = stone2(sw[keep], sg[keep], tables).v
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


class TestTables:
    def test_monotone_bracketing(self):
        tab = resim.Table1D([1.0, 2.0, 5.0], [10.0, -4.0, 7.0])
        x = np.linspace(1.0, 5.0, 200)
        v, _ = tab(x)
        seg = np.clip(np.searchsorted(tab.x, x, side="right") - 1, 0, 1)
        lo = np.minimum(tab.y[seg], tab.y[seg + 1])
        hi = np.maximum(tab.y[seg], tab.y[seg + 1])
        assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)

    def test_flat_clamp(self):
        tab = resim.Table1D([1.0, 2.0], [3.0, 4.0])
        v, dv = tab(np.array([0.0, 3.0, 1.5]))
        np.testing.assert_allclose(v, [3.0, 4.0, 3.5])
        np.testing.assert_allclose(dv, [0.0, 0.0, 1.0])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            resim.Table1D([1.0, 1.0], [0.0, 0.0])

    def test_pvt_validation(self):
        with pytest.raises(ValueError):
            resim.PvtModel(c_w=-1e-6)
        with pytest.raises(ValueError):
            resim.PvtModel(rs_table=resim.Table1D([1.0, 2.0], [5.0, 1.0]))


def datum_props(pvt, p_o, p_b=None, kind="black_oil"):
    """Values of one cell at oil pressure p_o and s_w = s_g = 0: saturated,
    or undersaturated at bubble point p_b when given (black oil only)."""
    fluid = resim.FluidSystem(kind, pvt=pvt)
    if kind == "two_phase":
        return evaluate_properties(np.array([p_o]), np.zeros(1), None, None, fluid,
                                   derivs=False)
    sat = np.array([p_b is None])
    x3 = np.array([0.0 if p_b is None else p_b])
    return evaluate_properties(np.array([p_o]), np.zeros(1), x3, sat, fluid,
                               derivs=False)


class TestPhaseDensity:
    def test_water_reference_state(self):
        pvt = resim.PvtModel(c_w=3e-6, p_ref=500.0, rho_w_ref=62.4)
        assert datum_props(pvt, 500.0, kind="two_phase").rho_w.v[0] == pytest.approx(62.4)

    def test_dead_oil_identity(self):
        pvt = resim.PvtModel(rho_o_ref=53.0)  # R_s = 0, B_o = 1 defaults
        assert datum_props(pvt, 3000.0, kind="two_phase").rho_o.v[0] == \
            pytest.approx(53.0)

    def test_oil_against_independent_interpolation(self):
        pvt = resim.PvtModel.spe1_like()
        p_o, p_b = 3600.0, 2600.0
        # independent piecewise-linear interpolation of the shipped tables
        rs = np.interp(p_b, pvt.rs_table.x, pvt.rs_table.y)
        bo_sat = np.interp(p_b, pvt.bo_table.x, pvt.bo_table.y)
        bo = bo_sat * (1.0 - pvt.c_o * (p_o - p_b))
        expected = (pvt.rho_o_ref + rs * pvt.rho_g_ref) / bo
        # the oil phase, and its oil and solution-gas components
        pr = datum_props(pvt, p_o, p_b)
        assert pr.rho_o.v[0] == pytest.approx(expected, rel=1e-12)
        assert pr.rho_oo.v[0] + pr.rho_og.v[0] == pytest.approx(expected, rel=1e-12)

    def test_gas_from_fvf_table(self):
        pvt = resim.PvtModel.spe1_like()
        bg = np.interp(2000.0, pvt.bg_table.x, pvt.bg_table.y)
        assert datum_props(pvt, 2000.0).rho_g.v[0] == \
            pytest.approx(pvt.rho_g_ref / bg, rel=1e-12)


class TestPropertyDerivatives:
    def test_krw_slope_midpoint(self):
        pr = evaluate_properties(np.array([3000.0]), np.array([0.5]), None, None,
                                 two_phase_fluid())
        # d/ds of ((s - 0.2)/0.6)^2 at s = 0.5: 2*0.3/0.36
        assert pr.krw.d[1, 0] == pytest.approx(2.0 * 0.3 / 0.36)

    def test_incompressible_water_pressure_derivative(self):
        pr = evaluate_properties(np.array([3000.0]), np.array([0.5]), None, None,
                                 two_phase_fluid(c=0.0))
        assert pr.rho_w.d[0, 0] == 0.0

    @pytest.mark.parametrize("kind", ["two_phase", "black_oil"])
    def test_derivatives_match_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        fluid = two_phase_fluid(c=3e-6, capillary=True) if kind == "two_phase" \
            else black_oil_fluid(pcog_table=resim.Table1D([0.0, 0.5], [0.0, 2.0]))
        n = 100
        p = _nudge(rng.uniform(2000.0, 4500.0, n), _pressure_kinks(fluid), 0.5)
        sw = _nudge(rng.uniform(0.25, 0.65, n), SAT_KINKS, 0.005)
        if kind == "two_phase":
            x3, sat = None, None
        else:
            sat = rng.random(n) < 0.5
            x3 = np.where(sat,
                          _nudge(rng.uniform(0.05, 0.3, n), SAT_KINKS, 0.005),
                          _nudge(p - rng.uniform(200.0, 1200.0, n),
                                 _pressure_kinks(fluid), 0.5))
        pr = evaluate_properties(p, sw, x3, sat, fluid, derivs=True)
        names = ("krw", "kro", "krg", "rho_w", "rho_oo", "rho_og", "rho_g", "mu_o")

        def values(p_, sw_, x3_):
            out = evaluate_properties(p_, sw_, x3_, sat, fluid, derivs=False)
            return {nm: getattr(out, nm).v for nm in names}

        eps = np.finfo(float).eps
        for slot in range(fluid.m):
            if slot == 0:
                h = 1e-6 * 3000.0
                vp = values(p + h, sw, x3)
                vm = values(p - h, sw, x3)
            elif slot == 1:
                h = 1e-6 * 0.5
                vp = values(p, sw + h, x3)
                vm = values(p, sw - h, x3)
            else:
                h = np.where(sat, 1e-6 * 0.3, 1e-6 * 3000.0)
                vp = values(p, sw, x3 + h)
                vm = values(p, sw, x3 - h)
            for nm in names:
                fd = (vp[nm] - vm[nm]) / (2 * h)
                an = getattr(pr, nm).d[slot]
                scale = np.maximum(np.abs(fd), np.abs(an))
                # 1e-6 relative, plus the cancellation noise floor of the
                # central-difference oracle itself
                fd_noise = 8.0 * eps * np.abs(getattr(pr, nm).v) / (2 * h)
                tol = 1e-6 * scale + fd_noise
                assert np.all(np.abs(an - fd) <= tol), f"{nm} slot {slot}"
