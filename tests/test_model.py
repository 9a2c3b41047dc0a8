import sys
import tracemalloc

import numpy as np
import pytest

import resim
from resim import units
from resim.grid import face_transmissibilities
from resim.model import ReservoirModel, ReservoirState, AssemblyError
from resim.pvt import evaluate_properties
from resim.wells import well_component_rates
from resim import model as model_module
from resim.parallel import WorkerPool
from conftest import (two_phase_fluid, black_oil_fluid, random_two_phase_model,
                      random_two_phase_state, random_black_oil_model,
                      random_black_oil_state)


def flat_model(nx=3, ny=3, fluid=None, k=100.0, poro=0.2):
    # single layer: all cell depths equal, so gravity terms vanish
    g = resim.Grid(nx, ny, 1, 10.0, 10.0, 10.0)
    rock = resim.RockFields.uniform(g, k, poro)
    return ReservoirModel(g, rock, fluid or two_phase_fluid())


def cell_rows(f, model):
    """The cell rows of a residual, shaped (ncell, m)."""
    n, m = model.grid.ncell, model.m
    return f[:n * m].reshape(n, m)


class TestAccumulation:
    """A spatially uniform state carries no flux, so with no wells each cell's
    residual row is its accumulation."""

    def test_steady_state_zero(self):
        model = flat_model(fluid=two_phase_fluid(c=3e-6))
        n = model.grid.ncell
        st = ReservoirState(np.full(n, 5000.0), np.full(n, 0.4))
        f = model.assemble_residual(st, st, 1.0, [])
        np.testing.assert_array_equal(cell_rows(f, model)[4], 0.0)

    def test_water_difference_quotient(self):
        # V*phi*ds*rho_w/dt with V = 1000 ft^3, phi = 0.2, ds = 0.1, dt = 1 d
        model = flat_model()
        n = model.grid.ncell
        old = ReservoirState(np.full(n, 5000.0), np.full(n, 0.2))
        new = ReservoirState(np.full(n, 5000.0), np.full(n, 0.3))
        acc = cell_rows(model.assemble_residual(new, old, 1.0, []), model)[0]
        rho_w = model.fluid.pvt.rho_w_ref
        assert acc[model.comp_row("w")] == pytest.approx(0.2 * 1000.0 * rho_w * 0.1)
        assert acc[model.comp_row("o")] == pytest.approx(-0.2 * 1000.0 * 53.0 * 0.1)

    def test_gas_accumulation_zero_without_gas_changes(self):
        # no free gas at either level and dead oil (R_s = 0): gas row is zero
        fluid = black_oil_fluid(rs_table=resim.Table1D.constant(0.0))
        g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
        model = ReservoirModel(g, resim.RockFields.uniform(g, 100.0, 0.2), fluid)
        old = ReservoirState(np.array([4000.0, 4000.0]), np.array([0.3, 0.3]),
                             x3=np.array([3000.0, 3000.0]), sat=np.zeros(2, bool))
        new = ReservoirState(np.array([4000.0, 4000.0]), np.array([0.5, 0.5]),
                             x3=np.array([3000.0, 3000.0]), sat=np.zeros(2, bool))
        acc = cell_rows(model.assemble_residual(new, old, 2.0, []), model)[0]
        assert acc[model.comp_row("w")] > 0.0
        assert acc[model.comp_row("g")] == 0.0

    def test_rejects_nonpositive_dt(self):
        model = flat_model()
        n = model.grid.ncell
        st = ReservoirState(np.full(n, 5000.0), np.full(n, 0.4))
        with pytest.raises(ValueError):
            model.assemble_residual(st, st, 0.0, [])


class TestFaceFlux:
    """With state_new == state_old and no wells, the residual of a two-cell
    model is its one face's flux v: +v in cell a's rows, -v in cell b's."""

    def test_zero_potential_difference(self):
        # saturations differ, but neither phase has a potential difference
        model = flat_model(nx=2, ny=1)
        st = ReservoirState(np.full(2, 5000.0), np.array([0.3, 0.6]))
        np.testing.assert_array_equal(model.assemble_residual(st, st, 1.0, []), 0.0)

    def test_antisymmetry_random_states(self):
        rng = np.random.default_rng(5)
        for shape in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            model = random_two_phase_model(rng, shape=shape)
            st = random_two_phase_state(rng, model)
            rows = cell_rows(model.assemble_residual(st, st, 1.0, []), model)
            assert np.all(rows[0] != 0.0)
            np.testing.assert_array_equal(rows[0], -rows[1])

    def test_two_cell_waterflood_hand_value(self):
        # single face: flux = C * T * (krw*rho/mu) * dp with upwind cell 0
        model = flat_model(nx=2, ny=1)
        st = ReservoirState(np.array([3100.0, 3000.0]), np.array([0.5, 0.2]))
        t_geo = face_transmissibilities(model.grid, model.rock, 0)[0]
        pvt = model.fluid.pvt
        kr = evaluate_properties(st.p_o[:1], st.s_w[:1], None, None, model.fluid,
                                 derivs=False)
        lam_w = kr.krw.v[0] * pvt.rho_w_ref / pvt.mu_w
        lam_o = kr.kro.v[0] * 53.0 / 3.0
        expected_w = units.DARCY * t_geo * lam_w * 100.0
        expected_o = units.DARCY * t_geo * lam_o * 100.0
        rows = cell_rows(model.assemble_residual(st, st, 1.0, []), model)
        iw, io = model.comp_row("w"), model.comp_row("o")
        assert rows[0, iw] == pytest.approx(expected_w, rel=1e-12)
        assert rows[0, io] == pytest.approx(expected_o, rel=1e-12)
        np.testing.assert_array_equal(rows[1], -rows[0])

    def test_strict_upwinding(self):
        # perturbing the downwind cell's mobility inputs leaves the flux alone
        model = flat_model(nx=2, ny=1)  # zero capillary
        st = ReservoirState(np.array([3100.0, 3000.0]), np.array([0.5, 0.3]))
        base = model.assemble_residual(st, st, 1.0, [])
        st2 = st.copy()
        st2.s_w[1] = 0.7  # downwind saturation
        np.testing.assert_array_equal(model.assemble_residual(st2, st2, 1.0, []), base)


class TestResidual:
    def test_equilibrium_zero(self):
        model = flat_model()
        n = model.grid.ncell
        st = ReservoirState(np.full(n, 5000.0), np.full(n, 0.4))
        f = model.assemble_residual(st, st, 1.0, [])
        np.testing.assert_array_equal(f, 0.0)

    def test_flux_telescoping(self):
        rng = np.random.default_rng(9)
        model = random_two_phase_model(rng, capillary=False)
        st = random_two_phase_state(rng, model)
        # acc terms vanish with state_new == state_old; remaining rows are
        # pure interior fluxes which cancel pairwise in the sum
        f = model.assemble_residual(st, st, 1.0, [])
        sums = f.reshape(model.grid.ncell, model.m).sum(axis=0)
        scale = np.abs(f).max()
        np.testing.assert_allclose(sums, 0.0, atol=1e-12 * max(scale, 1.0))

    def test_single_cell_injector_closed_form(self):
        g = resim.Grid(1, 1, 1, 10.0, 10.0, 10.0)
        fluid = two_phase_fluid(c=3e-6)
        model = ReservoirModel(g, resim.RockFields.uniform(g, 100.0, 0.2), fluid)
        w = resim.Well("I", kind="injector", inj_phase="w",
                       constraint=resim.Constraint("water_rate", 100.0), slot=0)
        resim.complete_vertical(w, g, model.rock, [0])
        old = ReservoirState(np.array([3000.0]), np.array([0.3]), p_h=np.array([3200.0]))
        new = ReservoirState(np.array([3050.0]), np.array([0.35]), p_h=np.array([3300.0]))
        f = model.assemble_residual(new, old, 1.0, [w])
        # one cell has no faces: without the well its rows are the accumulation
        acc = model.assemble_residual(new, old, 1.0, [])
        props = evaluate_properties(new.p_o, new.s_w, None, None, fluid, derivs=False)
        q_w = well_component_rates([w], new.p_h, props, fluid)[0][fluid.components.index("w"), 0]
        iw = model.comp_row("w")
        assert f[iw] == pytest.approx(acc[iw] - q_w, rel=1e-12)
        assert f[model.comp_row("o")] == pytest.approx(acc[model.comp_row("o")], rel=1e-12)
        # well row: surface rate balance
        expected = q_w / (fluid.pvt.rho_w_ref * units.FT3_PER_BBL) - 100.0
        assert f[2] == pytest.approx(expected, rel=1e-12)

    def test_nan_detection_names_cell(self):
        model = flat_model()
        n = model.grid.ncell
        st = ReservoirState(np.full(n, 5000.0), np.full(n, 0.4))
        st.p_o[0] = np.nan
        with pytest.raises(AssemblyError, match="cell 0"):
            model.assemble_residual(st, st, 1.0, [])


def fd_jacobian(model, state, state_old, dt, wells, kinks_p=()):
    n, m = model.grid.ncell, model.m
    nw = len(state.p_h)
    cols = n * m + nw
    jfd = np.zeros((len(model.assemble_residual(state, state_old, dt, wells)), cols))

    def perturbed(col, h):
        st = state.copy()
        if col < n * m:
            c, r = divmod(col, m)
            if r == 0:
                st.p_o[c] += h
            elif r == 1:
                st.s_w[c] += h
            else:
                st.x3[c] += h
        else:
            st.p_h[col - n * m] += h
        return st

    for col in range(cols):
        if col < n * m:
            c, r = divmod(col, m)
            if r == 0:
                scale = 4000.0
            elif r == 1:
                scale = 0.5
            else:
                scale = 0.3 if state.sat[c] else 3000.0
        else:
            scale = 4000.0
        h = 1e-6 * scale
        fp = model.assemble_residual(perturbed(col, h), state_old, dt, wells)
        fm = model.assemble_residual(perturbed(col, -h), state_old, dt, wells)
        jfd[:, col] = (fp - fm) / (2 * h)
    return jfd


def assert_jacobian_matches(model, state, state_old, dt, wells, tol=1e-5):
    a = model.assemble_jacobian(state, state_old, dt, wells)
    j = a.to_csr().toarray()
    jfd = fd_jacobian(model, state, state_old, dt, wells)
    denom = np.maximum(np.abs(j), np.abs(jfd))
    floor = 1e-6 * max(denom.max(), 1.0)
    rel = np.abs(j - jfd) / np.maximum(denom, floor)
    assert rel.max() <= tol, f"max rel error {rel.max():.2e}"


class TestJacobian:
    def test_accumulation_diagonal_entry(self):
        # incompressible water: d(acc_w)/d(s_w) = V*phi*rho_w/dt
        model = flat_model()
        n = model.grid.ncell
        st = ReservoirState(np.full(n, 5000.0), np.full(n, 0.4))
        a = model.assemble_jacobian(st, st, 2.0, [])
        expected = 1000.0 * 0.2 * model.fluid.pvt.rho_w_ref / 2.0
        iw = model.comp_row("w")
        np.testing.assert_allclose(a.diag[iw, 1], expected, rtol=1e-12)

    def test_two_phase_fd_match(self):
        rng = np.random.default_rng(42)
        model = random_two_phase_model(rng)
        state = random_two_phase_state(rng, model, nwell=2)
        old = ReservoirState(np.full(27, 6000.0), np.full(27, 0.3),
                             p_h=state.p_h.copy())
        inj = resim.Well("I", kind="injector", inj_phase="w",
                         constraint=resim.Constraint("water_rate", 500.0), slot=0)
        resim.complete_vertical(inj, model.grid, model.rock, [0, 9])
        prod = resim.Well("P", constraint=resim.Constraint("bhp", 4200.0), slot=1)
        resim.complete_vertical(prod, model.grid, model.rock, [26])
        assert_jacobian_matches(model, state, old, 5.0, [inj, prod])

    def test_black_oil_fd_match(self):
        rng = np.random.default_rng(7)
        model = random_black_oil_model(rng)
        state = random_black_oil_state(rng, model, nwell=2)
        old = state.copy()
        old.p_o = np.full(27, 4000.0)
        old.s_w = np.full(27, 0.3)
        inj = resim.Well("I", kind="injector", inj_phase="g",
                         constraint=resim.Constraint("gas_rate", 800.0), slot=0)
        resim.complete_vertical(inj, model.grid, model.rock, [0])
        prod = resim.Well("P", constraint=resim.Constraint("oil_rate", -300.0), slot=1)
        resim.complete_vertical(prod, model.grid, model.rock, [26])
        assert_jacobian_matches(model, state, old, 2.0, [inj, prod])

    def test_black_oil_water_injector_and_liquid_rate_fd_match(self):
        # a rate constraint summing two components over two perforations, and
        # a water injector's single stream among the three of black oil
        rng = np.random.default_rng(7)
        model = random_black_oil_model(rng)
        state = random_black_oil_state(rng, model, nwell=2)
        state.p_h = np.array([5200.0, 3000.0])
        old = state.copy()
        old.p_o = np.full(27, 4000.0)
        old.s_w = np.full(27, 0.3)
        inj = resim.Well("I", kind="injector", inj_phase="w",
                         constraint=resim.Constraint("water_rate", 400.0), slot=0)
        resim.complete_vertical(inj, model.grid, model.rock, [0])
        prod = resim.Well("P", constraint=resim.Constraint("liquid_rate", -300.0), slot=1)
        resim.complete_vertical(prod, model.grid, model.rock, [17, 26])
        assert_jacobian_matches(model, state, old, 2.0, [inj, prod])

    def test_pressure_row_sums_zero_interior(self):
        # flat single-layer grid, uniform pressure: pressure-block row sums
        # vanish for interior cells (no-flow + conservation)
        model = flat_model(nx=4, ny=4)
        n = model.grid.ncell
        st = ReservoirState(np.full(n, 5000.0), np.full(n, 0.4))
        a = model.assemble_jacobian(st, st, 1.0, [])
        app = a.extract_app().toarray()
        interior = [resim.cell_index(i, j, 0, model.grid)
                    for i in (1, 2) for j in (1, 2)]
        sums = app.sum(axis=1)
        assert np.all(np.abs(sums[interior]) <= 1e-9 * np.abs(app).max())


class TestMassAccounting:
    def test_mass_in_place_uniform(self):
        model = flat_model(nx=2, ny=1)
        st = ReservoirState(np.full(2, 5000.0), np.full(2, 0.25))
        mip = model.mass_in_place(st)
        v_pore = 1000.0 * 0.2
        assert mip["w"] == pytest.approx(2 * v_pore * 0.25 * 62.4)
        assert mip["o"] == pytest.approx(2 * v_pore * 0.75 * 53.0)


class TestParallelDeterminism:
    @pytest.mark.parametrize("kind", ["two_phase", "black_oil"])
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_assembly_bitwise_identical(self, workers, kind, monkeypatch):
        # every range writes its own cells' columns of the (m, m, n) blocks
        rng = np.random.default_rng(21)
        if kind == "two_phase":
            model = random_two_phase_model(rng, shape=(13, 7, 2))
            state = random_two_phase_state(rng, model, nwell=1)
        else:
            model = random_black_oil_model(rng, shape=(13, 7, 2))
            state = random_black_oil_state(rng, model, nwell=1)
        old = state.copy()
        old.s_w = np.clip(state.s_w - 0.05, 0, 1)
        w = resim.Well("P", constraint=resim.Constraint("bhp", 4000.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [5])
        a1 = model.assemble_jacobian(state, old, 1.0, [w])
        # drop the cells floor so small ranges genuinely run in parallel
        monkeypatch.setattr(model_module, "MIN_CELLS", 1)
        with WorkerPool(workers) as pool:
            run, split = pool.run, []
            pool.run = lambda fn, items: split.append(items) or run(fn, items)
            a2 = model.assemble_jacobian(state, old, 1.0, [w], pool=pool)
            # the cell phase, then the face phase, over the same ranges
            assert split == [pool.ranges(model.grid.ncell, 1)] * 2
            assert len(split[0]) == workers
        np.testing.assert_array_equal(a1.b, a2.b)
        np.testing.assert_array_equal(a1.diag, a2.diag)
        for ax in a1.axes:
            np.testing.assert_array_equal(a1.lo[ax], a2.lo[ax])
            np.testing.assert_array_equal(a1.hi[ax], a2.hi[ax])
        np.testing.assert_array_equal(a1.cw_blocks, a2.cw_blocks)
        np.testing.assert_array_equal(a1.wc_blocks, a2.wc_blocks)


def two_wells_model(kind, seed, shape):
    """A random model with a producer perforated at cells 5 and 90 and a
    water injector at cell 170, and a state and an old state for it."""
    rng = np.random.default_rng(seed)
    if kind == "two_phase":
        model = random_two_phase_model(rng, shape=shape)
        state = random_two_phase_state(rng, model, nwell=2)
    else:
        model = random_black_oil_model(rng, shape=shape)
        state = random_black_oil_state(rng, model, nwell=2)
    old = state.copy()
    old.s_w = np.clip(state.s_w - 0.05, 0, 1)
    prod = resim.Well("P", constraint=resim.Constraint("bhp", 3500.0), slot=0)
    inj = resim.Well("I", kind="injector", inj_phase="w",
                     constraint=resim.Constraint("water_rate", 50.0), slot=1)
    resim.complete_vertical(prod, model.grid, model.rock, [5, 90])
    resim.complete_vertical(inj, model.grid, model.rock, [170])
    return model, state, old, [prod, inj]


def jacobian_bytes(a):
    return [x.tobytes() for x in (a.b, a.stencil, a.cw_cells, a.cw_well,
                                  a.cw_blocks, a.wc_blocks, a.ww)]


class TestAssemblyPasses:
    """Cell and face phases walk each range in passes of PASS_ROWS rows."""

    @pytest.mark.parametrize("kind", ["two_phase", "black_oil"])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_pass_size_does_not_change_a_byte(self, kind, workers, cells, monkeypatch):
        # the perforations fall in different passes of every size
        model, state, old, wells = two_wells_model(kind, 31, (13, 7, 2))
        monkeypatch.setattr(model_module, "PASS_ROWS", 1 << 30)
        ref_jac = jacobian_bytes(model.assemble_jacobian(state, old, 2.0, wells))
        ref_res = model.assemble_residual(state, old, 2.0, wells).tobytes()
        # Jacobian passes of `cells` cells; residual passes hold 2 rows a cell
        monkeypatch.setattr(model_module, "PASS_ROWS", cells * (2 + model.m))
        monkeypatch.setattr(model_module, "MIN_CELLS", 1)
        # a copy of the old state is not the one whose masses the model
        # kept, so its masses are evaluated again, in passes of PASS_ROWS // 2
        old = old.copy()
        # the face phase reads the table columns other workers wrote in the
        # cell phase; switch threads often, so a face pass that started early
        # would read them unwritten
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(workers) as pool:
                pool = pool if workers > 1 else None
                jac = model.assemble_jacobian(state, old, 2.0, wells, pool=pool)
                res = model.assemble_residual(state, old, 2.0, wells, pool=pool)
        finally:
            sys.setswitchinterval(interval)
        assert jacobian_bytes(jac) == ref_jac
        assert res.tobytes() == ref_res

    @pytest.mark.parametrize("kind", ["two_phase", "black_oil"])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("assemble", ["assemble_jacobian", "assemble_residual"])
    def test_each_cell_is_evaluated_once_per_state(self, kind, workers, assemble,
                                                   monkeypatch):
        # the new and the old state, each cell once; the wells read the
        # evaluated properties of their perforated cells
        model, state, old, wells = two_wells_model(kind, 32, (13, 7, 2))
        evaluated = []

        def counted(p_o, *args, **kwargs):
            evaluated.append(len(p_o))
            return evaluate_properties(p_o, *args, **kwargs)

        monkeypatch.setattr(model_module, "evaluate_properties", counted)
        monkeypatch.setattr(model_module, "MIN_CELLS", 1)
        n = model.grid.ncell
        with WorkerPool(workers) as pool:
            def cells_evaluated(new, prev, dt=2.0):
                evaluated.clear()
                getattr(model, assemble)(new, prev, dt, wells,
                                         pool=pool if workers > 1 else None)
                return sum(evaluated)

            assert cells_evaluated(state, old) == 2 * n
            # the old state's masses are kept: a second assembly against it,
            # also at a cut retry's dt, evaluates the new state only
            assert cells_evaluated(state, old) == n
            assert cells_evaluated(state, old, 1.0) == n
            # a field bound to a new array makes another old state
            old.s_w = old.s_w.copy()
            assert cells_evaluated(state, old) == 2 * n
            # the masses mass_in_place takes of a state are its old masses
            evaluated.clear()
            model.mass_in_place(state)
            assert sum(evaluated) == n
            assert cells_evaluated(old, state) == n
            evaluated.clear()
            model.mass_in_place(state)
            assert sum(evaluated) == 0

    @pytest.mark.parametrize("kind", ["two_phase", "black_oil"])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("fill", ["assembly", "mass_in_place"])
    def test_kept_old_masses_change_no_byte(self, kind, workers, fill, monkeypatch):
        # a model that keeps the old state's masses, filled by an assembly
        # or by mass_in_place, assembles byte for byte what a new model
        # does, at a first dt and at a cut retry's
        model, state, old, wells = two_wells_model(kind, 34, (13, 7, 2))
        monkeypatch.setattr(model_module, "MIN_CELLS", 1)
        monkeypatch.setattr(model_module, "PASS_ROWS", 7 * (2 + model.m))

        def cold():
            return ReservoirModel(model.grid, model.rock, model.fluid)

        # mass_in_place gives the bits of one whole-grid evaluation
        props = model._props(old, False)
        whole = {c: model.grid.cell_volume * float(np.sum(mass.v))
                 for c, mass in model._masses(props, model._phi(props)).items()}
        with WorkerPool(workers) as pool:
            pool = pool if workers > 1 else None
            if fill == "assembly":
                model.assemble_residual(state, old, 2.0, wells, pool=pool)
            assert model.mass_in_place(old) == whole
            for dt in (2.0, 1.0):
                jac = model.assemble_jacobian(state, old, dt, wells, pool=pool)
                res = model.assemble_residual(state, old, dt, wells, pool=pool)
                ref = cold().assemble_jacobian(state, old, dt, wells, pool=pool)
                assert jacobian_bytes(jac) == jacobian_bytes(ref)
                assert res.tobytes() == \
                    cold().assemble_residual(state, old, dt, wells, pool=pool).tobytes()

    def test_jacobian_temporaries_per_cell(self):
        # a 48,000-cell grid spans several default passes; what one Jacobian
        # assembly allocates beyond the arrays it returns (and the CSR pattern
        # the first one builds) is the property table, 144 bytes a cell for
        # two-phase, plus one pass's bundles: 263 bytes a cell here, against
        # 841 when one range evaluated all its cells at once
        rng = np.random.default_rng(33)
        model = random_two_phase_model(rng, shape=(60, 40, 20))
        state = random_two_phase_state(rng, model)
        old = state.copy()
        old.s_w = np.clip(state.s_w - 0.05, 0, 1)
        model.assemble_jacobian(state, old, 1.0, [])
        tracemalloc.start()
        try:
            a = model.assemble_jacobian(state, old, 1.0, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(x.nbytes for x in (a.b, a.stencil, a.cw_blocks, a.wc_blocks, a.ww))
        assert (peak - kept) / model.grid.ncell < 400

    def test_mass_in_place_temporaries_per_cell(self):
        # mass_in_place evaluates a new state in passes of PASS_ROWS // 2
        # cells and keeps its (m, ncell) masses, 16 bytes a cell for
        # two-phase; beyond those it allocates one pass's bundles: 68 bytes
        # a cell here, against 184 when it evaluated the whole grid at once
        rng = np.random.default_rng(33)
        model = random_two_phase_model(rng, shape=(60, 40, 20))
        state = random_two_phase_state(rng, model)
        tracemalloc.start()
        try:
            model.mass_in_place(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = model._state_masses(state).nbytes
        assert (peak - kept) / model.grid.ncell < 80

    @pytest.mark.parametrize("kind", ["two_phase", "black_oil"])
    @pytest.mark.parametrize("take", ["assemble_residual", "mass_in_place"])
    def test_a_kept_state_cannot_be_written_in_place(self, kind, take):
        # the model keeps a state's masses by the identity of its arrays, so
        # writing into them would leave stale masses: the write raises
        model, state, old, wells = two_wells_model(kind, 35, (13, 7, 2))
        if take == "mass_in_place":
            model.mass_in_place(old)
        else:
            model.assemble_residual(state, old, 2.0, wells)
        fields = [old.p_o, old.s_w] + ([old.x3, old.sat] if kind == "black_oil" else [])
        for x in fields:
            with pytest.raises(ValueError, match="read-only"):
                x[0] = x[1]
        # the new state and a copy of the old one stay writable
        state.p_o[0] = old.copy().p_o[0] = 1.0
        old.p_h[0] = 1.0


class TestResidualMatchesJacobianRhs:
    """The value-only and the derivative branch of the flux give one residual."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind, seed", [("two_phase", 3), ("two_phase", 4),
                                            ("black_oil", 5), ("black_oil", 6)])
    def test_residual_is_minus_b_bytewise(self, kind, seed, workers, monkeypatch):
        rng = np.random.default_rng(seed)
        if kind == "two_phase":
            model = random_two_phase_model(rng, capillary=True)
            state = random_two_phase_state(rng, model, nwell=1)
        else:
            model = random_black_oil_model(rng)
            state = random_black_oil_state(rng, model, nwell=1)
        old = state.copy()
        old.p_o = state.p_o + 50.0 * rng.standard_normal(27)
        old.s_w = np.clip(state.s_w - 0.05, 0, 1)
        w = resim.Well("P", constraint=resim.Constraint("bhp", 3500.0), slot=0)
        resim.complete_vertical(w, model.grid, model.rock, [4, 13, 22])
        monkeypatch.setattr(model_module, "MIN_CELLS", 1)
        with WorkerPool(workers) as pool:
            pool = pool if workers > 1 else None
            jac = model.assemble_jacobian(state, old, 2.0, [w], pool=pool)
            res = model.assemble_residual(state, old, 2.0, [w], pool=pool)
        assert res.tobytes() == (-jac.b).tobytes()
