import itertools

import numpy as np
import pytest

import resim
from resim import nonlinear
from resim.driver import load_deck, run_simulation
from resim.linear import AmgHierarchy, BlockMatrix, SolverConfig
from resim.model import AssemblyError, ReservoirModel, ReservoirState
from resim.nonlinear import (FORCING_RULES, NewtonConfig, StepController, ForcingHistory,
                             forcing_term, newton_step, advance_timestep,
                             apply_update, extrapolated_start, SimulationAbort,
                             NewtonIterLog, RunReport, StepRecord)
from resim.parallel import PooledMatvec, det_norm
from conftest import (deck_path, two_phase_fluid, black_oil_fluid, random_black_oil_model,
                      random_black_oil_state)
from test_linear import random_block_matrix


def waterflood_setup(nx=40, mu=1.0, c=0.0, rate=100.0):
    g = resim.Grid(nx, 1, 1, 10.0, 10.0, 10.0)
    rock = resim.RockFields.uniform(g, 100.0, 0.2)
    fluid = two_phase_fluid(mu_w=mu, mu_o=mu, c=c)
    model = ReservoirModel(g, rock, fluid)
    inj = resim.Well("I", kind="injector", inj_phase="w",
                     constraint=resim.Constraint("water_rate", rate), slot=0)
    resim.complete_vertical(inj, g, rock, [0])
    prod = resim.Well("P", constraint=resim.Constraint("bhp", 3000.0), slot=1)
    resim.complete_vertical(prod, g, rock, [nx - 1])
    state = ReservoirState(np.full(g.ncell, 3000.0), np.full(g.ncell, 0.2),
                           p_h=np.array([3100.0, 3000.0]))
    return model, state, [inj, prod]


class TestForcingTerm:
    def cfg(self, **kw):
        return NewtonConfig(**kw)

    def test_rule_c_direct_substitution(self):
        cfg = self.cfg(gamma=1.0, beta=2.0, theta_min=1e-4)
        h = ForcingHistory(b_norm=0.1, b_prev_norm=1.0, r_prev_norm=0.0,
                           b_minus_r_prev_norm=0.0)
        assert forcing_term("eq13_c", h, cfg) == pytest.approx(0.01)
        # below theta_min: clamped
        h2 = ForcingHistory(b_norm=1e-4, b_prev_norm=1.0, r_prev_norm=0.0,
                            b_minus_r_prev_norm=0.0)
        assert forcing_term("eq13_c", h2, cfg) == cfg.theta_min

    def test_rule_b_zero_linear_residual(self):
        cfg = self.cfg()
        h = ForcingHistory(b_norm=0.4, b_prev_norm=2.0, r_prev_norm=0.0,
                           b_minus_r_prev_norm=0.4)
        assert forcing_term("eq13_b", h, cfg) == pytest.approx(0.4 / 2.0)

    def test_rule_b_absolute_value(self):
        cfg = self.cfg()
        h = ForcingHistory(b_norm=0.1, b_prev_norm=1.0, r_prev_norm=0.5,
                           b_minus_r_prev_norm=0.0)
        assert forcing_term("eq13_b", h, cfg) == pytest.approx(0.4)

    @pytest.mark.parametrize("rule", ["eq13_a", "eq13_b", "eq13_c"])
    def test_rules_match_scripted_evaluation_of_logged_norms(self, rule):
        # every theta the waterflood run actually used is recomputed from the
        # logged norm history by an independent evaluation of the formula
        model, state, wells = waterflood_setup()
        ncfg = NewtonConfig(forcing_rule=rule, tol=1e-6, mb_tol=0.0)
        ctl = StepController(dt_init=0.5, dt_max=0.5)
        _, rec = advance_timestep(model, state, 0.5, wells, ncfg, SolverConfig(), ctl)
        logged = [e for e in rec.newton_log if e.forcing is not None]
        assert len(logged) >= 2
        for e in logged:
            h = e.forcing
            if rule == "eq13_a":
                raw = h.b_minus_r_prev_norm / h.b_prev_norm
            elif rule == "eq13_b":
                raw = abs(h.b_norm - h.r_prev_norm) / h.b_prev_norm
            else:
                raw = ncfg.gamma * (h.b_norm / h.b_prev_norm) ** ncfg.beta
            expected = min(max(raw, ncfg.theta_min), ncfg.theta_max)
            assert e.theta_rule == pytest.approx(expected, rel=1e-12)
            assert e.theta <= e.theta_rule + 1e-15

    def test_clamped_to_safeguards(self):
        cfg = self.cfg(theta_min=1e-3, theta_max=0.5)
        h = ForcingHistory(b_norm=10.0, b_prev_norm=1.0, r_prev_norm=0.0,
                           b_minus_r_prev_norm=100.0)
        for rule in ("eq13_a", "eq13_b", "eq13_c"):
            assert forcing_term(rule, h, cfg) == 0.5
        h0 = ForcingHistory(b_norm=0.0, b_prev_norm=0.0, r_prev_norm=0.0,
                            b_minus_r_prev_norm=0.0)
        for rule in ("eq13_a", "eq13_b", "eq13_c"):
            assert forcing_term(rule, h0, cfg) == 0.5

    def test_fixed_rule(self):
        cfg = self.cfg(theta_fixed=1e-3, theta_min=1e-6)
        h = ForcingHistory(1.0, 1.0, 1.0, 1.0)
        assert forcing_term("fixed", h, cfg) == pytest.approx(1e-3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(theta_min=0.5, theta_max=0.4)
        with pytest.raises(ValueError):
            NewtonConfig(gamma=1.5)
        with pytest.raises(ValueError):
            NewtonConfig(beta=2.5)
        with pytest.raises(ValueError):
            NewtonConfig(forcing_rule="nope")
        for theta0 in (0.0, 1.0, 5.0):
            with pytest.raises(ValueError, match="theta0 must be in"):
                NewtonConfig(theta0=theta0)
        with pytest.raises(ValueError):
            StepController(growth=0.9)


class TestNewtonStep:
    def test_inner_contract(self):
        model, state, wells = waterflood_setup()
        st = state.copy()
        st.t = 0.5
        theta = 0.05
        rec = StepRecord()
        out = newton_step(model, st, state, 0.5, wells, NewtonConfig(),
                          SolverConfig(), theta, None, None, rec)
        assert len(out) == 3
        (entry,) = rec.newton_log
        assert entry.status == "converged" and entry.first
        # the iteration's hierarchy is kept on the Jacobian's pattern
        assert isinstance(model._pattern.amg, AmgHierarchy)
        assert entry.lhs_norm <= theta * entry.b_norm * (1 + 1e-12)
        assert entry.restarts == 0

    def test_true_residual_miss_restarts_bicgstab(self, monkeypatch):
        # the first solve reports convergence with a dx whose true residual
        # misses theta: BiCGSTAB goes on from the true residual, once
        model, state, wells = waterflood_setup()
        st = state.copy()
        st.t = 0.5
        theta = 0.05
        calls = []
        solve = nonlinear.bicgstab

        def drifting(a, m, b, tol, max_it):
            x, iters, status = solve(a, m, b, tol, max_it)
            calls.append((iters, max_it))
            return (0.8 * x if len(calls) == 1 else x), iters, status

        monkeypatch.setattr(nonlinear, "bicgstab", drifting)
        rec = StepRecord()
        newton_step(model, st, state, 0.5, wells, NewtonConfig(), SolverConfig(),
                    theta, None, None, rec)
        (entry,) = rec.newton_log
        assert len(calls) == 2 and entry.restarts == 1
        assert calls[1][1] == SolverConfig().max_iterations - calls[0][0]
        assert entry.iterations == calls[0][0] + calls[1][0]
        assert entry.status == "converged"
        assert entry.lhs_norm <= theta * entry.b_norm

    def test_spent_budget_on_true_residual_miss_fails_the_step(self, monkeypatch):
        model, state, wells = waterflood_setup()
        st = state.copy()
        st.t = 0.5
        scfg = SolverConfig()

        def spent(a, m, b, tol, max_it):
            return np.zeros_like(b), max_it, "converged"

        monkeypatch.setattr(nonlinear, "bicgstab", spent)
        rec = StepRecord()
        with pytest.raises(nonlinear._StepFailure, match="inner contract"):
            newton_step(model, st, state, 0.5, wells, NewtonConfig(), scfg, 0.05,
                        None, None, rec)
        # the failed iteration is counted before the raise
        (log_entry,) = rec.newton_log
        assert (rec.newtons, rec.linear_iters) == (1, scfg.max_iterations)
        assert log_entry.restarts == 0 and log_entry.iterations == scfg.max_iterations

    @pytest.mark.parametrize("rule", FORCING_RULES)
    def test_linear_residual_of_the_rules_that_read_it(self, monkeypatch, rule):
        # eq13_a and eq13_b get b - J dx of the step's own Jacobian, byte for
        # byte -f - J dx; the other rules get None
        model, state, wells = waterflood_setup(nx=6)
        st = state.copy()
        st.t = 0.5
        steps, update = [], nonlinear.apply_update

        def kept(state, dx, model):
            steps.append(dx.copy())
            return update(state, dx, model)

        monkeypatch.setattr(nonlinear, "apply_update", kept)
        _, r_prev, _ = newton_step(model, st, state, 0.5, wells,
                                   NewtonConfig(forcing_rule=rule), SolverConfig(),
                                   0.05, None, None, StepRecord())
        if rule not in ("eq13_a", "eq13_b"):
            assert r_prev is None
            return
        (dx,) = steps
        f = model.assemble_residual(st, state, 0.5, wells)
        jac = model.assemble_jacobian(st, state, 0.5, wells)
        assert r_prev.tobytes() == (-f - jac.to_csr() @ dx).tobytes()

    @pytest.mark.parametrize("rule", ["eq13_b", "eq13_c"])
    def test_timers_span_exactly_the_layer_calls(self, monkeypatch, rule):
        # a clock that ticks once per call of the layers and of the work
        # around them: the step's assembly and solve times are exactly the
        # ticks inside the assembly and solve layers, the solve's restarts
        # included, and not those of the coarse matrix, the true-residual
        # products and norms or the eq13 product
        ticks = {"assembly_time": 0.0, "solve_time": 0.0}
        clock = {"now": 0.0, "layer": None}

        def tick(owner, name, layer=None):
            fn = getattr(owner, name)

            def ticking(*args, **kwargs):
                outer = layer is not None and clock["layer"] is None
                if outer:
                    clock["layer"], t0 = layer, clock["now"]
                try:
                    return fn(*args, **kwargs)
                finally:
                    clock["now"] += 1.0
                    if outer:
                        ticks[layer] += clock["now"] - t0
                        clock["layer"] = None

            monkeypatch.setattr(owner, name, ticking)

        solve, budget = nonlinear.bicgstab, SolverConfig().max_iterations

        def drifting(a, m, b, tol, max_it):
            # each Newton iteration's first solve misses and is restarted
            x, iters, status = solve(a, m, b, tol, max_it)
            return (0.8 * x if max_it == budget else x), iters, status

        monkeypatch.setattr(nonlinear, "bicgstab", drifting)
        for owner, name in ((nonlinear, "decouple"), (BlockMatrix, "to_csr"),
                            (nonlinear, "make_preconditioner"), (nonlinear, "bicgstab")):
            tick(owner, name, "solve_time")
        for name in ("assemble_residual", "assemble_jacobian"):
            tick(ReservoirModel, name, "assembly_time")
        for owner, name in ((nonlinear, "_coarse_matrix"), (nonlinear, "det_norm"),
                            (PooledMatvec, "__call__")):
            tick(owner, name)
        monkeypatch.setattr(nonlinear.time, "perf_counter", lambda: clock["now"])
        model, state, wells = waterflood_setup(nx=6)
        _, rec = advance_timestep(model, state, 0.5, wells,
                                  NewtonConfig(forcing_rule=rule, tol=1e-6),
                                  SolverConfig(), StepController(dt_init=0.5, dt_max=0.5))
        assert rec.newtons >= 2 and all(e.restarts for e in rec.newton_log)
        assert clock["now"] > ticks["assembly_time"] + ticks["solve_time"]
        assert (rec.assembly_time, rec.solve_time) == (ticks["assembly_time"],
                                                       ticks["solve_time"])

    def test_saturation_clamp(self):
        model, state, wells = waterflood_setup()
        n = model.grid.ncell
        st = state.copy()
        st.s_w = np.full(n, 0.95)
        dx = np.zeros(n * 2 + 2)
        dx[1::2][: n] = 0.10  # drives s_w to 1.05
        new, chops = apply_update(st, dx, model)
        assert np.all(new.s_w == 1.0) and chops == 0

    def test_local_damping_clamps(self):
        model, state, wells = waterflood_setup()
        n = model.grid.ncell
        dx = np.zeros(n * 2 + 2)
        dx[3] = -0.9     # saturation update below -_MAX_DS
        dx[5] = 0.25     # and above it
        dx[7] = 0.2      # at it: not cut
        new, chops = apply_update(state, dx, model)
        assert new.s_w[1] - state.s_w[1] == pytest.approx(-0.2)
        assert new.s_w[2] - state.s_w[2] == pytest.approx(0.2)
        assert new.s_w[3] - state.s_w[3] == pytest.approx(0.2)
        assert chops == 2

    def test_pressure_updates_applied_in_full(self):
        # undersaturated black-oil cell 0: p_o and p_b take their whole
        # update while s_w is chopped; saturated cell 1's s_g is chopped too
        g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
        model = ReservoirModel(g, resim.RockFields.uniform(g, 100.0, 0.2),
                               black_oil_fluid())
        st = ReservoirState(np.array([4000.0, 4000.0]), np.array([0.3, 0.3]),
                            x3=np.array([3000.0, 0.05]), sat=np.array([False, True]),
                            p_h=np.zeros(0))
        dx = np.zeros(6)
        dx[:3] = 5000.0, -0.9, 2000.0
        dx[5] = 0.5
        new, chops = apply_update(st, dx, model)
        assert new.p_o[0] == 9000.0 and new.x3[0] == 5000.0 and not new.sat[0]
        assert new.s_w[0] == pytest.approx(0.1)
        assert new.sat[1] and new.x3[1] == pytest.approx(0.25)
        assert chops == 2

    def test_quadratic_zone_single_cell(self):
        # smooth 1-cell compressible problem, theta fixed at 1e-10: Newton
        # errors against a high-precision solve of the same problem contract
        # quadratically
        g = resim.Grid(1, 1, 1, 10.0, 10.0, 10.0)
        rock = resim.RockFields.uniform(g, 100.0, 0.2)
        fluid = two_phase_fluid(c=1e-5)
        model = ReservoirModel(g, rock, fluid)
        w = resim.Well("I", kind="injector", inj_phase="w",
                       constraint=resim.Constraint("water_rate", 50.0), slot=0)
        resim.complete_vertical(w, g, rock, [0])
        old = ReservoirState(np.array([3000.0]), np.array([0.3]),
                             p_h=np.array([3500.0]))
        ncfg = NewtonConfig(tol=1e-13, atol=1e-12, max_newton=60,
                            forcing_rule="fixed", theta_fixed=1e-12,
                            theta_min=1e-13, mb_tol=0.0)
        scfg = SolverConfig(max_iterations=400)
        ref, _ = advance_timestep(model, old, 1.0, [w], ncfg, scfg,
                                  StepController(dt_init=1.0, dt_max=1.0))
        # replay the iteration, recording errors against the reference
        state = old.copy()
        state.t = old.t + 1.0
        errors = []
        for _ in range(6):
            err = abs(state.p_o[0] - ref.p_o[0]) + 1e4 * abs(state.s_w[0] - ref.s_w[0])
            errors.append(err)
            state, _, _ = newton_step(model, state, old, 1.0, [w], ncfg,
                                      scfg, 1e-10, None, None, StepRecord())
            # one cell: the pressure "hierarchy" is a 1 x 1 LU
            assert model._pattern.amg.levels == []
        errors.append(abs(state.p_o[0] - ref.p_o[0]))
        meaningful = [(e1, e2) for e1, e2 in zip(errors, errors[1:])
                      if e1 > 1e-6]
        assert meaningful, "no contraction observed"
        # quadratic zone: e_{l+1} <= C e_l^2 with a generous frozen C
        for e1, e2 in meaningful:
            assert e2 <= 0.1 * e1 * e1 + 1e-12


class TestVariableSwitching:
    def black_oil_model(self):
        g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
        rock = resim.RockFields.uniform(g, 100.0, 0.2)
        return ReservoirModel(g, rock, black_oil_fluid())

    def test_gas_vanishes_switches_to_pb(self):
        model = self.black_oil_model()
        st = ReservoirState(np.array([4000.0, 4000.0]), np.array([0.3, 0.3]),
                            x3=np.array([0.05, 0.2]), sat=np.array([True, True]),
                            p_h=np.zeros(0))
        dx = np.zeros(6)
        dx[2] = -0.1  # drives s_g of cell 0 negative
        new, _ = apply_update(st, dx, model)
        assert not new.sat[0]
        assert new.x3[0] == pytest.approx(new.p_o[0])  # p_b starts at p_o
        assert new.sat[1]

    def test_bubble_point_reached_switches_to_sg(self):
        model = self.black_oil_model()
        st = ReservoirState(np.array([4000.0, 4000.0]), np.array([0.3, 0.3]),
                            x3=np.array([3900.0, 3000.0]),
                            sat=np.array([False, False]), p_h=np.zeros(0))
        dx = np.zeros(6)
        dx[2] = 200.0  # p_b of cell 0 exceeds p_o
        new, _ = apply_update(st, dx, model)
        assert new.sat[0]
        assert new.x3[0] == 0.0  # free gas appears from zero
        assert not new.sat[1]

    def test_pb_capped_at_po(self):
        model = self.black_oil_model()
        st = ReservoirState(np.array([4000.0, 4000.0]), np.array([0.3, 0.3]),
                            x3=np.array([3900.0, 3000.0]),
                            sat=np.array([False, False]), p_h=np.zeros(0))
        dx = np.zeros(6)
        dx[2] = 100.0 + 1e-10  # lands within the switching threshold
        new, _ = apply_update(st, dx, model)
        assert not new.sat[0]
        assert new.x3[0] <= new.p_o[0]


class TestAdvanceTimestep:
    def test_equilibrium_converges_immediately(self):
        g = resim.Grid(3, 3, 1, 10.0, 10.0, 10.0)
        model = ReservoirModel(g, resim.RockFields.uniform(g, 100.0, 0.2),
                               two_phase_fluid())
        st = ReservoirState(np.full(9, 5000.0), np.full(9, 0.4))
        new, stats = advance_timestep(model, st, 10.0, [], NewtonConfig(),
                                      SolverConfig(), StepController(dt_max=10.0))
        assert stats.newtons <= 1
        assert stats.linear_iters == 0
        assert stats.cuts == 0
        assert new.t == pytest.approx(10.0)

    def test_forced_cut_is_recorded_and_retried(self):
        # warm through the injection pressure ramp, then hit a hard step with
        # a starved Newton budget: the controller must cut dt and succeed
        model, state, wells = waterflood_setup(rate=100.0)
        ctl = StepController(dt_init=0.5, dt_max=8.0, cut=0.5, max_cuts=30,
                             dt_min=1e-9)
        st = state
        for _ in range(6):
            st, _ = advance_timestep(model, st, 0.5, wells,
                                     NewtonConfig(tol=1e-4), SolverConfig(), ctl)
        ncfg = NewtonConfig(max_newton=2, tol=1e-4)
        new, stats = advance_timestep(model, st, 8.0, wells, ncfg, SolverConfig(), ctl)
        assert stats.cuts >= 1
        assert stats.dt < 8.0
        assert new.t == pytest.approx(st.t + stats.dt)
        # wasted Newtons from failed attempts are counted
        assert stats.newtons > ncfg.max_newton * 0 + stats.cuts

    def test_saturation_chops_counted_in_cut_attempts(self):
        # a 20-day first step: the cut attempts chop saturation updates in
        # nearly every iteration, and the step sums their counts
        model, state, wells = waterflood_setup()
        ncfg = NewtonConfig()
        _, stats = advance_timestep(model, state, 20.0, wells, ncfg, SolverConfig(),
                                    StepController(dt_init=20.0, dt_max=20.0))
        assert stats.cuts >= 1
        assert sum(e.ds_chops for e in stats.newton_log[:ncfg.max_newton]) > 0
        assert stats.ds_chops == sum(e.ds_chops for e in stats.newton_log)

    def test_failed_iteration_logs_the_forcing_that_chose_theta(self, monkeypatch):
        # the second linear solve, that of the second Newton iteration, breaks
        # down: its log entry still holds the rule's inputs and output
        model, state, wells = waterflood_setup()
        solve, tols = nonlinear.bicgstab, []

        def second_breaks_down(a, m, b, tol, max_it):
            tols.append(tol)
            if len(tols) == 2:
                return np.zeros_like(b), 0, "breakdown"
            return solve(a, m, b, tol, max_it)

        monkeypatch.setattr(nonlinear, "bicgstab", second_breaks_down)
        ncfg = NewtonConfig(tol=1e-6, mb_tol=0.0)
        _, rec = advance_timestep(model, state, 0.5, wells, ncfg, SolverConfig(),
                                  StepController(dt_init=0.5, dt_max=0.5))
        assert rec.cuts == 1
        first, failed = rec.newton_log[:2]
        assert first.restarts == 0 and first.forcing is None
        assert failed.status == "breakdown" and failed.theta == tols[1]
        assert failed.forcing is not None
        assert failed.forcing.b_prev_norm > 0 and failed.forcing.b_norm > 0
        assert failed.theta_rule == forcing_term(ncfg.forcing_rule, failed.forcing, ncfg)
        assert failed.theta <= failed.theta_rule

    def test_dt_collapse_aborts(self):
        model, state, wells = waterflood_setup(rate=400.0)
        ncfg = NewtonConfig(max_newton=1, tol=1e-10)
        ctl = StepController(dt_init=8.0, dt_max=8.0, cut=0.5, max_cuts=3)
        with pytest.raises(SimulationAbort):
            advance_timestep(model, state, 8.0, wells, ncfg, SolverConfig(), ctl)

    def test_rate_constraint_satisfied_at_convergence(self):
        model, state, wells = waterflood_setup(rate=120.0)
        ncfg = NewtonConfig(tol=1e-2)
        new, _ = advance_timestep(model, state, 1.0, wells, ncfg,
                                  SolverConfig(),
                                  StepController(dt_init=1.0, dt_max=1.0))
        f = model.assemble_residual(new, state, 1.0, wells)
        res = f[model.grid.ncell * model.m + wells[0].slot]
        assert abs(res) / 120.0 <= ncfg.tol

    def test_inexactness_pays_at_most_two_extra_newtons(self):
        # eq13_c with gamma=1, beta=2 vs a tight fixed tolerance on the 1-D
        # waterflood; the component-balance check is disabled so this
        # compares the bare Newton loops, and the inexact rule must also not
        # spend more linear work
        totals = {}
        for rule, kw in (("eq13_c", dict(gamma=1.0, beta=2.0)),
                         ("fixed", dict(theta_fixed=1e-8, theta_min=1e-9))):
            model, state, wells = waterflood_setup(nx=40)
            ncfg = NewtonConfig(forcing_rule=rule, tol=1e-2, mb_tol=0.0, **kw)
            ctl = StepController(dt_init=0.5, dt_max=0.5)
            tot = lin = 0
            st = state
            for _ in range(10):
                st, stats = advance_timestep(model, st, 0.5, wells, ncfg,
                                             SolverConfig(), ctl)
                tot += stats.newtons
                lin += stats.linear_iters
            totals[rule] = (tot, lin)
        assert totals["eq13_c"][0] <= totals["fixed"][0] + 2
        assert totals["eq13_c"][1] <= totals["fixed"][1]


def state_bytes(state):
    """Every field of a state as bytes, for bit-for-bit comparisons."""
    return [None if x is None else x.tobytes()
            for x in (state.p_o, state.s_w, state.x3, state.sat, state.p_h)] + [state.t]


def log_entries(rec):
    return [(e.theta, e.b_norm, e.lhs_norm, e.iterations, e.ds_chops)
            for e in rec.newton_log]


def buckley_leverett_history(nsteps):
    """The Buckley-Leverett deck's model, wells and configs, and its first
    ``nsteps`` + 1 states, each step started from the old state."""
    deck = load_deck(deck_path("buckley_leverett.deck"))
    model = ReservoirModel(deck.grid, deck.rock, deck.fluid)
    states = [resim.initial_state(deck)]
    for _ in range(nsteps):
        states.append(advance_timestep(model, states[-1], deck.controller.dt_init,
                                       deck.wells, deck.newton, deck.solver,
                                       deck.controller)[0])
    return model, deck, states


class TestExtrapolatedStart:
    def test_two_phase_formula(self):
        prev = ReservoirState(np.array([3000.0, 3100.0, 3200.0]),
                              np.array([0.30, 0.50, 0.90]),
                              p_h=np.array([3500.0, 2900.0]), t=1.0)
        old = ReservoirState(np.array([3010.0, 3080.0, 3200.0]),
                             np.array([0.20, 0.60, 0.95]),
                             p_h=np.array([3520.0, 2890.0]), t=1.5)
        guess = extrapolated_start(old, prev, 1.0)      # dt / dt_prev = 2
        np.testing.assert_array_equal(guess.p_o, [3030.0, 3040.0, 3200.0])
        np.testing.assert_array_equal(guess.p_h, [3560.0, 2870.0])
        # s_w 0.0 and 1.05 are clipped into [0, 1]
        np.testing.assert_allclose(guess.s_w, [0.0, 0.8, 1.0], rtol=0, atol=1e-15)
        assert guess.x3 is None and guess.sat is None
        assert guess.t == 2.5

    def test_black_oil_formula(self):
        # sat: (prev, old) per cell
        prev_sat = np.array([1, 1, 1, 0, 0, 0, 1], bool)
        old_sat = np.array([1, 1, 1, 0, 0, 1, 0], bool)
        prev = ReservoirState(np.full(7, 3000.0), np.full(7, 0.4),
                              np.array([0.10, 0.30, 0.30, 2500.0, 2900.0, 2950.0, 0.05]),
                              prev_sat, np.array([3100.0]), t=2.0)
        old = ReservoirState(np.full(7, 3000.0) - [0, 0, 0, 0, 50, 0, 0], np.full(7, 0.4),
                             np.array([0.20, 0.50, 0.10, 2600.0, 2940.0, 0.15, 2990.0]),
                             old_sat, np.array([3100.0]), t=3.0)
        guess = extrapolated_start(old, prev, 1.0)      # dt / dt_prev = 1
        np.testing.assert_array_equal(guess.sat, old_sat)
        np.testing.assert_array_equal(guess.p_o, [3000.0] * 4 + [2900.0, 3000.0, 3000.0])
        np.testing.assert_allclose(guess.x3, [
            0.30,      # saturated in both: s_g extrapolated
            0.60,      # s_g 0.7 kept at 1 - s_w
            0.0,       # s_g -0.1 kept at 0
            2700.0,    # undersaturated in both: p_b extrapolated
            2900.0,    # p_b 2980 kept at the new p_o 2900
            0.15,      # became saturated: s_g held
            2990.0],   # became undersaturated: p_b held
            rtol=0, atol=1e-12)
        assert guess.sat is not old.sat

    @pytest.mark.parametrize("kind", ["two_phase", "black_oil"])
    def test_inputs_left_bit_identical(self, kind):
        rng = np.random.default_rng(7)
        if kind == "black_oil":
            model = random_black_oil_model(rng)
            prev, old = (random_black_oil_state(rng, model, nwell=2) for _ in range(2))
        else:
            model, old, _ = waterflood_setup()
            prev = ReservoirState(old.p_o + rng.standard_normal(old.p_o.size),
                                  rng.uniform(0.2, 0.8, old.s_w.size), p_h=old.p_h - 5.0)
        prev.t, old.t = 1.0, 2.0
        before = [state_bytes(prev), state_bytes(old)]
        # kept states are read-only: a write into them would raise
        for st in (prev, old):
            for x in (st.p_o, st.s_w, st.x3, st.sat, st.p_h):
                if x is not None:
                    x.flags.writeable = False
        guess = extrapolated_start(old, prev, 3.0)
        assert [state_bytes(prev), state_bytes(old)] == before
        for x in (guess.p_o, guess.s_w, guess.x3, guess.sat, guess.p_h):
            if x is not None:
                assert x.flags.writeable
                assert not any(np.shares_memory(x, y) for st in (prev, old)
                               for y in (st.p_o, st.s_w, st.x3, st.sat, st.p_h)
                               if y is not None)

    def test_no_guess_without_a_previous_step(self):
        _, old, _ = waterflood_setup()
        old.t = 1.0
        assert extrapolated_start(old, None, 1.0) is None
        for t_prev in (1.0, 1.5):                       # dt_prev = 0 and < 0
            prev = old.copy()
            prev.t = t_prev
            assert extrapolated_start(old, prev, 1.0) is None

    def test_accepted_guess_starts_newton_and_old_target_stops_it(self, monkeypatch):
        model, deck, states = buckley_leverett_history(3)
        prev, old = states[-2:]
        dt = deck.controller.dt_init
        before = [state_bytes(prev), state_bytes(old)]
        norms = []
        assemble = ReservoirModel.assemble_residual

        def recorded(self, *args, **kw):
            f = assemble(self, *args, **kw)
            norms.append(det_norm(f))
            return f

        monkeypatch.setattr(ReservoirModel, "assemble_residual", recorded)
        # a tolerance whose target from the guess's residual would not accept
        # the iterate that meets the one from the old state's
        ncfg = NewtonConfig(tol=0.05, mb_tol=0.0)
        new, rec = advance_timestep(model, old, dt, deck.wells, ncfg, deck.solver,
                                    deck.controller, state_prev=prev)
        assert [state_bytes(prev), state_bytes(old)] == before
        assert rec.extrapolated_starts == 1 and rec.cuts == 0
        # old state, guess, then one residual per Newton iteration
        assert len(norms) == 2 + rec.newtons
        assert norms[1] < norms[0]
        target = ncfg.tol * norms[0]
        assert norms[-1] <= target and all(n > target for n in norms[2:-1])
        assert norms[-1] > ncfg.tol * norms[1]

        # the guess is the start: the first Newton iteration differs from the
        # old-state start's
        _, ref = advance_timestep(model, old, dt, deck.wells, ncfg, deck.solver,
                                  deck.controller)
        assert ref.extrapolated_starts == 0
        assert log_entries(rec)[0] != log_entries(ref)[0]

    def test_rejected_guess_runs_the_old_state_start(self, monkeypatch):
        # on the 40-cell waterflood the guess of the third step has a larger
        # residual than the old state: dropped, at the cost of one assembly
        model, s0, wells = waterflood_setup()
        ncfg, ctl = NewtonConfig(), StepController(dt_init=0.5, dt_max=0.5)
        s1 = advance_timestep(model, s0, 0.5, wells, ncfg, SolverConfig(), ctl)[0]
        s2 = advance_timestep(model, s1, 0.5, wells, ncfg, SolverConfig(), ctl)[0]
        guess = extrapolated_start(s2, s1, 0.5)
        assert det_norm(model.assemble_residual(guess, s2, 0.5, wells)) > \
            det_norm(model.assemble_residual(s2, s2, 0.5, wells))
        calls = []
        assemble = ReservoirModel.assemble_residual
        monkeypatch.setattr(ReservoirModel, "assemble_residual",
                            lambda self, *a, **kw: calls.append(1) or assemble(self, *a, **kw))
        runs = {}
        for prev in (None, s1):
            calls.clear()
            new, rec = advance_timestep(model, s2, 0.5, wells, ncfg, SolverConfig(), ctl,
                                        state_prev=prev)
            runs[prev is None] = (state_bytes(new), log_entries(rec), rec.newtons,
                                  rec.linear_iters, len(calls), rec.extrapolated_starts)
        assert runs[False][:4] == runs[True][:4]
        assert runs[False][4] == runs[True][4] + 1
        assert runs[False][5] == runs[True][5] == 0

    def test_assembly_error_at_the_guess_falls_back_without_a_cut(self, monkeypatch):
        model, deck, states = buckley_leverett_history(2)
        prev, old = states[-2:]
        args = (model, old, deck.controller.dt_init, deck.wells, deck.newton,
                deck.solver, deck.controller)
        ref_new, ref = advance_timestep(*args)
        assemble = ReservoirModel.assemble_residual
        calls = []

        def guess_fails(self, state_new, *a, **kw):
            calls.append(1)
            if len(calls) == 2:                         # the guess's residual
                assert not np.array_equal(state_new.p_o, old.p_o)
                raise AssemblyError("non-finite residual at cell 0")
            return assemble(self, state_new, *a, **kw)

        monkeypatch.setattr(ReservoirModel, "assemble_residual", guess_fails)
        new, rec = advance_timestep(*args, state_prev=prev)
        assert len(calls) >= 2
        assert rec.cuts == 0 and rec.extrapolated_starts == 0 and rec.dt == args[2]
        assert state_bytes(new) == state_bytes(ref_new)
        assert log_entries(rec) == log_entries(ref)


def step_target(model, state_old, dt, wells, ncfg):
    """||F_0|| and the convergence target of a step started from the old
    state, computed as ``_attempt`` computes them."""
    start = state_old.copy()
    start.t = state_old.t + dt
    b_norm0 = det_norm(model.assemble_residual(start, state_old, dt, wells))
    return b_norm0, max(ncfg.tol * b_norm0, ncfg.atol)


def first_solve_cap(model, state_old, dt, wells, ncfg):
    """0.5 target/||F_0|| of a step started from the old state."""
    b_norm0, target = step_target(model, state_old, dt, wells, ncfg)
    return 0.5 * target / b_norm0


def clamp(theta, ncfg):
    return min(max(theta, ncfg.theta_min), ncfg.theta_max)


class TestFirstSolve:
    """theta_0 = max(cap, min(theta0, gamma rho^beta)) with rho known, else
    min(theta0, cap), clamped into [theta_min, theta_max]."""

    def run(self, ncfg, contraction=None, dt=0.5):
        model, state, wells = waterflood_setup()
        ctl = StepController(dt_init=dt, dt_max=dt)
        _, rec = advance_timestep(model, state, dt, wells, ncfg, SolverConfig(), ctl,
                                  contraction=contraction)
        return rec, first_solve_cap(model, state, dt, wells, ncfg)

    @pytest.mark.parametrize("kw", [{}, dict(theta0=1e-3), dict(tol=0.5),
                                    dict(tol=1e-7, theta_min=1e-3)])
    def test_without_contraction_the_cap_is_a_ceiling(self, kw):
        # the formula before rho existed, so a step given no rho runs as it did
        ncfg = NewtonConfig(**kw)
        rec, cap = self.run(ncfg)
        first = rec.newton_log[0]
        assert first.theta == clamp(min(ncfg.theta0, cap), ncfg)
        assert first.theta_rule is None and first.forcing is None
        assert rec.loose_first_solves == 0
        assert rec.contraction is not None and rec.contraction > 0

    # with the defaults (cap 0.005): rho 1e-3 keeps the cap, 0.2 and 0.3 ask
    # for 0.04 and 0.09, and 2.0 for more than theta0
    @pytest.mark.parametrize("rho", [1e-3, 0.2, 0.3, 2.0])
    @pytest.mark.parametrize("kw", [{}, dict(gamma=0.9, beta=1.5),
                                    dict(theta0=0.95, theta_max=0.5)])
    def test_with_contraction_the_cap_is_a_floor(self, rho, kw):
        ncfg = NewtonConfig(**kw)
        rec, cap = self.run(ncfg, contraction=rho)
        first = rec.newton_log[0]
        rule = ncfg.gamma * rho ** ncfg.beta
        assert first.theta_rule == rule
        assert first.theta == clamp(max(cap, min(ncfg.theta0, rule)), ncfg)
        assert rec.loose_first_solves == (first.theta > clamp(cap, ncfg))
        # later iterations keep the cap as a ceiling
        for e in rec.newton_log[1:]:
            assert e.forcing is not None and e.theta <= e.theta_rule

    def test_fixed_rule_ignores_the_contraction(self):
        ncfg = NewtonConfig(forcing_rule="fixed", theta_fixed=1e-3)
        runs = [self.run(ncfg, contraction=rho)[0] for rho in (None, 0.5)]
        assert log_entries(runs[0]) == log_entries(runs[1])
        assert runs[1].newton_log[0].theta_rule is None
        assert runs[1].loose_first_solves == 0

    def test_contraction_is_the_first_iterations_residual_ratio(self, monkeypatch):
        norms = []
        assemble = ReservoirModel.assemble_residual

        def recorded(self, *args, **kw):
            f = assemble(self, *args, **kw)
            norms.append(det_norm(f))
            return f

        monkeypatch.setattr(ReservoirModel, "assemble_residual", recorded)
        rec, _ = self.run(NewtonConfig())
        # the old state's residual, then the first Newton iterate's
        assert rec.contraction == norms[1] / norms[0]

    def test_retry_after_a_cut_takes_the_cut_attempts_contraction(self, monkeypatch):
        # a 20-day first step on the waterflood is cut: each attempt gets the
        # rho of the attempt before it, and the first gets the one given
        calls = []
        attempt = nonlinear._attempt

        def spy(*args):
            rec, given = args[8], args[-1]
            try:
                return attempt(*args)
            finally:
                calls.append((given, rec.contraction, len(rec.newton_log)))

        monkeypatch.setattr(nonlinear, "_attempt", spy)
        ncfg = NewtonConfig()
        rec, _ = self.run(ncfg, contraction=None, dt=20.0)
        assert rec.cuts >= 1 and len(calls) == rec.cuts + 1
        assert calls[0][0] is None
        for (_, rho, _), (given, _, _) in zip(calls, calls[1:]):
            assert rho is not None and given == rho
        assert rec.contraction == calls[-1][1]
        # each retry's first log entry holds the cut attempt's gamma rho^beta
        starts = [0] + [n for _, _, n in calls[:-1]]
        assert rec.newton_log[0].theta_rule is None
        for start, (given, _, _) in zip(starts[1:], calls[1:]):
            assert rec.newton_log[start].theta_rule == ncfg.gamma * given ** ncfg.beta


def scripted_attempt(monkeypatch, ncfg, norms, chops=()):
    """``_attempt`` on the waterflood with its Newton updates and residuals
    scripted: ``norms`` are the residual norms of the old state and then of
    each iterate, each as (norm, row), where row "well" puts it in a well row
    (no component imbalance) and "cell" in a water row (an imbalance the
    mass check sees); update l chops ``chops[l]`` cells (default none), and
    no coarse correction is kept.  Returns the step's record."""
    model, state, wells = waterflood_setup()
    n = model.grid.ncell * model.m
    script = iter(norms)

    def residual(self, *args, **kw):
        norm, row = next(script)
        f = np.zeros(n + len(wells))
        f[0 if row == "cell" else n] = norm
        return f

    def update(model, state, state_old, dt, wells, ncfg, scfg, theta, forcing, theta_rule,
               rec, floored=False, fresh=True, **kw):
        l = len(rec.newton_log)
        rec.newton_log.append(NewtonIterLog(theta, 0.0, 0.0, 1, "converged", forcing,
                                            theta_rule, 0, chops[l] if l < len(chops) else 0,
                                            floored, fresh))
        return state, None, None

    monkeypatch.setattr(ReservoirModel, "assemble_residual", residual)
    monkeypatch.setattr(nonlinear, "newton_step", update)
    monkeypatch.setattr(nonlinear, "_coarse_correction", lambda *args: None)
    rec = StepRecord()
    nonlinear._attempt(model, state, 0.5, wells, ncfg, SolverConfig(), None, None, rec)
    assert next(script, None) is None
    return rec


def floor_conditions(e, prev, target):
    """Whether the termination floor's three conditions hold at logged
    iteration ``e`` >= 1, ``prev`` the one before it."""
    b, b_prev = e.forcing.b_norm, e.forcing.b_prev_norm
    return b > target and prev.ds_chops == 0 and b * (b / b_prev) <= 0.5 * target


class TestTerminationFloor:
    """At iterations l >= 1 under every rule but fixed, theta is the cap
    0.5 target/||F_l|| also from below when ||F_l|| > target, update l - 1
    chopped no cell and ||F_l||^2/||F_{l-1}|| <= 0.5 target."""

    # ||F_0|| = 1000, so the target is 10.  ||F_2|| = 20 after 100: the
    # contraction 0.2 predicts 4 <= 5, so iteration 2 takes the cap 0.25
    # over eq13_c's 0.04
    CONTRACTS = [(1000, "well"), (100, "well"), (20, "well"), (5, "well")]

    @pytest.mark.parametrize("kw, norms, chops, thetas, floored", [
        pytest.param({}, CONTRACTS, (), [0.005, 0.01, 0.25], [False, False, True],
                     id="floor"),
        pytest.param({}, CONTRACTS, (0, 3), [0.005, 0.01, 0.04], [False] * 3, id="chopped"),
        # 25 after 100 predicts 6.25 > 5
        pytest.param({}, [(1000, "well"), (100, "well"), (25, "well"), (5, "well")], (),
                     [0.005, 0.01, 0.0625], [False] * 3, id="slow"),
        # 8 meets the target but not the mass check: iteration 2 keeps the
        # cap 0.625 as a ceiling only, though 8 after 100 predicts 0.64 <= 5
        pytest.param({}, [(1000, "well"), (100, "well"), (8, "cell"), (4, "well")], (),
                     [0.005, 0.01, 0.0064], [False] * 3, id="met"),
        pytest.param(dict(forcing_rule="fixed", theta_fixed=1e-3), CONTRACTS, (),
                     [0.005, 1e-3, 1e-3], [False] * 3, id="fixed"),
        # eq13_a reads b - J dx, which the scripted updates leave out: theta_min
        pytest.param(dict(forcing_rule="eq13_a"), CONTRACTS, (), [0.005, 1e-4, 0.25],
                     [False, False, True], id="eq13_a"),
        pytest.param(dict(theta_max=0.2), CONTRACTS, (), [0.005, 0.01, 0.2],
                     [False, False, True], id="ceiling"),
        # theta_min lifts eq13_c's 0.04 to the clamped cap: nothing to raise
        pytest.param(dict(theta_min=0.3), CONTRACTS, (), [0.3, 0.3, 0.3], [False] * 3,
                     id="clamped"),
    ])
    def test_floor_only_under_its_three_conditions(self, monkeypatch, kw, norms, chops,
                                                   thetas, floored):
        rec = scripted_attempt(monkeypatch, NewtonConfig(**kw), norms, chops)
        assert [e.theta for e in rec.newton_log] == pytest.approx(thetas, rel=1e-12)
        assert [e.floored for e in rec.newton_log] == floored
        assert rec.floored_solves == sum(floored)
        # only the attempt's first iteration sets the AMG hierarchy up afresh
        assert [e.first for e in rec.newton_log] == [True, False, False]

    def run_steps(self, ncfg, nsteps=10):
        """The Buckley-Leverett deck's first steps under ``ncfg``, each from the
        old state; yields each step's record and target."""
        deck = load_deck(deck_path("buckley_leverett.deck"))
        model = ReservoirModel(deck.grid, deck.rock, deck.fluid)
        state, dt = resim.initial_state(deck), deck.controller.dt_init
        for _ in range(nsteps):
            target = step_target(model, state, dt, deck.wells, ncfg)[1]
            state, rec = advance_timestep(model, state, dt, deck.wells, ncfg, deck.solver,
                                          deck.controller)
            assert rec.cuts == 0
            yield rec, target

    @pytest.mark.parametrize("rule", ["eq13_b", "eq13_c"])
    def test_logged_thetas_follow_the_floor(self, rule):
        floors = 0
        ncfg = NewtonConfig(forcing_rule=rule)
        for rec, target in self.run_steps(ncfg):
            for prev, e in zip(rec.newton_log, rec.newton_log[1:]):
                cap = 0.5 * target / e.forcing.b_norm
                ceiling = clamp(min(e.theta_rule, cap), ncfg)
                if floor_conditions(e, prev, target):
                    assert e.theta == clamp(cap, ncfg)
                    assert e.floored == (e.theta > ceiling)
                else:
                    assert e.theta == ceiling and not e.floored
            assert rec.floored_solves == sum(e.floored for e in rec.newton_log)
            floors += rec.floored_solves
        assert floors > 0

    def test_fixed_runs_keep_the_ceiling(self):
        # theta = min(theta_fixed, cap), clamped, at every iteration l >= 1,
        # also where the floor's conditions hold
        ncfg = NewtonConfig(forcing_rule="fixed", theta_fixed=1e-3)
        held = 0
        for rec, target in self.run_steps(ncfg):
            for prev, e in zip(rec.newton_log, rec.newton_log[1:]):
                cap = 0.5 * target / e.forcing.b_norm
                assert e.theta == clamp(min(ncfg.theta_fixed, cap), ncfg)
                assert not e.floored
                held += floor_conditions(e, prev, target)
            assert rec.floored_solves == 0
        assert held > 0


class TestRunReport:
    def make_report(self):
        rep = RunReport(workers=8)
        rep.steps = [
            StepRecord(step=1, t=1.0, dt=1.0, newtons=3, linear_iters=30,
                       cuts=0, wall_time=1.5, assembly_time=0.5, solve_time=0.9),
            StepRecord(step=2, t=3.0, dt=2.0, newtons=5, linear_iters=80,
                       cuts=1, wall_time=2.5, assembly_time=0.7, solve_time=1.6),
        ]
        return rep

    def test_totals_are_sums(self):
        rep = self.make_report()
        assert rep.n_steps == 2
        assert rep.n_newton == 8
        assert rep.n_solver == 110
        assert rep.n_cuts == 1
        assert rep.avg_solver == pytest.approx(110 / 8)
        assert rep.total_time == pytest.approx(4.0)
        assert rep.avg_time == pytest.approx(0.5)

    def test_correction_totals_leave_the_table_alone(self):
        rep = self.make_report()
        table = rep.format_table()
        rep.steps[0].corrections_tried, rep.steps[0].corrections_kept = 3, 2
        rep.steps[1].corrections_tried = 1
        assert (rep.n_corrections_tried, rep.n_corrections_kept) == (4, 2)
        assert rep.format_table() == table

    def test_rounding_of_reference_row(self):
        # 7189 / 298 = 24.12... printed as 24.1
        rep = RunReport(workers=8)
        rep.steps = [StepRecord(step=1, t=1.0, dt=1.0, newtons=298,
                                linear_iters=7189, cuts=0, wall_time=27525.6,
                                assembly_time=0.0, solve_time=0.0)]
        table = rep.format_table()
        row = table.splitlines()[1]
        assert "24.1" in row
        assert "298" in row and "7189" in row
        assert abs(7189 / 298 - 24.1) < 0.05

    def test_cut_annotation(self):
        rep = self.make_report()
        assert rep.steps_cell() == "2(1)"
        rep.steps[1].cuts = 0
        assert rep.steps_cell() == "2"

    def test_csv_roundtrip(self, tmp_path):
        import csv

        rep = self.make_report()
        rep.steps[0].mass_in_place = {"w": 1.0, "o": 2.0}
        rep.steps[1].mass_in_place = {"w": 1.5, "o": 1.5}
        rep.steps[1].ds_chops = 7
        rep.steps[0].extrapolated_starts = 2
        rep.steps[1].loose_first_solves = 3
        rep.steps[0].floored_solves = 4
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        rows = list(csv.reader(open(path)))
        assert rows[0][:4] == ["step", "t_days", "dt_days", "newtons"]
        assert len(rows) == 3
        assert float(rows[1][1]) == 1.0
        # appended in this order, after pivot_shifts
        assert [r[-4] for r in rows] == ["ds_chops", "0", "7"]
        assert [r[-3] for r in rows] == ["extrapolated_starts", "2", "0"]
        assert [r[-2] for r in rows] == ["loose_first_solves", "0", "3"]
        assert [r[-1] for r in rows] == ["floored_solves", "4", "0"]


def coarse_reference(a: BlockMatrix) -> np.ndarray:
    """Z^T J W from the dense matrix: Z = W sums each cell unknown over all
    cells and takes each well unknown."""
    n, m, nwell = a.ncell, a.m, a.nwell
    z = np.zeros((a.nunk, m + nwell))
    z[np.arange(n * m), np.tile(np.arange(m), n)] = 1.0
    z[n * m + np.arange(nwell), m + np.arange(nwell)] = 1.0
    return z.T @ a.to_csr().toarray() @ z


class TestCoarseCorrection:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("nwell", [0, 1, 2])
    def test_coarse_matrix_is_galerkin_product(self, m, nwell):
        rng = np.random.default_rng(10 * m + nwell)
        a = random_block_matrix(rng, shape=(4, 3, 2), m=m, nwell=nwell)
        if nwell:
            # a second perforation of well 0, so a well sums several blocks
            extra = next(c for c in range(a.ncell) if c not in a.cw_cells)
            a = BlockMatrix(a.shape, m, a.stencil,
                            np.append(a.cw_cells, extra), np.append(a.cw_well, 0),
                            np.column_stack([a.cw_blocks, rng.standard_normal(m)]),
                            np.column_stack([a.wc_blocks, rng.standard_normal(m)]), a.ww)
        g = nonlinear._coarse_matrix(a)
        ref = coarse_reference(a)
        assert g.shape == (m + nwell, m + nwell)
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_kept_corrections_meet_the_targets(self, monkeypatch, tmp_path):
        # every kept correction meets the residual target and shrinks the
        # worst component imbalance; nearly all also meet the mass check (on
        # this deck 118 of 120, and the other two are corrected again)
        kept = []
        correct = nonlinear._coarse_correction
        deck = load_deck(deck_path("buckley_leverett.deck"))

        def checked(model, state, state_old, dt, wells, f, g, target, pool, stats):
            out = correct(model, state, state_old, dt, wells, f, g, target, pool, stats)
            if out is not None:
                mass = model.mass_in_place(state_old)
                tol = deck.newton.resolved_mb_tol(model.fluid.kind)

                def imbalance(ff):
                    sums = nonlinear._component_sums(ff, model)
                    return max(abs(v) * dt / max(mass[c], 1.0) for c, v in sums.items()), \
                        nonlinear._mb_converged(sums, dt, mass, tol)

                # the residual of the kept state, assembled afresh
                f_kept = model.assemble_residual(out[0], state_old, dt, wells)
                kept.append((det_norm(f_kept), out[2], target,
                             imbalance(f)[0], *imbalance(f_kept)))
            return out

        monkeypatch.setattr(nonlinear, "_coarse_correction", checked)
        report = run_simulation(deck, output_dir=str(tmp_path))
        assert kept and report.n_corrections_kept == len(kept)
        assert report.n_corrections_tried >= len(kept)
        for norm, reported, target, before, after, _ in kept:
            assert norm == reported and norm <= target
            assert after < before
        met = sum(k[-1] for k in kept)
        assert met >= 0.9 * len(kept)

    @staticmethod
    def first_step(**kw):
        model, state, wells = waterflood_setup()
        new, rec = advance_timestep(model, state, 0.5, wells, NewtonConfig(**kw),
                                    SolverConfig(), StepController(dt_init=0.5, dt_max=0.5))
        return model, new, rec

    @staticmethod
    def per_iterate(calls):
        """The calls grouped by the Newton iterate they correct."""
        return [list(group) for _, group in itertools.groupby(calls, key=lambda c: c[0])]

    @pytest.mark.parametrize("script, sizes", [
        (["meet"], [1]),
        (["miss", "meet"], [2]),
        (["miss", "miss", "meet"], [3]),
        (["miss", "miss", "miss", "meet"], [3, 1]),
        (["miss", "reject", "meet"], [2, 1]),
        (["reject", "meet"], [1, 1]),
    ])
    def test_correction_repeats_until_the_balance_holds(self, monkeypatch, script, sizes):
        # a scripted correction: "miss" keeps a copy of the iterate, whose
        # balance still misses, "meet" one with a zero residual, "reject" none.
        # On the waterflood's first step the first iterate to meet the
        # residual target misses the balance, and so does the eighth
        calls, outcomes = [], iter(script)

        def correction(model, state, state_old, dt, wells, f, g, target, pool, rec):
            out = {"miss": lambda: (state.copy(), f.copy(), det_norm(f)),
                   "meet": lambda: (state.copy(), np.zeros_like(f), 0.0),
                   "reject": lambda: None}[next(outcomes)]()
            calls.append((rec.newtons, state, f, g, out))
            return out

        monkeypatch.setattr(nonlinear, "_coarse_correction", correction)
        model, new, rec = self.first_step()
        assert next(outcomes, None) is None
        groups = self.per_iterate(calls)
        assert [len(group) for group in groups] == sizes
        for group in groups:
            assert len(group) <= nonlinear._MAX_CORRECTIONS
            # each repeat corrects the last kept correction with the same g
            for before, after in zip(group, group[1:]):
                kept_state, kept_f, _ = before[4]
                assert after[1] is kept_state and after[2] is kept_f and after[3] is before[3]
        assert new is calls[-1][4][0]
        assert rec.residual_sums == {c: 0.0 for c in model.components}

    def test_repeats_are_counted_as_tries_and_keeps(self, monkeypatch):
        # unscripted, the waterflood's first step rejects the correction of
        # its first iterate to meet the target and keeps three at the eighth,
        # the third meeting the balance
        calls = []
        correct = nonlinear._coarse_correction

        def counted(model, state, state_old, dt, wells, f, g, target, pool, rec):
            before = rec.corrections_tried, rec.corrections_kept
            out = correct(model, state, state_old, dt, wells, f, g, target, pool, rec)
            assert (rec.corrections_tried, rec.corrections_kept) == \
                (before[0] + 1, before[1] + (out is not None))
            calls.append((rec.newtons, out))
            return out

        monkeypatch.setattr(nonlinear, "_coarse_correction", counted)
        _, _, rec = self.first_step()
        groups = self.per_iterate(calls)
        assert [[out is not None for _, out in group] for group in groups] == \
            [[False], [True, True, True]]
        assert (rec.corrections_tried, rec.corrections_kept) == (4, 3)

    @pytest.mark.parametrize("bad", ["singular", "nan", "residual"])
    def test_unusable_correction_changes_nothing(self, monkeypatch, bad):
        def run():
            model, state, wells = waterflood_setup()
            return advance_timestep(model, state, 0.5, wells, NewtonConfig(),
                                    SolverConfig(), StepController(dt_init=0.5, dt_max=0.5))

        _, stats = run()
        assert stats.corrections_tried > 0        # the case needs corrections
        # the loop without the correction step is the reference
        monkeypatch.setattr(nonlinear, "_coarse_correction", lambda *a: None)
        ref, ref_stats = run()
        monkeypatch.undo()
        if bad == "residual":
            # the corrected state's residual is not finite: rejected, no cut
            correct, assemble = nonlinear._coarse_correction, ReservoirModel.assemble_residual
            inside = []

            def correction(*args):
                inside.append(True)
                try:
                    return correct(*args)
                finally:
                    inside.clear()

            def residual(self, *args, **kw):
                if inside:
                    raise nonlinear.AssemblyError("non-finite residual")
                return assemble(self, *args, **kw)

            monkeypatch.setattr(nonlinear, "_coarse_correction", correction)
            monkeypatch.setattr(ReservoirModel, "assemble_residual", residual)
        else:
            # an all-zero (singular) or non-finite G
            value = 0.0 if bad == "singular" else np.nan
            monkeypatch.setattr(nonlinear, "_coarse_matrix",
                                lambda jac: np.full((jac.m + jac.nwell,) * 2, value))
        new, stats = run()
        assert stats.corrections_kept == 0
        assert (stats.corrections_tried > 0) == (bad == "residual")
        assert (stats.newtons, stats.linear_iters, stats.cuts) == \
            (ref_stats.newtons, ref_stats.linear_iters, ref_stats.cuts)
        for name in ("p_o", "s_w", "p_h"):
            assert np.array_equal(getattr(new, name), getattr(ref, name))
