"""Outside-in layer tracer for resim.

Each traced public name is replaced at the place its caller looks it up
(a module global or a class attribute), so no file of the simulator changes.
Spans opened on the thread that installed the tracer are kept in memory until
the run ends; a span's self time is its duration minus the durations of the
spans it directly encloses.  Spans opened on worker threads (assembly ranges
and matvec slices of ``WorkerPool.run``) are counted as calls only: their
time is the main thread's ``WorkerPool.run`` span, so the self times of one
run always partition its wall time.

``SELF_METRIC`` maps every span name to the layer metric that receives its
self time; what no span covers is ``driver.unattributed_s``.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import Counter, defaultdict

SELF_METRIC = {
    "driver.load_deck": "driver.load_deck_s",
    "driver.write_vtk": "driver.write_vtk_s",
    "driver.to_csv": "driver.to_csv_s",
    "model.mass_in_place": "driver.bookkeeping_s",
    "model.well_mass_rates": "driver.bookkeeping_s",
    "model.assemble_jacobian": "model.jacobian_s",
    "model.assemble_residual": "model.residual_s",
    "pvt.evaluate_properties": "pvt.evaluate_s",
    "wells.well_component_rates": "wells.rates_s",
    "linear.decouple": "linear.decouple_s",
    "linear.to_csr": "linear.to_csr_s",
    "linear.extract_app": "linear.extract_app_s",
    "linear.ilu_setup": "linear.ilu_setup_s",
    "linear.build_amg": "linear.amg_setup_s",
    "linear.make_preconditioner": "linear.cpr_setup_self_s",
    "linear.ilu_solve": "linear.ilu_apply_s",
    "linear.amg_vcycle": "linear.amg_vcycle_s",
    "linear.bicgstab": "linear.krylov_self_s",
    "parallel.matvec": "parallel.matvec_s",
    "parallel.pool_run": "parallel.pool_run_s",
    "parallel.det_dot": "parallel.reduction_s",
    "nonlinear.advance_timestep": "nonlinear.self_s",
    "nonlinear.newton_step": "nonlinear.self_s",
    "nonlinear.apply_update": "nonlinear.apply_update_s",
}

CALL_METRIC = {
    "model.assemble_jacobian": "model.jacobian_calls",
    "model.assemble_residual": "model.residual_calls",
    "pvt.evaluate_properties": "pvt.evaluate_calls",
    "wells.well_component_rates": "wells.rates_calls",
    "linear.ilu_solve": "linear.ilu_apply_calls",
    "linear.amg_vcycle": "linear.amg_vcycle_calls",
    "linear.bicgstab": "linear.bicgstab_calls",
    "parallel.matvec": "parallel.matvec_calls",
    "parallel.pool_run": "parallel.pool_run_calls",
    "parallel.det_dot": "parallel.reduction_calls",
}

GB = 1e9


class Tracer:
    """Wraps the simulator's public layer boundaries and times them."""

    def __init__(self):
        self.spans: list[list] = []          # [name, t0, t1, parent index]
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._det_dot = None                 # the unwrapped reduction
        self.worker_calls: Counter = Counter()
        self.count: defaultdict = defaultdict(float)
        self.ncell = 0
        self.amg = (0, 0.0)                  # levels, operator complexity
        self.matvec_pooled = 0
        # Newton bookkeeping, rebuilt from the calls it sees
        self._ncfg = None
        self._attempts: list[int] = []
        self._after_newton = False
        self._res_norm = math.inf
        self._res_target = 0.0

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, reentrant=True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                with tracer._lock:
                    tracer.worker_calls[name] += 1
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            if not reentrant and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _patch(self, owner, attr, name, **hooks):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **hooks))

    def install(self):
        """Wrap every traced name; call ``uninstall`` to restore them."""
        from resim import driver, linear, model, nonlinear, parallel

        self._det_dot = parallel.det_dot
        p = self._patch
        p(driver, "load_deck", "driver.load_deck")
        p(driver, "write_vtk", "driver.write_vtk")
        p(driver, "advance_timestep", "nonlinear.advance_timestep",
          before=self._step_begin, after=self._step_end)
        p(nonlinear.RunReport, "to_csv", "driver.to_csv")
        p(nonlinear, "newton_step", "nonlinear.newton_step",
          before=self._newton_begin, after=self._newton_end)
        p(nonlinear, "apply_update", "nonlinear.apply_update")
        p(nonlinear, "decouple", "linear.decouple", after=self._decoupled)
        p(nonlinear, "make_preconditioner", "linear.make_preconditioner")
        p(nonlinear, "bicgstab", "linear.bicgstab", after=self._solved)
        p(linear, "build_amg", "linear.build_amg", after=self._amg_built)
        p(linear, "amg_vcycle", "linear.amg_vcycle", reentrant=False)
        p(linear, "det_dot", "parallel.det_dot")
        p(parallel, "det_dot", "parallel.det_dot")
        p(linear.BlockILU0, "__init__", "linear.ilu_setup", after=self._ilu_built)
        p(linear.BlockILU0, "solve", "linear.ilu_solve", after=self._ilu_applied)
        p(linear.BlockMatrix, "to_csr", "linear.to_csr")
        p(linear.BlockMatrix, "extract_app", "linear.extract_app")
        p(model, "evaluate_properties", "pvt.evaluate_properties")
        p(model, "well_component_rates", "wells.well_component_rates")
        p(model.ReservoirModel, "assemble_residual", "model.assemble_residual",
          after=self._residual)
        p(model.ReservoirModel, "assemble_jacobian", "model.assemble_jacobian",
          before=self._jacobian_begin)
        p(model.ReservoirModel, "mass_in_place", "model.mass_in_place")
        p(model.ReservoirModel, "well_mass_rates", "model.well_mass_rates")
        p(parallel.PooledMatvec, "__call__", "parallel.matvec",
          before=self._matvec_begin)
        p(parallel.WorkerPool, "run", "parallel.pool_run")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks: counters read at the boundaries ---------------------------

    def _norm(self, v) -> float:
        # the simulator's own fixed-order norm, so target tests match exactly
        return math.sqrt(self._det_dot(v, v))

    def _step_begin(self, args):
        self._ncfg = args[4]                 # advance_timestep's NewtonConfig
        self._attempts = []
        self._after_newton = False

    def _step_end(self, args, out):
        # every attempt but the last of an accepted step was cut
        self.count["steps"] += 1
        self.count["cuts"] += len(self._attempts) - 1
        self.count["wasted_newtons"] += sum(self._attempts[:-1])

    def _residual(self, args, f):
        norm = self._norm(f)
        if not self._after_newton:          # first residual of a new attempt
            self._attempts.append(0)
            # the residual target of nonlinear._attempt
            self._res_target = max(self._ncfg.tol * norm, self._ncfg.atol)
        self._res_norm = norm
        self._after_newton = False

    def _newton_begin(self, args):
        self._after_newton = False          # stays so if the iteration fails
        self._attempts[-1] += 1
        self.count["newtons"] += 1
        if self._res_norm <= self._res_target:
            self.count["polish_newtons"] += 1

    def _newton_end(self, args, out):
        self._after_newton = True

    def _jacobian_begin(self, args):
        self.ncell = args[0].grid.ncell

    def _decoupled(self, args, out):
        self.count["decouple_fallbacks"] += getattr(out[0], "decouple_fallbacks", 0)

    def _solved(self, args, out):
        _, iters, status = out
        self.count["bicgstab_iters"] += iters
        self.count["bicgstab_failures"] += status != "converged"

    def _amg_built(self, args, hier):
        fine = hier.levels[0].a.nnz if hier.levels else hier.coarse_n ** 2
        stored = sum(lev.a.nnz for lev in hier.levels) + hier.coarse_n ** 2
        self.amg = (hier.nlevels, stored / fine)

    def _ilu_built(self, args, out):
        self.count["ilu_pivot_shifts"] += args[0].pivot_shifts

    def _ilu_applied(self, args, out):
        # computed bytes: inverse diagonal blocks (red ones read twice),
        # off-diagonal blocks read once per sweep, six passes over the vector
        ilu, r = args[0], args[1]
        a = ilu.a
        offdiag = sum(b.nbytes for b in a.lo.values()) + \
            sum(b.nbytes for b in a.hi.values())
        self.count["ilu_bytes"] += 1.5 * ilu.inv_diag.nbytes + 2 * offdiag + 6 * r.nbytes

    def _matvec_begin(self, args):
        # computed bytes: the CSR arrays plus one read of x and one write of y
        mv, x = args[0], args[1]
        a = mv.a
        self.count["matvec_bytes"] += a.data.nbytes + a.indices.nbytes + \
            a.indptr.nbytes + x.nbytes + 8 * a.shape[0]
        if mv.slices is not None:
            self.matvec_pooled = 1

    # -- results ---------------------------------------------------------

    def summarize(self, wall: float) -> tuple[dict, dict]:
        """Per-layer metrics for a run of ``wall`` seconds, and the inclusive
        seconds per span name, for cross-checks against the run's own report.
        """
        covered = [0.0] * len(self.spans)
        incl: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s: defaultdict = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            dur = t1 - t0
            self_s[SELF_METRIC[name]] += dur - covered[i]
            incl[name] += dur
            calls[name] += 1
        calls.update(self.worker_calls)

        out = {metric: 0.0 for metric in SELF_METRIC.values()}
        out.update(self_s)
        out["driver.unattributed_s"] = wall - sum(self_s.values())
        out["driver.traced_wall_s"] = wall
        for name, metric in CALL_METRIC.items():
            out[metric] = calls[name]
        c = self.count
        jac_calls = calls["model.assemble_jacobian"]
        out["model.ns_per_cell_jacobian"] = (
            1e9 * incl["model.assemble_jacobian"] / (jac_calls * self.ncell)
            if jac_calls else 0.0)
        out["linear.decouple_fallbacks"] = c["decouple_fallbacks"]
        out["linear.ilu_pivot_shifts"] = c["ilu_pivot_shifts"]
        out["linear.amg_levels"], out["linear.amg_operator_complexity"] = self.amg
        out["linear.ilu_apply_gbps_computed"] = _rate(
            c["ilu_bytes"], incl["linear.ilu_solve"])
        out["linear.bicgstab_failures"] = c["bicgstab_failures"]
        out["linear.iters_per_solve"] = (c["bicgstab_iters"] / calls["linear.bicgstab"]
                                         if calls["linear.bicgstab"] else 0.0)
        # pooled products spend their time in WorkerPool.run: use inclusive time
        out["parallel.matvec_gbps_computed"] = _rate(
            c["matvec_bytes"], incl["parallel.matvec"])
        out["parallel.matvec_pooled"] = self.matvec_pooled
        newtons = c["newtons"]
        out["nonlinear.newton_per_step"] = newtons / c["steps"] if c["steps"] else 0.0
        out["nonlinear.polish_newton_frac"] = c["polish_newtons"] / newtons if newtons else 0.0
        out["nonlinear.wasted_newton_frac"] = c["wasted_newtons"] / newtons if newtons else 0.0
        out["nonlinear.step_cuts"] = c["cuts"]
        return out, dict(incl)


def _rate(nbytes: float, seconds: float) -> float:
    return nbytes / seconds / GB if seconds > 0 else 0.0
