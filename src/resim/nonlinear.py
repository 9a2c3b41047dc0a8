"""Inexact Newton time stepping with adjustable forcing terms.

Each time step repeats assemble-solve-update cycles until the 2-norm of the
residual falls below ``tol`` relative to the step's initial residual, cutting
the step size on failure.  Newton starts from the old state, or from the last
two accepted states extrapolated in time where that guess has the smaller
residual (starting values for implicit integrators: Hairer and Wanner,
*Solving ODEs II*, IV.8).  An update applies its pressure changes in full
and chops each saturation change to +-_MAX_DS.  The linear tolerance
theta_l follows one of three adjustment rules (or a fixed value),
safeguarded into [theta_min, theta_max].  No solve is looser than half the
remaining distance to the convergence target, 0.5 target/||F||, except the
first of an attempt, where that bound is a floor instead (Kelley,
*Iterative Methods for Linear and Nonlinear Equations*, 1995): the first
solve takes theta_0 = max(0.5 target/||F_0||, min(theta0, gamma rho^beta)),
rho = ||F_1||/||F_0|| of the previous attempt's first Newton iteration (the
previous step's, or the cut attempt's being retried; Eisenstat and Walker,
SIAM J. Sci. Comput. 17(1), 1996).  Without rho (the run's first step, the
first after a schedule switch, and forcing_rule = fixed) it takes
min(theta0, 0.5 target/||F_0||): from the old state at the default tol
that cap is 0.005, below the default theta0 = 0.1.  At a later iteration k
the bound is a floor too where the last contraction, if it repeats, lands
the iterate at most halfway to the target, ||F_k|| ||F_k||/||F_{k-1}|| <=
0.5 target, while ||F_k|| is still above the target and the last update
chopped no cell (Kelley's termination floor; never under forcing_rule =
fixed).
An iterate must also bring every component's residual sum below a
mass-balance target.  When the residual target is met but the mass target is
not, a coarse Newton correction is tried (Wallis's constrained residual,
SPE 12265): on the space that shifts every cell's unknown k uniformly and
each well's BHP, solve G y = -Z^T F with G = Z^T J W, Z summing each
component's cell rows and taking each well row.  The corrected iterate is
kept only if its residual still meets the target, and a kept one that still
misses the mass target is corrected again with the same G, up to
_MAX_CORRECTIONS tries per iterate; after a rejected try or the last one
Newton goes on.

Each step's counts, times and Newton log go into one ``StepRecord``, filled
where they are computed, cut attempts included.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .linear import AmgHierarchy, CprFpf, SolverConfig, decouple, \
    make_preconditioner, bicgstab, dump_matrix_market
from .model import AssemblyError, ReservoirState
from .parallel import det_norm, PooledMatvec

log = logging.getLogger(__name__)

FORCING_RULES = ("eq13_a", "eq13_b", "eq13_c", "fixed")
# p_b above p_o by more than this (psi) switches a cell to saturated
_SWITCH_EPS = 1e-8
_MAX_DS = 0.2   # largest saturation change one Newton update applies to a cell
_MAX_CORRECTIONS = 3   # coarse corrections tried per Newton iterate


class SimulationAbort(RuntimeError):
    """Simulation cannot continue; carries the last state and report so far."""

    def __init__(self, message, state=None, report=None):
        super().__init__(message)
        self.state = state
        self.report = report


@dataclass
class NewtonConfig:
    tol: float = 1e-2
    atol: float = 1e-8
    max_newton: int = 20
    forcing_rule: str = "eq13_c"
    gamma: float = 1.0
    beta: float = 2.0
    theta_fixed: float = 1e-5
    theta0: float = 0.1
    theta_min: float = 1e-4
    theta_max: float = 0.9
    mb_tol: float | None = None   # None: auto per fluid kind; 0 disables

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")
        if not (0 < self.theta_min <= self.theta_max < 1):
            raise ValueError("need 0 < theta_min <= theta_max < 1")
        if not (0 < self.gamma <= 1):
            raise ValueError("gamma must be in (0, 1]")
        if not (1 < self.beta <= 2):
            raise ValueError("beta must be in (1, 2]")
        if self.forcing_rule not in FORCING_RULES:
            raise ValueError(f"unknown forcing rule {self.forcing_rule!r}")
        if self.atol < 0:
            raise ValueError("atol must be >= 0")
        if not (0 < self.theta_fixed < 1):
            raise ValueError("theta_fixed must be in (0, 1)")
        if not (0 < self.theta0 < 1):
            raise ValueError("theta0 must be in (0, 1)")

    def resolved_mb_tol(self, fluid_kind: str) -> float:
        if self.mb_tol is not None:
            return self.mb_tol
        return 1e-9 if fluid_kind == "two_phase" else 1e-7


@dataclass
class StepController:
    dt_init: float = 1.0
    dt_max: float = 100.0
    dt_min: float = 1e-6
    growth: float = 2.0
    cut: float = 0.5
    max_cuts: int = 10

    def __post_init__(self):
        if not (self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need dt_min <= dt_init <= dt_max")
        if self.growth <= 1:
            raise ValueError("growth must be > 1")
        if not (0 < self.cut < 1):
            raise ValueError("cut must be in (0, 1)")
        if self.max_cuts < 0:
            raise ValueError("max_cuts must be >= 0")


@dataclass
class ForcingHistory:
    b_norm: float
    b_prev_norm: float
    r_prev_norm: float
    b_minus_r_prev_norm: float


def forcing_term(rule: str, history: ForcingHistory, config: NewtonConfig) -> float:
    """Linear tolerance theta_l for iterations l >= 1, safeguarded."""
    if rule == "fixed":
        theta = config.theta_fixed
    elif rule == "eq13_a":
        theta = history.b_minus_r_prev_norm / history.b_prev_norm \
            if history.b_prev_norm > 0 else config.theta_max
    elif rule == "eq13_b":
        theta = abs(history.b_norm - history.r_prev_norm) / history.b_prev_norm \
            if history.b_prev_norm > 0 else config.theta_max
    elif rule == "eq13_c":
        theta = config.gamma * (history.b_norm / history.b_prev_norm) ** config.beta \
            if history.b_prev_norm > 0 else config.theta_max
    else:
        raise ValueError(f"unknown forcing rule {rule!r}")
    if not np.isfinite(theta):
        theta = config.theta_max
    return float(min(max(theta, config.theta_min), config.theta_max))


@dataclass
class NewtonIterLog:
    """Per-iteration record of the inner linear-solve contract."""

    theta: float
    b_norm: float            # rhs norm of the system handed to the solver
    lhs_norm: float          # ||b - A dx|| of that system after the solve
    iterations: int
    status: str
    forcing: ForcingHistory | None   # rule inputs, iterations l >= 1
    # rule output before the finish cap; at l = 0, gamma rho^beta of the
    # previous attempt's first contraction rho (None without one)
    theta_rule: float | None
    restarts: int            # BiCGSTAB restarts on the true residual
    ds_chops: int = 0        # cells whose saturation update _MAX_DS cut
    floored: bool = False    # the termination floor raised theta


@dataclass
class StepRecord:
    """One time step's counts, times and balances, cut attempts included.

    ``advance_timestep`` creates it, each count and time is added where it
    is computed, and the driver sets the accepted step's number, time, wall
    time, masses and well totals.  ``assembly_time`` spans the assembly
    calls, ``solve_time`` ``decouple`` through the first ``bicgstab``, each
    restart's ``bicgstab`` and the eq13 rules' CSR build (``timing``); the
    rest, such as the true-residual checks, counts only in ``wall_time``."""

    step: int = 0
    t: float = 0.0
    dt: float = 0.0
    newtons: int = 0
    linear_iters: int = 0
    cuts: int = 0
    wall_time: float = 0.0
    assembly_time: float = 0.0
    solve_time: float = 0.0
    mass_in_place: dict[str, float] = field(default_factory=dict)
    well_injected: dict[str, float] = field(default_factory=dict)
    well_produced: dict[str, float] = field(default_factory=dict)
    residual_sums: dict[str, float] = field(default_factory=dict)
    corrections_tried: int = 0
    corrections_kept: int = 0
    decouple_fallbacks: int = 0      # singular cell blocks the decoupling fell back on
    pivot_shifts: int = 0            # singular pivots the block ILU(0) shifted
    ds_chops: int = 0                # saturation updates _MAX_DS cut
    extrapolated_starts: int = 0     # attempts whose Newton started from the guess
    loose_first_solves: int = 0      # attempts whose first theta was above the cap
    floored_solves: int = 0          # iterations whose theta the termination floor raised
    # ||F_1||/||F_0|| of the last attempt's first Newton iteration, None if
    # it completed none
    contraction: float | None = None
    newton_log: list[NewtonIterLog] = field(default_factory=list)

    @contextmanager
    def timing(self, attr: str):
        """Add the time spent in the ``with`` block to ``attr``, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            setattr(self, attr, getattr(self, attr) + time.perf_counter() - t0)


class _StepFailure(Exception):
    """A step attempt failed; the step is cut and tried again."""


def apply_update(state, dx: np.ndarray, model):
    """The Newton iterate ``state + dx`` and the number of cells it chopped.

    p_o, an undersaturated cell's p_b and the well BHPs take their update in
    full; s_w, and s_g in a saturated cell, change by at most _MAX_DS.  Then
    saturations are kept in [0, 1], a cell switches to p_b = p_o where its
    s_g falls below 0 and to s_g = 0 where its p_b rises above p_o, and
    p_b is capped at p_o."""
    n, m = model.grid.ncell, model.m
    dxc = dx[: n * m].reshape(n, m)
    chopped = np.abs(dxc[:, 1]) > _MAX_DS
    p_o = state.p_o + dxc[:, 0]
    s_w = np.clip(state.s_w + np.clip(dxc[:, 1], -_MAX_DS, _MAX_DS), 0.0, 1.0)
    x3, new_sat = None, None
    if m == 3:
        sat = state.sat
        chopped |= sat & (np.abs(dxc[:, 2]) > _MAX_DS)
        sg_new = np.where(sat, state.x3 + np.clip(dxc[:, 2], -_MAX_DS, _MAX_DS), 0.0)
        pb_new = np.where(sat, p_o, state.x3 + dxc[:, 2])
        new_sat = sat.copy()
        # saturated cell loses its free gas: switch unknown to p_b = p_o
        to_undersat = sat & (sg_new < 0.0)
        new_sat[to_undersat] = False
        pb_new[to_undersat] = p_o[to_undersat]
        sg_new[to_undersat] = 0.0
        # undersaturated cell reaches bubble point: free gas appears
        to_sat = (~sat) & (pb_new > p_o + _SWITCH_EPS)
        new_sat[to_sat] = True
        sg_new[to_sat] = 0.0
        pb_new = np.minimum(pb_new, p_o)
        sg_new = np.clip(sg_new, 0.0, np.maximum(1.0 - s_w, 0.0))
        x3 = np.where(new_sat, sg_new, pb_new)
    new = ReservoirState(p_o, s_w, x3, new_sat, state.p_h + dx[n * m:], state.t)
    return new, int(np.count_nonzero(chopped))


def extrapolated_start(state_old, state_prev, dt: float):
    """The Newton start x_n + (dt/dt_prev)(x_n - x_{n-1}) of a step of ``dt``
    from ``state_old`` (x_n), which ``state_prev`` (x_{n-1}) led to; None
    without a previous state or when dt_prev <= 0.

    p_o and the well BHPs extrapolate in full, and s_w is kept in [0, 1].
    In black oil, x3 extrapolates only where a cell's ``sat`` flag is the
    same in both states and is held elsewhere; ``sat`` is x_n's, s_g is kept
    in [0, 1 - s_w] and p_b at most p_o.  Neither state is written to."""
    if state_prev is None:
        return None
    dt_prev = state_old.t - state_prev.t
    if not dt_prev > 0:
        return None
    ratio = dt / dt_prev

    def ahead(x_n, x_prev):
        return x_n + ratio * (x_n - x_prev)

    p_o = ahead(state_old.p_o, state_prev.p_o)
    s_w = np.clip(ahead(state_old.s_w, state_prev.s_w), 0.0, 1.0)
    x3 = sat = None
    if state_old.x3 is not None:
        sat = state_old.sat.copy()
        x3 = np.where(sat == state_prev.sat, ahead(state_old.x3, state_prev.x3),
                      state_old.x3)
        x3 = np.where(sat, np.clip(x3, 0.0, 1.0 - s_w), np.minimum(x3, p_o))
    return ReservoirState(p_o, s_w, x3, sat, ahead(state_old.p_h, state_prev.p_h),
                          state_old.t + dt)


def newton_step(model, state, state_old, dt: float, wells, ncfg: NewtonConfig,
                scfg: SolverConfig, theta: float, forcing: ForcingHistory | None,
                theta_rule: float | None, rec: StepRecord, pool=None,
                dump_prefix=None, amg: AmgHierarchy | None = None, floored=False):
    """One assemble-solve-update cycle at the given linear tolerance.

    ``forcing`` and ``theta_rule`` are the forcing rule's inputs and output
    that led to ``theta`` (None where no rule ran; an attempt's first
    iteration has no ``forcing``, and ``theta_rule`` is gamma rho^beta or
    None), and ``floored`` whether the termination floor raised it; they go
    into the iteration's log entry.

    Reuses ``amg``, the previous Newton iteration's AMG hierarchy (None: set
    one up).  Returns (new_state, r_prev, g, amg): ``r_prev`` is b - J dx for
    the forcing rules that read it (eq13_a, eq13_b) and None for the others,
    which drop the Jacobian before the solve; ``g`` is the coarse matrix
    Z^T J W of this Jacobian (``_coarse_matrix``), ``amg`` the hierarchy its
    CPR preconditioner used (None without CPR).

    The solve must meet ||b - A dx|| <= theta ||b|| on the true residual.
    BiCGSTAB stops on its recursive residual, so when the true one misses
    the target BiCGSTAB is restarted on it with the iterations left, and
    the result added to dx.  The iteration is counted in ``rec``, also when
    it then raises _StepFailure because the linear solver failed or its
    budget was spent before the contract was met.
    """
    with rec.timing("assembly_time"):
        jac = model.assemble_jacobian(state, state_old, dt, wells, pool=pool)
    if dump_prefix is not None:
        dump_matrix_market(jac, jac.b, dump_prefix)
    g = _coarse_matrix(jac)
    with rec.timing("solve_time"):
        a2, b2 = decouple(jac, jac.b, scfg.decoupling)
        if ncfg.forcing_rule not in ("eq13_a", "eq13_b"):
            jac = None
        matvec = PooledMatvec(a2.to_csr(), pool)
        precond = make_preconditioner(a2, scfg, matvec, amg=amg)
        dx, iters, status = bicgstab(matvec, precond, b2, theta, scfg.max_iterations)
    rec.decouple_fallbacks += a2.decouple_fallbacks
    ilu = precond.smoother if isinstance(precond, CprFpf) else precond
    rec.pivot_shifts += ilu.pivot_shifts if ilu is not None else 0
    b_norm = det_norm(b2)
    r = b2 - matvec(dx)
    lhs = det_norm(r)
    bound = theta * b_norm
    restarts = 0
    while status == "converged" and not lhs <= bound and iters < scfg.max_iterations:
        with rec.timing("solve_time"):
            ddx, more, status = bicgstab(matvec, precond, r, bound / lhs,
                                         scfg.max_iterations - iters)
        dx += ddx
        iters += more
        restarts += 1
        r = b2 - matvec(dx)
        lhs = det_norm(r)
    entry = NewtonIterLog(theta=theta, b_norm=b_norm, lhs_norm=lhs,
                          iterations=iters, status=status, forcing=forcing,
                          theta_rule=theta_rule, restarts=restarts, floored=floored)
    rec.newtons += 1
    rec.linear_iters += iters
    rec.newton_log.append(entry)
    if status != "converged" or not lhs <= bound:
        reason = (f"linear solver {status}" if status != "converged" else
                  f"true linear residual {lhs:.3e} misses the inner contract "
                  f"||b - A dx|| <= theta ||b|| = {bound:.3e}")
        raise _StepFailure(f"{reason} after {iters} iterations")
    r_prev = None
    if jac is not None:
        with rec.timing("solve_time"):
            csr = jac.to_csr()
        r_prev = jac.b - csr @ dx
    new_state, entry.ds_chops = apply_update(state, dx, model)
    rec.ds_chops += entry.ds_chops
    amg = precond.amg if isinstance(precond, CprFpf) else None
    return new_state, r_prev, g, amg


def _coarse_matrix(jac) -> np.ndarray:
    """G = Z^T J W, (m + nwell) x (m + nwell), of a Jacobian in block layout.

    Z sums the cell rows of each component and takes each well row; W
    shifts every cell's unknown k uniformly and takes each well's BHP.  So
    G[:m, :m] sums every stencil block, G[:m, m + w] and G[m + w, :m] sum
    well w's perforation columns and rows, and G[m + w, m + w] = ww[w].
    Each entry of a stencil block is one contiguous row of the entry-major
    (m*m, nblocks, ncell) view, summed by ``einsum`` in a fixed order, and
    the blocks' sums are added block by block: not a BLAS product, whose
    summation order can depend on the BLAS thread count.
    """
    n, m, nwell = jac.ncell, jac.m, jac.nwell
    cells = sum(np.einsum("jki->kj", jac.stencil.reshape(m * m, -1, n)))
    perfs = (jac.cw_well == np.arange(nwell)[:, None]).astype(float)
    g = np.zeros((m + nwell, m + nwell))
    g[:m, :m] = cells.reshape(m, m)
    g[:m, m:] = np.einsum("wp,kp->kw", perfs, jac.cw_blocks)
    g[m:, :m] = np.einsum("wp,kp->wk", perfs, jac.wc_blocks)
    g[m:, m:] = np.diag(jac.ww)
    return g


def _coarse_residual(f: np.ndarray, model) -> np.ndarray:
    """Z^T F: the residual's cell rows summed per component, then its well rows."""
    n, m = model.grid.ncell, model.m
    return np.concatenate([f[: n * m].reshape(n, m).sum(axis=0), f[n * m:]])


def _component_sums(f: np.ndarray, model) -> dict[str, float]:
    sums = _coarse_residual(f, model)
    return {comp: float(sums[model.comp_row(comp)]) for comp in model.components}


def _mb_converged(sums, dt, mass_ref, mb_tol) -> bool:
    if mb_tol <= 0:
        return True
    for comp, s in sums.items():
        ref = max(mass_ref.get(comp, 0.0), 1.0)
        if abs(s) * dt > mb_tol * ref:
            return False
    return True


def _coarse_correction(model, state, state_old, dt, wells, f, g, target, pool, rec):
    """The coarse Newton correction of ``state``, whose residual is ``f``.

    Solves g y = -Z^T f and applies W y.  Returns (state, residual, norm) of
    the corrected iterate if its residual norm is at most ``target``, else
    None; a singular ``g``, a non-finite y or a non-finite corrected
    residual is no correction.  Counts the tries and keeps in ``rec``.
    """
    n, m = model.grid.ncell, model.m
    try:
        y = np.linalg.solve(g, -_coarse_residual(f, model))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(y)):
        return None
    rec.corrections_tried += 1
    candidate, _ = apply_update(state, np.concatenate([np.tile(y[:m], n), y[m:]]), model)
    try:
        with rec.timing("assembly_time"):
            f_c = model.assemble_residual(candidate, state_old, dt, wells, pool=pool)
    except AssemblyError:
        return None
    norm = det_norm(f_c)
    if not norm <= target:
        return None
    rec.corrections_kept += 1
    return candidate, f_c, norm


def _attempt(model, state_old, dt, wells, ncfg, scfg, pool, dump_prefix, rec,
             state_prev=None, contraction=None):
    """Run Newton to convergence at fixed dt and return the new state.

    Newton starts from the old state, or from ``extrapolated_start`` of
    ``state_old`` and ``state_prev`` where that guess's residual norm is
    below the old state's (counted in ``rec.extrapolated_starts``); the
    guess's residual is one more assembly, and a guess whose residual raises
    ``AssemblyError`` is dropped.  The convergence target comes from the old
    state's residual either way.

    ``contraction`` is the previous attempt's first-iteration rho, None
    without one; it sets the first solve's theta (module docstring) unless
    the rule is ``fixed``.  The attempt's own rho goes into
    ``rec.contraction`` (None until its first iteration's residual is in).

    Raises _StepFailure if it does not converge, and ``AssemblyError`` if a
    trial state has a non-finite residual or Jacobian; either cuts the step.
    The AMG hierarchy lives for one attempt: its first Newton iteration
    sets one up, each later one reuses the previous one's (``with_fine``),
    and a new step or a retry after a cut sets up afresh.  The set-up is a
    full build only in the run's first attempt; every later one re-sets up,
    numerically, the prolongators, restrictions and weights the Jacobian's
    ``CsrPattern`` keeps from that build (``CprFpf``).
    """
    rec.contraction = None
    state = state_old.copy()
    state.t = state_old.t + dt
    with rec.timing("assembly_time"):
        f = model.assemble_residual(state, state_old, dt, wells, pool=pool)
    b_norm0 = det_norm(f)
    if b_norm0 <= ncfg.atol:
        rec.residual_sums = _component_sums(f, model)
        return state
    target = max(ncfg.tol * b_norm0, ncfg.atol)
    mass_ref = model.mass_in_place(state_old)
    mb_tol = ncfg.resolved_mb_tol(model.fluid.kind)

    b_norm = b_norm0
    guess = extrapolated_start(state_old, state_prev, dt)
    if guess is not None:
        try:
            with rec.timing("assembly_time"):
                f_guess = model.assemble_residual(guess, state_old, dt, wells, pool=pool)
        except AssemblyError:
            pass
        else:
            guess_norm = det_norm(f_guess)
            if guess_norm < b_norm0:
                state, f, b_norm = guess, f_guess, guess_norm
                rec.extrapolated_starts += 1
    b_prev_norm = b_norm
    r_prev_norm = 0.0
    b_minus_r_prev = 0.0
    amg = None

    def clamp(theta):
        return min(max(theta, ncfg.theta_min), ncfg.theta_max)

    for it in range(ncfg.max_newton):
        hist = None
        theta_rule = None
        floored = False
        # termination-aware safeguard: a solve looser than half the remaining
        # distance to the convergence target wastes a Newton iteration.  The
        # first solve has no contraction of its own to go by: with the
        # previous attempt's rho it takes max(cap, min(theta0, gamma rho^beta)),
        # the cap its floor; without one min(theta0, cap), so theta0 applies
        # only where it is below the cap (0.005 from the old state at tol 1e-2)
        cap = 0.5 * target / b_norm
        if it > 0:
            hist = ForcingHistory(b_norm, b_prev_norm, r_prev_norm, b_minus_r_prev)
            theta_rule = forcing_term(ncfg.forcing_rule, hist, ncfg)
            theta = clamp(min(theta_rule, cap))
            # if the last contraction repeats, this iterate lands at most
            # halfway to the target, so a solve tighter than the cap buys
            # nothing: the cap is the floor too.  Not after a chopped update,
            # whose contraction the chop set, not the linear solve.
            if (ncfg.forcing_rule != "fixed" and b_norm > target
                    and rec.newton_log[-1].ds_chops == 0
                    and b_norm * (b_norm / b_prev_norm) <= 0.5 * target):
                floored = clamp(cap) > theta
                theta = clamp(cap)
        elif contraction is None or ncfg.forcing_rule == "fixed":
            theta = clamp(min(ncfg.theta0, cap))
        else:
            theta_rule = ncfg.gamma * contraction ** ncfg.beta
            theta = clamp(max(cap, min(ncfg.theta0, theta_rule)))
            rec.loose_first_solves += theta > clamp(cap)
        rec.floored_solves += floored
        prefix = None if dump_prefix is None else f"{dump_prefix}_n{rec.newtons}"
        state, r_prev, g, amg = newton_step(
            model, state, state_old, dt, wells, ncfg, scfg, theta, hist,
            theta_rule, rec, pool=pool, dump_prefix=prefix, amg=amg, floored=floored)

        with rec.timing("assembly_time"):
            f = model.assemble_residual(state, state_old, dt, wells, pool=pool)
        if r_prev is not None:
            r_prev_norm = det_norm(r_prev)
            b_minus_r_prev = det_norm(-f - r_prev)
        b_prev_norm, b_norm = b_norm, det_norm(f)
        if it == 0:
            rec.contraction = b_norm / b_prev_norm
        if b_norm > target:
            continue
        sums = _component_sums(f, model)
        corrections = 0
        while not _mb_converged(sums, dt, mass_ref, mb_tol):
            # the residual target is met but a component balance is not: the
            # imbalance is mostly the Krylov residual's component sums, which
            # live in the coarse space, so correct it there, again from each
            # kept correction that still misses, at the cost of one residual
            # evaluation each, not another Newton solve
            corrected = corrections < _MAX_CORRECTIONS and _coarse_correction(
                model, state, state_old, dt, wells, f, g, target, pool, rec)
            if not corrected:
                break
            corrections += 1
            state, f, b_norm = corrected
            sums = _component_sums(f, model)
        else:   # the balance holds
            rec.residual_sums = sums
            return state

    raise _StepFailure(
        f"no convergence in {ncfg.max_newton} Newton iterations "
        f"(|b|/|b0| = {b_norm / b_norm0:.3e})")


def advance_timestep(model, state_old, dt: float, wells, ncfg: NewtonConfig,
                     scfg: SolverConfig, controller: StepController,
                     pool=None, dump_prefix=None, state_prev=None, contraction=None):
    """Advance one accepted step, cutting dt on failures.

    ``state_prev`` is the accepted state before ``state_old``, None where
    there is none to extrapolate from (the first step, or the first after a
    schedule switch).  Each attempt, cut ones included, tries to start
    Newton from the guess x_n + (dt/dt_prev)(x_n - x_{n-1}) that
    ``extrapolated_start`` builds from the two and keeps it only if its
    residual norm is below the old state's (``_attempt``).

    ``contraction`` is rho = ||F_1||/||F_0|| of the previous step's first
    Newton iteration (its ``rec.contraction``), None where there is none;
    it loosens the first attempt's first solve, and a retry after a cut
    takes the cut attempt's rho instead (module docstring).

    Returns (state_new, rec), the step's ``StepRecord`` with ``dt`` the
    accepted step size; its counts, times and Newton log include the cut
    attempts, ``rec.extrapolated_starts`` counts the attempts that started
    from the guess, ``rec.loose_first_solves`` those whose first theta was
    loosened above the cap, ``rec.floored_solves`` the iterations whose
    theta the termination floor raised, and ``rec.contraction`` is the
    accepted attempt's rho.
    """
    rec = StepRecord()
    dt_try = dt
    while True:
        try:
            state_new = _attempt(model, state_old, dt_try, wells, ncfg, scfg, pool,
                                 dump_prefix, rec, state_prev, contraction)
            rec.dt = dt_try
            return state_new, rec
        except (_StepFailure, AssemblyError) as fail:
            rec.cuts += 1
            contraction = rec.contraction
            dt_next = dt_try * controller.cut
            log.warning("step at t=%g: %s; cutting dt %g -> %g",
                        state_old.t, fail, dt_try, dt_next)
            if rec.cuts > controller.max_cuts or dt_next < controller.dt_min:
                cause = ("cut budget exhausted"
                         if rec.cuts > controller.max_cuts
                         else f"dt fell below dt_min={controller.dt_min:g}")
                raise SimulationAbort(
                    f"time step abandoned after {rec.cuts} cuts ({cause}): "
                    f"{fail}") from None
            dt_try = dt_next


@dataclass
class RunReport:
    """Per-step convergence accounting plus run totals."""

    workers: int = 1
    steps: list[StepRecord] = field(default_factory=list)
    initial_mass: dict[str, float] = field(default_factory=dict)
    final_state: ReservoirState | None = None

    @property
    def newton_log(self) -> list[NewtonIterLog]:
        """Every Newton iteration of the accepted steps, cut attempts included."""
        return [e for s in self.steps for e in s.newton_log]

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_cuts(self) -> int:
        return sum(s.cuts for s in self.steps)

    @property
    def n_newton(self) -> int:
        return sum(s.newtons for s in self.steps)

    @property
    def n_corrections_tried(self) -> int:
        return sum(s.corrections_tried for s in self.steps)

    @property
    def n_corrections_kept(self) -> int:
        return sum(s.corrections_kept for s in self.steps)

    @property
    def n_solver(self) -> int:
        return sum(s.linear_iters for s in self.steps)

    @property
    def avg_solver(self) -> float:
        return self.n_solver / self.n_newton if self.n_newton else 0.0

    @property
    def total_time(self) -> float:
        return sum(s.wall_time for s in self.steps)

    @property
    def avg_time(self) -> float:
        return self.total_time / self.n_newton if self.n_newton else 0.0

    @property
    def assembly_time(self) -> float:
        return sum(s.assembly_time for s in self.steps)

    @property
    def solve_time(self) -> float:
        return sum(s.solve_time for s in self.steps)

    def steps_cell(self) -> str:
        cuts = self.n_cuts
        return f"{self.n_steps}({cuts})" if cuts else f"{self.n_steps}"

    def format_table(self) -> str:
        """Summary table in the layout of the result tables."""
        headers = ["# Workers", "# Steps", "# Newton", "# Solver",
                   "# Avg. solver", "Time (s)", "Avg. time (s)"]
        row = [str(self.workers), self.steps_cell(), str(self.n_newton),
               str(self.n_solver), f"{self.avg_solver:.1f}",
               f"{self.total_time:.1f}", f"{self.avg_time:.1f}"]
        widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
        line1 = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        line2 = "  ".join(v.ljust(w) for v, w in zip(row, widths))
        return line1 + "\n" + line2

    def to_csv(self, path):
        import csv

        comps = sorted({c for s in self.steps for c in s.mass_in_place})

        def column(header, attr=None, fmt=""):
            return header, lambda s: format(getattr(s, attr or header), fmt)

        def amount(header, attr, c):
            return header, lambda s: format(getattr(s, attr).get(c, 0.0), ".10e")

        # the report's columns in order, as (header, the step's value)
        columns = [
            column("step"), column("t_days", "t", ".6g"), column("dt_days", "dt", ".6g"),
            *map(column, ("newtons", "linear_iters", "cuts")),
            column("wall_s", "wall_time", ".4f"), column("assembly_s", "assembly_time", ".4f"),
            column("solve_s", "solve_time", ".4f"),
            *(amount(f"{kind}_{c}_lbm", attr, c) for c in comps
              for kind, attr in (("mass", "mass_in_place"), ("injected", "well_injected"),
                                 ("produced", "well_produced"))),
            *map(column, ("corrections_tried", "corrections_kept")),
            *(amount(f"residual_{c}", "residual_sums", c) for c in comps),
            *map(column, ("decouple_fallbacks", "pivot_shifts", "ds_chops",
                         "extrapolated_starts", "loose_first_solves", "floored_solves"))]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header for header, _ in columns)
            for s in self.steps:
                w.writerow(cell(s) for _, cell in columns)
