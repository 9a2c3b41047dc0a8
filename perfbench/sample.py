"""One benchmark sample: load a deck and run it to the end in this process.

    python3 perfbench/sample.py --deck D --workers N --out DIR [--trace | --setup-only K]

Prints one JSON object on its last output line.  Times run from the
``load_deck`` call: ``setup_s`` until the first time step starts, ``wall_s``
until ``run_simulation`` returns with the final VTK and CSV written, less
the time of the host speed reference kernel (``hostspeed.py``) run in
between; the kernel's mean times come with them.  With ``--setup-only K``
the deck is loaded and set up K times in this process, each stopping where
the first time step would start.  The sample checks its own answer: the run
must finish, write its outputs and keep every step's relative mass
imbalance within the acceptance bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

from hostspeed import HostSpeed

# per-step relative mass imbalance allowed by the acceptance suite
MASS_BALANCE_BOUND = {"two_phase": 1e-8, "black_oil": 1e-6}
CSV_NAME = "steps.csv"


class _SetupReached(Exception):
    """Raised at the first time step of a --setup-only sample."""


def mass_balance_errors(report):
    """Per-step, per-component |dM - (injected - produced)| / max(M, |net|, 1).

    The same formula as the acceptance suite's mass-balance criterion.
    """
    errors = []
    prev = report.initial_mass
    for s in report.steps:
        for comp, m_new in s.mass_in_place.items():
            dm = m_new - prev[comp]
            net = s.well_injected[comp] - s.well_produced[comp]
            errors.append(abs(dm - net) / max(m_new, abs(net), 1.0))
        prev = s.mass_in_place
    return errors


def host_facts(deck) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    grid = deck.grid
    naxes = sum(1 for nax in grid.shape() if nax > 1)
    m = deck.fluid.m
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            # diagonal plus lower and upper stencil blocks per axis
            "jacobian_bytes": grid.ncell * m * m * 8 * (1 + 2 * naxes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deck", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", required=True, help="output directory")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", type=int, default=0, metavar="K",
                      help="only set up, K times; print the K set-up times")
    args = parser.parse_args(argv)

    from resim import driver, linear, nonlinear
    from resim.nonlinear import SimulationAbort

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()

    # The reference kernel runs before the run and when set-up ends, and then
    # at Newton iterations and ILU applications at most every 50 ms, so it
    # samples the host's speed all through the run; its time is taken out of
    # the sample's.  Traced samples skip it, so that it adds nothing to the
    # layer times.
    speed = HostSpeed()
    first_step = []
    advance = driver.advance_timestep

    def timed_advance(*a, **kw):
        if not first_step:
            first_step.append(time.perf_counter())
            if not args.trace:
                speed.sample()
            if args.setup_only:
                raise _SetupReached
        return advance(*a, **kw)

    driver.advance_timestep = timed_advance
    if not args.trace:
        newton_step, ilu_solve = nonlinear.newton_step, linear.BlockILU0.solve

        def sampled_newton_step(*a, **kw):
            speed.sample_due()
            return newton_step(*a, **kw)

        def sampled_ilu_solve(*a, **kw):
            speed.sample_due()
            return ilu_solve(*a, **kw)

        nonlinear.newton_step = sampled_newton_step
        linear.BlockILU0.solve = sampled_ilu_solve

    def run():
        deck = driver.load_deck(args.deck)
        return deck, driver.run_simulation(deck, workers=args.workers,
                                           report_csv=CSV_NAME, output_dir=args.out)

    if args.setup_only:
        setups = []
        for _ in range(args.setup_only):
            first_step.clear()
            before = speed.sample()
            t0 = time.perf_counter()
            try:
                run()
            except _SetupReached:
                # set-up time, and the kernel's mean time around it
                setups.append([first_step[0] - t0, (before + speed.times[-1]) / 2])
        print(json.dumps({"ok": len(setups) == args.setup_only,
                          "error": "a set-up ran past the first step",
                          "setups": setups}))
        return 0

    result: dict = {"ok": False}
    before = speed.sample()
    t0 = time.perf_counter()
    try:
        deck, report = run()
        wall = time.perf_counter() - t0 - (speed.total() - before)
    except SimulationAbort as exc:
        result["error"] = f"simulation aborted: {exc}"
    except Exception:                      # any crash is a failed sample
        result["error"] = traceback.format_exc()
    if "error" in result:
        print(json.dumps(result))
        return 0
    speed.sample()

    errors = mass_balance_errors(report)
    worst = max(errors, default=0.0)
    bound = MASS_BALANCE_BOUND[deck.fluid.kind]
    outputs = [os.path.join(args.out, f) for f in os.listdir(args.out)]
    vtk = os.path.join(args.out, f"{deck.output.vtk_prefix}_final.vtk")
    with open(os.path.join(args.out, CSV_NAME)) as fh:
        csv_rows = sum(1 for _ in fh) - 1
    problems = []
    if not worst <= bound:
        problems.append(f"mass imbalance {worst:.3e} > {bound:g}")
    if not os.path.getsize(vtk) > 0:
        problems.append("empty final VTK")
    if csv_rows != report.n_steps:
        problems.append(f"CSV has {csv_rows} rows for {report.n_steps} steps")

    result = {
        "ok": not problems,
        "error": "; ".join(problems),
        "wall_s": wall,
        "setup_s": first_step[0] - t0,
        # the reference kernel's mean time: around set-up, and over the run
        "setup_kernel_s": sum(speed.times[:2]) / 2,
        "kernel_s": speed.total() / len(speed.times),
        "steps": report.n_steps,
        "newton_iters": report.n_newton,
        "linear_iters": report.n_solver,
        "step_cuts": report.n_cuts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mass_balance_max": worst,
        "assembly_time": report.assembly_time,
        "solve_time": report.solve_time,
        "output_bytes": sum(os.path.getsize(p) for p in outputs),
        "host": host_facts(deck),
    }
    if tracer is not None:
        tracer.uninstall()
        layers, inclusive = tracer.summarize(wall)
        layers["driver.output_bytes"] = result["output_bytes"]
        result["layers"] = layers
        result["inclusive_s"] = inclusive
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
