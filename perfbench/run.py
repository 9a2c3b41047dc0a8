"""resim benchmark: time to solution on three decks, with layer tracing.

    python3 perfbench/run.py --workload spe10_2d --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Each sample is a fresh process that
loads its deck and runs it to the end (``sample.py``), so no state carries
from one sample to the next and peak memory is per run.  Samples repeat
until ``--seconds`` would be exceeded.

Times are medians over the run's samples of each time as it would be on the
reference host of ``hostspeed.py``: each sample times a fixed reference
kernel before the run, when set-up ends, and at Newton iterations and ILU
applications at most every 50 ms, and its time is scaled by the reference
kernel time over the kernel's mean time around it.  On this kind of shared host the same sample takes anywhere from
2.6 to 5.3 s as other work comes and goes, so unscaled medians move by a
third between runs; scaled ones move by a few percent.  The measured times
and the kernel's times are printed above the result line.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced samples (``tracer.py``).  Every sample checks its answer,
and the counts must agree across all samples of a run; a sample that fails
either check counts as failed.  The last output line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workloads run fixed inputs: the shipped decks, and a 3-D stand-in whose
field comes from a fixed generator seed, because its Newton count moves by
a third between field realisations.  ``--seed`` is recorded, not used.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

from hostspeed import REFERENCE_S, at_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DECKS = os.path.join(ROOT, "decks")
CACHE = os.path.join(ROOT, ".bench_cache")

# a run must end within this many seconds, whatever --seconds asks for
RUN_LIMIT_S = 170.0
# set-up is short; repeat it in set-up-only processes up to this many values
MIN_SETUPS = 20
# set-ups per set-up-only process
SETUP_REPEATS = 10
# traced layer times must account for the program's own timers this closely
CROSS_CHECK_TOL = 0.05
SPE10_2D_DAYS = 300.0
SPE10_3D_FIELD_SEED = 2010

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "newton_iters": "count",
    "linear_iters": "count",
    "step_attempts": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.jacobian_s": "s", "model.jacobian_calls": "count",
    "model.residual_s": "s", "model.residual_calls": "count",
    "model.ns_per_cell_jacobian": "ns",
    "pvt.evaluate_s": "s", "pvt.evaluate_calls": "count",
    "wells.rates_s": "s", "wells.rates_calls": "count",
    "linear.decouple_s": "s", "linear.decouple_fallbacks": "count",
    "linear.to_csr_s": "s", "linear.extract_app_s": "s",
    "linear.ilu_setup_s": "s", "linear.ilu_pivot_shifts": "count",
    "linear.amg_setup_s": "s", "linear.amg_levels": "count",
    "linear.amg_operator_complexity": "ratio", "linear.cpr_setup_self_s": "s",
    "linear.ilu_apply_s": "s", "linear.ilu_apply_calls": "count",
    "linear.ilu_apply_gbps_computed": "GB/s",
    "linear.amg_vcycle_s": "s", "linear.amg_vcycle_calls": "count",
    "linear.krylov_self_s": "s", "linear.bicgstab_calls": "count",
    "linear.bicgstab_failures": "count", "linear.iters_per_solve": "count",
    "parallel.matvec_s": "s", "parallel.matvec_calls": "count",
    "parallel.matvec_gbps_computed": "GB/s", "parallel.matvec_pooled": "flag",
    "parallel.pool_run_s": "s", "parallel.pool_run_calls": "count",
    "parallel.reduction_s": "s", "parallel.reduction_calls": "count",
    "nonlinear.self_s": "s", "nonlinear.apply_update_s": "s",
    "nonlinear.newton_per_step": "count", "nonlinear.polish_newton_frac": "ratio",
    "nonlinear.wasted_newton_frac": "ratio", "nonlinear.step_cuts": "count",
    "driver.load_deck_s": "s", "driver.write_vtk_s": "s",
    "driver.output_bytes": "bytes", "driver.to_csv_s": "s",
    "driver.bookkeeping_s": "s", "driver.unattributed_s": "s",
    "driver.traced_wall_s": "s", "driver.trace_overhead_frac": "ratio",
}

COUNTS = ("steps", "newton_iters", "linear_iters", "step_cuts")


def _spe10_2d_deck(run_dir: str) -> str:
    """The shipped SPE10 subset deck, stopped after SPE10_2D_DAYS."""
    with open(os.path.join(DECKS, "spe10_subset.deck")) as fh:
        text = fh.read()
    text, n_end = re.subn(r"(?m)^t_end\s*=.*$", f"t_end = {SPE10_2D_DAYS}", text)
    text, n_file = re.subn(r"file:\s*(\S+)",
                           lambda mt: "file:" + os.path.join(DECKS, mt.group(1)), text)
    if n_end != 1 or n_file != 2:
        raise ValueError("decks/spe10_subset.deck no longer has one t_end "
                         "and two field files")
    path = os.path.join(run_dir, "spe10_2d.deck")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _spe10_3d_deck(run_dir: str) -> str:
    import spe10_3d

    return spe10_3d.write_deck(os.path.join(run_dir, "spe10_3d"),
                               seed=SPE10_3D_FIELD_SEED, layers=6)


@dataclass(frozen=True)
class Workload:
    workers: int
    deck: Callable[[str], str]           # run directory -> deck path


# Each solver layer dominates one workload and is minor on another:
# spe10_2d is solver-bound (ILU apply) on one thread; spe10_3d is the only
# one large enough for pooled matvecs, multi-range assembly and 3-D AMG,
# and is dominated by per-Newton preconditioner set-up; blackoil_mini
# spreads its time over assembly, PVT and set-up with three unknowns per cell.
WORKLOADS = {
    "spe10_2d": Workload(1, _spe10_2d_deck),
    "spe10_3d": Workload(2, _spe10_3d_deck),
    "blackoil_mini": Workload(1, lambda run_dir: os.path.join(DECKS, "spe1_mini.deck")),
}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"               # the worker count is the only parallelism
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


class Sampler:
    """Runs samples of one workload in fresh processes, within a time budget."""

    def __init__(self, workload: Workload, deck: str, run_dir: str, started: float):
        self.workload = workload
        self.deck = deck
        self.run_dir = run_dir
        self.started = started
        self.env = _child_env()
        self.durations: list[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fits(self, seconds: float) -> bool:
        """Whether one more sample of the typical length ends within seconds."""
        return self.elapsed() + statistics.median(self.durations) <= seconds

    def run(self, mode: str) -> dict:
        out = os.path.join(self.run_dir, f"sample{len(self.durations)}")
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--deck", self.deck,
               "--workers", str(self.workload.workers), "--out", out]
        if mode == "trace":
            cmd.append("--trace")
        elif mode == "setup-only":
            cmd += ["--setup-only", str(SETUP_REPEATS)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            result = {"ok": False, "error": "sample timed out"}
        else:
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"ok": False, "error": f"exit {proc.returncode}: "
                                                f"{proc.stderr.strip()[-2000:]}"}
        self.durations.append(time.monotonic() - t0)
        shutil.rmtree(out, ignore_errors=True)
        if not result["ok"]:
            print(f"sample failed ({mode}): {result.get('error')}", file=sys.stderr)
        return result


def _count_mismatches(samples: list[dict]) -> int:
    """Samples whose counts differ from the first good sample's."""
    good = [s for s in samples if s["ok"]]
    ref = tuple(good[0][k] for k in COUNTS)
    bad = [s for s in good if tuple(s[k] for k in COUNTS) != ref]
    for s in bad:
        s["ok"] = False
        print(f"counts differ between samples: {ref} vs "
              f"{tuple(s[k] for k in COUNTS)}", file=sys.stderr)
    return len(bad)


def _cross_check(sample: dict) -> list[str]:
    """Traced layer times against the run's own assembly and solve timers."""
    incl = sample["inclusive_s"]
    layers = sample["layers"]
    traced_assembly = incl.get("model.assemble_jacobian", 0.0) + \
        incl.get("model.assemble_residual", 0.0)
    traced_solve = sum(incl.get(k, 0.0) for k in (
        "linear.decouple", "linear.to_csr", "linear.make_preconditioner",
        "linear.bicgstab"))
    problems = []
    for what, traced, own in (("assembly", traced_assembly, sample["assembly_time"]),
                              ("solve", traced_solve, sample["solve_time"])):
        if abs(traced - own) > CROSS_CHECK_TOL * own:
            problems.append(f"traced {what} {traced:.4f} s vs RunReport {own:.4f} s")
    wall = layers["driver.traced_wall_s"]
    if not abs(layers["driver.unattributed_s"]) < CROSS_CHECK_TOL * wall:
        problems.append(f"unattributed {layers['driver.unattributed_s']:.4f} s "
                        f"of {wall:.4f} s traced wall")
    return problems


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Run samples for about ``seconds`` and return the result object."""
    started = time.monotonic()
    os.makedirs(CACHE, exist_ok=True)
    run_dir = os.path.join(CACHE, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        sampler = Sampler(workload, workload.deck(run_dir), run_dir, started)
        # traced runs alternate with untraced ones, so the tracing overhead
        # compares samples taken under the same host load
        runs = {"plain": [], "trace": []}
        order = ["plain", "trace"] if trace else ["plain"]
        for mode in order:
            runs[mode].append(sampler.run(mode))
        while runs["plain"][0]["ok"] and sampler.fits(seconds):
            mode = order[len(sampler.durations) % len(order)]
            runs[mode].append(sampler.run(mode))
        plain, traced, setups = runs["plain"], runs["trace"], []
        if not trace:
            setups = [[s["setup_s"], s["setup_kernel_s"]] for s in plain if s["ok"]]
            while plain[0]["ok"] and len(setups) < MIN_SETUPS \
                    and sampler.elapsed() < RUN_LIMIT_S - 30:
                probe = sampler.run("setup-only")
                if probe["ok"]:
                    setups += probe["setups"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = plain + traced
    probes = len(sampler.durations) - len(samples)
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    if failed == attempted:
        raise RuntimeError("every sample failed")
    failed += _count_mismatches(samples)
    problems = [p for s in traced if s["ok"] for p in _cross_check(s)]
    for p in problems:
        print(f"cross-check failed: {p}", file=sys.stderr)

    good = [s for s in plain if s["ok"]]
    median = statistics.median
    if trace:
        good_traced = [s for s in traced if s["ok"]]
        if not good_traced:
            raise RuntimeError("every traced sample failed")
        values = {k: median(s["layers"][k] for s in good_traced)
                  for k in PER_LAYER if k != "driver.trace_overhead_frac"}
        values["driver.trace_overhead_frac"] = \
            values["driver.traced_wall_s"] / median(s["wall_s"] for s in good) - 1.0 \
            if good else 0.0
        units = PER_LAYER
    else:
        values = {
            "wall_s": median(at_reference(s["wall_s"], s["kernel_s"]) for s in good),
            "setup_s": median(at_reference(*v) for v in setups),
            "newton_iters": median(s["newton_iters"] for s in good),
            "linear_iters": median(s["linear_iters"] for s in good),
            # accepted steps plus cut attempts: never zero, and every cut shows
            "step_attempts": median(s["steps"] + s["step_cuts"] for s in good),
            "peak_rss_mb": median(s["peak_rss_mb"] for s in good),
        }
        units = END_TO_END
    any_good = next(s for s in samples if s["ok"])
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "wall_samples": sorted(s["wall_s"] for s in good),
        "kernel_samples": sorted(s["kernel_s"] for s in good),
        "setup_samples": sorted(v[0] for v in setups),
        "setup_processes": len(plain) + probes,
        "counts": {k: any_good[k] for k in COUNTS},
        "host": any_good["host"],
    }


def _l3_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def _spread(values: list[float]) -> str:
    """Sample count, fastest, quartiles and slowest of some times."""
    if not values:
        return "n=0"
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"n={len(values)} min {values[0]:.6g} q1 {q[0]:.6g} median {q[1]:.6g} "
            f"q3 {q[2]:.6g} max {values[-1]:.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "resim", "__init__.py")) \
            or not os.path.isdir(DECKS):
        print(f"no resim source tree (src/resim, decks/) under {ROOT}", file=sys.stderr)
        return 2
    try:
        res = measure(WORKLOADS[args.workload], args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    host = dict(res.pop("host"))
    host["nproc"] = len(os.sched_getaffinity(0))
    host["l3_bytes"] = _l3_bytes()
    if host["l3_bytes"]:
        host["jacobian_over_l3"] = host["jacobian_bytes"] / host["l3_bytes"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    walls, setups = res.pop("wall_samples"), res.pop("setup_samples")
    kernels, processes = res.pop("kernel_samples"), res.pop("setup_processes")
    print(f"measured untraced wall: {_spread(walls)}")
    print(f"reference kernel, mean per sample (reference {REFERENCE_S:g} s): "
          f"{_spread(kernels)}")
    if setups:
        print(f"measured set-up over {processes} processes: {_spread(setups)}")
    print(f"counts {json.dumps(res.pop('counts'))}")
    print(f"failure_rate {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.3f}")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"host {json.dumps(host)}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
