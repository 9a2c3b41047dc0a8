"""The benchmark harness under perfbench/ wraps simulator names in place.

These checks install and remove its tracer without running a deck, and
build tiny solver objects to read the attributes the tracer reads, so a
rename or deletion the harness depends on fails here in under a second.
"""

import os
from collections import Counter

import numpy as np
import scipy.sparse as sp

from resim import driver, linear, nonlinear, parallel
from conftest import deck_path
from test_driver import TINY_RUN_DECK, AttemptLog
from test_linear import count_full_build_work, random_block_matrix

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _hooked():
    return (driver.advance_timestep, nonlinear.newton_step,
            nonlinear.make_preconditioner, nonlinear.bicgstab, linear.build_amg,
            vars(linear.BlockILU0)["__init__"], vars(linear.BlockILU0)["solve"],
            vars(linear.BlockMatrix)["to_csr"], vars(linear.BlockMatrix)["extract_app"])


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    originals = _hooked()
    t = Tracer().install()
    try:
        assert all(now is not was for now, was in zip(_hooked(), originals))
    finally:
        t.uninstall()
    assert _hooked() == originals


def test_tracer_counts_match_the_run_report(monkeypatch, tmp_path):
    # the tracer reads the NewtonConfig as advance_timestep's args[4] and
    # rebuilds steps and Newton iterations from the calls it sees
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    t = Tracer().install()
    try:
        report = driver.run_simulation(driver.parse_deck(TINY_RUN_DECK),
                                       output_dir=str(tmp_path))
    finally:
        t.uninstall()
    assert t.count["steps"] == report.n_steps
    assert t.count["newtons"] == report.n_newton
    # 6 cells, no coarse AMG level: every Newton iteration builds a hierarchy
    builds = sum(1 for span in t.spans if span[0] == "linear.build_amg")
    assert builds == report.n_newton
    # property and well-rate calls reach their layers: one rate pass over
    # every perforation per assembly and per well-rate report, so a rate
    # call that bypasses the traced name fails here
    layers, _ = t.summarize(1.0)
    assert layers["pvt.evaluate_calls"] > 0
    calls = Counter(span[0] for span in t.spans)
    assert calls["model.well_mass_rates"] == report.n_steps
    assert layers["wells.rates_calls"] == (calls["model.assemble_jacobian"]
                                           + calls["model.assemble_residual"]
                                           + calls["model.well_mass_rates"])


def test_amg_setup_spans_cover_the_resetups(monkeypatch, tmp_path):
    # 100 cells, so the hierarchy has coarse levels: the run's first attempt
    # builds it in full and every later one re-sets it up, both through
    # build_amg, so linear.amg_setup_s times the re-set-ups too
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    deck = driver.load_deck(deck_path("buckley_leverett.deck"))
    deck.t_end = 5.0
    work = count_full_build_work(monkeypatch)
    log = AttemptLog(monkeypatch)
    t = Tracer().install()
    try:
        report = driver.run_simulation(deck, output_dir=str(tmp_path))
    finally:
        t.uninstall()
    builds = sum(1 for span in t.spans if span[0] == "linear.build_amg")
    assert builds == sum(1 for n in log.newtons if n) == len(work) < report.n_newton
    assert work[0] > 0 and work[1:] == [0] * (builds - 1) and builds > 1 and t.amg[0] >= 2
    layers, _ = t.summarize(1.0)
    assert layers["linear.amg_setup_s"] > 0


def test_sample_patch_targets_exist():
    # the names perfbench/sample.py replaces to sample the host's speed
    assert callable(driver.advance_timestep)
    assert callable(nonlinear.newton_step)
    assert callable(vars(linear.BlockILU0)["solve"])


def test_attributes_the_tracer_reads():
    a = random_block_matrix(np.random.default_rng(0), m=2, nwell=1)
    ilu = linear.BlockILU0(a)
    assert ilu.a is a and set(ilu.a.lo) == set(ilu.a.hi)
    assert ilu.inv_diag.shape == a.diag.shape
    assert ilu.pivot_shifts == 0
    hier = linear.build_amg(sp.csr_matrix(np.array([[3.0]])))
    assert (hier.levels, hier.nlevels, hier.coarse_n) == ([], 1, 1)
    assert linear.det_dot is parallel.det_dot
    mv = parallel.PooledMatvec(a.to_csr(), None)
    assert mv.a.nnz > 0 and mv.slices is None
