import logging
import os

import numpy as np
import pytest
import scipy.io

import resim
from resim import driver, linear, model, nonlinear, units
from resim.driver import (DeckError, load_deck, parse_deck, run_simulation,
                          write_vtk, initial_state, main)
from resim.nonlinear import SimulationAbort
from conftest import deck_path
from test_linear import count_full_build_work

MINIMAL_DECK = """
[grid]
nx = 1

[fluid]
model = two_phase

[time]
t_end = 0.0
"""

TINY_RUN_DECK = """
[grid]
nx = 6
ny = 1
nz = 1
dx = 10.0
dy = 10.0
dz = 10.0

[fields]
kx = 100.0
poro = 0.2

[fluid]
model = two_phase
mu_w = 1.0
mu_o = 1.0

[init]
p_init = 3000.0

[wells]
well = I type=injector fluid=water rw=0.3 water_rate=5.0
perf = I 0 0 0
well = P type=producer rw=0.3 bhp=3000.0
perf = P 5 0 0

[solver]
newton_tol = 1e-3

[time]
t_end = 2.0
dt_init = 0.5
dt_max = 1.0
"""


# values a config class rejects, as (section, deck line)
REJECTED_VALUES = [
    ("solver", "beta = 2.5"), ("time", "growth = 0.9"), ("time", "dt_min = 5.0"),
    ("grid", "nx = 0"), ("grid", "dx = 0.0"), ("solver", "linear_max_it = 0"),
    ("solver", "preconditioner = foo"), ("solver", "decoupling = xyz"),
    # CPR-FPF is the only preconditioner
    ("solver", "preconditioner = ilu0"), ("solver", "preconditioner = none"),
    ("solver", "forcing_rule = eq99"), ("fluid", "s_wc = 0.9"),
    ("fluid", "mu_w = -1.0"), ("fields", "poro = abc"), ("fields", "poro = 1.5"),
    ("solver", "newton_max = 0"), ("solver", "newton_atol = -1e-8"),
    ("solver", "theta_fixed = 0"), ("solver", "theta_fixed = 1.0"),
    ("solver", "theta0 = 0"), ("solver", "theta0 = 5"),
    ("time", "max_cuts = -1"), ("output", "vtk_every = -2"),
    ("output", "dump_matrices = maybe"), ("fluid", "s_gc = -0.1"),
    ("fluid", "s_gc = 0.95"), ("fluid", "mu_g = 0.0"),
    # the Newton update's limits are no longer settings: unknown keys
    ("solver", "max_ds = -0.5"), ("solver", "max_ds = 0"), ("solver", "max_dp = 0")]
DELETED_KEYS = {"max_ds", "max_dp"}


# wells the model can never hold to their constraint, as (deck, the rejected
# line, error); before these were rejected at load, the gas injector ran to
# the end injecting nothing and the other two cut the step until the run
# aborted
UNMEETABLE_WELLS = [
    pytest.param(TINY_RUN_DECK.replace("fluid=water rw=0.3 water_rate=5.0",
                                       "fluid=gas rw=0.3 gas_rate=5.0"), "well = I",
                 "well I: gas injectors and gas_rate need model = black_oil",
                 id="two-phase-gas-injector"),
    pytest.param(TINY_RUN_DECK.replace("rw=0.3 bhp=3000.0", "rw=0.3 gas_rate=-5.0"),
                 "well = P", "well P: gas injectors and gas_rate need model = black_oil",
                 id="two-phase-gas-rate"),
    pytest.param(TINY_RUN_DECK.replace("water_rate=5.0", "oil_rate=5.0"), "well = I",
                 "well I: a water injector's rate constraint must be water_rate or "
                 "liquid_rate, not oil_rate", id="water-injector-oil-rate"),
    pytest.param(TINY_RUN_DECK + "\n[schedule]\nat = 1.0 P gas_rate -5.0\n", "at = ",
                 "well P: gas injectors and gas_rate need model = black_oil",
                 id="scheduled-two-phase-gas-rate"),
    pytest.param(TINY_RUN_DECK + "\n[schedule]\nat = 1.0 I oil_rate 5.0\n", "at = ",
                 "well I: a water injector's rate constraint must be water_rate or "
                 "liquid_rate, not oil_rate", id="scheduled-water-injector-oil-rate")]


def deck_with(section, line):
    """TINY_RUN_DECK with ``line`` first in [section] (added at the end if the
    deck has none), replacing its key's line."""
    key = line.split(" = ")[0]
    rows = [ln for ln in TINY_RUN_DECK.splitlines() if not ln.startswith(key + " = ")]
    if f"[{section}]" not in rows:
        rows.append(f"[{section}]")
    i = rows.index(f"[{section}]")
    return "\n".join(rows[:i + 1] + [line] + rows[i + 1:]) + "\n"

def parse_vtk_cell_data(path):
    """Minimal BINARY legacy-VTK structured-points reader for round-trip
    checks: big-endian float64 cell data, read back bit for bit."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode("ascii"), end + 1
        return text

    lines = [line() for _ in range(8)]
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "BINARY"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    dims = tuple(int(v) for v in lines[4].split()[1:])
    assert lines[7].startswith("CELL_DATA ")
    ncell = int(lines[7].split()[1])
    arrays = {}
    while pos < len(data):
        kind, name, dtype, ncomp = line().split()
        assert (kind, dtype, ncomp) == ("SCALARS", "double", "1")
        assert line() == "LOOKUP_TABLE default"
        arrays[name] = np.frombuffer(data, ">f8", ncell, pos).astype(np.float64)
        pos += 8 * ncell
        assert data[pos:pos + 1] == b"\n"
        pos += 1
    return dims, ncell, arrays


class TestParseDeck:
    def test_minimal_deck_defaults(self):
        deck = parse_deck(MINIMAL_DECK)
        assert deck.grid.ncell == 1
        assert deck.fluid.kind == "two_phase"
        assert deck.solver.preconditioner == "cpr_fpf"
        assert deck.newton.tol == 1e-2
        assert deck.t_end == 0.0

    def test_unknown_key_reports_line(self):
        bad = MINIMAL_DECK.replace("nx = 1", "nx = 1\nbogus = 2")
        with pytest.raises(DeckError, match=r"line 4.*bogus"):
            parse_deck(bad)

    def test_ilu_ordering_key_rejected(self):
        bad = MINIMAL_DECK + "\n[solver]\nilu_ordering = natural\n"
        with pytest.raises(DeckError, match=r"line 12.*ilu_ordering"):
            parse_deck(bad)

    def test_unknown_section(self):
        with pytest.raises(DeckError, match=r"unknown section"):
            parse_deck("[nonsense]\n")

    def test_missing_required_section(self):
        with pytest.raises(DeckError, match=r"\[time\]"):
            parse_deck("[grid]\nnx = 1\n\n[fluid]\nmodel = two_phase\n")

    def test_duplicate_key(self):
        bad = MINIMAL_DECK.replace("nx = 1", "nx = 1\nnx = 2")
        with pytest.raises(DeckError, match="duplicate"):
            parse_deck(bad)

    def test_schedule_undeclared_well(self):
        bad = TINY_RUN_DECK + "\n[schedule]\nat = 0.0 GHOST bhp 100.0\n"
        with pytest.raises(DeckError, match="GHOST"):
            parse_deck(bad)

    def test_perf_out_of_grid(self):
        bad = TINY_RUN_DECK.replace("perf = P 5 0 0", "perf = P 17 0 0")
        with pytest.raises(DeckError, match="outside grid"):
            parse_deck(bad)

    def test_field_file_size_mismatch(self, tmp_path):
        perm = tmp_path / "perm.dat"
        perm.write_text("1.0 " * 17)
        poro = tmp_path / "poro.dat"
        poro.write_text("0.2 " * 6)
        text = TINY_RUN_DECK.replace(
            "kx = 100.0\nporo = 0.2",
            "perm = file:perm.dat\nporo = file:poro.dat")
        with pytest.raises(DeckError, match="18"):
            parse_deck(text, base_dir=str(tmp_path))

    def test_non_finite_field_file(self, tmp_path):
        (tmp_path / "perm.dat").write_text("1.0 " * 9 + "nan " + "1.0 " * 8)
        (tmp_path / "poro.dat").write_text("0.2 " * 6)
        text = TINY_RUN_DECK.replace(
            "kx = 100.0\nporo = 0.2",
            "perm = file:perm.dat\nporo = file:poro.dat")
        with pytest.raises(DeckError, match="non-finite token 'nan' at position 9"):
            parse_deck(text, base_dir=str(tmp_path))

    @pytest.mark.parametrize("row", ["nan 1.1", "1000.0 inf"])
    def test_non_finite_table_row(self, row):
        text = TINY_RUN_DECK + f"\n[table:bo]\n0.0 1.0\n{row}\n"
        line = text.splitlines().index(row) + 1
        with pytest.raises(DeckError, match=f"line {line}: non-finite table row '{row}'"):
            parse_deck(text)

    @pytest.mark.parametrize("fields, expected", [
        ("", (100.0, 100.0, 100.0, 0.2)),
        ("kx = 50.0", (50.0, 50.0, 50.0, 0.2)),
        ("ky = 7.0\nkz = 5.0\nporo = 0.25", (100.0, 7.0, 5.0, 0.25))])
    def test_constant_fields_and_their_defaults(self, fields, expected):
        # ky and kz default to kx, kx to 100 md and poro to 0.2
        deck = parse_deck(TINY_RUN_DECK.replace("kx = 100.0\nporo = 0.2", fields))
        names = ("kx", "ky", "kz", "poro")
        assert tuple(float(deck.effective[f"fields.{k}"]) for k in names) == expected
        for k, value in zip(names, expected):
            assert np.array_equal(getattr(deck.rock, k), np.full(deck.grid.ncell, value))

    def test_porosity_file_without_perm_file_reports_line(self):
        text = TINY_RUN_DECK.replace("poro = 0.2", "poro = file:poro.dat")
        line = text.splitlines().index("poro = file:poro.dat") + 1
        with pytest.raises(DeckError, match=f"line {line}: poro must be a finite number, "
                                            "got 'file:poro.dat'"):
            parse_deck(text)

    def test_missing_field_file(self):
        text = TINY_RUN_DECK.replace("kx = 100.0\nporo = 0.2",
                                     "perm = file:nope.dat\nporo = 0.2")
        with pytest.raises(DeckError, match="does not exist"):
            parse_deck(text, base_dir="/tmp")

    def test_well_without_constraint(self):
        bad = TINY_RUN_DECK.replace(" water_rate=5.0", "")
        with pytest.raises(DeckError, match="no constraint"):
            parse_deck(bad)

    def test_explicit_zero_bhp_parses(self):
        deck = parse_deck(TINY_RUN_DECK.replace("bhp=3000.0", "bhp=0.0"))
        assert deck.wells[1].constraint == resim.Constraint("bhp", 0.0)

    @pytest.mark.parametrize("schedule", ["", "\n[schedule]\nat = 1.0 P bhp 2500.0\n"])
    def test_producer_without_constraint_at_start(self, schedule):
        # no bhp on the well line, and none in the schedule at t = 0
        bad = TINY_RUN_DECK.replace(" bhp=3000.0", "") + schedule
        with pytest.raises(DeckError, match="well P has no constraint at t = 0"):
            parse_deck(bad)

    def test_constraint_from_schedule_at_start(self):
        text = TINY_RUN_DECK.replace(" bhp=3000.0", "") + \
            "\n[schedule]\nat = 0.0 P bhp 0.0\n"
        assert parse_deck(text).schedule.entries[0][2] == resim.Constraint("bhp", 0.0)

    def test_duplicate_perforation_reports_line(self):
        bad = TINY_RUN_DECK.replace("perf = P 5 0 0", "perf = P 5 0 0\nperf = P 5 0 0")
        lineno = bad.splitlines().index("perf = P 5 0 0") + 2
        with pytest.raises(DeckError, match=rf"line {lineno}: well P: cell 5 is "
                                            r"perforated twice"):
            parse_deck(bad)

    @pytest.mark.parametrize("old, new, token", [
        ("bhp=3000.0", "bhp=abc", "bhp=abc"),
        ("bhp=3000.0", "bhp=nan", "bhp=nan"),
        ("water_rate=5.0", "water_rate=inf", "water_rate=inf"),
        ("rw=0.3 bhp", "rw=nan bhp", "rw=nan"),
        ("bhp=3000.0", "bhp=3000.0 wi=xyz", "wi=xyz"),
        ("bhp=3000.0", "bhp=3000.0 wi=nan", "wi=nan")])
    def test_bad_well_number_reports_line(self, old, new, token):
        bad = TINY_RUN_DECK.replace(old, new)
        lineno = next(i for i, ln in enumerate(bad.splitlines(), 1) if new in ln)
        key, value = token.split("=")
        with pytest.raises(DeckError, match=rf"^line {lineno}: {key} must be a finite "
                                            rf"number, got '{value}'$"):
            parse_deck(bad)

    @pytest.mark.parametrize("old, new", [
        ("p_init = 3000.0", "p_init = nan"),
        ("t_end = 2.0", "t_end = inf")])
    def test_non_finite_deck_number_reports_line(self, old, new):
        bad = TINY_RUN_DECK.replace(old, new)
        lineno = bad.splitlines().index(new) + 1
        key, value = new.split(" = ")
        with pytest.raises(DeckError, match=rf"^line {lineno}: {key} must be a finite "
                                            rf"number, got '{value}'$"):
            parse_deck(bad)

    @pytest.mark.parametrize("entry, key, value", [
        *((f"{t} P bhp 2500.0", "time", t) for t in ("nan", "inf", "-inf", "1e400")),
        ("1.0 P bhp nan", "bhp", "nan")])
    def test_non_finite_schedule_number_reports_line(self, entry, key, value):
        # a switch at a non-finite time would never apply
        bad = TINY_RUN_DECK + f"\n[schedule]\nat = {entry}\n"
        lineno = bad.splitlines().index(f"at = {entry}") + 1
        with pytest.raises(DeckError, match=rf"^line {lineno}: {key} must be a finite "
                                            rf"number, got '{value}'$"):
            parse_deck(bad)

    @pytest.mark.parametrize("k", ["2:1", "0:0"])
    def test_empty_perf_range_reports_line(self, k):
        # P keeps a perforation from its other line, so only the range check
        # sees the empty one
        bad = TINY_RUN_DECK.replace("perf = P 5 0 0", f"perf = P 5 0 0\nperf = P 4 0 {k}")
        lineno = bad.splitlines().index(f"perf = P 4 0 {k}") + 1
        with pytest.raises(DeckError, match=rf"^line {lineno}: empty perf range '{k}' "
                                            r"\(need k0 < k1\)$"):
            parse_deck(bad)

    @pytest.mark.parametrize("section, line", REJECTED_VALUES)
    def test_rejected_value_reports_line(self, section, line):
        text = deck_with(section, line)
        lineno = text.splitlines().index(line) + 1
        key = line.split(" = ")[0]
        with pytest.raises(DeckError, match=rf"^line {lineno}: ") as err:
            parse_deck(text)
        assert f"[{section}]" in str(err.value) or key in str(err.value)
        if key in DELETED_KEYS:
            assert str(err.value) == f"line {lineno}: unknown key {key!r} in [{section}]"

    def test_unknown_injected_phase_names_token(self):
        bad = TINY_RUN_DECK.replace("fluid=water", "fluid=oil")
        with pytest.raises(DeckError, match=r"^line 23: well I: unknown injected "
                                            r"phase 'oil'$"):
            parse_deck(bad)

    @pytest.mark.parametrize("text, line, error", UNMEETABLE_WELLS)
    def test_unmeetable_well_reports_line(self, text, line, error):
        lineno = next(i for i, ln in enumerate(text.splitlines(), 1) if ln.startswith(line))
        with pytest.raises(DeckError, match=rf"^line {lineno}: {error}$"):
            parse_deck(text)

    def test_gas_injector_meets_gas_rate_in_black_oil(self):
        deck = load_deck(deck_path("spe1_mini.deck"))
        gas = [w for w in deck.wells if w.kind == "injector"]
        assert [(w.inj_phase, w.constraint.kind) for w in gas] == [("g", "gas_rate")]
        text = TINY_RUN_DECK.replace("water_rate=5.0", "liquid_rate=5.0")
        assert parse_deck(text).wells[0].constraint.kind == "liquid_rate"

    def test_spe10_subset_deck_matches_paper_wells(self):
        deck = load_deck(deck_path("spe10_subset.deck"))
        assert (deck.grid.nx, deck.grid.ny, deck.grid.nz) == (60, 220, 1)
        kinds = [w.kind for w in deck.wells]
        assert kinds.count("injector") == 1
        assert kinds.count("producer") == 4
        assert deck.newton.tol == 1e-2
        assert deck.solver.max_iterations == 50
        assert deck.solver.decoupling == "quasi_impes"

    @pytest.mark.skipif("RESIM_SPE10_DATA" not in os.environ,
                        reason="full SPE10 files not present")
    def test_spe10_full_deck_parses(self, tmp_path):
        src = open(deck_path("spe10_full.deck")).read()
        base = os.environ["RESIM_SPE10_DATA"]
        deck = parse_deck(src, base_dir=base)
        assert deck.grid.ncell == 1_122_000
        assert len(deck.wells) == 5

    def test_black_oil_deck_tables(self):
        deck = load_deck(deck_path("spe1_mini.deck"))
        assert deck.fluid.kind == "black_oil"
        assert deck.fluid.m == 3
        assert len(deck.fluid.pvt.rs_table.x) > 1
        assert deck.solver.decoupling == "abf"

    def test_deck_table_override(self):
        text = TINY_RUN_DECK + "\n[table:pcow]\n0.2 5.0\n0.8 1.0\n"
        deck = parse_deck(text)
        assert list(deck.fluid.pvt.pcow_table.x) == [0.2, 0.8]

    def test_muo_three_column_table(self):
        text = TINY_RUN_DECK.replace("mu_o = 1.0\n", "") + \
            "\n[table:muo]\n1000.0 2.0 1e-5\n5000.0 1.5 2e-5\n"
        deck = parse_deck(text)
        assert deck.fluid.pvt.mu_o_slope_table is not None
        v, _ = deck.fluid.pvt.mu_o_slope_table(np.array([1000.0]))
        assert v[0] == pytest.approx(1e-5)


class TestVtk:
    def test_small_grid_arrays(self, tmp_path):
        g = resim.Grid(2, 2, 1, 10.0, 10.0, 5.0)
        rock = resim.RockFields.uniform(g, 50.0, 0.25)
        st = resim.ReservoirState(np.array([1.0, 2.0, 3.0, 4.0]),
                                  np.array([0.1, 0.2, 0.3, 0.4]))
        path = str(tmp_path / "out.vtk")
        write_vtk(g, st, rock, path)
        dims, ncell, arrays = parse_vtk_cell_data(path)
        assert dims == (3, 3, 2)
        assert ncell == 4
        assert set(arrays) == {"pressure", "s_w", "kx", "poro"}

    def test_roundtrip_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        g = resim.Grid(4, 3, 2, 10.0, 10.0, 5.0)
        rock = resim.RockFields(10 ** rng.uniform(-3, 4, 24),
                                np.ones(24), np.ones(24),
                                rng.uniform(0, 0.5, 24))
        st = resim.ReservoirState(rng.uniform(1000, 9000, 24),
                                  rng.uniform(0, 1, 24))
        path = str(tmp_path / "rt.vtk")
        write_vtk(g, st, rock, path)
        _, _, arrays = parse_vtk_cell_data(path)
        for name, ref in (("pressure", st.p_o), ("s_w", st.s_w),
                          ("kx", rock.kx), ("poro", rock.poro)):
            err = np.abs(arrays[name] - ref) / np.maximum(np.abs(ref), 1e-30)
            assert err.max() <= 1e-7

    def test_black_oil_includes_gas(self, tmp_path):
        g = resim.Grid(2, 1, 1, 10.0, 10.0, 5.0)
        rock = resim.RockFields.uniform(g, 50.0, 0.25)
        st = resim.ReservoirState(np.array([1.0, 2.0]), np.array([0.1, 0.2]),
                                  x3=np.array([0.05, 3000.0]),
                                  sat=np.array([True, False]))
        path = str(tmp_path / "bo.vtk")
        write_vtk(g, st, rock, path)
        _, _, arrays = parse_vtk_cell_data(path)
        np.testing.assert_allclose(arrays["s_g"], [0.05, 0.0])

    def test_spe10_kx_export_matches_ingestion(self, tmp_path):
        deck = load_deck(deck_path("spe10_subset.deck"))
        st = initial_state(deck)
        path = str(tmp_path / "spe10.vtk")
        write_vtk(deck.grid, st, deck.rock, path)
        _, _, arrays = parse_vtk_cell_data(path)
        assert arrays["kx"].min() == pytest.approx(deck.rock.kx.min(), rel=1e-7)
        assert arrays["kx"].max() == pytest.approx(deck.rock.kx.max(), rel=1e-7)

    def test_edge_values_round_trip_exactly(self, tmp_path):
        # binary float64 keeps every value bit for bit: subnormals, signed
        # zeros and the extremes included
        g = resim.Grid(7, 1, 1, 10.0, 10.0, 5.0)
        p = np.array([-1.5, 0.0, 1e-300, 1e300, -1e300, 4012.345678912, -0.0])
        s_w = np.array([0.25, 1.0 / 3.0, 5e-324, 0.0, 1.0, -1e-300, 0.2])
        rock = resim.RockFields(np.array([1e-3, 2e4, 7.0, 1e300, 1e-300, 0.0, 3.0]),
                                np.ones(7), np.ones(7), np.linspace(0.0, 0.5, 7))
        st = resim.ReservoirState(p, s_w)
        path = tmp_path / "edge.vtk"
        write_vtk(g, st, rock, str(path))
        _, ncell, arrays = parse_vtk_cell_data(str(path))
        assert ncell == 7 and list(arrays) == ["pressure", "s_w", "kx", "poro"]
        for name, arr in (("pressure", p), ("s_w", s_w), ("kx", rock.kx),
                          ("poro", rock.poro)):
            assert np.array_equal(arrays[name], arr)
            assert arrays[name].tobytes() == arr.astype(np.float64).tobytes()

    def test_unwritable_path_raises(self, tmp_path):
        g = resim.Grid(1, 1, 1, 1.0, 1.0, 1.0)
        rock = resim.RockFields.uniform(g)
        st = resim.ReservoirState(np.array([1.0]), np.array([0.5]))
        with pytest.raises(OSError, match="no/such"):
            write_vtk(g, st, rock, str(tmp_path / "no" / "such" / "dir.vtk"))


class TestRunSimulation:
    def test_zero_duration_run(self, tmp_path):
        deck = parse_deck(MINIMAL_DECK)
        report = run_simulation(deck, output_dir=str(tmp_path))
        assert report.n_steps == 0
        assert report.n_newton == 0
        assert os.path.exists(tmp_path / "resim_out_final.vtk")

    def test_deck_echo_every_parameter_once(self, tmp_path, caplog):
        deck = parse_deck(TINY_RUN_DECK)
        with caplog.at_level(logging.INFO):
            run_simulation(deck, output_dir=str(tmp_path))
        echoed = [r.message[len("deck: "):] for r in caplog.records
                  if r.message.startswith("deck: ")]
        keys = [ln.split(" = ")[0] for ln in echoed]
        assert len(keys) == len(set(keys)), "duplicated parameter echo"
        # each accepted key is echoed under its value's name, and nothing else
        echo_name = {"newton_tol": "tol", "newton_atol": "atol",
                     "newton_max": "max_newton", "linear_max_it": "max_iterations"}
        for section in ("grid", "init", "solver", "time", "output"):
            accepted = {f"{section}.{echo_name.get(k, k)}"
                        for k in driver._SECTION_KEYS[section]}
            assert accepted and {k for k in keys if k.startswith(section + ".")} == accepted
        for expected in ("fluid.model", "fluid.mu_w", "wells.well.I", "fields.kx"):
            assert expected in keys, f"missing {expected}"

    def test_report_consistency(self, tmp_path):
        deck = parse_deck(TINY_RUN_DECK)
        report = run_simulation(deck, output_dir=str(tmp_path))
        assert report.n_steps == len(report.steps)
        assert report.n_newton == sum(s.newtons for s in report.steps)
        assert report.avg_solver == pytest.approx(report.n_solver / report.n_newton)
        assert report.avg_time == pytest.approx(report.total_time / report.n_newton)

    def test_csv_and_vtk_every(self, tmp_path):
        deck = parse_deck(TINY_RUN_DECK)
        run_simulation(deck, report_csv="steps.csv", vtk_every=1,
                       output_dir=str(tmp_path))
        assert os.path.exists(tmp_path / "steps.csv")
        snaps = [f for f in os.listdir(tmp_path) if f.startswith("resim_out_0")]
        assert snaps, "expected periodic VTK snapshots"

    def test_empty_output_dir_is_the_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_simulation(parse_deck(TINY_RUN_DECK), report_csv="steps.csv", output_dir="")
        assert sorted(os.listdir(tmp_path)) == ["resim_out_final.vtk", "steps.csv"]
        assert (tmp_path / "steps.csv").read_text().startswith("step,")

    def test_negative_vtk_every_rejected(self, tmp_path):
        deck = parse_deck(TINY_RUN_DECK)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="vtk_every must be >= 0, got -2"):
            run_simulation(deck, vtk_every=-2, output_dir=str(out))
        assert not out.exists()                           # nothing was run

    def test_csv_appends_correction_counts(self, tmp_path):
        import csv

        report = run_simulation(load_deck(deck_path("spe1_mini.deck")),
                                report_csv="steps.csv", output_dir=str(tmp_path))
        with open(tmp_path / "steps.csv") as fh:
            rows = list(csv.reader(fh))
        prefix = ["step", "t_days", "dt_days", "newtons", "linear_iters", "cuts",
                  "wall_s", "assembly_s", "solve_s"]
        for c in sorted(report.initial_mass):
            prefix += [f"mass_{c}_lbm", f"injected_{c}_lbm", f"produced_{c}_lbm"]
        comps = sorted(report.initial_mass)
        assert rows[0] == prefix + ["corrections_tried", "corrections_kept"] + \
            [f"residual_{c}" for c in comps] + ["decouple_fallbacks", "pivot_shifts",
                                                "ds_chops", "extrapolated_starts",
                                                "loose_first_solves", "floored_solves"]
        k = len(prefix)
        assert [(int(r[k]), int(r[k + 1])) for r in rows[1:]] == \
            [(s.corrections_tried, s.corrections_kept) for s in report.steps]
        assert all(s.corrections_kept <= s.corrections_tried for s in report.steps)
        assert 1 <= report.n_corrections_kept <= report.n_corrections_tried

    def test_matrix_dumps(self, tmp_path):
        deck = parse_deck(TINY_RUN_DECK)
        deck.t_end = 0.5
        run_simulation(deck, dump_matrices=True, output_dir=str(tmp_path))
        mtx = sorted(f for f in os.listdir(tmp_path) if f.endswith("_A.mtx"))
        assert mtx
        a = scipy.io.mmread(str(tmp_path / mtx[0])).tocsr()
        assert a.shape == (14, 14)  # 6 cells x 2 unknowns + 2 wells

    def test_worker_determinism_waterflood(self, tmp_path):
        # 1-D 100-cell waterflood, 1 worker vs 4 workers: identical iteration
        # columns (shortened horizon; the full grid runs in the acceptance suite)
        deck = load_deck(deck_path("buckley_leverett.deck"))
        deck.t_end = 5.0
        counts = {}
        for w in (1, 4):
            rep = run_simulation(deck, workers=w, output_dir=str(tmp_path / str(w)))
            counts[w] = [(s.newtons, s.linear_iters, s.cuts) for s in rep.steps]
        assert counts[1] == counts[4]

    def test_schedule_switch_resets_ramp(self, tmp_path, caplog):
        text = TINY_RUN_DECK + "\n[schedule]\nat = 1.0 P bhp 2800.0\n"
        deck = parse_deck(text)
        with caplog.at_level(logging.INFO):
            report = run_simulation(deck, output_dir=str(tmp_path))
        assert any("schedule switch" in r.message for r in caplog.records)
        # the producer BHP target changed mid-run
        assert report.n_steps >= 2

    def test_no_extrapolated_start_on_the_first_step_or_after_a_switch(self, tmp_path,
                                                                       monkeypatch):
        # steps at t = 0, 0.5 | switch | 1.0, 1.5: the first step and the one
        # after the switch start from the old state with no contraction; the
        # others are handed the state before their old state and the last
        # step's first Newton contraction
        calls = []
        advance = driver.advance_timestep

        def spy(model_, state_old, dt, *args, **kw):
            out = advance(model_, state_old, dt, *args, **kw)
            calls.append((state_old, kw["state_prev"], dt, args, out, kw["contraction"]))
            return out

        monkeypatch.setattr(driver, "advance_timestep", spy)
        text = TINY_RUN_DECK + "\n[schedule]\nat = 1.0 P bhp 2800.0\n"
        report = run_simulation(parse_deck(text), output_dir=str(tmp_path))
        assert [c[0].t for c in calls] == [0.0, 0.5, 1.0, 1.5]
        assert [c[1] is None for c in calls] == [True, False, True, False]
        assert calls[1][1] is calls[0][0] and calls[3][1] is calls[2][0]
        assert [c[5] for c in calls] == [None, report.steps[0].contraction,
                                         None, report.steps[2].contraction]
        assert None not in [s.contraction for s in report.steps]
        assert [s.extrapolated_starts for s in report.steps][0::2] == [0, 0]
        assert sum(s.extrapolated_starts for s in report.steps) >= 1
        # the first step and the one after the switch give the old-state
        # start's bits
        deck = parse_deck(text)
        for state_old, _, dt, args, (new, rec), _ in (calls[0], calls[2]):
            ref, ref_rec = advance(model.ReservoirModel(deck.grid, deck.rock, deck.fluid),
                                   state_old, dt, *args)
            for f in ("p_o", "s_w", "p_h"):
                assert getattr(new, f).tobytes() == getattr(ref, f).tobytes()
            assert [e.lhs_norm for e in rec.newton_log] == \
                [e.lhs_norm for e in ref_rec.newton_log]

    def test_rerun_of_one_deck_is_identical(self, tmp_path):
        # a schedule switch must not leak from one run of a Deck into the next
        with open(deck_path("buckley_leverett.deck")) as fh:
            text = fh.read().replace("t_end = 30.0", "t_end = 4.0")
        deck = parse_deck(text + "\n[schedule]\nat = 2.0 PROD bhp 2500.0\n")
        before = [w.constraint for w in deck.wells]
        runs = [run_simulation(deck, output_dir=str(tmp_path / str(i))).final_state
                for i in range(2)]
        for f in ("p_o", "s_w", "p_h"):
            np.testing.assert_array_equal(getattr(runs[0], f), getattr(runs[1], f))
        assert [w.constraint for w in deck.wells] == before

    def test_abort_carries_diagnostics(self, tmp_path):
        deck = parse_deck(TINY_RUN_DECK)
        deck.newton.max_newton = 1
        deck.controller.max_cuts = 2
        deck.controller.dt_min = 0.2
        deck.newton.tol = 1e-12
        deck.newton.atol = 1e-16
        with pytest.raises(SimulationAbort) as exc:
            run_simulation(deck, output_dir=str(tmp_path))
        assert exc.value.state is not None
        assert exc.value.report is not None
        assert os.path.exists(tmp_path / "resim_out_final.vtk")


def inject_nan_residual(monkeypatch, first, last=None):
    """Make assemblies first..last (1-based, residual and Jacobian alike;
    ``last`` None: every later one) see a non-finite cell residual."""
    calls = [0]
    check = model._flatten_check

    def faulty(r_cells, r_wells, m):
        calls[0] += 1
        if calls[0] >= first and (last is None or calls[0] <= last):
            r_cells = r_cells.copy()
            r_cells.flat[0] = np.nan
        return check(r_cells, r_wells, m)

    monkeypatch.setattr(model, "_flatten_check", faulty)
    return calls


def inject_nan_jacobian(monkeypatch, first, last=None):
    """Put a NaN into the first diagonal block of Jacobians first..last
    (1-based; ``last`` None: every later one); their residuals stay finite."""
    calls = [0]
    assemble = model.ReservoirModel._assemble

    def faulty(self, *args, **kwargs):
        out = assemble(self, *args, **kwargs)
        if out[2] is not None:
            calls[0] += 1
            if calls[0] >= first and (last is None or calls[0] <= last):
                out[2].diag[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(model.ReservoirModel, "_assemble", faulty)
    return calls


class AttemptLog:
    """Newton iterations run and AMG hierarchies built, per step attempt."""

    def __init__(self, monkeypatch):
        self.newtons, self.builds = [], []
        attempt, step, build = nonlinear._attempt, nonlinear.newton_step, linear.build_amg

        def counted_attempt(*args, **kwargs):
            self.newtons.append(0)
            self.builds.append(0)
            return attempt(*args, **kwargs)

        def counted_step(*args, **kwargs):
            self.newtons[-1] += 1
            return step(*args, **kwargs)

        def counted_build(*args, **kwargs):
            self.builds[-1] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(nonlinear, "_attempt", counted_attempt)
        monkeypatch.setattr(nonlinear, "newton_step", counted_step)
        monkeypatch.setattr(linear, "build_amg", counted_build)


class TestAmgLifetime:
    def short_waterflood(self):
        # 100 cells, more than _AMG_MIN_COARSE: the hierarchy has a coarse level
        deck = load_deck(deck_path("buckley_leverett.deck"))
        deck.t_end = 5.0
        return deck

    def test_one_build_per_attempt_with_newton(self, tmp_path, monkeypatch):
        log = AttemptLog(monkeypatch)
        report = run_simulation(self.short_waterflood(), output_dir=str(tmp_path))
        assert len(log.newtons) == report.n_steps + report.n_cuts
        assert log.builds == [1 if n else 0 for n in log.newtons]
        # the hierarchy was reused: more Newton iterations than builds
        assert report.n_newton > sum(log.builds)

    def test_attempt_after_a_cut_rebuilds(self, tmp_path, monkeypatch):
        # assemblies: residual, Jacobian, then the first trial state's
        # residual, which fails the first attempt after one Newton iteration
        inject_nan_residual(monkeypatch, 3, 3)
        work = count_full_build_work(monkeypatch)
        log = AttemptLog(monkeypatch)
        report = run_simulation(self.short_waterflood(), output_dir=str(tmp_path))
        assert report.steps[0].cuts == report.n_cuts == 1
        assert log.newtons[0] == 1 and log.newtons[1] >= 2
        assert log.builds == [1 if n else 0 for n in log.newtons]
        # the retry re-sets up the cut attempt's prolongators
        assert work[0] > 0 and work[1] == 0
        # the Newton log marks each attempt's first iteration, the cut one's too
        entries = report.newton_log
        assert sum(e.first for e in entries) == sum(n > 0 for n in log.newtons)
        assert entries[0].first and entries[1].first and not entries[2].first

    def test_only_the_first_build_aggregates_smooths_and_truncates(self, tmp_path,
                                                                   monkeypatch):
        # the run's CsrPattern keeps the first build's prolongators, and
        # every later attempt's build only re-sets them up on its own block
        work = count_full_build_work(monkeypatch)
        report = run_simulation(self.short_waterflood(), output_dir=str(tmp_path))
        assert report.n_steps > 1 and len(work) == report.n_steps + report.n_cuts
        assert work[0] >= 3
        assert work[1:] == [0] * (len(work) - 1)

    def test_zero_level_pressure_block_rebuilds_every_newton(self, tmp_path,
                                                             monkeypatch):
        # 6 cells: the pressure "hierarchy" is one LU, rebuilt per matrix
        log = AttemptLog(monkeypatch)
        report = run_simulation(parse_deck(TINY_RUN_DECK), output_dir=str(tmp_path))
        assert log.builds == log.newtons
        assert sum(log.builds) == report.n_newton


class TestBadTrialState:
    def test_non_finite_residual_cuts_the_step(self, tmp_path, monkeypatch, caplog):
        inject_nan_residual(monkeypatch, 3, 3)
        with caplog.at_level(logging.WARNING):
            report = run_simulation(parse_deck(TINY_RUN_DECK), report_csv="steps.csv",
                                    output_dir=str(tmp_path))
        assert report.steps[0].cuts == report.n_cuts == 1
        assert any("non-finite residual" in r.message and "cutting dt" in r.message
                   for r in caplog.records)
        assert report.steps[-1].t == pytest.approx(2.0)
        assert np.all(np.isfinite(report.final_state.p_o))
        assert os.path.exists(tmp_path / "steps.csv")
        assert os.path.exists(tmp_path / "resim_out_final.vtk")

    def test_persistent_non_finite_residual_aborts_with_outputs(self, tmp_path,
                                                                monkeypatch):
        calls = inject_nan_residual(monkeypatch, 10)
        with pytest.raises(SimulationAbort, match="non-finite residual") as exc:
            run_simulation(parse_deck(TINY_RUN_DECK), report_csv="steps.csv",
                           output_dir=str(tmp_path))
        assert calls[0] > 10
        report = exc.value.report
        assert report.n_steps >= 1
        with open(tmp_path / "steps.csv") as fh:
            assert len(fh.read().splitlines()) == report.n_steps + 1
        assert os.path.exists(tmp_path / "resim_out_final.vtk")

    def test_non_finite_jacobian_cuts_the_step(self, tmp_path, monkeypatch, caplog):
        calls = inject_nan_jacobian(monkeypatch, 1, 1)
        with caplog.at_level(logging.WARNING):
            report = run_simulation(parse_deck(TINY_RUN_DECK), report_csv="steps.csv",
                                    output_dir=str(tmp_path))
        assert calls[0] > 1
        assert report.steps[0].cuts == report.n_cuts == 1
        assert any("non-finite Jacobian entry" in r.message
                   and "cutting dt" in r.message for r in caplog.records)
        assert report.steps[-1].t == pytest.approx(2.0)
        assert np.all(np.isfinite(report.final_state.p_o))
        assert os.path.exists(tmp_path / "steps.csv")
        assert os.path.exists(tmp_path / "resim_out_final.vtk")

    def test_persistent_non_finite_jacobian_aborts_with_outputs(self, tmp_path,
                                                                monkeypatch, capsys):
        p = tmp_path / "tiny.deck"
        p.write_text(TINY_RUN_DECK)
        inject_nan_jacobian(monkeypatch, 4)
        rc = main(["run", str(p), "--report", "steps.csv", "--output-dir",
                   str(tmp_path), "-q"])
        assert rc == 2
        assert "non-finite Jacobian" in capsys.readouterr().err
        with open(tmp_path / "steps.csv") as fh:
            assert len(fh.read().splitlines()) >= 2      # header, accepted steps
        assert os.path.exists(tmp_path / "resim_out_final.vtk")

    def test_non_finite_preconditioner_cuts_the_step(self, tmp_path, monkeypatch,
                                                     caplog):
        # a singular coarse LU makes the V-cycle return +-inf: BiCGSTAB
        # breaks down in its first iteration and the step is cut once
        vcycle, calls = linear.amg_vcycle, [0]

        def infinite_once(hier, r_p, level=0):
            calls[0] += 1
            z = vcycle(hier, r_p, level)
            return np.full_like(z, np.inf) if calls[0] == 1 else z

        monkeypatch.setattr(linear, "amg_vcycle", infinite_once)
        with caplog.at_level(logging.WARNING):
            report = run_simulation(parse_deck(TINY_RUN_DECK), report_csv="steps.csv",
                                    output_dir=str(tmp_path))
        assert report.steps[0].cuts == report.n_cuts == 1
        assert any("breakdown after 0 iterations" in r.message and "cutting dt" in r.message
                   for r in caplog.records)
        assert report.steps[-1].t == pytest.approx(2.0)
        assert os.path.exists(tmp_path / "steps.csv")
        assert os.path.exists(tmp_path / "resim_out_final.vtk")

    def test_error_that_cuts_no_step_still_writes_outputs(self, tmp_path, monkeypatch):
        # a singular coarse LU is not a step failure yet; the run still
        # leaves its accepted steps and last state behind
        build, calls = linear.build_amg, [0]

        def failing_build(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 4:
                raise np.linalg.LinAlgError("singular coarse matrix")
            return build(*args, **kwargs)

        monkeypatch.setattr(linear, "build_amg", failing_build)
        with pytest.raises(np.linalg.LinAlgError):
            run_simulation(parse_deck(TINY_RUN_DECK), report_csv="steps.csv",
                           output_dir=str(tmp_path))
        with open(tmp_path / "steps.csv") as fh:
            assert len(fh.read().splitlines()) >= 2
        assert os.path.exists(tmp_path / "resim_out_final.vtk")

    def test_abort_from_bad_trial_state_exits_2(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "tiny.deck"
        p.write_text(TINY_RUN_DECK)
        inject_nan_residual(monkeypatch, 10)
        rc = main(["run", str(p), "--report", "steps.csv", "--output-dir",
                   str(tmp_path), "-q"])
        assert rc == 2
        assert "non-finite residual" in capsys.readouterr().err
        assert os.path.exists(tmp_path / "steps.csv")
        assert os.path.exists(tmp_path / "resim_out_final.vtk")


class TestStepRecord:
    def test_singular_blocks_reach_the_csv(self, tmp_path, monkeypatch):
        import csv

        # the first Jacobian's diagonal block at cell 0, a red cell, is zero:
        # quasi-IMPES falls back to the identity there, and the block ILU(0)
        # shifts that pivot
        calls = [0]
        assemble = model.ReservoirModel._assemble

        def singular(self, *args, **kwargs):
            out = assemble(self, *args, **kwargs)
            if out[2] is not None:
                calls[0] += 1
                if calls[0] == 1:
                    out[2].diag[..., 0] = 0.0
            return out

        monkeypatch.setattr(model.ReservoirModel, "_assemble", singular)
        report = run_simulation(parse_deck(TINY_RUN_DECK), report_csv="steps.csv",
                                output_dir=str(tmp_path))
        counts = [(s.decouple_fallbacks, s.pivot_shifts) for s in report.steps]
        assert counts == [(1, 1)] + [(0, 0)] * (report.n_steps - 1)
        with open(tmp_path / "steps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[-6:-4] == ["decouple_fallbacks", "pivot_shifts"]
        assert [(int(r["decouple_fallbacks"]), int(r["pivot_shifts"])) for r in rows] == counts

    def test_counts_match_the_newton_log_with_a_cut(self, tmp_path, monkeypatch):
        import csv

        # the first attempt's trial state has a non-finite residual: one
        # Newton iteration, then a cut
        inject_nan_residual(monkeypatch, 3, 3)
        attempts = AttemptLog(monkeypatch)
        report = run_simulation(parse_deck(TINY_RUN_DECK), report_csv="steps.csv",
                                output_dir=str(tmp_path))
        assert report.steps[0].cuts == report.n_cuts == 1
        assert report.steps[0].newtons == attempts.newtons[0] + attempts.newtons[1]
        assert attempts.newtons[0] == 1
        assert report.n_newton == sum(attempts.newtons)
        for rec in report.steps:
            assert rec.newtons == len(rec.newton_log)
            assert rec.linear_iters == sum(e.iterations for e in rec.newton_log)
            assert rec.ds_chops == sum(e.ds_chops for e in rec.newton_log)
            assert rec.floored_solves == sum(e.floored for e in rec.newton_log)
        assert report.newton_log == [e for rec in report.steps for e in rec.newton_log]

        with open(tmp_path / "steps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == report.n_steps
        for row, rec in zip(rows, report.steps):
            assert [int(row[k]) for k in ("step", "newtons", "linear_iters", "cuts",
                                          "corrections_tried", "corrections_kept",
                                          "ds_chops", "extrapolated_starts",
                                          "loose_first_solves", "floored_solves")] == \
                [rec.step, rec.newtons, rec.linear_iters, rec.cuts,
                 rec.corrections_tried, rec.corrections_kept, rec.ds_chops,
                 rec.extrapolated_starts, rec.loose_first_solves, rec.floored_solves]
            assert float(row["t_days"]) == pytest.approx(rec.t, rel=1e-5)
            assert float(row["dt_days"]) == pytest.approx(rec.dt, rel=1e-5)
            for c, mass in rec.mass_in_place.items():
                assert float(row[f"mass_{c}_lbm"]) == pytest.approx(mass, rel=1e-9)
            assert rec.residual_sums.keys() == rec.mass_in_place.keys()
            for c, s in rec.residual_sums.items():
                assert float(row[f"residual_{c}"]) == pytest.approx(s, rel=1e-9)

    def test_matrix_dumps_number_the_step_newtons(self, tmp_path, monkeypatch):
        # the retry after the cut does not overwrite the cut attempt's dump
        inject_nan_residual(monkeypatch, 3, 3)
        deck = parse_deck(TINY_RUN_DECK)
        deck.t_end = 0.5
        report = run_simulation(deck, dump_matrices=True, output_dir=str(tmp_path))
        assert report.n_cuts == 1
        mtx = sorted(f for f in os.listdir(tmp_path) if f.endswith("_A.mtx"))
        assert mtx == [f"step{rec.step - 1:04d}_n{i}_A.mtx"
                       for rec in report.steps for i in range(rec.newtons)]


class TestCli:
    def write_deck(self, tmp_path):
        p = tmp_path / "tiny.deck"
        p.write_text(TINY_RUN_DECK)
        return str(p)

    def test_run_success(self, tmp_path, capsys):
        rc = main(["run", self.write_deck(tmp_path), "--output-dir",
                   str(tmp_path), "-q"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# Steps" in out and "# Avg. solver" in out

    def test_report_in_a_new_subdirectory(self, tmp_path, capsys):
        # the report's directory is created with the output directory, so
        # the run writes its CSV and final VTK
        out = tmp_path / "out"
        rc = main(["run", self.write_deck(tmp_path), "--output-dir", str(out),
                   "--report", os.path.join("sub", "steps.csv"), "-q"])
        assert rc == 0
        assert sorted(os.listdir(out)) == ["resim_out_final.vtk", "sub"]
        assert os.listdir(out / "sub") == ["steps.csv"]
        assert (out / "sub" / "steps.csv").read_text().startswith("step,")

    def test_output_dir_that_is_a_file_exit_code(self, tmp_path, capsys):
        # an output path that cannot be created fails before the run, with
        # an error line rather than a traceback
        (tmp_path / "out").write_text("")
        rc = main(["run", self.write_deck(tmp_path), "--output-dir",
                   str(tmp_path / "out"), "--report", "steps.csv", "-q"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "out" in err[0]
        assert sorted(os.listdir(tmp_path)) == ["out", "tiny.deck"]

    def test_deck_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.deck"
        p.write_text("[grid]\nbogus = 1\n")
        rc = main(["run", str(p), "-q"])
        assert rc == 1
        assert "deck error" in capsys.readouterr().err

    def test_abort_exit_code(self, tmp_path, capsys):
        text = TINY_RUN_DECK.replace("newton_tol = 1e-3",
                                     "newton_tol = 1e-13\nnewton_atol = 1e-18\nnewton_max = 1")
        text = text.replace("[time]", "[time]\nmax_cuts = 2\ndt_min = 0.2")
        p = tmp_path / "abort.deck"
        p.write_text(text)
        rc = main(["run", str(p), "--output-dir", str(tmp_path), "-q"])
        assert rc == 2
        assert "aborted" in capsys.readouterr().err

    def test_bad_well_number_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.deck"
        p.write_text(TINY_RUN_DECK.replace("bhp=3000.0", "bhp=abc"))
        rc = main(["run", str(p), "--output-dir", str(tmp_path), "-q"])
        assert rc == 1
        assert "deck error: line" in capsys.readouterr().err

    def test_zero_workers_exit_code(self, tmp_path, capsys):
        rc = main(["run", self.write_deck(tmp_path), "--workers", "0",
                   "--output-dir", str(tmp_path), "-q"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --workers must be >= 1, got 0"]
        assert os.listdir(tmp_path) == ["tiny.deck"]      # nothing was run

    def test_negative_vtk_every_exit_code(self, tmp_path, capsys):
        rc = main(["run", self.write_deck(tmp_path), "--vtk-every", "-2",
                   "--output-dir", str(tmp_path), "-q"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --vtk-every must be >= 0, got -2"]
        assert os.listdir(tmp_path) == ["tiny.deck"]      # nothing was run

    @pytest.mark.parametrize("args", [["--workers", "abc"], ["--no-such-option"]])
    def test_usage_error_exit_code(self, tmp_path, capsys, args):
        rc = main(["run", self.write_deck(tmp_path), *args])
        assert rc == 1
        assert "usage: resim" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["tiny.deck"]      # nothing was run

    def test_non_finite_deck_number_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.deck"
        p.write_text(TINY_RUN_DECK.replace("p_init = 3000.0", "p_init = nan"))
        rc = main(["run", str(p), "--output-dir", str(tmp_path), "-q"])
        assert rc == 1
        assert "p_init must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("section, line", REJECTED_VALUES)
    def test_rejected_value_exit_code(self, tmp_path, capsys, section, line):
        p = tmp_path / "bad.deck"
        text = deck_with(section, line)
        p.write_text(text)
        rc = main(["run", str(p), "--output-dir", str(tmp_path), "-q"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("deck error: line ")
        assert os.listdir(tmp_path) == ["bad.deck"]      # nothing was run
        key = line.split(" = ")[0]
        if key in DELETED_KEYS:
            lineno = text.splitlines().index(line) + 1
            assert f"line {lineno}: unknown key {key!r} in [solver]" in err

    @pytest.mark.parametrize("text, line, error", UNMEETABLE_WELLS)
    def test_unmeetable_well_exit_code(self, tmp_path, capsys, text, line, error):
        p = tmp_path / "bad.deck"
        p.write_text(text)
        rc = main(["run", str(p), "--output-dir", str(tmp_path), "-q"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("deck error: line ")
        assert os.listdir(tmp_path) == ["bad.deck"]      # nothing was run

    def test_nonpositive_bg_table_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.deck"
        p.write_text(TINY_RUN_DECK + "\n[table:bg]\n14.7 1.0\n5000.0 0.0\n")
        rc = main(["run", str(p), "--output-dir", str(tmp_path), "-q"])
        assert rc == 1
        assert "B_g table must be positive" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad.deck"]      # nothing was run

    def test_non_finite_inputs_exit_code(self, tmp_path, capsys):
        # a bad deck is a deck error, not a run that cuts its steps and aborts
        (tmp_path / "perm.dat").write_text("1.0 " * 17 + "inf")
        (tmp_path / "poro.dat").write_text("0.2 " * 6)
        field = TINY_RUN_DECK.replace("kx = 100.0\nporo = 0.2",
                                      "perm = file:perm.dat\nporo = file:poro.dat")
        table = TINY_RUN_DECK + "\n[table:bo]\n0.0 1.0\nnan 1.1\n"
        for name, text, err in (("field", field, "non-finite token 'inf'"),
                                ("table", table, "non-finite table row")):
            p = tmp_path / f"{name}.deck"
            p.write_text(text)
            out = tmp_path / name
            rc = main(["run", str(p), "--output-dir", str(out), "-q"])
            assert rc == 1
            assert err in capsys.readouterr().err
            assert not out.exists()      # nothing was run

    def test_workers_flag(self, tmp_path, capsys):
        rc = main(["run", self.write_deck(tmp_path), "--workers", "2",
                   "--output-dir", str(tmp_path), "-q"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("2")


class TestInitialState:
    def test_hydrostatic_adjustment(self):
        deck = load_deck(deck_path("spe10_subset.deck"))
        st = initial_state(deck)
        assert st.p_o.min() >= deck.p_init  # cells sit below the datum
        assert np.ptp(st.p_o) < 2.0  # single thin layer: tiny spread
        np.testing.assert_allclose(st.s_w, 0.2)

    def test_black_oil_initially_undersaturated(self):
        deck = load_deck(deck_path("spe1_mini.deck"))
        st = initial_state(deck)
        assert st.sat is not None
        assert not st.sat.any()
        np.testing.assert_allclose(st.x3, 4014.7)
        # BHP producers get their target, rate wells the local pressure
        assert st.p_h[0] == pytest.approx(np.mean(st.p_o[[0]]), abs=200.0)


    @pytest.mark.parametrize("fluid", ["model = black_oil",
                                       "model = two_phase\npvt_defaults = spe1"])
    def test_datum_density_is_the_models(self, fluid):
        # the hydrostatic gradient takes the oil density that the model
        # assigns to the initial state at the datum
        deck = parse_deck(TINY_RUN_DECK.replace("model = two_phase", fluid)
                          .replace("nz = 1", "nz = 3"))
        st = initial_state(deck)
        # without p_b_init, black oil starts undersaturated at p_b = 0
        x3, sat = (None, None) if st.x3 is None else (np.zeros(1), np.zeros(1, bool))
        rho = resim.evaluate_properties(np.array([deck.p_init]), st.s_w[:1], x3, sat,
                                        deck.fluid, derivs=False).rho_o.v[0]
        depth = deck.grid.cell_depth - deck.grid.depth_top
        np.testing.assert_allclose(st.p_o, deck.p_init + rho * units.GRAVITY * depth,
                                   rtol=1e-13)


class TestScheduleAlignment:
    def test_steps_land_on_switch_times(self, tmp_path):
        # a switch at t = 1.3 days must take effect exactly there, so some
        # accepted step has to end at 1.3 even though dt would stride past it
        text = TINY_RUN_DECK + "\n[schedule]\nat = 1.3 P bhp 2900.0\n"
        deck = parse_deck(text)
        report = run_simulation(deck, output_dir=str(tmp_path))
        times = [round(s.t, 9) for s in report.steps]
        assert 1.3 in times
