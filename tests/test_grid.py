import io
import os
import warnings

import numpy as np
import pytest

import resim
from resim.grid import (FieldFormatError, face_transmissibilities,
                        neighbor_mask, PORO_FLOOR, PERM_FLOOR_MD, _parse_tokens)
from conftest import deck_path


def test_cell_index_origin():
    g = resim.Grid(5, 5, 5, 1.0, 1.0, 1.0)
    assert resim.cell_index(0, 0, 0, g) == 0


def test_cell_index_i_fastest():
    g = resim.Grid(60, 220, 85, 20.0, 10.0, 2.0)
    assert resim.cell_index(1, 0, 0, g) == 1


def test_cell_index_last_cell_closed_form():
    # closed form i + nx*(j + ny*k), cross-checked below by exhaustive
    # enumeration on a small grid
    g = resim.Grid(60, 220, 85, 20.0, 10.0, 2.0)
    assert resim.cell_index(59, 219, 84, g) == 1_121_999


def test_index_bijection_exhaustive(small_grid):
    g = small_grid
    ids = [resim.cell_index(i, j, k, g)
           for k in range(g.nz) for j in range(g.ny) for i in range(g.nx)]
    assert len(ids) == g.ncell
    assert set(ids) == set(range(g.ncell))


def test_cell_index_out_of_range(small_grid):
    with pytest.raises(IndexError):
        resim.cell_index(3, 0, 0, small_grid)
    with pytest.raises(IndexError):
        resim.cell_index(0, -1, 0, small_grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        resim.Grid(0, 1, 1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        resim.Grid(1, 1, 1, -1.0, 1.0, 1.0)


def test_transmissibility_homogeneous():
    # K*A/dd with K = 100 md, A = 100 ft^2, dd = 10 ft
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    rock = resim.RockFields.uniform(g, 100.0, 0.2)
    assert face_transmissibilities(g, rock, 0)[0] == pytest.approx(1000.0)


def test_transmissibility_harmonic():
    # Ta = 1000, Tb = 3000 -> 2/(1/Ta + 1/Tb) = 1500
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    rock = resim.RockFields(np.array([100.0, 300.0]), np.array([100.0, 300.0]),
                            np.array([100.0, 300.0]), np.array([0.2, 0.2]))
    assert face_transmissibilities(g, rock, 0)[0] == pytest.approx(1500.0)


def test_transmissibility_symmetric():
    # swapping the two cells of each x face leaves every face factor alone
    g = resim.Grid(2, 2, 1, 10.0, 5.0, 4.0)
    rng = np.random.default_rng(1)
    k = 10 ** rng.uniform(0, 3, 4)
    rock = resim.RockFields(k, k, k, np.full(4, 0.2))
    ks = k[[1, 0, 3, 2]]
    swapped = resim.RockFields(ks, ks, ks, np.full(4, 0.2))
    t = face_transmissibilities(g, rock, 0)
    assert t[0] > 0.0 and t[2] > 0.0
    np.testing.assert_array_equal(face_transmissibilities(g, swapped, 0), t)


def test_transmissibility_floor_dominated():
    # one clamped-permeability cell drives the harmonic mean toward zero
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    rock = resim.RockFields(np.array([0.0, 100.0]), np.array([0.0, 100.0]),
                            np.array([0.0, 100.0]), np.array([0.2, 0.2])).clamped()
    t = face_transmissibilities(g, rock, 0)[0]
    assert 0.0 < t < 2.0 * PERM_FLOOR_MD * 10.0


def test_homogeneous_interior_faces_identical(small_grid):
    rock = resim.RockFields.uniform(small_grid, 50.0, 0.2)
    for ax in range(3):
        t = face_transmissibilities(small_grid, rock, ax)
        mask = neighbor_mask(small_grid.shape(), ax, upper=True)
        vals = t[mask]
        assert np.all(vals == vals[0])
        assert np.all(t[~mask] == 0.0)
        # cell c has an upper neighbor exactly when c + stride has a lower one
        s = small_grid.stride(ax)
        lower = neighbor_mask(small_grid.shape(), ax, upper=False)
        np.testing.assert_array_equal(lower[s:], mask[:-s])
        assert not lower[:s].any()


def test_load_spe10_uniform_synthetic():
    g = resim.Grid(2, 3, 4, 10.0, 10.0, 10.0)
    n = g.ncell
    perm = " ".join(["1.0"] * (3 * n))
    poro = " ".join(["1.0"] * n)
    rock = resim.load_spe10_fields(io.BytesIO(perm.encode()),
                                   io.BytesIO(poro.encode()), g)
    assert np.all(rock.kx == 1.0) and np.all(rock.ky == 1.0) and np.all(rock.kz == 1.0)
    assert np.all(rock.poro == 1.0)


def test_load_spe10_count_mismatch():
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    with pytest.raises(FieldFormatError, match="6"):
        resim.load_spe10_fields("1 2 3 4 5", "0.2 0.2", g)
    with pytest.raises(FieldFormatError, match="2"):
        resim.load_spe10_fields("1 2 3 4 5 6", "0.2 0.2 0.3", g)


def test_load_spe10_bad_token_position():
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    with pytest.raises(FieldFormatError, match="position 3"):
        resim.load_spe10_fields("1 2 3 oops 5 6", "0.2 0.2", g)


def test_load_spe10_trailing_junk():
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    with pytest.raises(FieldFormatError,
                       match="permeability: non-numeric token 'oops' at position 6"):
        resim.load_spe10_fields("1 2 3 4 5 6 oops", "0.2 0.2", g)


def test_load_spe10_bad_token_when_fromstring_only_warns(monkeypatch):
    # older numpy releases warn, stop at unmatched text and return what they read
    def fromstring(data, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    monkeypatch.setattr(np, "fromstring", fromstring)
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    with pytest.raises(FieldFormatError,
                       match="permeability: non-numeric token 'oops' at position 6"):
        resim.load_spe10_fields("1 2 3 4 5 6 oops", "0.2 0.2", g)
    with pytest.raises(FieldFormatError, match="non-numeric token 'oops' at position 3"):
        resim.load_spe10_fields("1 2 3 oops 5 6", "0.2 0.2", g)


@pytest.mark.parametrize("perm, poro, match", [
    ("1 2 3 nan 5 6", "0.2 0.2", "permeability: non-finite token 'nan' at position 3"),
    ("1 2 3 4 5 -inf", "0.2 0.2", "permeability: non-finite token '-inf' at position 5"),
    ("1 2 3 4 5 6", "0.2 inf", "porosity: non-finite token 'inf' at position 1")])
def test_load_spe10_rejects_non_finite(perm, poro, match):
    # the floors would keep a nan and turn -inf into a valid cell
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    with pytest.raises(FieldFormatError, match=match):
        resim.load_spe10_fields(perm, poro, g)


@pytest.mark.parametrize("text", [
    "1 2.5 -3e-2\n4E+3\t.5 +6.",
    "  0.1\r\n0.2  \n\n 1e-400 1e308 ",
    "1_000 2",                      # only the per-token path reads this one
    "", " \n\t"])                 # no values
def test_field_values_match_the_per_token_parse(text):
    ref = np.array(text.split(), dtype=float)
    got = _parse_tokens(text, "x")
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["spe10_subset_perm.dat", "spe10_subset_poro.dat"])
def test_shipped_field_values_match_the_per_token_parse(name):
    with open(deck_path(name), "rb") as fh:
        data = fh.read()
    ref = np.array(data.split(), dtype=float)
    assert _parse_tokens(io.BytesIO(data), name).tobytes() == ref.tobytes()


def test_load_spe10_blank_file_has_no_values():
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    with pytest.raises(FieldFormatError, match="porosity: expected 2 values, got 0"):
        resim.load_spe10_fields("1 2 3 4 5 6", " \n", g)


def test_load_spe10_clamps_nonpositive():
    g = resim.Grid(2, 1, 1, 10.0, 10.0, 10.0)
    rock = resim.load_spe10_fields("0 1 -2 1 3 1", "0.0 0.4", g)
    assert rock.kx[0] == PERM_FLOOR_MD
    assert rock.ky[0] == PERM_FLOOR_MD
    assert rock.poro[0] == PORO_FLOOR
    assert rock.poro[1] == 0.4


def test_rockfields_rejects_poro_above_one():
    with pytest.raises(ValueError):
        resim.RockFields(np.ones(2), np.ones(2), np.ones(2), np.array([0.2, 1.2]))


@pytest.mark.skipif("RESIM_SPE10_DATA" not in os.environ,
                    reason="set RESIM_SPE10_DATA to a directory with the full "
                           "SPE10 ASCII files to run")
def test_load_full_spe10_ranges():
    base = os.environ["RESIM_SPE10_DATA"]
    g = resim.Grid(60, 220, 85, 20.0, 10.0, 2.0)
    with open(os.path.join(base, "spe10_perm.dat"), "rb") as pf, \
            open(os.path.join(base, "spe10_poro.dat"), "rb") as qf:
        rock = resim.load_spe10_fields(pf, qf, g)
    # SPE10 range: 6.65e-7 to 20 Darcy; porosity 0 to 0.5
    assert rock.kx.min() == pytest.approx(6.65e-4, rel=0.1)
    assert rock.kx.max() == pytest.approx(2.0e4, rel=0.1)
    assert rock.poro.max() <= 0.5
    assert rock.poro.min() >= PORO_FLOOR
