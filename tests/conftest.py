import os

import numpy as np
import pytest

import resim
from resim.model import ReservoirModel, ReservoirState

DECKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "decks")


def deck_path(name: str) -> str:
    return os.path.join(DECKS, name)


@pytest.fixture
def corey():
    return resim.CoreyTwoPhase(s_wc=0.2, s_or=0.2)


@pytest.fixture
def small_grid():
    return resim.Grid(3, 4, 5, 10.0, 10.0, 2.0, depth_top=5000.0)


def two_phase_fluid(mu_w=0.3, mu_o=3.0, c=0.0, capillary=False):
    pcow = resim.Table1D([0.1, 0.5, 0.9], [8.0, 3.0, 0.5]) if capillary \
        else resim.Table1D.constant(0.0)
    pvt = resim.PvtModel(mu_w=mu_w, mu_o_table=resim.Table1D.constant(mu_o),
                         c_w=c, c_o=c, c_r=c, rho_w_ref=62.4, rho_o_ref=53.0,
                         pcow_table=pcow)
    return resim.FluidSystem("two_phase", resim.ThreePhaseRelPerm(
        resim.CoreyTwoPhase(0.2, 0.2)), pvt)


def black_oil_fluid(**overrides):
    return resim.FluidSystem("black_oil", resim.ThreePhaseRelPerm(
        resim.CoreyTwoPhase(0.12, 0.2)), resim.PvtModel.spe1_like(**overrides))


def random_two_phase_model(rng, shape=(3, 3, 3), capillary=True):
    g = resim.Grid(*shape, 20.0, 10.0, 2.0, depth_top=8000.0)
    kx = 10 ** rng.uniform(0, 3, g.ncell)
    rock = resim.RockFields(kx, kx * rng.uniform(0.5, 2, g.ncell), 0.3 * kx,
                            rng.uniform(0.1, 0.3, g.ncell)).clamped()
    pvt = resim.PvtModel(
        c_w=3e-6, c_o=1e-5, c_r=4e-6, mu_w=0.3,
        mu_o_table=resim.Table1D([1000.0, 8000.0], [3.0, 2.5]),
        pcow_table=resim.Table1D([0.1, 0.5, 0.9], [8.0, 3.0, 0.5])
        if capillary else resim.Table1D.constant(0.0))
    fluid = resim.FluidSystem("two_phase", resim.ThreePhaseRelPerm(
        resim.CoreyTwoPhase(0.2, 0.2)), pvt)
    return ReservoirModel(g, rock, fluid)


def random_two_phase_state(rng, model, nwell=0):
    n = model.grid.ncell
    return ReservoirState(
        p_o=6000.0 + 300.0 * rng.standard_normal(n),
        s_w=rng.uniform(0.25, 0.75, n),
        p_h=6000.0 + 500.0 * rng.standard_normal(nwell))


def random_black_oil_model(rng, shape=(3, 3, 3)):
    g = resim.Grid(*shape, 20.0, 10.0, 2.0, depth_top=8000.0)
    kx = 10 ** rng.uniform(0, 2.5, g.ncell)
    rock = resim.RockFields(kx, kx, 0.3 * kx, rng.uniform(0.1, 0.3, g.ncell)).clamped()
    fluid = black_oil_fluid(
        pcog_table=resim.Table1D([0.0, 0.5], [0.0, 2.0]),
        pcow_table=resim.Table1D([0.1, 0.9], [6.0, 0.5]))
    return ReservoirModel(g, rock, fluid)


def random_black_oil_state(rng, model, nwell=0):
    n = model.grid.ncell
    sat = rng.random(n) < 0.5
    p = rng.uniform(3000.0, 4500.0, n)
    x3 = np.where(sat, rng.uniform(0.05, 0.3, n), p - rng.uniform(200.0, 1500.0, n))
    return ReservoirState(p_o=p, s_w=rng.uniform(0.25, 0.6, n), x3=x3, sat=sat,
                          p_h=4000.0 + 500.0 * rng.standard_normal(nwell))
